"""Every package imports cleanly as the *first* import of a fresh
interpreter.  ``repro.storage`` used to die in a cycle unless
``repro.framework`` had been imported before it (``storage.store`` ->
``framework.faults`` -> ``framework/__init__`` -> ``shard`` ->
``storage``); ``repro.framework`` now resolves its re-exports lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("package", ["repro.storage", "repro.framework",
                                     "repro.observability", "repro.cli",
                                     "repro.workloads"])
def test_package_imports_first(package):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import {package} as package\n"
         f"for name in getattr(package, '__all__', ()):\n"
         f"    getattr(package, name)\n"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
