"""The harness entry point in a fresh interpreter.

``from repro.storage import ArtifactStore`` as a process's first repro
import dies in a circular import (storage.archive -> framework ->
framework.shard -> storage); the harness imports ``repro.framework``
first.  The fix belongs in ``src/`` (a follow-up, see README.md).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[3]

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(REPO_ROOT / "src"), str(REPO_ROOT)])}


def _python(*args, env=ENV, cwd=REPO_ROOT):
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_storage_first_import_is_still_circular():
    done = _python("-c", "from repro.storage import ArtifactStore")
    assert done.returncode != 0 and "circular import" in done.stderr, (
        "the import cycle is gone: drop the repro.framework-first "
        "workaround and this test")


def test_harness_modules_import_cleanly_in_a_fresh_interpreter():
    done = _python("-c", "import benchmarks.ledger.workloads, "
                         "benchmarks.ledger.run")
    assert done.returncode == 0, done.stderr


def test_script_mode_needs_no_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = _python("benchmarks/ledger/run.py", "--workload", "store-write",
                   "--seed", "3", "--smoke", env=env)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert line["correct"] is True and line["failed"] == 0


def test_module_mode_from_the_repository_root():
    done = _python("-m", "benchmarks.ledger.run", "--help")
    assert done.returncode == 0 and "--workload" in done.stdout


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO_ROOT / "benchmarks" / "ledger",
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns(".fixtures", ".scratch", "out",
                                      "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = _python("benchmarks/ledger/run.py", "--workload", "solo-eval-hom",
                   "--seed", "0", "--seconds", "1", "--trace", "0",
                   env=env, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
