"""Self-tests of the benchmark ledger.

Run with ``pytest benchmarks/ledger/tests`` from the repository root; not
part of the tier-1 suite (``pyproject.toml`` points pytest at ``tests/``).
"""

import functools
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[3]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


@functools.lru_cache(maxsize=None)
def _smoke_result(workload: str, seed: int, trace: bool, repeat: int):
    from benchmarks.ledger.harness import measure
    from benchmarks.ledger.workloads import WORKLOADS

    return measure(WORKLOADS[workload](seed=seed, smoke=True), seconds=0.0,
                   trace=trace)


@pytest.fixture(scope="session")
def smoke_result():
    """``smoke_result(workload, seed, trace, repeat=0)``: one smoke run,
    memoized for the session; ``repeat`` asks for an independent rerun."""
    def run(workload: str, seed: int = 0, trace: bool = False,
            repeat: int = 0):
        return _smoke_result(workload, seed, trace, repeat)
    return run
