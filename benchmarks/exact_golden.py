"""The exactness golden: what a change must not move, as one file.

For every ledger workload at seeds 0 and 1 this runs the ledger's own
measuring loop (``benchmarks/ledger``, imported read-only) at smoke size,
once untraced and once traced, and records the run's ``answers_digest``,
``inputs_digest`` and every metric the ledger flags exact
(``metrics.EXACT_NAMES``: op counts, byte counts, hit rates, wire and
stored bytes).  Those repeat bit for bit for a fixed seed, so any
difference is a change in what the system computes, not noise.

From the repository root::

    python benchmarks/exact_golden.py            # (re)write the golden
    python benchmarks/exact_golden.py --check    # diff; exit 1 on change

``--check`` prints every changed key.  A change that moves an exact count
on purpose re-records the golden in the same commit and says why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "exact_golden.json"
SEEDS = (0, 1)

if __package__ in (None, ""):
    sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

from benchmarks.ledger.harness import measure  # noqa: E402
from benchmarks.ledger.metrics import EXACT_NAMES  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402


def _run(name: str, seed: int, trace: bool) -> dict:
    return measure(WORKLOADS[name](seed=seed, smoke=True), seconds=0.0,
                   trace=trace)


def record(name: str, seed: int) -> dict:
    """One workload at one seed: digests and exact metrics, by name."""
    plain, traced = _run(name, seed, False), _run(name, seed, True)
    if not (plain["correct"] and traced["correct"]):
        raise SystemExit(f"{name} seed {seed}: a wrong answer")
    if plain["answers_digest"] != traced["answers_digest"]:
        raise SystemExit(f"{name} seed {seed}: tracing changed the answers")
    metrics = {**plain["end_to_end"], **traced["per_layer"]}
    return {"answers_digest": plain["answers_digest"],
            "inputs_digest": plain["inputs_digest"],
            **{metric: metrics[metric] for metric in sorted(EXACT_NAMES)}}


def collect() -> dict:
    return {f"{name}/seed{seed}": record(name, seed)
            for name in WORKLOADS for seed in SEEDS}


def diff(golden: dict, current: dict) -> list[str]:
    """One line per key whose value differs (or exists on one side only)."""
    lines = []
    for run in sorted(golden.keys() | current.keys()):
        old, new = golden.get(run, {}), current.get(run, {})
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                lines.append(f"{run} {key}: {old.get(key)!r} -> "
                             f"{new.get(key)!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {GOLDEN.name} instead of "
                             f"writing it")
    args = parser.parse_args(argv)
    current = collect()
    if not args.check:
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(REPO_ROOT)}: {len(current)} runs")
        return 0
    changed = diff(json.loads(GOLDEN.read_text("utf-8")), current)
    for line in changed:
        print(line)
    print(f"exact golden: {len(changed)} key(s) changed over "
          f"{len(current)} runs")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
