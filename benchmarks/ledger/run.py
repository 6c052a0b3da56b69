"""Command line of the benchmark ledger.

From the repository root::

    python3 benchmarks/ledger/run.py --workload solo-eval-hom --seed 0 \\
        --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.ledger.run [--workload W] [--seed S]
        [--trace] [--smoke]

With ``--workload`` one workload runs in this process; without it every
workload runs in a child process of its own (so each gets its own
``ru_maxrss``).  Every metric is printed by name with its unit, the result
envelope (``repro-ledger/1``) is written under ``benchmarks/ledger/out/``,
and the last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any answer was wrong.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

if __package__ in (None, ""):
    # Script mode (``python3 benchmarks/ledger/run.py``): make the package
    # and the program importable without PYTHONPATH.
    sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

from benchmarks.ledger.metrics import UNIT_OF  # noqa: E402

SCHEMA = "repro-ledger/1"
OUT_DIR = HERE / "out"
#: ``run_seconds`` of BENCHMARK.json, the default measuring budget.
DEFAULT_SECONDS = 15.0
WORKLOAD_NAMES = ("solo-eval-hom", "solo-pruned-ssim", "batch-zipf-store",
                  "gateway-2shard", "store-write")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the benchmark ledger (see README.md beside this "
                    "file).")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process "
                             "(default: all five, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the workload's pinned operations")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring budget of one run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: alternate untraced/traced passes and "
                             "report the per-layer metrics instead of the "
                             "end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one pass: same code paths and "
                             "correctness gate, numbers not comparable")
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def envelope(result: dict) -> dict:
    return {
        "schema": SCHEMA,
        "git_commit": _git_commit(),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "gmpy2": importlib.util.find_spec("gmpy2") is not None},
        "comparable": not result["smoke"],
        **result,
    }


def final_line(result: dict) -> dict:
    values = result["per_layer" if result["traced"] else "end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNIT_OF[name]}
                    for name, value in values.items()},
    }


def _print_metrics(result: dict, line: dict) -> None:
    tag = "" if not result["smoke"] else "  [smoke: not comparable]"
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={int(result['traced'])}{tag}")
    if not result["traced"]:
        summary = result["summary"]
        print(f"   samples={summary['samples']} "
              f"tail=p{summary['tail_percentile']} "
              f"timed_passes={summary['timed_passes']} "
              f"noisy_pass_repeated={result['noisy_pass_repeated']}")
    for name, entry in line["metrics"].items():
        print(f"   {name:<40} {entry['value']:>16.6f} {entry['unit']}")
    print(f"   attempted={line['attempted']} failed={line['failed']} "
          f"correct={line['correct']} "
          f"exact_repeat_ok={result['exact_repeat_ok']}")


def run_one(args: argparse.Namespace) -> int:
    # Imported here so ``--help`` and the all-workloads parent stay light.
    from benchmarks.ledger.harness import measure
    from benchmarks.ledger.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](seed=args.seed, smoke=args.smoke)
    result = measure(workload, seconds=args.seconds, trace=bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    kind = "smoke" if args.smoke else "full"
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}-{kind}.json")
    path.write_text(json.dumps(envelope(result), indent=1, sort_keys=True)
                    + "\n", encoding="utf-8")
    line = final_line(result)
    _print_metrics(result, line)
    print(f"   envelope: {path.relative_to(REPO_ROOT)}")
    print(json.dumps(line, sort_keys=True))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """One child process per workload; the last line maps workload name to
    that workload's final line."""
    combined = {}
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=REPO_ROOT)
        sys.stderr.write(done.stderr)
        *report, last = done.stdout.rstrip("\n").split("\n")
        print("\n".join(report))
        worst = max(worst, done.returncode)
        try:
            combined[name] = json.loads(last)
        except json.JSONDecodeError:
            print(last)
            worst = max(worst, 1)
    print(json.dumps(combined, sort_keys=True))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
