"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's tables or figures and
(a) exercises the relevant code path under pytest-benchmark, and
(b) prints + persists the reproduced rows/series under ``benchmarks/out/``
    so the paper-vs-measured comparison in EXPERIMENTS.md can be refreshed.

Scale: the datasets are the synthetic stand-ins of
:mod:`repro.workloads.datasets` (about 1/20 of the SNAP graphs); CGBE runs
with the paper's 32-bit q/r over a 2048-bit modulus (the 32-bit q keeps
the q-divisibility test's false-violation probability at ~2^-32 -- with a
smaller test-size q the thousands of aggregates a full sweep decrypts
would occasionally misfire).  Set ``REPRO_BENCH_SCALE`` /
``REPRO_BENCH_QUERIES`` to trade fidelity for time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
from pathlib import Path

from repro.core.bf_pruning import BFConfig
from repro.framework.prilo import PriloConfig
from repro.workloads.datasets import Dataset, load_dataset

OUT_DIR = Path(__file__).parent / "out"

#: Dataset scale relative to the (already scaled) registry defaults.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: Queries per workload (the paper uses 10).
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "3"))

SNAP_DATASETS = ("slashdot", "dblp", "twitter")


def bench_config(**overrides) -> PriloConfig:
    """The benchmark engine configuration (see module docstring)."""
    defaults = dict(
        k_players=4,
        modulus_bits=2048,
        q_bits=32,
        r_bits=32,
        radii=(1, 2, 3, 4),
        seed=17,
        bf=BFConfig(eta=64, expected_trees=2_000,
                    false_positive_rate=0.3, threshold_t=15),
    )
    defaults.update(overrides)
    return PriloConfig(**defaults)


@functools.lru_cache(maxsize=None)
def dataset(name: str) -> Dataset:
    return load_dataset(name, scale=SCALE)


def emit(name: str, lines: list[str]) -> None:
    """Print a reproduced table/series and persist it for EXPERIMENTS.md."""
    OUT_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}")
    (OUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def format_row(values, widths) -> str:
    return "  ".join(str(v).ljust(w) for v, w in zip(values, widths))


def parse_cli(argv=None) -> argparse.Namespace:
    """CLI for benchmarks run as scripts (``python bench_*.py [--json]``)."""
    parser = argparse.ArgumentParser(
        description="Reproduce one benchmark outside pytest-benchmark.")
    parser.add_argument(
        "--json", action="store_true",
        help="also write the machine-readable numbers to "
             "benchmarks/out/BENCH_<name>.json")
    return parser.parse_args(argv)


#: Version tag of the shared ``--json`` payload envelope.  Every
#: machine-readable benchmark file carries it plus the run's scale knobs,
#: so CI gates and regression diffs parse one shape across all scripts.
BENCH_SCHEMA = "repro-bench/1"


def ops_summary(*results) -> dict:
    """The uniform crypto-op block for benchmark payloads.

    Merges the :class:`~repro.crypto.ops.OpCounter` of every given
    engine result; ``by_phase_role`` keeps the full attribution,
    the top-level totals are what regression gates compare.
    """
    from repro.crypto.ops import OpCounter

    merged = OpCounter()
    for result in results:
        merged.merge(getattr(result.metrics, "ops", None))
    totals = merged.totals()
    return {"modmul": totals.modmul, "modexp": totals.modexp,
            "table_build": totals.table_build,
            "by_phase_role": merged.as_dict()}


def write_bench_json(name: str, payload: dict) -> Path:
    """Persist one benchmark's numbers as ``benchmarks/out/BENCH_<name>.json``
    under the shared :data:`BENCH_SCHEMA` envelope."""
    OUT_DIR.mkdir(exist_ok=True)
    envelope = {"schema": BENCH_SCHEMA, "benchmark": name,
                "env_scale": SCALE, "env_num_queries": NUM_QUERIES}
    envelope.update(payload)
    path = OUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return path
