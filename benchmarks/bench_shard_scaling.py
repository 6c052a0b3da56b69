"""Sharded serving gateway: multi-shard throughput scaling + chaos.

Two headline results for the sharded serving tier
(:mod:`repro.framework.gateway` + :mod:`repro.framework.shard`):

(a) *Scaling*: a fixed zipf tenant trace (see
    :mod:`repro.workloads.traffic`) served by 1/4/8-shard loopback
    clusters vs. a single :class:`QueryBatchEngine` baseline.  Every
    fleet serves a ``shard_split`` cut of one authenticated pack, one
    cut per shard count, and its gateway verifies every verdict, as the
    CLI's does.  Answers must be byte-identical (``wire.answer_bytes``)
    at every shard count.
    The gate is on *critical-path* throughput -- baseline serve time over
    ``max(per-shard busy seconds)`` -- because the bench host is a
    single-core container: the shards' work is perfectly concurrent on
    real hardware but time-sliced here, so wall-clock cannot show the
    scaling (the same convention as PR 1's replay-speedup metric).
    Honest wall-clock makespans are reported alongside.  Gates:
    >= 2.5x at 4 shards, >= 4x at 8.

(b) *Chaos*: the 4-shard cluster re-run with a seeded mid-batch SIGKILL
    of one shard.  Zero lost queries, answers still byte-identical, and
    the re-placement pass (survivors evaluating exactly the dead shard's
    orphaned balls) is visible as ``re_dispatches``.

Scale: DBLP at 6x the registry default with a single radius ring -- the
numbers are about relative scaling, not absolute paper figures (DBLP's
near-uniform ball sizes keep the critical path a placement question
rather than a single-giant-ball question; see BENCH_SCALE below).
``--seed`` threads through the traffic generator and the chaos victim
draw, so two runs with equal seeds replay the identical trace and kill
schedule.
"""

import argparse
import tempfile
import time
from pathlib import Path

from _common import SCALE, bench_config, emit, format_row, write_bench_json

from repro.crypto.keys import DataOwnerKey
from repro.framework import wire
from repro.framework.gateway import Gateway, GatewayChaos
from repro.framework.placement import PlacementManifest
from repro.framework.prilo import Prilo
from repro.framework.server import QueryBatchEngine
from repro.framework.shard import LocalCluster, make_shard_specs
from repro.framework.verify import AnswerVerifier
from repro.graph.query import Semantics
from repro.storage import ArtifactStore, shard_split
from repro.workloads.datasets import load_dataset
from repro.workloads.traffic import TrafficSpec, generate_traffic

SHARD_COUNTS = (1, 4, 8)
# DBLP, not slashdot: the critical path is the *busiest* shard, and the
# slashdot stand-in plants degree-40 hubs whose radius-3 balls cover a
# large slice of the graph -- one such ball pins the critical path no
# matter how many members the ring has.  DBLP is sparse and local
# (Table 4: avg ball 25), so per-ball work is near-uniform and placement
# balance is what the benchmark actually measures.  6x the registry
# default: enough candidate balls per query that the divisible per-ball
# term dominates the per-query cost every shard replicates (CMM builds,
# enumeration), and enough of them per shard that the ring's ball-count
# balance carries over to work balance.
BENCH_SCALE = 6.0 * SCALE
QUERY_COUNT = 12
TENANTS = 4
QUERY_SIZE = 8
QUERY_DIAMETER = 3
CHAOS_SHARDS = 4
MIN_SPEEDUP = {4: 2.5, 8: 4.0}


def _setup(seed: int):
    ds = load_dataset("dblp", scale=BENCH_SCALE)
    graph = ds.graph_for(Semantics.HOM)
    # Single radius ring, matching the store/bench convention: ball ids
    # are a function of (vertex order, radii), and every shard's ring
    # partitions that one id space.
    config = bench_config(radii=(QUERY_DIAMETER,))
    spec = TrafficSpec(count=QUERY_COUNT, tenants=TENANTS,
                       size=QUERY_SIZE, diameter=QUERY_DIAMETER,
                       semantics=Semantics.HOM, seed=seed)
    queries, ranks = generate_traffic(ds, spec)
    return graph, config, queries, ranks


def _baseline(graph, config, queries):
    """Single-engine batch serving: the thing sharding must not change.

    Measured in CPU seconds (``process_time``) to match the shards'
    busy accounting -- both sides then exclude scheduler wait, so the
    speedup compares compute against compute.
    """
    engine = QueryBatchEngine(Prilo.setup(graph, config))
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    report = engine.serve(queries)
    cpu_seconds = time.process_time() - cpu_started
    wall_seconds = time.perf_counter() - wall_started
    answers = [wire.answer_bytes(wire.canonical_answer_of_result(r))
               for r in report.results]
    return cpu_seconds, wall_seconds, answers


def _pack(workdir, graph, config) -> Path:
    """The owner's authenticated pack of ``graph``, built once per study;
    every fleet serves a shard-split cut of it."""
    root = Path(workdir) / "pack"
    ArtifactStore.create(root, graph, config.radii,
                         DataOwnerKey.generate(config.seed)).close()
    return root


def _serve(pack: Path, graph, config, shards: int, queries, chaos=None):
    """Serve ``queries`` through a verifying gateway over a
    ``shards``-way cut of ``pack``; returns ``(report, wall_seconds)``,
    the wall clock spanning fleet start to shutdown."""
    cut = pack.parent / f"shards-{shards}"
    shard_split(pack, cut, shards)
    specs = make_shard_specs(graph, config, shards, engine="prilo",
                             store_root=str(cut))
    verifier = AnswerVerifier.from_placement(
        PlacementManifest.read(cut), seed=config.seed,
        config=Prilo.effective_config(config))
    started = time.perf_counter()
    with LocalCluster(specs) as cluster:
        report = Gateway(cluster.handles, verifier=verifier,
                         chaos=chaos).run(queries)
    return report, time.perf_counter() - started


def _check_identical(expected, report):
    assert report.completed == len(expected), (
        f"gateway lost queries: {report.completed}/{len(expected)}")
    for i, blob in enumerate(expected):
        answer = report.answers[i]
        assert answer is not None, f"query {i}: no merged answer"
        assert wire.answer_bytes(answer) == blob, (
            f"query {i}: sharded answer diverges from baseline")


def scaling_study(seed: int = 0, shard_counts=SHARD_COUNTS) -> dict:
    graph, config, queries, ranks = _setup(seed)
    baseline_cpu, baseline_wall, expected = _baseline(graph, config, queries)

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        pack = _pack(workdir, graph, config)
        runs = [(shards, *_serve(pack, graph, config, shards, queries))
                for shards in shard_counts]
    for shards, report, wall_seconds in runs:
        _check_identical(expected, report)
        critical = report.critical_path_seconds
        rows.append({
            "shards": shards,
            "baseline_cpu_seconds": baseline_cpu,
            "baseline_wall_seconds": baseline_wall,
            "wall_seconds": wall_seconds,
            "makespan_seconds": report.makespan,
            "busy_seconds": report.busy_seconds,
            "critical_path_seconds": critical,
            "critical_path_speedup": baseline_cpu / critical
            if critical > 0 else 1.0,
            "per_shard_busy_seconds": {str(s): b for s, b
                                       in sorted(report.per_shard_busy.items())},
            "caches": {name: stats.as_dict() for name, stats
                       in sorted(report.metrics.cache_totals().items())},
            "identical_answers": True,
        })
    return {
        "dataset": "dblp", "scale": BENCH_SCALE, "semantics": "hom",
        "seed": seed,
        "traffic": {"count": QUERY_COUNT, "tenants": TENANTS,
                    "size": QUERY_SIZE, "diameter": QUERY_DIAMETER,
                    "ranks": ranks},
        "rows": rows,
    }


def chaos_study(seed: int = 0) -> dict:
    """Kill one shard mid-batch; nothing may be lost or wrong."""
    graph, config, queries, _ = _setup(seed)
    _, _, expected = _baseline(graph, config, queries)

    with tempfile.TemporaryDirectory() as workdir:
        report, _ = _serve(_pack(workdir, graph, config), graph, config,
                           CHAOS_SHARDS, queries,
                           chaos=GatewayChaos(seed=seed,
                                              kill_after_verdicts=2))
    _check_identical(expected, report)
    assert report.deaths, "chaos did not kill a shard"
    return {
        "shards": CHAOS_SHARDS,
        "killed": report.deaths,
        "survivors": list(report.final_members),
        "re_dispatches": report.re_dispatches,
        "completed": report.completed,
        "lost": len(queries) - report.completed,
        "identical_answers": True,
    }


def _gate(rows) -> None:
    for row in rows:
        floor = MIN_SPEEDUP.get(row["shards"])
        if floor is not None:
            assert row["critical_path_speedup"] >= floor, (
                f"{row['shards']}-shard critical-path speedup "
                f"{row['critical_path_speedup']:.2f}x < {floor}x")


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_shard_scaling(benchmark):
    study = benchmark.pedantic(scaling_study, rounds=1, iterations=1)
    assert all(row["identical_answers"] for row in study["rows"])
    _gate(study["rows"])


def test_shard_death_loses_nothing(benchmark):
    chaos = benchmark.pedantic(chaos_study, rounds=1, iterations=1)
    assert chaos["lost"] == 0
    assert chaos["re_dispatches"] > 0


# ----------------------------------------------------------------------
# Script mode (--json writes benchmarks/out/BENCH_shard.json)
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Sharded-gateway scaling benchmark.")
    parser.add_argument(
        "--json", action="store_true",
        help="also write benchmarks/out/BENCH_shard.json")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="traffic + chaos seed (same seed => identical trace)")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    study = scaling_study(seed=args.seed)
    chaos = chaos_study(seed=args.seed)

    widths = (8, 14, 10, 14, 14, 10)
    lines = [format_row(("shards", "baseline-cpu(s)", "wall(s)",
                         "busy-total(s)", "critical(s)", "speedup"),
                        widths)]
    for row in study["rows"]:
        lines.append(format_row(
            (row["shards"], f"{row['baseline_cpu_seconds']:.3f}",
             f"{row['wall_seconds']:.3f}", f"{row['busy_seconds']:.3f}",
             f"{row['critical_path_seconds']:.3f}",
             f"{row['critical_path_speedup']:.2f}x"), widths))
    lines.append("")
    lines.append(f"chaos: shard {chaos['killed']} killed mid-batch, "
                 f"{chaos['re_dispatches']} re-placement tasks, "
                 f"{chaos['completed']} completed, {chaos['lost']} lost")
    emit("shard_scaling", lines)

    _gate(study["rows"])
    assert chaos["lost"] == 0, "chaos run lost queries"

    if args.json:
        write_bench_json("shard", {**study, "chaos": chaos})


if __name__ == "__main__":
    main()
