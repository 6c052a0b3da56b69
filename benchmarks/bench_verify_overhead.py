"""Verified serving overhead: result certificates vs trusted shards.

Headline numbers for the verifiable-answers tier
(:mod:`repro.storage.authenticate` + :mod:`repro.framework.verify`):

(a) *Overhead*: the same zipf tenant trace served by a 2-shard gateway
    twice -- shards trusted (PR 7 behavior, ``verify_serving=False``, no
    merge-time verifier) vs untrusted (per-verdict certificates checked
    against the pack's committed Merkle root before any slice touches
    the merge).  Gates: byte-identical answers between the two runs, and
    verification adds <= 10% to the compute cost (shard busy seconds
    plus gateway verify seconds -- wall-clock on a shared runner
    measures the scheduler, same convention as the shard-scaling bench).
    Reported alongside: Merkle multiproof bytes per query and the
    per-certificate verify latency.

(b) *Detection*: the verified run repeated with one shard rogue
    (``forge_result``/``drop_ball``/``replay_stale`` at rate 1.0).  The
    gate is absolute: zero forged answers surfaced, the rogue member
    evicted, and the re-scattered answers byte-identical to the trusted
    baseline.

Scale: slashdot at 0.2x the registry default with a single radius ring
(the store-build convention of ``bench_batch_serving``); the numbers are
about relative overhead, not absolute paper figures.
"""

import argparse
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from _common import SCALE, bench_config, emit, format_row, write_bench_json

from repro.crypto.keys import DataOwnerKey
from repro.framework import wire
from repro.framework.faults import MALICIOUS_KINDS, ChaosPolicy
from repro.framework.gateway import Gateway
from repro.framework.placement import PlacementManifest
from repro.framework.prilo import Prilo
from repro.framework.shard import LocalCluster, make_shard_specs
from repro.framework.verify import AnswerVerifier
from repro.graph.query import Semantics
from repro.storage import ArtifactStore, shard_split
from repro.workloads.datasets import load_dataset
from repro.workloads.traffic import TrafficSpec, generate_traffic

BENCH_SCALE = 0.2 * SCALE
SHARDS = 2
QUERY_COUNT = 12
TENANTS = 4
QUERY_SIZE = 8
QUERY_DIAMETER = 3
MAX_OVERHEAD = 0.10


def _setup(seed: int):
    ds = load_dataset("slashdot", scale=BENCH_SCALE)
    graph = ds.graph_for(Semantics.HOM)
    config = bench_config(radii=(QUERY_DIAMETER,))
    spec = TrafficSpec(count=QUERY_COUNT, tenants=TENANTS,
                       size=QUERY_SIZE, diameter=QUERY_DIAMETER,
                       semantics=Semantics.HOM, seed=seed)
    queries, _ = generate_traffic(ds, spec)
    return graph, config, queries


def _serve(graph, config, queries, shards_dir, *, verified: bool,
           rogue=False):
    """One gateway run; returns ``(report, wall_seconds, answer_bytes)``."""
    cfg = replace(config, verify_serving=verified)
    verifier = None
    if verified:
        verifier = AnswerVerifier.from_placement(
            PlacementManifest.read(shards_dir), seed=cfg.seed,
            config=Prilo.effective_config(cfg))
    specs = make_shard_specs(
        graph, cfg, SHARDS, engine="prilo", store_root=str(shards_dir),
        rogue_shards=(1,) if rogue else (),
        rogue_policy=ChaosPolicy(seed=5, fault_rate=1.0,
                                 kinds=MALICIOUS_KINDS) if rogue
        else None)
    started = time.perf_counter()
    with LocalCluster(specs) as cluster:
        report = Gateway(cluster.handles, verifier=verifier).run(queries)
    wall = time.perf_counter() - started
    blobs = [wire.answer_bytes(a) if a is not None else None
             for a in report.answers]
    return report, wall, blobs


def overhead_study(seed: int = 0) -> dict:
    graph, config, queries = _setup(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ArtifactStore.create(root / "src", graph, config.radii,
                             DataOwnerKey.generate(config.seed))
        shard_split(root / "src", root / "shards", SHARDS)
        shards_dir = root / "shards"

        trusted, trusted_wall, expected = _serve(
            graph, config, queries, shards_dir, verified=False)
        verified, verified_wall, got = _serve(
            graph, config, queries, shards_dir, verified=True)
        rogue, _, rogue_got = _serve(
            graph, config, queries, shards_dir, verified=True,
            rogue=True)

    assert expected == got, "verified answers diverge from trusted run"
    assert all(blob is not None for blob in expected), \
        "trusted baseline lost a query"

    # Compute-cost overhead: certification happens on the shards (busy
    # seconds) and proof checking at the gateway (verify seconds).
    trusted_cost = trusted.busy_seconds
    verified_cost = verified.busy_seconds + verified.verify_seconds
    overhead = verified_cost / trusted_cost - 1.0 if trusted_cost else 0.0

    assert rogue.forged == 0, "a forged answer was surfaced"
    assert rogue.forgeries_detected > 0, "the rogue shard went uncaught"
    assert rogue.evictions == [1], f"bad eviction set {rogue.evictions}"
    assert rogue_got == expected, \
        "post-eviction answers diverge from the trusted baseline"

    return {
        "dataset": "slashdot", "scale": BENCH_SCALE, "semantics": "hom",
        "seed": seed, "shards": SHARDS,
        "traffic": {"count": QUERY_COUNT, "tenants": TENANTS,
                    "size": QUERY_SIZE, "diameter": QUERY_DIAMETER},
        "trusted": {"wall_seconds": trusted_wall,
                    "busy_seconds": trusted.busy_seconds,
                    "critical_path_seconds":
                        trusted.critical_path_seconds},
        "verified": {"wall_seconds": verified_wall,
                     "busy_seconds": verified.busy_seconds,
                     "critical_path_seconds":
                         verified.critical_path_seconds,
                     "proofs_checked": verified.proofs_checked,
                     "proof_bytes": verified.proof_bytes,
                     "proof_bytes_per_query":
                         verified.proof_bytes / len(queries),
                     "verify_seconds": verified.verify_seconds,
                     "verify_seconds_per_proof":
                         verified.verify_seconds
                         / max(1, verified.proofs_checked)},
        "overhead_fraction": overhead,
        "answers_identical": True,
        "rogue": {"forgeries_detected": rogue.forgeries_detected,
                  "evicted": rogue.evictions,
                  "forged_answers_surfaced": rogue.forged,
                  "answers_identical": True},
    }


def _gate(study: dict) -> None:
    overhead = study["overhead_fraction"]
    assert overhead <= MAX_OVERHEAD, (
        f"verification overhead {overhead:.1%} > {MAX_OVERHEAD:.0%}")


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_verify_overhead(benchmark):
    study = benchmark.pedantic(overhead_study, rounds=1, iterations=1)
    assert study["answers_identical"]
    assert study["rogue"]["forged_answers_surfaced"] == 0
    _gate(study)


# ----------------------------------------------------------------------
# Script mode (--json writes benchmarks/out/BENCH_verify.json)
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Verified-serving overhead benchmark.")
    parser.add_argument(
        "--json", action="store_true",
        help="also write benchmarks/out/BENCH_verify.json")
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic seed")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    study = overhead_study(seed=args.seed)

    widths = (10, 12, 12, 14, 12)
    v = study["verified"]
    lines = [format_row(("mode", "wall(s)", "busy(s)", "verify(s)",
                         "overhead"), widths),
             format_row(("trusted",
                         f"{study['trusted']['wall_seconds']:.3f}",
                         f"{study['trusted']['busy_seconds']:.3f}",
                         "-", "-"), widths),
             format_row(("verified", f"{v['wall_seconds']:.3f}",
                         f"{v['busy_seconds']:.3f}",
                         f"{v['verify_seconds']:.4f}",
                         f"{study['overhead_fraction']:.1%}"), widths),
             "",
             f"proof size: {v['proof_bytes_per_query']:.0f} bytes/query "
             f"({v['proofs_checked']} certificates, "
             f"{v['verify_seconds_per_proof'] * 1e3:.3f}ms each)",
             f"rogue shard: {study['rogue']['forgeries_detected']} "
             f"forgeries detected, evicted {study['rogue']['evicted']}, "
             f"{study['rogue']['forged_answers_surfaced']} forged "
             f"answers surfaced, answers byte-identical"]
    emit("verify_overhead", lines)

    _gate(study)

    if args.json:
        write_bench_json("verify", study)


if __name__ == "__main__":
    main()
