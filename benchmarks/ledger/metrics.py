"""Metric declarations and the small statistics the ledger reports.

``END_TO_END`` and ``PER_LAYER`` are the single source of names, units and
directions: ``BENCHMARK.json`` repeats them (a self-test pins the two to
each other) and the runner prints exactly these names.  ``moves`` records,
before anything is measured, which end-to-end metric a layer metric is
expected to move and on which workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    #: Must repeat bit-for-bit for a fixed ``--seed``.
    exact: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "workload start to ready-for-first-operation: dataset load, "
             "engine setup / store open+check / keygen; median of the "
             "run's repeated set-ups; fixtures and oracle excluded"),
    EndToEnd("work_per_s", "1/s", "higher", 0.25,
             "work units per normalised second over the timed passes: "
             "queries/s; balls/s inside ArtifactStore.create on store-write"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "median operation latency"),
    EndToEnd("op_tail_ms", "ms", "lower", 0.25,
             "tail latency at the workload's fixed percentile: p90 where "
             "every run has >=100 samples, p75 where >=40, otherwise the "
             "median again (too few samples for a tail)"),
    EndToEnd("ok_frac", "fraction", "higher", 0.01,
             "operations that completed OK and agreed with the oracle, over "
             "operations attempted (1 - failed_frac)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the process plus its largest child"),
    EndToEnd("wire_bytes_per_query", "bytes", "lower", 0.01,
             "MessageSizes.user_to_sp()+sp_to_user() per query, plus "
             "certificate proof bytes on gateway-2shard (exact)"),
    EndToEnd("stored_bytes_per_ball", "bytes", "lower", 0.01,
             "bytes at rest per ball: on-disk pack+artifact+manifest bytes "
             "on store-backed workloads, serialized plaintext+ciphertext of "
             "the retrieved balls on the in-memory ones (exact)"),
)

_SOLO = "solo-eval-hom, solo-pruned-ssim"

PER_LAYER: tuple[Layer, ...] = (
    # graph.ball
    Layer("graph.ball.candidates_s", "s", "lower", "graph.ball",
          f"op_p50_ms on {_SOLO}; setup_s everywhere"),
    Layer("graph.ball.candidates_per_query", "count", "lower", "graph.ball",
          f"op_p50_ms on {_SOLO}", exact=True),
    # framework.roles (user)
    Layer("roles.user.prepare_s", "s", "lower", "framework.roles",
          "op_p50_ms on solo-pruned-ssim"),
    Layer("roles.user.decrypt_pms_s", "s", "lower", "framework.roles",
          "op_p50_ms on solo-pruned-ssim"),
    Layer("roles.user.decrypt_results_s", "s", "lower", "framework.roles",
          "op_p50_ms on solo-eval-hom, batch-zipf-store"),
    Layer("roles.user.match_s", "s", "lower", "framework.roles",
          "op_p50_ms on solo-eval-hom, batch-zipf-store"),
    Layer("semantics.match_s", "s", "lower", "semantics",
          "op_p50_ms on solo-eval-hom, batch-zipf-store (child of match)"),
    # framework.executor
    Layer("executor.pm_s", "s", "lower", "framework.executor",
          "op_p50_ms on solo-pruned-ssim"),
    Layer("executor.eval_s", "s", "lower", "framework.executor",
          "work_per_s on solo-eval-hom, batch-zipf-store"),
    Layer("executor.shares_per_query", "count", "lower",
          "framework.executor", "work_per_s on both solo", exact=True),
    # core.enumeration / core.verification
    Layer("core.enumeration.cmms_per_query", "count", "lower",
          "core.enumeration", "op_p50_ms, op_tail_ms on solo-eval-hom",
          exact=True),
    Layer("core.verification.verify_s", "s", "lower", "core.verification",
          "op_p50_ms, op_tail_ms on solo-eval-hom"),
    Layer("core.verification.bypassed_per_query", "count", "lower",
          "core.verification", "op_tail_ms on solo-eval-hom", exact=True),
    # core.table_pruning / core.bf_pruning / tee
    Layer("core.table_pruning.prune_s", "s", "lower", "core.table_pruning",
          "op_p50_ms on solo-pruned-ssim; nothing elsewhere"),
    Layer("core.bf_pruning.prune_s", "s", "lower", "core.bf_pruning",
          "op_p50_ms on solo-pruned-ssim; nothing elsewhere"),
    Layer("tee.enclave.ecalls_per_query", "count", "lower", "tee",
          "op_p50_ms on solo-pruned-ssim", exact=True),
    Layer("tee.enclave.bytes_in_per_query", "bytes", "lower", "tee",
          "wire_bytes_per_query on solo-pruned-ssim", exact=True),
    Layer("core.pruning.pruning_power", "fraction", "higher",
          "core.table_pruning", "op_p50_ms on solo-pruned-ssim "
          "(1 - positives/candidates)", exact=True),
    # core.retrieval
    Layer("core.retrieval.sequence_s", "s", "lower", "core.retrieval",
          "op_p50_ms on solo-pruned-ssim"),
    Layer("core.retrieval.all_positives_frac", "fraction", "lower",
          "core.retrieval", "derived (schedule replay): all-positives time "
          "over makespan; explains, never replaces, op_p50_ms"),
    # crypto
    Layer("crypto.modmul_per_query", "count", "lower", "crypto",
          f"work_per_s on {_SOLO}, batch-zipf-store", exact=True),
    Layer("crypto.modexp_per_query", "count", "lower", "crypto",
          f"work_per_s on {_SOLO}, batch-zipf-store", exact=True),
    Layer("crypto.table_build_per_query", "count", "lower", "crypto",
          f"work_per_s on {_SOLO}, batch-zipf-store", exact=True),
    Layer("crypto.modmul_per_query.eval", "count", "lower", "crypto",
          "work_per_s on solo-eval-hom, batch-zipf-store", exact=True),
    Layer("crypto.modmul_per_query.pm", "count", "lower", "crypto",
          "work_per_s on solo-pruned-ssim", exact=True),
    Layer("crypto.modmul_per_query.user", "count", "lower", "crypto",
          "op_p50_ms on both solo", exact=True),
    Layer("crypto.modexp_per_query.eval", "count", "lower", "crypto",
          "work_per_s on solo-eval-hom, batch-zipf-store", exact=True),
    Layer("crypto.modexp_per_query.pm", "count", "lower", "crypto",
          "work_per_s on solo-pruned-ssim", exact=True),
    Layer("crypto.modexp_per_query.user", "count", "lower", "crypto",
          "op_p50_ms on both solo", exact=True),
    Layer("crypto.table_build_per_query.eval", "count", "lower", "crypto",
          "work_per_s on solo-eval-hom, batch-zipf-store", exact=True),
    Layer("crypto.table_build_per_query.pm", "count", "lower", "crypto",
          "work_per_s on solo-pruned-ssim", exact=True),
    Layer("crypto.table_build_per_query.user", "count", "lower", "crypto",
          "op_p50_ms on both solo", exact=True),
    Layer("crypto.cache.pad_hit_rate", "fraction", "higher", "crypto",
          "work_per_s on solo-eval-hom", exact=True),
    Layer("crypto.cache.decrypt_hit_rate", "fraction", "higher", "crypto",
          "op_p50_ms on both solo", exact=True),
    # framework.server
    Layer("server.serve_s", "s", "lower", "framework.server",
          "work_per_s on batch-zipf-store"),
    Layer("server.cmm_hit_rate", "fraction", "higher", "framework.server",
          "work_per_s on batch-zipf-store, gateway-2shard", exact=True),
    Layer("server.cmm_evictions", "count", "lower", "framework.server",
          "work_per_s on batch-zipf-store, gateway-2shard", exact=True),
    Layer("server.signature_groups", "count", "lower", "framework.server",
          "work_per_s on batch-zipf-store, gateway-2shard", exact=True),
    # storage.store (read)
    Layer("store.open_s", "s", "lower", "storage.store",
          "setup_s on batch-zipf-store"),
    Layer("store.load_ball_s", "s", "lower", "storage.store",
          "op_p50_ms on batch-zipf-store"),
    Layer("store.load_ball_calls", "count", "lower", "storage.store",
          "op_p50_ms on batch-zipf-store", exact=True),
    Layer("store.load_encrypted_s", "s", "lower", "storage.store",
          "op_p50_ms on batch-zipf-store"),
    # storage.store (write)
    Layer("store.create_s", "s", "lower", "storage.store",
          "work_per_s on store-write"),
    Layer("store.create.tree_artifact_s", "s", "lower", "storage.store",
          "work_per_s on store-write"),
    Layer("store.create.twiglet_s", "s", "lower", "storage.store",
          "work_per_s on store-write"),
    Layer("store.create.ball_extract_s", "s", "lower", "storage.store",
          "work_per_s on store-write"),
    Layer("store.create.encrypt_s", "s", "lower", "storage.store",
          "work_per_s on store-write"),
    Layer("store.apply_delta_s", "s", "lower", "storage.store",
          "op_p50_ms on store-write"),
    Layer("store.apply_delta.dirty_balls", "count", "lower", "storage.store",
          "op_p50_ms on store-write", exact=True),
    Layer("store.apply_delta.reencrypted", "count", "lower", "storage.store",
          "op_p50_ms on store-write", exact=True),
    Layer("store.verify_s", "s", "lower", "storage.store",
          "nothing end-to-end (integrity sweep; store-write only)"),
    Layer("store.shard_split_s", "s", "lower", "storage.store",
          "nothing end-to-end (fixture cost of gateway-2shard)"),
    # storage.authenticate / graph.delta
    Layer("authenticate.build_auth_s", "s", "lower", "storage.authenticate",
          "op_p50_ms on store-write"),
    Layer("authenticate.prove_s", "s", "lower", "storage.authenticate",
          "op_p50_ms on gateway-2shard (replayed gateway-side over the "
          "same candidate sets)"),
    Layer("delta.dirty_keys_s", "s", "lower", "graph.delta",
          "op_p50_ms on store-write"),
    # storage.journal
    Layer("journal.records", "count", "lower", "storage.journal",
          "work_per_s on gateway-2shard", exact=True),
    Layer("journal.bytes", "bytes", "lower", "storage.journal",
          "work_per_s on gateway-2shard"),
    # framework.wire / framework.verify
    Layer("wire.encode_s", "s", "lower", "framework.wire",
          "op_p50_ms on gateway-2shard"),
    Layer("wire.decode_s", "s", "lower", "framework.wire",
          "op_p50_ms on gateway-2shard"),
    Layer("wire.frames", "count", "lower", "framework.wire",
          "op_p50_ms on gateway-2shard", exact=True),
    Layer("wire.bytes", "bytes", "lower", "framework.wire",
          "wire_bytes_per_query on gateway-2shard"),
    Layer("verify.verify_s", "s", "lower", "framework.verify",
          "op_p50_ms on gateway-2shard"),
    Layer("verify.proofs_checked", "count", "lower", "framework.verify",
          "op_p50_ms on gateway-2shard", exact=True),
    Layer("verify.proof_bytes_per_query", "bytes", "lower",
          "framework.verify", "wire_bytes_per_query on gateway-2shard",
          exact=True),
    # framework.shard / framework.gateway / framework.placement
    Layer("shard.spawn_s", "s", "lower", "framework.shard",
          "op_p50_ms on gateway-2shard only"),
    Layer("shard.shutdown_s", "s", "lower", "framework.shard",
          "op_p50_ms on gateway-2shard only"),
    Layer("shard.busy_s", "s", "lower", "framework.shard",
          "work_per_s on gateway-2shard only (CPU seconds, summed)"),
    Layer("shard.critical_path_s", "s", "lower", "framework.shard",
          "derived (CPU seconds of the busiest shard); explains op_p50_ms "
          "on gateway-2shard"),
    Layer("gateway.run_s", "s", "lower", "framework.gateway",
          "op_p50_ms on gateway-2shard only"),
    Layer("gateway.fanout_overhead_s", "s", "lower", "framework.gateway",
          "op_p50_ms on gateway-2shard only (operation wall - busiest "
          "shard CPU)"),
    Layer("gateway.work_amplification", "ratio", "lower",
          "framework.gateway", "work_per_s on gateway-2shard only (summed "
          "shard CPU / single-engine CPU, same slice)"),
    Layer("placement.ball_imbalance", "ratio", "lower",
          "framework.placement", "op_p50_ms on gateway-2shard only "
          "(max/mean balls per shard)", exact=True),
    # the interpreter under all of them
    Layer("runtime.gc_s", "s", "lower", "cpython",
          "op_tail_ms everywhere: cyclic collections that interrupt an "
          "operation (the warm heap is frozen, see README.md)"),
    # harness
    Layer("harness.trace_overhead_frac", "fraction", "lower", "harness",
          "-"),
    Layer("harness.layer_coverage_frac", "fraction", "higher", "harness",
          "-"),
    Layer("harness.probe_ms", "ms", "lower", "harness", "-"),
    Layer("harness.fixture_build_s", "s", "lower", "harness", "-"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNIT_OF = {m.name: m.unit for m in END_TO_END + PER_LAYER}
EXACT_NAMES = frozenset(m.name for m in PER_LAYER if m.exact) | {
    "wire_bytes_per_query", "stored_bytes_per_ball", "ok_frac"}


#: Samples each reportable tail percentile needs: at least ten must lie
#: beyond it, and below p75 there is no tail to speak of, so the median
#: stands in.
TAIL_SAMPLES = {50: 0, 75: 40, 90: 100}


def tail_percentile(samples: int) -> int:
    """The highest percentile the sample count supports."""
    return max(pct for pct, needed in TAIL_SAMPLES.items()
               if samples >= needed)


#: Half-width, in percentile points, of the window :func:`percentile`
#: averages over.
PERCENTILE_WINDOW = 5


def percentile(values: list[float], pct: int) -> float:
    """Windowed percentile of a non-empty sample: the mean of the order
    statistics from the nearest rank of ``pct - 5`` to that of ``pct + 5``.

    A workload's operations have a few dozen discrete cost levels, and a
    single order statistic flips between two neighbouring levels from run
    to run -- up to 10 % on these workloads with host speed unchanged.
    Averaging the 10-point window around the rank removed half of the
    run-to-run spread of the median and of the tail (README.md).
    """
    ordered = sorted(values)
    count = len(ordered)

    def rank(point: int) -> int:
        return min(count, max(1, -(-count * point // 100)))

    window = ordered[rank(pct - PERCENTILE_WINDOW) - 1:
                     rank(pct + PERCENTILE_WINDOW)]
    return sum(window) / len(window)


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles`` needs two points)."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}
