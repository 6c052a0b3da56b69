"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``stats <dataset>``             -- Table 3-style statistics.
* ``run <dataset>``               -- run one random query end to end and
                                     report matches, pruning, and timings.
* ``serve-batch <dataset>``       -- serve a query batch through the
                                     CMM-reuse batch engine.
* ``store build|inspect|verify``  -- the persistent offline artifact store.
* ``store shard-split``           -- cut a store into consistent-hash shard
                                     packs plus a placement manifest.
* ``store make-delta``            -- synthesize a seeded update stream into
                                     an authenticated delta log.
* ``store apply-delta``           -- replay a delta log into a store with
                                     incremental dirty-ball maintenance
                                     (exit 2 stale, 3 tampered).
* ``gateway <dataset>``           -- serve zipf many-tenant traffic through
                                     a local N-shard scatter-gather cluster
                                     (``--kill-shard``/``--kill-seed`` for
                                     chaos recovery runs, ``--rogue-shard``
                                     for the malicious-SP tier caught by
                                     the merge-time answer verifier).
* ``journal inspect <path>``      -- summarize a write-ahead run journal.
* ``trace summarize <path>``      -- per-role/per-phase latency histograms
                                     of a ``--trace`` JSONL file.
* ``trace audit <path>``          -- re-run the leakage audit offline.
* ``workloads``                   -- the ten LDBC BI workloads (Fig. 18).
* ``prune <dataset>``             -- pruning-technique ablation (Fig. 2a).

All commands accept ``--scale`` (dataset size multiplier) and ``--seed``.
A store is tied to (dataset, scale, semantics, radii, seed): build and
consume it with the same global flags.  ``run`` and ``serve-batch``
accept ``--trace [FILE]`` (role-scoped span trace as JSON lines) and
``--leakage-audit`` (diff the trace against the allowed-observation
model); ``serve-batch`` additionally takes ``--metrics-out FILE`` for a
Prometheus text snapshot, ``--standing N`` (register the first N
distinct queries as standing queries) and ``--apply-delta LOG`` (replay
an update log through the live engine after the batch, re-notifying
standing queries).

Exit codes are scriptable triage (documented in ``docs/operations.md``):
0 success, 1 usage/unexpected error, 2 stale artifacts, 3 integrity
failure (tampered/missing artifacts, journal mismatch, a retrieved ball
served wrong twice), 4 deadline-exceeded queries, 5 leakage-audit
failure, 6 forged result (the ``gateway`` answer verifier caught a shard
lying and could not re-cover the slice from honest members).  One table
decides them: :data:`EXIT_TABLE` maps each exception a command may raise
to its code and printed prefix, :data:`STATUS_EXIT` maps each per-query
:class:`QueryStatus` to its code, and :func:`exit_code` is the one
lookup.  :func:`main` owns the tracer, so the trace export and the
leakage audit run once per command on every path.  When one invocation
hits several conditions, :func:`combine_exit` picks the most severe
under the lattice ``0 < 2 < 4 < 5 < 6 < 3 < 1`` (integrity trumps every
verdict; only a usage error ranks above it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.crypto import montgomery
from repro.crypto.keys import DataOwnerKey
from repro.framework.faults import MALICIOUS_KINDS, VALID_KINDS, ChaosPolicy
from repro.framework.gateway import Gateway, GatewayChaos, GatewayError
from repro.framework.placement import PlacementError, PlacementManifest
from repro.framework.prilo import DeadlineExceeded, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.framework.roles import BallIntegrityError
from repro.framework.server import QueryBatchEngine, QueryStatus
from repro.framework.shard import (
    ENGINE_CLASSES,
    LocalCluster,
    ShardError,
    make_shard_specs,
)
from repro.framework.verify import AnswerVerifier, VerificationError
from repro.graph.query import Semantics
from repro.storage import (
    ArtifactStore,
    DeltaError,
    DeltaLog,
    JournalError,
    RunJournal,
    StaleDeltaError,
    StoreError,
    StoreStale,
    StoreUsageError,
    delta_key,
    graph_digest,
    journal_key,
    walk_delta_chain,
)
from repro.workloads.datasets import DATASET_SPECS, load_dataset
from repro.workloads.experiments import (
    dataset_statistics,
    ldbc_study,
    pruning_study,
)
from repro.workloads.traffic import TrafficSpec, generate_traffic

#: Usage error or an exception no :data:`EXIT_TABLE` row names.
EXIT_USAGE = 1
#: Stale (rebuildable) artifacts.
EXIT_STALE = 2
#: Integrity failure: tampered/missing artifacts or a journal mismatch.
EXIT_INTEGRITY = 3
#: Distinct exit code for deadline-exceeded queries (see module docstring).
EXIT_DEADLINE = 4
#: The leakage audit found a restricted-scope span carrying
#: query-dependent data.
EXIT_LEAKAGE = 5
#: A shard returned a forged/incomplete/replayed verdict and no honest
#: member was left to re-cover the slice: the affected answers were
#: withheld, not surfaced.
EXIT_FORGED = 6

#: The one exit-code precedence lattice every command composes through:
#: success < stale < deadline < leakage < forged < integrity < usage.
#: Rationale (docs/operations.md): staleness is rebuildable, a deadline
#: is a per-query overload symptom, leakage is a policy violation that
#: still produced correct answers, a forged result was *caught and
#: withheld* (every answer actually surfaced is still certified), and an
#: integrity failure means nothing the command printed can be trusted --
#: so tampered wins over stale, and integrity wins over everything.
_EXIT_SEVERITY = {0: 0, EXIT_STALE: 1, EXIT_DEADLINE: 2,
                  EXIT_LEAKAGE: 3, EXIT_FORGED: 4, EXIT_INTEGRITY: 5,
                  EXIT_USAGE: 6}


def combine_exit(*codes: int) -> int:
    """The most severe of ``codes`` under the documented lattice.

    Unknown codes rank above everything known: a new failure mode must
    never be masked by an old, milder one."""
    return max(codes, default=0,
               key=lambda code: _EXIT_SEVERITY.get(code, len(_EXIT_SEVERITY)))


@dataclass(frozen=True)
class ExitRow:
    """A command that raised ``exc`` (and satisfies ``when``) prints
    ``PREFIX: message`` and exits ``code``."""

    exc: type[Exception]
    code: int
    prefix: str
    when: Callable[[Exception], bool] = lambda exc: True


#: Every exception a command may end on, first matching row wins (a
#: subclass's row precedes its base's).  Stale is rebuildable (2); an
#: artifact, journal, ball or merge the command cannot vouch for is an
#: integrity failure (3).
EXIT_TABLE = (
    ExitRow(StoreUsageError, EXIT_USAGE, "FAILED"),
    ExitRow(StoreStale, EXIT_STALE, "STALE"),
    ExitRow(StaleDeltaError, EXIT_STALE, "STALE"),
    ExitRow(ShardError, EXIT_STALE, "STALE", when=lambda exc: exc.stale),
    ExitRow(ShardError, EXIT_INTEGRITY, "FAILED"),
    ExitRow(StoreError, EXIT_INTEGRITY, "FAILED"),
    ExitRow(DeltaError, EXIT_INTEGRITY, "FAILED"),
    ExitRow(BallIntegrityError, EXIT_INTEGRITY, "FAILED"),
    ExitRow(PlacementError, EXIT_INTEGRITY, "FAILED"),
    # A bad catalog commitment is at-rest tampering, not a serving-time
    # forgery: nothing can be verified against it.
    ExitRow(VerificationError, EXIT_INTEGRITY, "FAILED"),
    ExitRow(JournalError, EXIT_INTEGRITY, "JOURNAL ERROR"),
    # Divergent slice answers or an unservable fleet: nothing the merge
    # produced can be trusted.
    ExitRow(GatewayError, EXIT_INTEGRITY, "GATEWAY ERROR"),
    ExitRow(DeadlineExceeded, EXIT_DEADLINE, "DEADLINE EXCEEDED"),
)

#: The exit code of each per-query verdict of ``run``, ``serve-batch``
#: and ``gateway``.  Shed or drained under an operator-set admission
#: flag is policy, not failure.  A forgery that was re-covered is ``OK``:
#: every surfaced answer verified.
STATUS_EXIT = {
    QueryStatus.OK: 0,
    QueryStatus.REJECTED_OVERLOAD: 0,
    QueryStatus.REJECTED_BALL_BUDGET: 0,
    QueryStatus.DRAINED: 0,
    QueryStatus.DEADLINE_EXCEEDED: EXIT_DEADLINE,
    QueryStatus.FORGED: EXIT_FORGED,
}


def exit_code(outcome: Exception | str) -> int:
    """The exit code of a :class:`QueryStatus` value, or of an exception
    a command raised (printed under its row's prefix first).  An
    exception no row names is re-raised."""
    if isinstance(outcome, str):
        return STATUS_EXIT[outcome]
    for row in EXIT_TABLE:
        if isinstance(outcome, row.exc) and row.when(outcome):
            print(f"{row.prefix}: {outcome}")
            return row.code
    raise outcome


def _statuses_exit(report) -> int:
    return combine_exit(*(exit_code(o.status) for o in report.outcomes))


def _chaos(args: argparse.Namespace) -> ChaosPolicy | None:
    """Build a :class:`ChaosPolicy` from ``--chaos-seed``/``--fault-rate``.

    Chaos mode is opt-in: with neither flag (and no ``REPRO_CHAOS_SEED``
    in the environment) the config carries no policy and the engine takes
    the zero-overhead fast paths.  ``--chaos-kinds`` selects the fault
    vocabulary -- this is how the opt-in ``kill_process`` kind (a real
    SIGKILL at a durable checkpoint) is enabled from the command line.
    """
    seed = getattr(args, "chaos_seed", None)
    if seed is None and os.environ.get("REPRO_CHAOS_SEED"):
        seed = int(os.environ["REPRO_CHAOS_SEED"])
    rate = getattr(args, "fault_rate", None)
    kinds = getattr(args, "chaos_kinds", None)
    if seed is None and not rate:
        return None
    policy = ChaosPolicy(seed=seed if seed is not None else 0,
                         fault_rate=rate if rate is not None else 0.1)
    if kinds:
        chosen = tuple(k.strip() for k in kinds.split(",") if k.strip())
        bad = [k for k in chosen if k not in VALID_KINDS]
        if bad:
            raise SystemExit(f"unknown chaos kind(s) {bad}; "
                             f"valid: {', '.join(VALID_KINDS)}")
        policy = replace(policy, kinds=chosen)
    return policy


def _rogue(args: argparse.Namespace):
    """Build the malicious-shard tier from ``--rogue-shard`` flags.

    Returns ``(rogue_shards, rogue_policy)`` for
    :func:`repro.framework.shard.make_shard_specs`.  The policy's kinds
    default to every malicious kind (forge_result, drop_ball,
    replay_stale); ``--rogue-kinds`` narrows them.  Rate 1.0: a rogue
    shard lies on *every* verdict, the worst case for the verifier.
    """
    shards = tuple(getattr(args, "rogue_shard", None) or ())
    if not shards:
        return (), None
    kinds = MALICIOUS_KINDS
    chosen = getattr(args, "rogue_kinds", None)
    if chosen:
        kinds = tuple(k.strip() for k in chosen.split(",") if k.strip())
        bad = [k for k in kinds if k not in MALICIOUS_KINDS]
        if bad:
            raise SystemExit(f"unknown rogue kind(s) {bad}; "
                             f"valid: {', '.join(MALICIOUS_KINDS)}")
    policy = ChaosPolicy(seed=getattr(args, "rogue_seed", 0) or 0,
                         fault_rate=1.0,
                         kinds=kinds)
    return shards, policy


def _config(args: argparse.Namespace, store=None) -> PriloConfig:
    config = PriloConfig(k_players=args.players, modulus_bits=args.modulus,
                         q_bits=16 if args.modulus <= 1024 else 32,
                         r_bits=16 if args.modulus <= 1024 else 32,
                         seed=args.seed,
                         chaos=_chaos(args),
                         deadline_ms=getattr(args, "deadline_ms", None),
                         ball_budget=getattr(args, "ball_budget", None))
    if store is not None:
        # Ball ids are a function of (vertex order, radii): an engine
        # served from a store must address exactly the stored radii.
        config = replace(config, radii=store.radii)
    return config


def cmd_stats(args: argparse.Namespace) -> int:
    row = dataset_statistics(load_dataset(args.dataset, scale=args.scale))
    for key, value in row.items():
        print(f"{key:>20}: {value}")
    return 0


def _open_store(args: argparse.Namespace):
    if not getattr(args, "store", None):
        return None
    return ArtifactStore.open(args.store)


def _open_journal(args: argparse.Namespace) -> RunJournal | None:
    """Build the write-ahead journal from ``--journal``/``--resume``.

    An existing journal file is only reused under an explicit
    ``--resume`` -- silently appending to a leftover journal would splice
    a previous invocation's checkpoints into this one."""
    path = getattr(args, "journal", None)
    if not path:
        return None
    if os.path.exists(path) and not getattr(args, "resume", False):
        raise SystemExit(f"journal {path} already exists; pass --resume to "
                         f"continue it or choose a fresh path")
    return RunJournal(path, journal_key(args.seed))


def _tracer_for(args: argparse.Namespace):
    """A live :class:`~repro.observability.Tracer` when any tracing
    surface (``--trace``, ``--leakage-audit``, ``--metrics-out``, the
    hidden taint hook) is requested; ``None`` keeps the engines on the
    zero-overhead ``NULL_TRACER`` path."""
    wanted = (getattr(args, "trace", None) is not None
              or getattr(args, "leakage_audit", False)
              or getattr(args, "metrics_out", None)
              or getattr(args, "trace_taint", False))
    if not wanted:
        return None
    from repro.observability import Tracer

    return Tracer()


def _finish_trace(args: argparse.Namespace) -> int:
    """Post-run trace plumbing: taint injection (test hook), trace-file
    export, leakage audit.  Returns the audit's exit-code contribution."""
    tracer = args.tracer
    if tracer is None:
        return 0
    if getattr(args, "trace_taint", False):
        # Negative control for the leakage audit: smuggle a
        # query-dependent attribute into a dealer-scope span, bypassing
        # construction-time redaction the way a buggy/hostile span
        # emitter would.  The audit MUST flag this.
        tracer.inject_unchecked("taint_probe", "dealer",
                                ball_answer="match@ball:17")
    path = getattr(args, "trace", None)
    if path:
        from repro.observability import write_trace

        write_trace(path, tracer.spans)
        print(f"trace: {len(tracer.spans)} spans -> {path}")
    if not getattr(args, "leakage_audit", False):
        return 0
    from repro.observability import audit_spans

    report = audit_spans(tracer.spans)
    print(report.summary_line())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.ok else EXIT_LEAKAGE


def _print_outcomes(report) -> None:
    for outcome in report.outcomes:
        if outcome.ok:
            result = outcome.result
            print(f"  q{outcome.index}: candidates="
                  f"{len(result.candidate_ids)} "
                  f"verified={len(result.verified_ids)} "
                  f"matches={result.num_matches} "
                  f"latency={outcome.latency_seconds:.3f}s")
        else:
            print(f"  q{outcome.index}: {outcome.status.upper()} "
                  f"({outcome.detail})")


def _print_batch_counters(report) -> None:
    summary = report.summary()
    if "admission" in summary:
        print(f"admission: {report.admission.summary_line()}")
    if report.journal:
        print(f"journal: {report.journal.summary_line()}")
    injected = sum(r.metrics.faults.injected for r in report.results)
    if injected:
        recovered = sum(r.metrics.faults.recovered for r in report.results)
        degraded = sum(r.metrics.faults.degraded for r in report.results)
        print(f"faults: injected={injected} recovered={recovered} "
              f"degraded={degraded}")


def cmd_run(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    semantics = Semantics(args.semantics)
    query = dataset.random_query(size=args.size, diameter=args.diameter,
                                 semantics=semantics, seed=args.seed)
    print(f"dataset: {dataset.graph}")
    print(f"query:   {query}")
    store = _open_store(args)
    journal = _open_journal(args)
    engine = PriloStar.setup(dataset.graph_for(semantics),
                             _config(args, store), store=store,
                             tracer=args.tracer)
    # One query is a batch of one: the batch engine owns admission,
    # deadlines, journal checkpointing and resume, so `run` reports and
    # exits exactly as serve-batch does.
    try:
        with QueryBatchEngine(engine, journal=journal) as server:
            report = server.serve([query])
    finally:
        if journal is not None:
            journal.close()
    _print_outcomes(report)
    for result in report.results:
        timings = result.metrics.timings
        print(f"candidates: {len(result.candidate_ids)}  "
              f"PM-positives: {len(result.pm_positive_ids)}  "
              f"verified: {len(result.verified_ids)}  "
              f"matches: {result.num_matches}")
        print(f"sequence mode: {result.sequence_mode}; all positives at "
              f"t={result.schedule.all_positives:.4f}s of "
              f"{result.schedule.makespan:.4f}s total evaluation")
        print(f"timings: preprocess={timings.user_preprocessing:.3f}s "
              f"pm={timings.pm_computation:.3f}s "
              f"eval={timings.evaluation:.3f}s "
              f"match={timings.user_matching:.3f}s")
        if result.metrics.ops:
            totals = result.metrics.ops.totals()
            print(f"crypto ops: modmul={totals.modmul} "
                  f"modexp={totals.modexp} "
                  f"table_build={totals.table_build} "
                  f"arith={montgomery.arithmetic()}")
        if result.metrics.faults:
            print(f"faults:  {result.metrics.faults.summary_line()}")
        if result.metrics.journal:
            print(f"journal: {result.metrics.journal.summary_line()}")
    return _statuses_exit(report)


def cmd_serve_batch(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    semantics = Semantics(args.semantics)
    distinct = dataset.random_queries(args.distinct, size=args.size,
                                      diameter=args.diameter,
                                      semantics=semantics, seed=args.seed)
    queries = [distinct[i % len(distinct)] for i in range(args.batch)]
    store = _open_store(args)
    journal = _open_journal(args)
    engine = ENGINE_CLASSES[args.engine].setup(
        dataset.graph_for(semantics), _config(args, store), store=store,
        tracer=args.tracer)
    delta_code = 0
    try:
        with QueryBatchEngine(engine, journal=journal,
                              queue_bound=args.queue_bound) as server:
            for position, query in enumerate(distinct[:args.standing]):
                standing = server.register_standing(
                    query, name=f"standing-{position}")
                print(f"standing {standing.name}: "
                      f"{standing.num_matches} baseline matches")
            report = server.serve(queries)
            if args.apply_delta:
                delta_code = _serve_batch_deltas(args, server)
    finally:
        if journal is not None:
            journal.close()
    summary = report.summary()
    print(f"dataset: {dataset.graph}")
    print(f"served {summary['queries']} queries "
          f"({summary['distinct_signatures']} distinct signatures) "
          f"in {summary['makespan_seconds']:.3f}s "
          f"(mean latency {summary['mean_latency_seconds']:.3f}s)")
    cache = summary["cmm_cache"]
    print(f"CMM cache: {cache['hits']} hits / {cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.2f}), "
          f"{cache['evictions']} evictions, weight {cache['weight']}")
    _print_outcomes(report)
    _print_batch_counters(report)
    if args.json_summary:
        with open(args.json_summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, default=str)
    if args.metrics_out:
        from repro.observability import write_metrics

        spans = args.tracer.spans if args.tracer is not None else None
        write_metrics(args.metrics_out, report, spans)
        print(f"metrics: Prometheus snapshot -> {args.metrics_out}")
    return combine_exit(_statuses_exit(report), delta_code)


def _serve_batch_deltas(args: argparse.Namespace, server) -> int:
    """Replay a delta log through the live batch engine (standing queries
    re-notify per delta).  A failed delta is reported here and its code
    returned, so the batch served before it still prints its summary."""
    log = DeltaLog(args.apply_delta, delta_key(args.seed))
    try:
        for record, application in walk_delta_chain(
                log.replay(truncate=False), server.engine.graph,
                lambda record: server.apply_delta(record.delta)):
            summary = application.as_dict()
            print(f"delta seq={record.seq}: dirty={summary['dirty']} "
                  f"added={summary['added']} removed={summary['removed']} "
                  f"cache_invalidated={summary['cache_invalidated']} "
                  f"notified={summary['notified']}/{summary['standing']}")
            for notice in application.notices:
                flag = "CHANGED" if notice.changed else "unchanged"
                print(f"  {notice.name}: {flag}, "
                      f"{notice.num_matches} matches")
    except (DeltaError, StoreError) as exc:
        return exit_code(exc)
    return 0


def cmd_journal_inspect(args: argparse.Namespace) -> int:
    """Summarize a run journal: record counts, last checkpoint, torn-tail
    and tamper reports.  Inspection is non-destructive (a torn tail is
    reported, not truncated)."""
    if not os.path.exists(args.path):
        print(f"FAILED: no journal at {args.path}")
        return EXIT_INTEGRITY
    summary = RunJournal(args.path, journal_key(args.seed)).inspect()
    print(json.dumps(summary, indent=2))
    # Tampered wins over stale/torn-tail symptoms: a torn tail is a
    # normal crash artifact (reported, exit 0); tampering is not.
    return EXIT_INTEGRITY if summary["tampered_records"] else 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Per-role / per-phase latency histograms of a ``--trace`` file."""
    from repro.observability import read_trace, render_summary, \
        summarize_spans

    if not os.path.exists(args.path):
        print(f"FAILED: no trace at {args.path}")
        return EXIT_USAGE
    meta, spans = read_trace(args.path)
    if meta:
        print(f"trace: {args.path} (format {meta.get('format', '?')}, "
              f"{len(spans)} spans)")
    print(render_summary(summarize_spans(spans)))
    return 0


def cmd_trace_audit(args: argparse.Namespace) -> int:
    """Offline leakage audit of a recorded trace file (exit 5 on leak).

    Same checker the in-process ``--leakage-audit`` runs, but over the
    deserialized span dicts -- so it also catches a trace file that was
    edited after the fact to include restricted data."""
    from repro.observability import audit_spans, read_trace

    if not os.path.exists(args.path):
        print(f"FAILED: no trace at {args.path}")
        return EXIT_USAGE
    _, spans = read_trace(args.path)
    report = audit_spans(spans)
    print(report.summary_line())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.ok else EXIT_LEAKAGE


def _parse_radii(text: str) -> tuple[int, ...]:
    try:
        radii = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radii list {text!r}")
    if not radii:
        raise argparse.ArgumentTypeError("radii list is empty")
    return radii


def cmd_store_build(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    graph = dataset.graph_for(Semantics(args.semantics))
    key = DataOwnerKey.generate(args.seed)
    store = ArtifactStore.create(
        args.root, graph, args.radii, key,
        twiglet_h=None if args.no_twiglets else args.twiglet_h)
    print(json.dumps(store.describe(), indent=2))
    return 0


def cmd_store_inspect(args: argparse.Namespace) -> int:
    print(json.dumps(ArtifactStore.open(args.root).describe(), indent=2))
    return 0


def cmd_store_verify(args: argparse.Namespace) -> int:
    """Exit 0 when every artifact is ok, 2 on staleness only, 3 on any
    integrity failure (tampered or missing) -- scriptable triage."""
    store = ArtifactStore.open(args.root)
    key = DataOwnerKey.generate(args.seed) if args.with_key else None
    report = store.verify(key)
    for pack in report.packs:
        line = f"{pack.name}: {pack.status}"
        if pack.reason:
            line += f" ({pack.reason})"
        print(line)
    line = (f"store version {report.version}; ball records: "
            f"{report.records.get(2, 0)} v2, {report.records.get(1, 0)} v1")
    if key is not None:
        line += (f"; blob ciphers: {report.ciphers.get(2, 0)} v2, "
                 f"{report.ciphers.get(1, 0)} v1")
    print(line)
    print(f"{report.balls} balls indexed, "
          f"{report.decrypted} blobs decrypt-authenticated")
    if report.tampered:
        print(f"FAILED: {len(report.tampered)} artifact(s) tampered "
              f"or missing")
        return EXIT_INTEGRITY
    if report.stale:
        print(f"STALE: {len(report.stale)} artifact(s) stale")
        return EXIT_STALE
    print("ok: store verified")
    return 0


def cmd_store_shard_split(args: argparse.Namespace) -> int:
    """Cut a store into N consistent-hash shard packs + placement manifest."""
    from repro.storage import shard_split

    placement = shard_split(args.root, args.out, args.shards)
    counts = {member: info["balls"]
              for member, info in placement["shards"].items()}
    print(json.dumps({"out": str(args.out),
                      "members": placement["members"],
                      "balls": placement["balls"],
                      "balls_per_shard": counts}, indent=2))
    return 0


def cmd_store_make_delta(args: argparse.Namespace) -> int:
    """Synthesize a seeded update stream and append it to a delta log.

    Each delta chains on its predecessor's result digest, so the log is
    a hash chain from the dataset's build-time graph state; ``store
    apply-delta`` replays it against a store built with the same global
    flags."""
    from repro.graph.delta import random_delta

    dataset = load_dataset(args.dataset, scale=args.scale)
    graph = dataset.graph_for(Semantics(args.semantics)).copy()
    records = []
    with DeltaLog(args.log, delta_key(args.seed)) as log:
        for step in range(args.count):
            parent = graph_digest(graph)
            delta = random_delta(graph,
                                 edge_fraction=args.edge_fraction,
                                 seed=7 + step)
            delta.apply(graph)
            record = log.append(delta, parent=parent,
                                result=graph_digest(graph))
            records.append({"seq": record.seq, "delta": repr(delta),
                            "parent": record.parent[:12],
                            "result": record.result[:12]})
        summary = log.inspect()
    summary["appended"] = records
    print(json.dumps(summary, indent=2))
    return 0


def cmd_store_apply_delta(args: argparse.Namespace) -> int:
    """Replay an authenticated delta log into a store.

    Exit 0 when every record applied (or was already applied), 2 when the
    log and the store/graph diverged (stale -- re-sync or rebuild), 3 on
    any tampered record or a result-digest mismatch; tampered wins over
    stale."""
    log = DeltaLog(args.log, delta_key(args.seed))
    if args.inspect:
        summary = log.inspect()
        print(json.dumps(summary, indent=2))
        return EXIT_INTEGRITY if summary["tampered_records"] else 0
    store = ArtifactStore.open(args.root)
    dataset = load_dataset(args.dataset, scale=args.scale)
    graph = dataset.graph_for(Semantics(args.semantics))
    key = DataOwnerKey.generate(args.seed)

    def apply_one(record):
        # A re-run loads the dataset at its build-time state while the
        # store is already at the log's tip (or midway): until the graph
        # (which the walk holds at ``record.parent``) catches up with the
        # store's pinned digest a record moves the graph alone; from
        # there on the store applies it.
        if record.parent != store.manifest_graph_digest:
            record.delta.apply(graph)
            return None
        return store.apply_delta(record.delta, graph, key)

    state = log.replay(truncate=False)
    reports = [report for _record, report
               in walk_delta_chain(state, graph, apply_one)
               if report is not None]
    if graph_digest(graph) != store.manifest_graph_digest:
        raise StaleDeltaError(
            f"the delta log never reaches the store's graph state "
            f"{store.manifest_graph_digest[:12]}")
    for report in reports:
        print(json.dumps(report.as_dict(), indent=2))
    print(f"ok: {len(reports)} delta(s) applied, "
          f"{len(state.records) - len(reports)} already "
          f"applied; store at {store.manifest_graph_digest[:12]}")
    return 0


def cmd_gateway(args: argparse.Namespace) -> int:
    """Serve zipf many-tenant traffic through a local N-shard cluster."""
    dataset = load_dataset(args.dataset, scale=args.scale)
    semantics = Semantics(args.semantics)
    spec = TrafficSpec(count=args.count, tenants=args.tenants,
                       size=args.size, diameter=args.diameter,
                       semantics=semantics, seed=args.seed)
    queries, ranks = generate_traffic(dataset, spec)
    graph = dataset.graph_for(semantics)
    config = _config(args)
    if args.no_verify:
        config = replace(config, verify_serving=False)
    placement = None
    if args.store:
        # ``read`` refuses a placement cut under another ring geometry;
        # the packs fix the ball address space (radii) the cluster uses.
        placement = PlacementManifest.read(args.store)
        config = replace(config, radii=placement.radii)
    verifier = None
    if (placement is not None and placement.auth_root
            and config.verify_serving):
        # Certificates bind the *effective* engine config, the view the
        # shards' engines run after forcing their pruning toggles.
        verifier = AnswerVerifier.from_placement(
            placement, seed=args.seed,
            config=ENGINE_CLASSES[args.engine].effective_config(config))
    chaos = None
    if args.kill_shard is not None or args.kill_seed is not None:
        chaos = GatewayChaos(kill_shard=args.kill_shard,
                             kill_after_verdicts=args.kill_after,
                             seed=args.kill_seed)
    rogue_shards, rogue_policy = _rogue(args)
    specs = make_shard_specs(graph, config, args.shards,
                             engine=args.engine, store_root=args.store,
                             journal_dir=args.journal_dir,
                             rogue_shards=rogue_shards,
                             rogue_policy=rogue_policy)
    print(f"dataset: {dataset.graph}")
    print(f"traffic: {spec.count} queries over {spec.tenants} tenants "
          f"(zipf s={spec.skew}, seed {spec.seed}); "
          f"rank-1 share {ranks.count(0)}/{len(ranks)}")
    with LocalCluster(specs) as cluster:
        gateway = Gateway(cluster.handles, chaos=chaos, tracer=args.tracer,
                          verifier=verifier, queue_bound=args.queue_bound)
        report = gateway.run(queries)
    summary = report.summary()
    print(f"served {summary['completed']}/{summary['queries']} queries on "
          f"{summary['shards']} shard(s) in "
          f"{summary['makespan_seconds']:.3f}s wall "
          f"({summary['critical_path_seconds']:.3f}s critical path, "
          f"{summary['busy_seconds']:.3f}s total engine-busy)")
    for sid, busy in summary["per_shard_busy_seconds"].items():
        print(f"  shard {sid}: {busy:.3f}s engine-busy")
    if report.deaths:
        print(f"deaths: shard(s) {report.deaths} died; "
              f"{report.re_dispatches} re-placement task(s); "
              f"survivors {list(report.final_members)}")
    if report.verify_enabled:
        print(f"verify: {report.proofs_checked} certificate(s) checked "
              f"({report.proof_bytes} proof bytes, "
              f"{report.verify_seconds:.3f}s); "
              f"{report.forgeries_detected} forgery(ies) detected"
              + (f"; evicted shard(s) {report.evictions}"
                 if report.evictions else ""))
        if report.forged:
            print(f"FORGED: {report.forged} answer(s) withheld -- no "
                  f"honest member left to re-cover the slice")
    statuses = summary["statuses"]
    not_ok = [(i, s) for i, s in enumerate(statuses) if s != QueryStatus.OK]
    print(f"statuses: {statuses.count(QueryStatus.OK)}/{len(statuses)} ok"
          + (f"; {not_ok}" if not_ok else ""))
    caches = summary["caches"].get("cmm")
    if caches:
        print(f"CMM cache (fleet): {caches['hits']} hits / "
              f"{caches['misses']} misses (hit rate "
              f"{caches['hit_rate']:.2f})")
    if report.metrics.journal:
        print(f"journal: {report.metrics.journal.summary_line()}")
    if args.json_summary:
        with open(args.json_summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, default=str)
    if args.metrics_out:
        from repro.observability import write_gateway_metrics

        spans = args.tracer.spans if args.tracer is not None else None
        write_gateway_metrics(args.metrics_out, report, spans)
        print(f"metrics: Prometheus snapshot -> {args.metrics_out}")
    return _statuses_exit(report)


def cmd_workloads(args: argparse.Namespace) -> int:
    dataset = load_dataset("ldbc", scale=args.scale)
    records = ldbc_study(dataset, Semantics(args.semantics),
                         config=_config(args), seed=args.seed)
    print(f"{'query':<6} {'cands':>6} {'PPCR':>6} {'mode':>7} "
          f"{'SSG(s)':>9} {'RSG(s)':>9} {'speedup':>8}")
    for r in records:
        print(f"{r.workload:<6} {r.candidates:>6} {r.ppcr:>6.2f} "
              f"{r.mode:>7} {r.ssg_seconds:>9.4f} {r.rsg_seconds:>9.4f} "
              f"{min(r.scheduling_speedup, 100):>7.1f}x")
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    semantics = Semantics(args.semantics)
    queries = dataset.random_queries(args.queries, size=args.size,
                                     diameter=args.diameter,
                                     semantics=semantics, seed=args.seed)
    study = pruning_study(dataset, queries,
                          methods=("neighbor", "path", "twiglet", "bf"),
                          config=_config(args))
    print(f"candidates: {study.candidates}")
    print(f"{'method':<14} {'kept':>6} {'PPCR':>6} {'cost(s)':>9}")
    for method in study.confusion:
        counts = study.confusion[method]
        print(f"{method:<14} {counts.tp + counts.fp:>6} "
              f"{counts.ppcr:>6.2f} "
              f"{study.total_cost.get(method, 0.0):>9.3f}")
    return 0


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chaos-seed", type=int, default=None,
                        metavar="N",
                        help="enable seeded fault injection (chaos mode); "
                             "the same seed replays the same fault schedule")
    parser.add_argument("--fault-rate", type=float, default=None,
                        metavar="P",
                        help="per-decision fault probability in [0,1] "
                             "(default 0.1 when --chaos-seed is given)")
    parser.add_argument("--chaos-kinds", default=None, metavar="K1,K2",
                        help="comma-separated fault kinds to inject "
                             "(default: every injectable kind; add "
                             "kill_process to SIGKILL the process at a "
                             "durable checkpoint)")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="write-ahead run journal: checkpoint every "
                             "Player share durably so a killed process "
                             "can resume")
    parser.add_argument("--resume", action="store_true",
                        help="continue an existing --journal file, "
                             "replaying its checkpoints instead of "
                             "recomputing them")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS",
                        help="per-query wall-clock budget; an exceeded "
                             "query aborts with partial state and the "
                             "command exits 4")
    parser.add_argument("--ball-budget", type=int, default=None,
                        metavar="N",
                        help="reject queries whose candidate ball count "
                             "exceeds N (admission control)")
    parser.add_argument("--trace", nargs="?", const="trace.jsonl",
                        default=None, metavar="FILE",
                        help="write a role-scoped span trace as JSON "
                             "lines (default file: trace.jsonl)")
    parser.add_argument("--leakage-audit", action="store_true",
                        help="diff the trace against the allowed-"
                             "observation model; a query-dependent "
                             "attribute in a dealer/player/sp span "
                             "exits 5")
    # Test hook: injects a deliberately leaking dealer-scope span so CI
    # can prove the audit fails loudly.  Not for operators.
    parser.add_argument("--trace-taint", action="store_true",
                        help=argparse.SUPPRESS)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive int, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive int, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on :data:`EXIT_USAGE`: argparse's own
    code 2 is :data:`EXIT_STALE`, which scripts read as "rebuild the
    store".  ``add_subparsers`` makes every subparser this class too
    (its ``parser_class`` defaults to the parent's type)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Prilo/Prilo*: privacy preserving LGPQ processing")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--players", type=int, default=4,
                        help="number of Player servers (k)")
    parser.add_argument("--modulus", type=int, default=1024,
                        help="CGBE modulus bits (paper: 4096)")
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sorted(DATASET_SPECS)
    p_stats = sub.add_parser("stats", help="dataset statistics (Table 3)")
    p_stats.add_argument("dataset", choices=datasets)
    p_stats.set_defaults(func=cmd_stats)

    p_run = sub.add_parser("run", help="run one random query end to end")
    p_run.add_argument("dataset", choices=datasets)
    p_run.add_argument("--size", type=int, default=8)
    p_run.add_argument("--diameter", type=int, default=3)
    p_run.add_argument("--semantics", default="hom",
                       choices=[s.value for s in Semantics])
    p_run.add_argument("--store", default=None, metavar="DIR",
                       help="cold-start from an artifact store built with "
                            "the same dataset/scale/semantics/seed")
    _add_execution_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser(
        "serve-batch",
        help="serve a query batch with cross-query CMM reuse")
    p_batch.add_argument("dataset", choices=datasets)
    p_batch.add_argument("--batch", type=int, default=8,
                         help="total queries to serve")
    p_batch.add_argument("--distinct", type=int, default=2,
                         help="distinct queries cycled through the batch")
    p_batch.add_argument("--size", type=int, default=8)
    p_batch.add_argument("--diameter", type=int, default=3)
    p_batch.add_argument("--semantics", default="hom",
                         choices=[s.value for s in Semantics])
    p_batch.add_argument("--engine", default="prilo",
                         choices=sorted(ENGINE_CLASSES))
    p_batch.add_argument("--store", default=None, metavar="DIR")
    p_batch.add_argument("--queue-bound", type=_positive_int, default=None,
                         metavar="N",
                         help="admission bound: queries past the first N "
                              "are shed with REJECTED(overload)")
    p_batch.add_argument("--json-summary", default=None, metavar="FILE",
                         help="also write the batch summary as JSON")
    p_batch.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="write a Prometheus text-exposition "
                              "snapshot of the batch (for a textfile "
                              "collector)")
    p_batch.add_argument("--standing", type=int, default=0, metavar="N",
                         help="register the first N distinct queries as "
                              "standing queries (re-notified per applied "
                              "delta)")
    p_batch.add_argument("--apply-delta", default=None, metavar="LOG",
                         help="after the batch, replay this delta log "
                              "through the live engine (exit 2 stale, "
                              "3 tampered)")
    _add_execution_flags(p_batch)
    p_batch.set_defaults(func=cmd_serve_batch)

    p_store = sub.add_parser("store",
                             help="persistent offline artifact store")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_build = store_sub.add_parser(
        "build", help="run the offline outsourcing step into a directory")
    p_build.add_argument("dataset", choices=datasets)
    p_build.add_argument("root", help="target directory (must be empty)")
    p_build.add_argument("--radii", type=_parse_radii, default=(1, 2, 3, 4),
                         help="comma-separated ball radii (default 1,2,3,4)")
    p_build.add_argument("--semantics", default="hom",
                         choices=[s.value for s in Semantics],
                         help="which graph variant to outsource "
                              "(ssim uses the 64-label graph)")
    p_build.add_argument("--twiglet-h", type=int, default=3)
    p_build.add_argument("--no-twiglets", action="store_true",
                         help="skip the twiglet feature artifact")
    p_build.set_defaults(func=cmd_store_build)

    p_inspect = store_sub.add_parser("inspect",
                                     help="print a store's manifest summary")
    p_inspect.add_argument("root")
    p_inspect.set_defaults(func=cmd_store_inspect)

    p_verify = store_sub.add_parser(
        "verify", help="checksum (and optionally decrypt) every artifact")
    p_verify.add_argument("root")
    p_verify.add_argument("--with-key", action="store_true",
                          help="also decrypt-authenticate every ball blob "
                               "with the seed-derived owner key")
    p_verify.set_defaults(func=cmd_store_verify)

    p_split = store_sub.add_parser(
        "shard-split",
        help="cut a store into N consistent-hash shard packs plus a "
             "placement manifest (input to the gateway)")
    p_split.add_argument("root", help="source store directory")
    p_split.add_argument("out", help="target directory (must be empty)")
    p_split.add_argument("--shards", type=int, default=4)
    p_split.set_defaults(func=cmd_store_shard_split)

    p_mkdelta = store_sub.add_parser(
        "make-delta",
        help="synthesize a seeded update stream into an authenticated "
             "delta log (input to apply-delta)")
    p_mkdelta.add_argument("dataset", choices=datasets)
    p_mkdelta.add_argument("log", help="delta log file (appended)")
    p_mkdelta.add_argument("--semantics", default="hom",
                           choices=[s.value for s in Semantics])
    p_mkdelta.add_argument("--count", type=int, default=1,
                           help="deltas to chain onto the log")
    p_mkdelta.add_argument("--edge-fraction", type=float, default=0.01,
                           help="fraction of edges each delta rewires "
                                "(delta i is drawn with seed 7 + i; --seed "
                                "keys the log)")
    p_mkdelta.set_defaults(func=cmd_store_make_delta)

    p_apply = store_sub.add_parser(
        "apply-delta",
        help="replay a delta log into a store: incremental dirty-ball "
             "maintenance (exit 2 stale, 3 tampered)")
    p_apply.add_argument("root", help="store directory to update")
    p_apply.add_argument("dataset", choices=datasets)
    p_apply.add_argument("log", help="delta log file to replay")
    p_apply.add_argument("--semantics", default="hom",
                         choices=[s.value for s in Semantics])
    p_apply.add_argument("--inspect", action="store_true",
                         help="only summarize the log (non-destructive; "
                              "exits 3 if any record is tampered)")
    p_apply.set_defaults(func=cmd_store_apply_delta)

    p_journal = sub.add_parser("journal",
                               help="write-ahead run journal tools")
    journal_sub = p_journal.add_subparsers(dest="journal_command",
                                           required=True)
    p_jinspect = journal_sub.add_parser(
        "inspect", help="record counts, last checkpoint, torn-tail and "
                        "tamper report (non-destructive)")
    p_jinspect.add_argument("path")
    p_jinspect.set_defaults(func=cmd_journal_inspect)

    p_trace = sub.add_parser("trace", help="span-trace tools")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="per-role/per-phase latency histograms of a "
                          "--trace JSONL file")
    p_tsum.add_argument("path")
    p_tsum.set_defaults(func=cmd_trace_summarize)
    p_taudit = trace_sub.add_parser(
        "audit", help="offline leakage audit of a trace file "
                      "(exit 5 on a restricted-scope leak)")
    p_taudit.add_argument("path")
    p_taudit.set_defaults(func=cmd_trace_audit)

    p_gw = sub.add_parser(
        "gateway",
        help="serve zipf many-tenant traffic through a local N-shard "
             "cluster behind the scatter-gather gateway")
    p_gw.add_argument("dataset", choices=datasets)
    p_gw.add_argument("--shards", type=int, default=4)
    p_gw.add_argument("--count", type=int, default=32,
                      help="total queries in the traffic trace")
    p_gw.add_argument("--tenants", type=int, default=8,
                      help="distinct tenant queries the trace draws from")
    p_gw.add_argument("--size", type=int, default=8)
    p_gw.add_argument("--diameter", type=int, default=3)
    p_gw.add_argument("--semantics", default="hom",
                      choices=[s.value for s in Semantics])
    p_gw.add_argument("--engine", default="prilo",
                      choices=sorted(ENGINE_CLASSES))
    p_gw.add_argument("--store", default=None, metavar="DIR",
                      help="a `store shard-split` output directory: each "
                           "shard cold-starts from its own pack; "
                           "placement.json must name the fixed ring "
                           "geometry (else exit 3)")
    p_gw.add_argument("--journal-dir", default=None, metavar="DIR",
                      help="give each shard its own write-ahead journal "
                           "(shard-<i>.wal) under this directory")
    p_gw.add_argument("--queue-bound", type=_positive_int, default=None,
                      metavar="N",
                      help="the fleet admits the first N queries of the "
                           "trace and sheds the rest as REJECTED(overload) "
                           "before any shard sees them")
    p_gw.add_argument("--rogue-shard", type=int, action="append",
                      default=None, metavar="K",
                      help="malicious-SP chaos: shard K mutates its "
                           "verdicts after the honest engine ran "
                           "(repeatable; caught by the answer verifier, "
                           "evicted, and its slice re-scattered)")
    p_gw.add_argument("--rogue-kinds", default=None, metavar="K1,K2",
                      help="comma-separated malicious kinds for "
                           "--rogue-shard (default: forge_result,"
                           "drop_ball,replay_stale)")
    p_gw.add_argument("--rogue-seed", type=int, default=0, metavar="S",
                      help="seed for the rogue shards' mutation schedule")
    p_gw.add_argument("--no-verify", action="store_true",
                      help="trust the shards: skip certificates and "
                           "merge-time verification (PR 7 behavior; for "
                           "overhead A/B only)")
    p_gw.add_argument("--kill-shard", type=int, default=None, metavar="K",
                      help="chaos: SIGKILL shard K mid-batch and recover "
                           "by re-placing its slice onto survivors")
    p_gw.add_argument("--kill-seed", type=int, default=None, metavar="S",
                      help="chaos: derive the victim from seed S instead "
                           "of naming it")
    p_gw.add_argument("--kill-after", type=int, default=1, metavar="V",
                      help="fire the kill after the victim's V-th verdict")
    p_gw.add_argument("--deadline-ms", type=float, default=None,
                      metavar="MS",
                      help="per-query wall-clock budget on every shard; "
                           "an exceeded slice exits 4")
    p_gw.add_argument("--ball-budget", type=int, default=None, metavar="N",
                      help="per-shard candidate-ball admission bound")
    p_gw.add_argument("--json-summary", default=None, metavar="FILE",
                      help="also write the gateway summary as JSON")
    p_gw.add_argument("--metrics-out", default=None, metavar="FILE",
                      help="write a Prometheus text-exposition snapshot "
                           "of the gateway run (repro_verify_total "
                           "counters et al.)")
    p_gw.add_argument("--trace", nargs="?", const="trace.jsonl",
                      default=None, metavar="FILE",
                      help="write the gateway's role-scoped span trace")
    p_gw.add_argument("--leakage-audit", action="store_true",
                      help="audit the gateway trace against the allowed-"
                           "observation model (exit 5 on a leak)")
    p_gw.set_defaults(func=cmd_gateway)

    p_work = sub.add_parser("workloads",
                            help="LDBC BI workloads (Fig. 18)")
    p_work.add_argument("--semantics", default="hom",
                        choices=[s.value for s in Semantics])
    p_work.set_defaults(func=cmd_workloads)

    p_prune = sub.add_parser("prune", help="pruning ablation (Fig. 2a)")
    p_prune.add_argument("dataset", choices=datasets)
    p_prune.add_argument("--queries", type=int, default=3)
    p_prune.add_argument("--size", type=int, default=8)
    p_prune.add_argument("--diameter", type=int, default=3)
    p_prune.add_argument("--semantics", default="hom",
                         choices=[s.value for s in Semantics])
    p_prune.set_defaults(func=cmd_prune)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.tracer = _tracer_for(args)
    code = EXIT_USAGE
    try:
        code = args.func(args)
    except tuple(row.exc for row in EXIT_TABLE) as exc:
        code = exit_code(exc)
    finally:
        code = combine_exit(code, _finish_trace(args))
    return code


if __name__ == "__main__":
    sys.exit(main())
