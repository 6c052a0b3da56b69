"""Command-line interface: ``python -m repro <command>``.

Commands:

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
                                     a local scatter-gather cluster over a
                                     ``--store`` shard-split cut, verified
                                     (``--kill-shard``/``--kill-seed`` for
                                     chaos recovery runs, ``--rogue-shard``
                                     for the malicious-SP tier caught by
                                     the merge-time answer verifier).
* ``journal inspect <path>``      -- summarize a write-ahead run journal.
* ``trace summarize <path>``      -- per-role/per-phase latency histograms
                                     of a ``--trace`` JSONL file.
* ``trace audit <path>``          -- re-run the leakage audit offline.

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

Every input is declared once, with its domain (:func:`_domain`), so a
bad number exits 1 on one line naming the flag and never reaches
library code; what no single flag can see (a shard id against the
served cut's shard count, a query's diameter against the served radii) raises
:class:`UsageError`, which exits the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.crypto import montgomery
from repro.crypto.keys import DataOwnerKey
from repro.framework.faults import (
    INJECTABLE_KINDS,
    MALICIOUS_KINDS,
    ChaosPolicy,
    FaultKind,
)
from repro.framework.gateway import Gateway, GatewayChaos, GatewayError
from repro.framework.placement import PlacementError, PlacementManifest
from repro.framework.prilo import DeadlineExceeded, Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.framework.roles import BallIntegrityError
from repro.framework.server import QueryBatchEngine, QueryStatus
from repro.framework.shard import LocalCluster, ShardError, make_shard_specs
from repro.framework.verify import AnswerVerifier, VerificationError
from repro.graph.query import Query, Semantics
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
from repro.workloads.datasets import DATASET_SPECS, Dataset, load_dataset
from repro.workloads.traffic import TrafficSpec, zipf_ranks

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


class UsageError(Exception):
    """Inputs that each parsed but do not fit together: :func:`main`
    reports it as the command's argparse error (exit 1, one line)."""


def _check_flags(args: argparse.Namespace) -> None:
    """The cross-flag checks that need no data: each names its flags."""
    if args.command == "run" and args.players < 2:
        raise UsageError(f"argument --players: run serves Prilo* (SSG, "
                         f"Sec. 2.3), which needs at least 2, got "
                         f"{args.players}")
    if args.command == "serve-batch" and args.standing > args.distinct:
        raise UsageError(f"argument --standing: must be at most --distinct "
                         f"{args.distinct}, got {args.standing}")


def _queries(args: argparse.Namespace, dataset: Dataset, count: int,
             radii: tuple[int, ...]) -> list[Query]:
    """``count`` QGen queries of ``--size``/``--diameter``, checked for
    what the flags' domains cannot see: QGen finds such a query, and each
    query's diameter (QGen may fall back to a smaller one) is a ball
    radius the engine serves (Prop. 1)."""
    shape = f"--size {args.size} --diameter {args.diameter}"
    try:
        queries = dataset.random_queries(
            count, size=args.size, diameter=args.diameter,
            semantics=Semantics(args.semantics), seed=args.seed)
    except RuntimeError as exc:  # QGen: no query of this shape
        raise UsageError(f"{shape}: {exc}") from None
    missed = sorted({query.diameter for query in queries} - set(radii))
    if missed:
        served = "the --store radii" if args.store else "the radii"
        raise UsageError(f"{shape}: query diameter(s) {missed} "
                         f"not among {served} {list(radii)}")
    return queries


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
        try:
            seed = _any_int(os.environ["REPRO_CHAOS_SEED"])
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"environment variable REPRO_CHAOS_SEED: "
                             f"{exc}") from None
    rate = getattr(args, "fault_rate", None)
    if seed is None and not rate:
        return None
    return ChaosPolicy(seed=seed if seed is not None else 0,
                       fault_rate=rate if rate is not None else 0.1,
                       kinds=getattr(args, "chaos_kinds", INJECTABLE_KINDS))


def _config(args: argparse.Namespace, store=None) -> PriloConfig:
    config = PriloConfig(k_players=args.players, modulus_bits=args.modulus,
                         q_bits=16 if args.modulus <= 1024 else 32,
                         r_bits=16 if args.modulus <= 1024 else 32,
                         seed=args.seed,
                         chaos=_chaos(args),
                         deadline_ms=args.deadline_ms,
                         ball_budget=args.ball_budget)
    if store is not None:
        # Ball ids are a function of (vertex order, radii): an engine
        # served from a store must address exactly the stored radii.
        config = replace(config, radii=store.radii)
    return config


def _open_journal(args: argparse.Namespace) -> RunJournal | None:
    """Build the write-ahead journal from ``--journal``/``--resume``.

    An existing journal file is only reused under an explicit
    ``--resume`` -- silently appending to a leftover journal would splice
    a previous invocation's checkpoints into this one."""
    if not args.journal:
        return None
    if os.path.exists(args.journal) and not args.resume:
        raise UsageError(f"argument --journal: {args.journal} already "
                         f"exists; pass --resume to continue it or choose "
                         f"a fresh path")
    return RunJournal(args.journal, journal_key(args.seed))


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
    return _audit(tracer.spans)


def _audit(spans) -> int:
    """Print the leakage audit of ``spans``; its exit-code contribution."""
    from repro.observability import audit_spans

    report = audit_spans(spans)
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
    store = ArtifactStore.open(args.store) if args.store else None
    config = _config(args, store)
    query = _queries(args, dataset, 1, config.radii)[0]
    print(f"dataset: {dataset.graph}")
    print(f"query:   {query}")
    journal = _open_journal(args)
    engine = PriloStar.setup(dataset.graph_for(Semantics(args.semantics)),
                             config, store=store, tracer=args.tracer)
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
    store = ArtifactStore.open(args.store) if args.store else None
    config = _config(args, store)
    distinct = _queries(args, dataset, args.distinct, config.radii)
    queries = [distinct[i % len(distinct)] for i in range(args.batch)]
    journal = _open_journal(args)
    engine = Prilo.setup(dataset.graph_for(Semantics(args.semantics)),
                         config, store=store, tracer=args.tracer)
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
    from repro.observability import read_trace

    if not os.path.exists(args.path):
        print(f"FAILED: no trace at {args.path}")
        return EXIT_USAGE
    return _audit(read_trace(args.path)[1])


def cmd_store_build(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    graph = dataset.graph_for(Semantics(args.semantics))
    key = DataOwnerKey.generate(args.seed)
    store = ArtifactStore.create(args.root, graph, args.radii, key)
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
    """Serve zipf many-tenant traffic through a local cluster, one
    certifying shard per pack of a ``store shard-split`` cut."""
    # ``read`` refuses a placement cut under another ring geometry; the
    # cut fixes the fleet size and the ball address space (radii).
    placement = PlacementManifest.read(args.store)
    shards = len(placement.members)
    named = [("--kill-shard", args.kill_shard)] + [
        ("--rogue-shard", shard) for shard in args.rogue_shard or ()]
    for flag, shard in named:
        if shard is not None and shard >= shards:
            raise UsageError(f"argument {flag}: must be below the "
                             f"{shards} shard(s) of --store, got {shard}")
    dataset = load_dataset(args.dataset, scale=args.scale)
    config = replace(_config(args), radii=placement.radii)
    # The trace ``generate_traffic`` draws: zipf arrivals over the tenants.
    spec = TrafficSpec(count=args.count, tenants=args.tenants,
                       seed=args.seed)
    tenants = _queries(args, dataset, spec.tenants, config.radii)
    ranks = zipf_ranks(spec.count, spec.tenants, spec.skew, spec.seed)
    queries = [tenants[rank] for rank in ranks]
    # Certificates bind the *effective* engine config, the view the
    # shards' engines run after forcing their pruning toggles.
    verifier = AnswerVerifier.from_placement(
        placement, seed=args.seed, config=Prilo.effective_config(config))
    chaos = None
    if args.kill_shard is not None or args.kill_seed is not None:
        chaos = GatewayChaos(kill_shard=args.kill_shard,
                             kill_after_verdicts=args.kill_after,
                             seed=args.kill_seed)
    # Each --rogue-shard lies on every verdict (rate 1.0), the worst case
    # for the verifier, with the --rogue-kinds lies.
    specs = make_shard_specs(dataset.graph_for(Semantics(args.semantics)),
                             config, shards, store_root=args.store,
                             journal_dir=args.journal_dir,
                             rogue_shards=tuple(args.rogue_shard or ()),
                             rogue_policy=ChaosPolicy(
                                 seed=args.rogue_seed, fault_rate=1.0,
                                 kinds=args.rogue_kinds))
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


def _domain(convert: Callable[[str], object], what: str,
            accept: Callable[[object], bool], smallest: str):
    """An argparse type: ``convert`` the text, then ``accept`` the value.
    ``smallest`` is the least value it admits (a boundary-sweep edge)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.smallest = smallest
    return parse


_any_int = _domain(int, "an int", lambda value: True, str(-2 ** 63))
_positive_int = _domain(int, "a positive int", lambda value: value >= 1, "1")
_non_negative_int = _domain(int, "a non-negative int",
                            lambda value: value >= 0, "0")
_fraction = _domain(float, "a fraction in [0, 1]",
                    lambda value: 0 <= value <= 1, "0")
_positive_float = _domain(float, "a positive number",
                          lambda value: 0 < value < math.inf,
                          str(math.ulp(0.0)))
_radii = _domain(lambda text: tuple(map(int, text.split(","))),
                 "a comma-separated list of positive ints",
                 lambda radii: min(radii) >= 1, "1")
#: CGBE modulus bits.  The floor is the smallest modulus that serves:
#: ``ChunkPlan`` needs one q + r = 32-bit factor (16 + 16 at or below
#: 1024 bits) beside 16 bits of headroom for 2^16 summed terms, so 49;
#: at 48 `run` fails in aggregation.  The ceiling is the paper's 4096.
_modulus_bits = _domain(int, "an int in 49..4096",
                        range(49, 4097).__contains__, "49")


def _kinds(valid: tuple[str, ...], what: str):
    """An argparse type: a comma-separated list drawn from ``valid``."""
    def parse(text: str) -> tuple[str, ...]:
        kinds = tuple(kind.strip() for kind in text.split(",")
                      if kind.strip())
        bad = [kind for kind in kinds if kind not in valid]
        if bad or not kinds:
            raise argparse.ArgumentTypeError(
                f"unknown {what} kind(s) {bad}; valid: {', '.join(valid)}")
        return kinds

    return parse


def _add_dataset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", choices=sorted(DATASET_SPECS))


def _add_semantics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--semantics", default="hom",
                        choices=[s.value for s in Semantics],
                        help="query semantics, which also picks the graph "
                             "variant (ssim uses the 64-label graph)")


def _add_query_shape(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=_positive_int, default=8,
                        help="query vertices |V_Q|")
    parser.add_argument("--diameter", type=_positive_int, default=3,
                        help="query diameter d_Q (QGen may fall back to a "
                             "smaller one); must be a served ball radius")
    _add_semantics(parser)


def _add_count(parser: argparse.ArgumentParser, default: int,
               help: str) -> None:
    parser.add_argument("--count", type=_positive_int, default=default,
                        help=help)


def _add_store(parser: argparse.ArgumentParser, help: str,
               required: bool = False) -> None:
    parser.add_argument("--store", required=required, metavar="DIR",
                        help=help)


def _add_serving_outputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queue-bound", type=_positive_int, default=None,
                        metavar="N",
                        help="admission bound: the first N queries are "
                             "admitted and the rest shed as "
                             "REJECTED(overload) (by the gateway, before "
                             "any shard sees them)")
    parser.add_argument("--json-summary", default=None, metavar="FILE",
                        help="also write the run's summary as JSON")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write a Prometheus text-exposition snapshot "
                             "of the run (for a textfile collector)")


def _add_admission_and_tracing(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deadline-ms", type=_positive_float, default=None,
                        metavar="MS",
                        help="per-query wall-clock budget (on every shard "
                             "under the gateway); an exceeded query aborts "
                             "with partial state and the command exits 4")
    parser.add_argument("--ball-budget", type=_positive_int, default=None,
                        metavar="N",
                        help="reject queries whose candidate ball count "
                             "exceeds N (admission control; per shard "
                             "under the gateway)")
    parser.add_argument("--trace", nargs="?", const="trace.jsonl",
                        default=None, metavar="FILE",
                        help="write a role-scoped span trace as JSON "
                             "lines (default file: trace.jsonl)")
    parser.add_argument("--leakage-audit", action="store_true",
                        help="diff the trace against the allowed-"
                             "observation model; a query-dependent "
                             "attribute in a dealer/player/sp span "
                             "exits 5")


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chaos-seed", type=_any_int, default=None,
                        metavar="N",
                        help="enable seeded fault injection (chaos mode); "
                             "the same seed replays the same fault schedule")
    parser.add_argument("--fault-rate", type=_fraction, default=None,
                        metavar="P",
                        help="per-decision fault probability in [0,1] "
                             "(default 0.1 when --chaos-seed is given)")
    parser.add_argument("--chaos-kinds",
                        type=_kinds(INJECTABLE_KINDS
                                    + (FaultKind.KILL_PROCESS,), "chaos"),
                        default=INJECTABLE_KINDS, metavar="K1,K2",
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
    # Test hook: injects a deliberately leaking dealer-scope span so CI
    # can prove the audit fails loudly.  Not for operators.
    parser.add_argument("--trace-taint", action="store_true",
                        help=argparse.SUPPRESS)
    _add_admission_and_tracing(parser)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on :data:`EXIT_USAGE`: argparse's own
    code 2 is :data:`EXIT_STALE`, which scripts read as "rebuild the
    store".  ``add_subparsers`` makes every subparser this class too
    (its ``parser_class`` defaults to the parent's type)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _leaf(sub, name: str, func: Callable[[argparse.Namespace], int],
          help: str | None = None) -> argparse.ArgumentParser:
    """A runnable subcommand; :func:`main` reports a :class:`UsageError`
    through its parser."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func, parser=parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Prilo/Prilo*: privacy preserving LGPQ processing")
    parser.add_argument("--scale", type=_positive_float, default=1.0,
                        help="dataset size multiplier")
    parser.add_argument("--seed", type=_any_int, default=0)
    parser.add_argument("--players", type=_positive_int, default=4,
                        help="number of Player servers (k)")
    parser.add_argument("--modulus", type=_modulus_bits, default=1024,
                        help="CGBE modulus bits (paper: 4096)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = _leaf(sub, "run", cmd_run, "run one random query end to end")
    _add_dataset(p_run)
    _add_query_shape(p_run)
    _add_store(p_run, "cold-start from an artifact store built with the "
                      "same dataset/scale/semantics/seed")
    _add_execution_flags(p_run)

    p_batch = _leaf(sub, "serve-batch", cmd_serve_batch,
                    "serve a query batch with cross-query CMM reuse")
    _add_dataset(p_batch)
    p_batch.add_argument("--batch", type=_positive_int, default=8,
                         help="total queries to serve")
    p_batch.add_argument("--distinct", type=_positive_int, default=2,
                         help="distinct queries cycled through the batch")
    _add_query_shape(p_batch)
    _add_store(p_batch, "serve from an artifact store built with the "
                        "same dataset/scale/semantics/seed")
    _add_serving_outputs(p_batch)
    p_batch.add_argument("--standing", type=_non_negative_int, default=0,
                         metavar="N",
                         help="register the first N distinct queries as "
                              "standing queries (re-notified per applied "
                              "delta)")
    p_batch.add_argument("--apply-delta", default=None, metavar="LOG",
                         help="after the batch, replay this delta log "
                              "through the live engine (exit 2 stale, "
                              "3 tampered)")
    _add_execution_flags(p_batch)

    p_store = sub.add_parser("store",
                             help="persistent offline artifact store")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_build = _leaf(store_sub, "build", cmd_store_build,
                    "run the offline outsourcing step into a directory")
    _add_dataset(p_build)
    p_build.add_argument("root", help="target directory (must be empty)")
    p_build.add_argument("--radii", type=_radii, default=(1, 2, 3, 4),
                         help="comma-separated ball radii (default 1,2,3,4)")
    _add_semantics(p_build)

    p_inspect = _leaf(store_sub, "inspect", cmd_store_inspect,
                      "print a store's manifest summary")
    p_inspect.add_argument("root")

    p_verify = _leaf(store_sub, "verify", cmd_store_verify,
                     "checksum (and optionally decrypt) every artifact")
    p_verify.add_argument("root")
    p_verify.add_argument("--with-key", action="store_true",
                          help="also decrypt-authenticate every ball blob "
                               "with the seed-derived owner key")

    p_split = _leaf(store_sub, "shard-split", cmd_store_shard_split,
                    "cut a store into N consistent-hash shard packs plus "
                    "a placement manifest (input to the gateway)")
    p_split.add_argument("root", help="source store directory")
    p_split.add_argument("out", help="target directory (must be empty)")
    p_split.add_argument("--shards", type=_positive_int, default=4,
                         help="shard count (the gateway's fleet size)")

    p_mkdelta = _leaf(store_sub, "make-delta", cmd_store_make_delta,
                      "synthesize a seeded update stream into an "
                      "authenticated delta log (input to apply-delta)")
    _add_dataset(p_mkdelta)
    p_mkdelta.add_argument("log", help="delta log file (appended)")
    _add_semantics(p_mkdelta)
    _add_count(p_mkdelta, 1, "deltas to chain onto the log")
    p_mkdelta.add_argument("--edge-fraction", type=_fraction, default=0.01,
                           help="fraction of edges each delta rewires "
                                "(delta i is drawn with seed 7 + i; --seed "
                                "keys the log)")

    p_apply = _leaf(store_sub, "apply-delta", cmd_store_apply_delta,
                    "replay a delta log into a store: incremental "
                    "dirty-ball maintenance (exit 2 stale, 3 tampered)")
    p_apply.add_argument("root", help="store directory to update")
    _add_dataset(p_apply)
    p_apply.add_argument("log", help="delta log file to replay")
    _add_semantics(p_apply)
    p_apply.add_argument("--inspect", action="store_true",
                         help="only summarize the log (non-destructive; "
                              "exits 3 if any record is tampered)")

    p_journal = sub.add_parser("journal",
                               help="write-ahead run journal tools")
    journal_sub = p_journal.add_subparsers(dest="journal_command",
                                           required=True)
    _leaf(journal_sub, "inspect", cmd_journal_inspect,
          "record counts, last checkpoint, torn-tail and tamper report "
          "(non-destructive)").add_argument("path")

    p_trace = sub.add_parser("trace", help="span-trace tools")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    _leaf(trace_sub, "summarize", cmd_trace_summarize,
          "per-role/per-phase latency histograms of a --trace JSONL "
          "file").add_argument("path")
    _leaf(trace_sub, "audit", cmd_trace_audit,
          "offline leakage audit of a trace file (exit 5 on a "
          "restricted-scope leak)").add_argument("path")

    p_gw = _leaf(sub, "gateway", cmd_gateway,
                 "serve zipf many-tenant traffic through a local cluster, "
                 "one shard per pack of a `store shard-split` cut, behind "
                 "the verifying scatter-gather gateway")
    _add_dataset(p_gw)
    _add_count(p_gw, 32, "total queries in the traffic trace")
    p_gw.add_argument("--tenants", type=_positive_int, default=8,
                      help="distinct tenant queries the trace draws from")
    _add_query_shape(p_gw)
    _add_store(p_gw, "a `store shard-split` output directory: one shard "
                     "per pack, each cold-starts from and certifies "
                     "against its own pack; placement.json must name the "
                     "fixed ring geometry and an auth block (else exit 3)",
               required=True)
    p_gw.add_argument("--journal-dir", default=None, metavar="DIR",
                      help="give each shard its own write-ahead journal "
                           "(shard-<i>.wal) under this directory")
    _add_serving_outputs(p_gw)
    p_gw.add_argument("--rogue-shard", type=_non_negative_int,
                      action="append", default=None, metavar="K",
                      help="malicious-SP chaos: shard K (below the cut's "
                           "shard count) mutates its verdicts after the "
                           "honest engine ran (repeatable; caught by the "
                           "answer verifier, evicted, and its slice "
                           "re-scattered)")
    p_gw.add_argument("--rogue-kinds", type=_kinds(MALICIOUS_KINDS, "rogue"),
                      default=MALICIOUS_KINDS, metavar="K1,K2",
                      help="comma-separated malicious kinds for "
                           "--rogue-shard (default: forge_result,"
                           "drop_ball,replay_stale)")
    p_gw.add_argument("--rogue-seed", type=_any_int, default=0, metavar="S",
                      help="seed for the rogue shards' mutation schedule")
    p_gw.add_argument("--kill-shard", type=_non_negative_int, default=None,
                      metavar="K",
                      help="chaos: SIGKILL shard K (below the cut's shard "
                           "count) mid-batch and recover by re-placing its "
                           "slice onto survivors")
    p_gw.add_argument("--kill-seed", type=_any_int, default=None,
                      metavar="S",
                      help="chaos: derive the victim from seed S instead "
                           "of naming it")
    p_gw.add_argument("--kill-after", type=_positive_int, default=1,
                      metavar="V",
                      help="fire the kill after the victim's V-th verdict")
    _add_admission_and_tracing(p_gw)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.tracer = _tracer_for(args)
    code = EXIT_USAGE
    try:
        _check_flags(args)
        code = args.func(args)
    except UsageError as exc:
        args.parser.error(str(exc))
    except tuple(row.exc for row in EXIT_TABLE) as exc:
        code = exit_code(exc)
    finally:
        code = combine_exit(code, _finish_trace(args))
    return code


if __name__ == "__main__":
    sys.exit(main())
