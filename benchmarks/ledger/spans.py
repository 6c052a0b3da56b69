"""Layer spans recorded from outside the program.

A declared table maps *the binding a caller actually resolves* (a class
attribute, or a name in the calling module's globals) to a layer span
name.  :func:`tracing` replaces each binding with a recording wrapper for
the duration of a ``with`` block and restores the originals afterwards;
nothing under ``src/`` is edited and the program's own ``Tracer`` stays
off.  Every span keeps name, start, end, parent and the operation id that
was current when it started; spans live in memory and are written out with
the result file.

Self time of a span = its duration minus the time its direct children
cover.  All wrapped callables are synchronous and run on one thread, so
children nest inside their parent and never overlap each other.  Cyclic
garbage collections are recorded the same way (``runtime.gc``, through
``gc.callbacks``): a collection is a child of whatever span it interrupts,
so no layer is charged for it.
"""

from __future__ import annotations

import gc
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Name of the spans recorded for cyclic garbage collections.
GC_SPAN = "runtime.gc"
#: Name of the spans of the probe readings taken inside steps.
PROBE_SPAN = "harness.probe"

#: (module, attribute path inside it, span name[, sizer]).  A dotted
#: attribute path names a class attribute; a bare one names a module global
#: -- patched in the module that *calls* it, because ``from x import f``
#: copies the binding.  ``sizer(args, result)`` gives the span a byte count.
WRAP_TABLE: tuple[tuple, ...] = (
    # graph.ball
    ("repro.framework.prilo", "Prilo.candidate_balls", "graph.ball.candidates"),
    ("repro.graph.ball", "extract_ball", "graph.ball.extract"),
    ("repro.storage.store", "extract_ball", "graph.ball.extract"),
    # framework.roles (user side) and its plaintext matcher
    ("repro.framework.roles", "User.prepare_query", "roles.user.prepare"),
    ("repro.framework.roles", "User.decrypt_pms", "roles.user.decrypt_pms"),
    ("repro.framework.roles", "User.decrypt_results",
     "roles.user.decrypt_results"),
    ("repro.framework.roles", "User.retrieve_and_match", "roles.user.match"),
    ("repro.framework.roles", "find_matches", "semantics.match"),
    # framework.executor fan-outs
    ("repro.framework.executor", "BallExecutor.compute_pm_shares",
     "executor.pm"),
    ("repro.framework.executor", "BallExecutor.evaluate_shares",
     "executor.eval"),
    ("repro.framework.executor", "BallExecutor.verify_shares",
     "executor.eval"),
    # core kernels, as the Player code resolves them
    ("repro.framework.roles", "verify_ball_streaming",
     "core.verification.verify"),
    ("repro.framework.roles", "ssim_verify_ball", "core.verification.verify"),
    ("repro.framework.executor", "verify_prepared_kernel",
     "core.verification.verify"),
    ("repro.framework.roles", "player_table_prune", "core.table_pruning.prune"),
    ("repro.framework.roles", "player_bf_prune", "core.bf_pruning.prune"),
    ("repro.framework.roles", "Dealer.generate_sequences",
     "core.retrieval.sequence"),
    # framework.server
    ("repro.framework.server", "QueryBatchEngine.serve", "server.serve"),
    # storage.store, read side
    ("repro.storage.store", "ArtifactStore.open", "store.open"),
    ("repro.storage.store", "ArtifactStore.load_ball", "store.load_ball"),
    ("repro.storage.store", "ArtifactStore.load_encrypted",
     "store.load_encrypted"),
    # storage.store, write side
    ("repro.storage.store", "ArtifactStore.create", "store.create"),
    ("repro.storage.store", "enumerate_center_tree_encodings",
     "store.tree_artifact"),
    ("repro.storage.store", "twiglets_from", "store.twiglet"),
    ("repro.crypto.stream_cipher", "StreamCipher.encrypt",
     "crypto.stream.encrypt"),
    ("repro.storage.store", "ArtifactStore.apply_delta", "store.apply_delta"),
    ("repro.storage.store", "ArtifactStore.verify", "store.verify"),
    ("repro.storage.store", "shard_split", "store.shard_split"),
    # storage.authenticate / graph.delta, as store.py resolves them
    ("repro.storage.store", "build_auth_block", "authenticate.build_auth"),
    ("repro.storage.store", "updated_auth_block", "authenticate.build_auth"),
    ("repro.storage.authenticate", "MerkleTree.prove", "authenticate.prove"),
    ("repro.storage.store", "touched_min_distances", "delta.dirty_keys"),
    ("repro.storage.store", "dirty_ball_keys", "delta.dirty_keys"),
    # framework.wire / framework.verify (gateway side of the socket)
    ("repro.framework.wire", "encode_frame", "wire.encode",
     lambda args, frame: len(frame)),
    ("repro.framework.wire", "decode_frame", "wire.decode",
     lambda args, payload: len(args[0]) + 4),
    ("repro.framework.verify", "AnswerVerifier.verify_verdict",
     "verify.verify"),
    # framework.shard / framework.gateway
    ("repro.framework.shard", "LocalCluster.start", "shard.spawn"),
    ("repro.framework.shard", "LocalCluster.shutdown", "shard.shutdown"),
    ("repro.framework.gateway", "Gateway.run", "gateway.run"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink; ``op`` is set by the harness around each step."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, sizer=None):
        spans, open_ = self.spans, self._open

        def recorded(*args, **kwargs):
            # Allocating the Span may run a collection, whose own span
            # lands in ``spans`` first: take the index only afterwards.
            span = Span(name, time.perf_counter(), 0.0,
                        open_[-1] if open_ else None, self.op)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if sizer is not None:
                    span.nbytes = sizer(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                open_.pop()

        recorded.__ledger_span__ = name
        recorded.__name__ = getattr(fn, "__name__", name)
        return recorded

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: one ``runtime.gc`` span per collection."""
        if phase == "start":
            span = Span(GC_SPAN, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else None, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
        elif self._open and self.spans[self._open[-1]].name == GC_SPAN:
            self.spans[self._open.pop()].end = time.perf_counter()


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, raw binding)`` for one table row."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


@contextmanager
def tracing(recorder: SpanRecorder, table=WRAP_TABLE):
    """Install the table's wrappers; always restore the raw bindings."""
    installed = []
    try:
        for module_name, path, name, *sizer in table:
            owner, attr, raw = _resolve(module_name, path)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(recorder.wrap(name, raw.__func__, *sizer))
            else:
                wrapped = recorder.wrap(name, raw, *sizer)
            setattr(owner, attr, wrapped)
            installed.append((owner, attr, raw))
        gc.callbacks.append(recorder.on_gc)
        yield recorder
    finally:
        if recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(recorder.on_gc)
        for owner, attr, raw in reversed(installed):
            setattr(owner, attr, raw)


def is_wrapped(module_name: str, path: str) -> bool:
    """Whether a table binding currently holds a recording wrapper."""
    _, _, raw = _resolve(module_name, path)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return hasattr(fn, "__ledger_span__")


def add_probe_spans(spans: list[Span],
                    readings: list[tuple[float, float]]) -> None:
    """Append one ``harness.probe`` span per ``(start, seconds)`` reading
    taken inside a step, as a child of the innermost span it interrupted,
    so that no layer is charged for it.  Done after the pass, from the
    timestamps: the signal handler that takes the readings can fire in
    the middle of a wrapper's bookkeeping and must not touch the recorder.
    A reading that interrupted no span is left out (a step's time leaves
    all of them out).
    """
    recorded = len(spans)
    for start, seconds in readings:
        # Spans are in start order: the last one running at ``start``.
        for parent in range(recorded - 1, -1, -1):
            if spans[parent].start <= start <= spans[parent].end:
                spans.append(Span(PROBE_SPAN, start, start + seconds, parent,
                                  spans[parent].op))
                break


def self_times(spans: list[Span], scale_of=None) -> list[float]:
    """Self time per span (same order as ``spans``).

    ``scale_of(op)`` converts raw seconds of operation ``op`` into
    normalised seconds; ``None`` keeps raw seconds.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    if scale_of is None:
        return own
    return [value * scale_of(span.op) for value, span in zip(own, spans)]


def sum_self(spans: list[Span], own: list[float], name: str,
             under: str | None = None) -> float:
    """Summed self time of the spans called ``name`` -- only those with an
    ancestor called ``under`` when given."""
    total = 0.0
    for span, value in zip(spans, own):
        if span.name != name:
            continue
        if under is not None and not _has_ancestor(spans, span, under):
            continue
        total += value
    return total


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def root_time(spans: list[Span]) -> float:
    """Summed raw duration of the parentless spans that belong to an
    operation (spans recorded between operations carry ``op=None``), less
    the probe readings inside them (which a step's time leaves out too)."""
    total = 0.0
    for span in spans:
        if span.op is None:
            continue
        if span.name == PROBE_SPAN:
            total -= span.duration
        elif span.parent is None:
            total += span.duration
    return total
