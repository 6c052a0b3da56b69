"""One serving shard: a :class:`QueryBatchEngine` behind a loopback socket.

A shard is deliberately thin: the full single-engine serving stack
(CMM cache, admission control, write-ahead journal, tracer, fault
recovery) wrapped in an asyncio TCP server speaking the
:mod:`repro.framework.wire` frame protocol.  What makes it a *shard*
rather than a replica is the per-request ball filter: every ``query``
frame carries the membership under which the shard derives its owned
slice of the ball space (:func:`repro.framework.placement.orphan_predicate`),
so the shard evaluates only its partition -- and, on a re-placement pass
after a peer died, only the orphaned balls that newly moved here.

Shards never talk to each other.  Each holds the full public data graph
(the SP-side view) plus, optionally, its own sliced
:class:`~repro.storage.ArtifactStore` pack cut by ``store shard-split``;
balls outside the pack fall back to live-graph extraction through
:class:`~repro.storage.store.StoreMiss`, which is what makes re-placed
orphans servable at all.

Process model: :class:`LocalCluster` forks one process per shard, each
binding an ephemeral loopback port reported back over a pipe.  SIGKILL
on a member is the failure mode the gateway's recovery path is built
around (and what the chaos hook injects); SIGTERM simply terminates --
graceful drain is protocol-level (a ``drain`` frame), not signal-level,
because the *gateway* owns batch lifecycle.
"""

from __future__ import annotations

import asyncio
import json
import logging
import multiprocessing
import re
import time
from dataclasses import dataclass

from repro.framework import wire
from repro.framework.faults import ChaosPolicy, FaultKind, MALICIOUS_KINDS
from repro.framework.placement import orphan_predicate
from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.framework.server import QueryBatchEngine, QueryStream
from repro.framework.verify import Certifier
from repro.graph.labeled_graph import LabeledGraph
from repro.storage import (
    ArtifactStore,
    RunJournal,
    StoreStale,
    graph_digest,
    journal_key,
)

logger = logging.getLogger(__name__)

ENGINE_CLASSES = {"prilo": Prilo, "prilo-star": PriloStar}

#: How long the parent waits for a forked shard to report its port.
SPAWN_TIMEOUT_SECONDS = 120.0


class ShardError(RuntimeError):
    """A shard failed to start or received an unservable request;
    ``stale``: it refused to start over a stale pack (CLI exit 2, not 3)."""

    def __init__(self, message: str, stale: bool = False) -> None:
        super().__init__(message)
        self.stale = stale


_PATH_RE = re.compile(r"(?:/|[A-Za-z]:\\)[^\s'\",;)\]]*")
_REDACT_MAX_CHARS = 160


def redact_error(exc: BaseException) -> str:
    """Collapse an exception to a wire-safe ``Type: message`` line.

    Error frames cross the trust boundary to the gateway (and, through
    it, the querying user), so they must leak no SP-host detail: no
    stack frames, no filesystem paths (store roots, journal files,
    Python install layout), and no unbounded message payloads.  The full
    traceback stays in the shard-local log, where the operator -- and
    only the operator -- can read it.
    """
    first_line = str(exc).splitlines()[0] if str(exc) else ""
    first_line = _PATH_RE.sub("<path>", first_line)
    if len(first_line) > _REDACT_MAX_CHARS:
        first_line = first_line[:_REDACT_MAX_CHARS] + "..."
    name = type(exc).__name__
    return f"{name}: {first_line}" if first_line else name


@dataclass
class ShardSpec:
    """Everything one shard process needs to build its engine and serve.

    Passed to the child through :class:`multiprocessing` (free under the
    fork start method; picklable for spawn).  The ring geometry is not
    part of it: shards, the gateway's verifier and ``store shard-split``
    all place balls on the one fixed ring of
    :mod:`repro.framework.placement`.  Admission is the gateway's
    (``Gateway(queue_bound=)``): a shard serves whatever it is sent.
    """

    shard_id: int
    graph: LabeledGraph
    config: PriloConfig
    engine: str = "prilo"
    store_root: str | None = None
    journal_path: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    #: Malicious-SP injection: a seeded :class:`ChaosPolicy` over the
    #: :data:`~repro.framework.faults.MALICIOUS_KINDS`.  The mutation
    #: layer runs *after* the honest engine (and certifier) produced the
    #: verdict, modeling an adversary who controls the shard's bytes but
    #: holds no owner-derived key -- it can rebuild public Merkle proofs,
    #: never the keyed binding/answer digests.
    rogue: ChaosPolicy | None = None


class ShardServer:
    """The in-process part of a shard (testable without forking)."""

    def __init__(self, spec: ShardSpec) -> None:
        if spec.engine not in ENGINE_CLASSES:
            raise ShardError(f"unknown engine {spec.engine!r} "
                             f"(have {sorted(ENGINE_CLASSES)})")
        self.spec = spec
        self.engine = None
        self.stream: QueryStream | None = None
        self.certifier: Certifier | None = None
        self.journal: RunJournal | None = None
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._lock = asyncio.Lock()
        #: The last honest OK verdict, kept as replay ammunition for the
        #: rogue layer's ``REPLAY_STALE`` mutation.
        self._last_ok: dict | None = None

    # -- lifecycle ------------------------------------------------------
    def build_engine(self) -> None:
        spec = self.spec
        store = (ArtifactStore.open(spec.store_root)
                 if spec.store_root else None)
        engine_cls = ENGINE_CLASSES[spec.engine]
        self.engine = engine_cls.setup(spec.graph, spec.config, store=store)
        if store is not None and spec.config.verify_serving:
            # Certify with the engine's *effective* config: engine
            # classes override pruning flags in setup(), and the
            # fingerprint must match what the gateway verifier derives
            # for the same engine choice.
            self.certifier = Certifier(
                store.auth, seed=spec.config.seed,
                config=self.engine.config,
                graph_digest=store.manifest_graph_digest)
        if spec.journal_path:
            self.journal = RunJournal(spec.journal_path,
                                      journal_key(spec.config.seed))
        self.stream = QueryStream(QueryBatchEngine(self.engine,
                                                   journal=self.journal))

    async def start(self) -> None:
        if self.engine is None:
            self.build_engine()
        self._server = await asyncio.start_server(
            self._handle_connection, self.spec.host, self.spec.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.stream is not None:
            self.stream.engine.close()
        if self.journal is not None:
            # The engine does not own the journal; the shard that opened
            # it closes it (which fsyncs whatever tail is not yet durable).
            self.journal.close()

    # -- protocol -------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await wire.write_frame(writer, {
                "t": "hello", "shard": self.spec.shard_id,
                "balls": len(self.engine.index),
            })
            while True:
                request = await wire.read_frame(reader)
                if request is None:
                    break
                reply = await self._dispatch(request)
                if "rid" in request:
                    reply["rid"] = request["rid"]
                await wire.write_frame(writer, reply)
        except (wire.WireError, ConnectionError) as exc:
            logger.warning("shard %d: connection dropped: %s",
                           self.spec.shard_id, exc)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: dict) -> dict:
        kind = request.get("t")
        if kind == "ping":
            return {"t": "pong", "shard": self.spec.shard_id,
                    "served": self.stream.admission.completed,
                    "drained": self.stream.drained}
        if kind == "query":
            # One query at a time engine-wide: evaluation consumes the
            # shard-local user's CGBE randomness, so requests arriving on
            # different connections must not interleave.
            async with self._lock:
                return self._answer(request)
        if kind == "drain":
            async with self._lock:
                self.stream.request_drain()
                report = self.stream.report()
                return {"t": "drained", "shard": self.spec.shard_id,
                        "summary": report.summary()}
        return {"t": "error",
                "detail": f"unknown frame type {kind!r}"}

    def _answer(self, request: dict) -> dict:
        qid = request.get("qid")
        if type(qid) is not int:
            return {"t": "error", "shard": self.spec.shard_id,
                    "detail": "query frame without an integer qid"}
        try:
            query = wire.query_from_jsonable(request["query"])
            members = request["members"]
            prev = request.get("prev_members")
            keep = orphan_predicate(self.spec.shard_id, members, prev)
            self.engine.install_ball_filter(keep)
            # Busy is CPU time, not wall: the shard is its own process,
            # so process_time() is exactly its compute.  Wall latency on
            # an oversubscribed host (N shards time-sliced on few cores)
            # counts scheduler wait, which would make per-shard busy grow
            # with fleet size and hide the scaling the gateway buys.
            cpu_started = time.process_time()
            outcome = self.stream.serve_one(
                query, index=int(request.get("jindex", qid)))
            busy = time.process_time() - cpu_started
            cert = None
            if self.certifier is not None and outcome.result is not None:
                cert = self.certifier.certify(
                    qid=qid, shard_id=self.spec.shard_id, members=members,
                    prev_members=prev, result=outcome.result)
            payload = wire.verdict_payload(qid, self.spec.shard_id,
                                           outcome, busy=busy, cert=cert)
            if self.spec.rogue is not None:
                payload = self._rogue_mutate(payload)
            return payload
        except Exception as exc:  # noqa: BLE001 -- report, don't kill the shard
            # Full traceback to the shard-local log only; the frame that
            # leaves the process carries a redacted one-liner.
            logger.exception("shard %d: query %d failed",
                             self.spec.shard_id, qid)
            return {"t": "error", "qid": qid,
                    "shard": self.spec.shard_id, "detail": redact_error(exc)}

    # -- malicious-SP injection -----------------------------------------
    def _rogue_mutate(self, payload: dict) -> dict:
        """Apply the first seeded malicious mutation that fires.

        The honest verdict (certificate included) is already built; the
        rogue layer tampers with it the way a key-less adversary could:
        it may fabricate matches, drop candidates (and rebuild the
        *public* Merkle proof over the survivors), or replay a stale
        verdict verbatim -- but it cannot recompute the keyed binding or
        answer digests, which is exactly what the merge-time verifier
        checks.
        """
        if payload.get("t") != "verdict" or "candidates" not in payload:
            return payload
        stale, self._last_ok = self._last_ok, payload
        rogue = self.spec.rogue
        qid = payload["qid"]
        key = f"shard{self.spec.shard_id}:q{qid}"
        for kind in rogue.kinds:
            if kind not in MALICIOUS_KINDS or not rogue.decides(kind, key):
                continue
            if kind == FaultKind.REPLAY_STALE:
                if stale is None or stale.get("qid") == qid:
                    continue  # nothing stale yet; try the other kinds
                replayed = json.loads(json.dumps(stale))
                replayed["qid"] = qid
                logger.warning("shard %d: ROGUE replaying q%s's verdict "
                               "as q%d", self.spec.shard_id,
                               stale.get("qid"), qid)
                return replayed
            mutated = json.loads(json.dumps(payload))
            if kind == FaultKind.DROP_BALL and mutated["candidates"]:
                dropped = mutated["candidates"].pop()
                mutated["pm_positive"] = [
                    b for b in mutated.get("pm_positive", [])
                    if b != dropped]
                mutated["verified"] = [
                    b for b in mutated.get("verified", []) if b != dropped]
                mutated.get("matches", {}).pop(str(dropped), None)
                cert = mutated.get("cert")
                if cert is not None and self.certifier is not None:
                    # Proofs are public: the lazy shard *can* re-prove
                    # the shrunken set.  Completeness vs. the committed
                    # catalog is what catches it.
                    cert["proof"] = (
                        self.certifier.tree.prove(mutated["candidates"])
                        if mutated["candidates"] else None)
                logger.warning("shard %d: ROGUE dropping ball %d from "
                               "q%d", self.spec.shard_id, dropped, qid)
                return mutated
            # FORGE_RESULT -- also the fallback when there is nothing
            # to drop or replay.
            cands = mutated.get("candidates", [])
            ball = cands[-1] if cands else qid + 1
            if ball not in cands:
                cands.append(ball)
                mutated["candidates"] = cands
            for field_name in ("pm_positive", "verified"):
                ids = mutated.get(field_name, [])
                if ball not in ids:
                    ids.append(ball)
                    mutated[field_name] = ids
            mutated.setdefault("matches", {}).setdefault(
                str(ball), []).append('"forged-by-rogue-shard"')
            logger.warning("shard %d: ROGUE forging a match on ball %d "
                           "of q%d", self.spec.shard_id, ball, qid)
            return mutated
        return payload


# ----------------------------------------------------------------------
# process entry point + local cluster management
# ----------------------------------------------------------------------
def run_shard(spec: ShardSpec, conn) -> None:
    """Child-process entry: build, bind, report the port -- or why the
    shard cannot start, as ``(redacted error, is it StoreStale)`` -- and
    serve forever."""

    async def _amain() -> None:
        try:
            server = ShardServer(spec)
            await server.start()
        except Exception as exc:  # noqa: BLE001 -- the parent raises it
            logger.error("shard %d cannot start: %r", spec.shard_id, exc)
            conn.send((redact_error(exc), isinstance(exc, StoreStale)))
            return
        conn.send(server.port)
        conn.close()
        await server.serve_forever()

    try:
        asyncio.run(_amain())
    except (KeyboardInterrupt, asyncio.CancelledError):  # pragma: no cover
        pass


@dataclass
class ShardHandle:
    """The parent's view of one spawned shard."""

    spec: ShardSpec
    process: multiprocessing.process.BaseProcess
    port: int

    @property
    def shard_id(self) -> int:
        return self.spec.shard_id

    @property
    def host(self) -> str:
        return self.spec.host

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL -- the crash the gateway's re-placement recovers from."""
        self.process.kill()


class LocalCluster:
    """Spawn/terminate a set of shard processes (context manager).

    Uses the fork start method where available (Linux): the data graph is
    shared copy-on-write, so an 8-shard cluster does not hold 8 pickled
    graph copies in flight during spawn.  Shutdown always runs: SIGTERM,
    join with a timeout, SIGKILL stragglers -- a crashed caller must not
    leak worker processes (asserted by the CI shard-smoke sweep).
    """

    def __init__(self, specs: list[ShardSpec]) -> None:
        ids = [s.shard_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ShardError(f"duplicate shard ids in {ids}")
        self.specs = specs
        self.handles: list[ShardHandle] = []
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def start(self) -> list[ShardHandle]:
        for spec in self.specs:
            # Hash the graph once here, before the fork: every child's
            # staleness check and journal fingerprint reads the memo it
            # inherits (under spawn, the memo travels in the pickle).
            graph_digest(spec.graph)
        pending = []
        try:
            for spec in self.specs:
                parent_conn, child_conn = self._ctx.Pipe(duplex=False)
                process = self._ctx.Process(
                    target=run_shard, args=(spec, child_conn),
                    name=f"repro-shard-{spec.shard_id}")
                process.start()
                child_conn.close()
                pending.append((spec, process, parent_conn))
            for spec, process, parent_conn in pending:
                if not parent_conn.poll(SPAWN_TIMEOUT_SECONDS):
                    raise ShardError(
                        f"shard {spec.shard_id} did not report a port "
                        f"within {SPAWN_TIMEOUT_SECONDS:.0f}s")
                try:
                    reply = parent_conn.recv()
                except EOFError:  # died without a word (killed, os._exit)
                    reply = ("exited before reporting a port", False)
                parent_conn.close()
                if not isinstance(reply, int):
                    raise ShardError(f"shard {spec.shard_id} failed to "
                                     f"start: {reply[0]}", stale=reply[1])
                self.handles.append(ShardHandle(spec=spec, process=process,
                                                port=reply))
        except BaseException:
            for _, process, _ in pending:
                if process.is_alive():
                    process.kill()
                process.join(timeout=5)
            self.handles = []
            raise
        return self.handles

    def shutdown(self) -> None:
        for handle in self.handles:
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self.handles:
            handle.process.join(timeout=10)
            if handle.process.is_alive():  # pragma: no cover
                handle.process.kill()
                handle.process.join(timeout=5)

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def make_shard_specs(graph: LabeledGraph, config: PriloConfig, shards: int,
                     *, engine: str = "prilo",
                     store_root: str | None = None,
                     journal_dir: str | None = None,
                     rogue_shards: tuple[int, ...] = (),
                     rogue_policy: ChaosPolicy | None = None,
                     ) -> list[ShardSpec]:
    """Specs for an N-shard loopback cluster over one graph/config.

    ``store_root`` names a ``store shard-split`` output directory; each
    shard gets its ``shard-<i>`` pack.  ``journal_dir`` gives each shard
    its own write-ahead journal file.  ``rogue_shards`` names the
    members that get the malicious-SP mutation layer (``rogue_policy``),
    everyone else serves honestly.
    """
    from pathlib import Path

    rogue_set = {int(s) for s in rogue_shards}
    unknown = rogue_set - set(range(shards))
    if unknown:
        raise ValueError(f"rogue shard ids {sorted(unknown)} outside "
                         f"0..{shards - 1}")
    if rogue_set and rogue_policy is None:
        raise ValueError("rogue_shards named without a rogue_policy")
    specs = []
    for shard_id in range(shards):
        store = None
        if store_root is not None:
            store = str(Path(store_root) / f"shard-{shard_id}")
        journal = None
        if journal_dir is not None:
            journal = str(Path(journal_dir) / f"shard-{shard_id}.wal")
        specs.append(ShardSpec(
            shard_id=shard_id, graph=graph, config=config, engine=engine,
            store_root=store, journal_path=journal,
            rogue=rogue_policy if shard_id in rogue_set else None))
    return specs


__all__ = [
    "ENGINE_CLASSES",
    "LocalCluster",
    "ShardError",
    "ShardHandle",
    "ShardServer",
    "ShardSpec",
    "make_shard_specs",
    "redact_error",
    "run_shard",
]
