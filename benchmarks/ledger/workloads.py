"""The five workloads of the ledger.

Each workload has a *pinned* pool of operations (queries from a fixed QGen
seed, a fixed zipf trace, a fixed pool of single-edge deltas) and the
``--seed`` decides the order they arrive in.  The pools are pinned because
per-query cost spans more than 5x across QGen draws: a run whose query
mix changed with the seed would move every timing metric by far more than
the bounds a regression is judged by, and the exact byte metrics could not
repeat at all.  What the seed does change -- arrival order, and with it the
CGBE randomness each query consumes, cache order, slice composition order
and delta order -- is what a closed-loop client of this system varies.

Common engine configuration (the harness's own copy of the repo's bench
defaults): k=4 players, 2048-bit modulus, 32-bit q/r, config seed 17,
serial executor, batched kernels.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from functools import partial
from pathlib import Path

# repro.framework first: importing repro.storage first dies in a circular
# import (storage.archive -> framework -> framework.shard -> storage).
import repro.framework  # noqa: F401  (import order is the point)
from repro.core.bf_pruning import BFConfig
from repro.crypto.keys import DataOwnerKey
from repro.framework import wire
from repro.framework.gateway import Gateway
from repro.framework.placement import PlacementManifest
from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.framework.server import (
    CMMCache,
    QueryBatchEngine,
    enumeration_signature,
)
from repro.framework.shard import LocalCluster, make_shard_specs
from repro.framework.verify import AnswerVerifier
from repro.graph.ball import BallIndex
from repro.graph.delta import random_delta
from repro.graph.io import ball_to_bytes
from repro.graph.qgen import QGen
from repro.graph.query import Semantics
from repro.semantics.evaluate import ball_contains_match
from repro.storage import store as store_mod
from repro.storage.authenticate import MerkleTree
from repro.storage.store import ArtifactStore
from repro.workloads.datasets import load_dataset
from repro.workloads.traffic import TrafficSpec, generate_traffic

from benchmarks.ledger.fixtures import SHARDS, ensure_pack
from benchmarks.ledger.harness import StepResult, Workload

CONFIG_SEED = 17
#: Seed of the pinned operation pools (queries, trace, deltas).
POOL_SEED = 1000
QUERY_SIZE = 8
QUERY_DIAMETER = 3

#: Per-run scratch space (journals, packs written by store-write): inside
#: the checkout, listed in ``.gitignore``, removed when the run ends.
SCRATCH_ROOT = Path(__file__).resolve().parent / ".scratch"


def engine_config(radius: int) -> PriloConfig:
    return PriloConfig(
        k_players=4, modulus_bits=2048, q_bits=32, r_bits=32,
        radii=(radius,), seed=CONFIG_SEED,
        bf=BFConfig(eta=64, expected_trees=2_000,
                    false_positive_rate=0.3, threshold_t=15))


def _shuffled(count: int, seed: int, salt: str) -> list[int]:
    order = list(range(count))
    random.Random(f"ledger:{salt}:{seed}").shuffle(order)
    return order


def _digest(parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
        hasher.update(b"\x1e")
    return hasher.hexdigest()


def _query_bytes(query) -> bytes:
    return json.dumps(wire.query_to_jsonable(query), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _answer_bytes(result) -> bytes:
    return wire.answer_bytes(wire.canonical_answer_of_result(result))


def expected_match_balls(query, balls) -> frozenset[int]:
    """The plaintext oracle: ids of the candidate balls that contain a
    match (``semantics.evaluate.ball_contains_match``)."""
    return frozenset(ball.ball_id for ball in balls
                     if ball_contains_match(query, ball))


def _independent_oracle(graph, radius: int, queries) -> list[frozenset[int]]:
    """The oracle over balls extracted in memory from ``graph`` -- for the
    store-backed workloads, so a wrong pack cannot vouch for itself.  Ball
    ids agree with the pack's: both number ``(vertex order) x radii``."""
    index = BallIndex(graph, (radius,))
    return [expected_match_balls(
        query, index.candidate_balls(query.most_frequent_label(graph),
                                     query.diameter))
        for query in queries]


_OP_PART = {"evaluation": "eval", "pm_computation": "pm"}


def _op_counters(ops, into: dict[str, float]) -> None:
    for (phase, _role), counts in ops.buckets.items():
        part = _OP_PART.get(phase, "user")
        for op in ("modmul", "modexp", "table_build"):
            value = getattr(counts, op)
            into[f"{op}.all"] = into.get(f"{op}.all", 0) + value
            into[f"{op}.{part}"] = into.get(f"{op}.{part}", 0) + value


def _add(into: dict[str, float], values: dict[str, float]) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def _result_counters(result, counters: dict[str, float],
                     derived: dict[str, float]) -> None:
    """Fold one ``QueryResult`` into a step's counters."""
    metrics = result.metrics
    _add(counters, {
        "queries": 1,
        "candidates": metrics.candidate_balls,
        "positives": metrics.positives_after_pruning,
        "cmms": metrics.cmms_enumerated,
        "bypassed": metrics.bypassed_balls,
        "shares": len(result.sequences),
        "wire_bytes": (metrics.sizes.user_to_sp()
                       + metrics.sizes.sp_to_user()),
    })
    pad = metrics.caches.get("pad")
    if pad is not None:
        _add(counters, {"pad_hits": pad.hits, "pad_lookups": pad.lookups})
    _op_counters(metrics.ops, counters)
    schedule = result.schedule
    if schedule.makespan > 0:
        _add(derived, {"all_positives_frac":
                       schedule.all_positives / schedule.makespan})


class _EngineMeter:
    """Deltas of the counters an engine accumulates across runs: enclave
    boundary crossings and the user's decrypt memo."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self._last = self._read()

    def _read(self) -> tuple[int, int, int, int]:
        engine = self._engine
        enclaves = [player.enclave.metrics for player in engine.players]
        memo = engine.user.keyring.cgbe.decrypt_stats
        return (sum(m.ecalls for m in enclaves),
                sum(m.bytes_in for m in enclaves), memo.hits, memo.lookups)

    def take(self, counters: dict[str, float]) -> None:
        now = self._read()
        names = ("ecalls", "enclave_bytes_in", "decrypt_hits",
                 "decrypt_lookups")
        _add(counters, {name: after - before for name, after, before
                        in zip(names, now, self._last)})
        self._last = now


def _dir_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


# ----------------------------------------------------------------------
# solo-eval-hom / solo-pruned-ssim
# ----------------------------------------------------------------------
class SoloWorkload(Workload):
    """One in-memory engine answering a pool of distinct queries through
    ``engine.run`` -- the faithful single-query pipeline."""

    tail = 75
    engine_class = Prilo
    semantics = Semantics.HOM
    pool_size = (20, 3)  # (full, smoke)
    scale = (1.0, 0.1)

    def prepare(self) -> float:
        self._scale = self.scale[self.smoke]
        count = self.pool_size[self.smoke]
        graph = load_dataset("slashdot",
                             scale=self._scale).graph_for(self.semantics)
        pool = QGen(graph, seed=POOL_SEED).generate_batch(
            count, QUERY_SIZE, QUERY_DIAMETER, self.semantics)
        self.queries = [pool[i] for i in _shuffled(count, self.seed, "pool")]
        self.inputs_digest = _digest(map(_query_bytes, self.queries))
        self.sizes = {"dataset": "slashdot", "scale": self._scale,
                      "vertices": graph.num_vertices,
                      "queries_per_pass": count,
                      "engine": self.engine_class.__name__,
                      "semantics": self.semantics.value}
        self.engine = None
        self._stored: dict[int, int] = {}
        return 0.0

    def setup(self) -> None:
        graph = load_dataset("slashdot",
                             scale=self._scale).graph_for(self.semantics)
        self.engine = self.engine_class.setup(
            graph, engine_config(QUERY_DIAMETER))

    def discard(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def ready(self) -> None:
        self._balls = {}
        self.expected = []
        for query in self.queries:
            _, balls = self.engine.candidate_balls(query)
            self._balls.update((ball.ball_id, ball) for ball in balls)
            self.expected.append(expected_match_balls(query, balls))
        self._meter = _EngineMeter(self.engine)
        self._retrieved: set[int] = set()

    def steps(self):
        return [(f"query-{i}", partial(self._run, i))
                for i in range(len(self.queries))]

    def _run(self, i: int) -> StepResult:
        result = self.engine.run(self.queries[i])
        step = StepResult(work=1.0, answer=_answer_bytes(result))
        step.failed = int(result.match_ball_ids != self.expected[i])
        _result_counters(result, step.counters, step.derived)
        self._meter.take(step.counters)
        self._retrieved.update(result.verified_ids)
        return step

    def end_pass(self) -> None:
        # What a pack would hold for the balls this pass retrieved: the
        # Players' serialized plaintext plus the Dealer's ciphertext.
        for ball_id in self._retrieved - self._stored.keys():
            blob = self.engine.dealer.fetch_encrypted_ball(ball_id)
            self._stored[ball_id] = (
                len(ball_to_bytes(self._balls[ball_id])) + blob.size)

    def stored_bytes_per_ball(self) -> float:
        return sum(self._stored.values()) / len(self._stored)


class SoloEvalHom(SoloWorkload):
    name = "solo-eval-hom"
    why = ("20 hom queries/pass, slashdot 1.0 r3, Prilo (no pruning) via "
           "engine.run: every candidate ball is enumerated and CGBE-"
           "verified; enumeration, verification, crypto, user decrypt+match "
           "do the work")


class SoloPrunedSsim(SoloWorkload):
    name = "solo-pruned-ssim"
    why = ("12 ssim queries/pass, same graph, PriloStar (BF in enclave + "
           "twiglet tables + SSG): table encryption and PM compute/decrypt "
           "dominate, the opposite split; only user of tee and the pruning "
           "layers")
    engine_class = PriloStar
    semantics = Semantics.SSIM
    pool_size = (12, 2)


# ----------------------------------------------------------------------
# the zipf trace shared by batch-zipf-store and gateway-2shard
# ----------------------------------------------------------------------
class _StoreBacked(Workload):
    """Shared inputs of the two workloads that read the slashdot pack."""

    scale = (0.1, 0.05)
    #: (queries in the trace, tenants, slices) for (full, smoke).
    trace_shape = ((40, 8, 5), (8, 4, 2))

    def _prepare_trace(self) -> float:
        self._scale = self.scale[self.smoke]
        count, tenants, slices = self.trace_shape[self.smoke]
        self.fixture, built_s = ensure_pack("slashdot", self._scale,
                                            QUERY_DIAMETER, CONFIG_SEED)
        dataset = load_dataset("slashdot", scale=self._scale)
        queries, ranks = generate_traffic(dataset, TrafficSpec(
            count=count, tenants=tenants, size=QUERY_SIZE,
            diameter=QUERY_DIAMETER, semantics=Semantics.HOM,
            seed=POOL_SEED))
        # Slice membership is pinned; the seed orders each slice and the
        # slices, so per-slice work is the same under every seed.
        per = count // slices
        blocks = [list(range(s * per, (s + 1) * per)) for s in range(slices)]
        rng = random.Random(f"ledger:trace:{self.seed}")
        for block in blocks:
            rng.shuffle(block)
        rng.shuffle(blocks)
        self.slices = [[queries[i] for i in block] for block in blocks]
        slice_ranks = [[ranks[i] for i in block] for block in blocks]
        by_rank = {rank: query for query, rank in zip(queries, ranks)}
        oracle = dict(zip(by_rank, _independent_oracle(
            dataset.graph, QUERY_DIAMETER, by_rank.values())))
        self.expected = [[oracle[rank] for rank in block_ranks]
                         for block_ranks in slice_ranks]
        self.inputs_digest = _digest(
            _query_bytes(q) for block in self.slices for q in block)
        self.sizes = {"dataset": "slashdot", "scale": self._scale,
                      "vertices": dataset.graph.num_vertices,
                      "trace_queries": count, "tenants": tenants,
                      "distinct_signatures": len(by_rank),
                      "slices": slices}
        self.key = DataOwnerKey.generate(CONFIG_SEED)
        self.config = engine_config(QUERY_DIAMETER)
        self._signature_groups = len({
            enumeration_signature(
                query, enumeration_limit=self.config.enumeration_limit,
                cmm_bound_bypass=self.config.cmm_bound_bypass)
            for query in by_rank.values()})
        self.store = self.engine = None
        return built_s

    def layer_extras(self):
        return {"server.signature_groups": self._signature_groups}

    def _open_engine(self, graph) -> None:
        self.store = ArtifactStore.open(self.fixture / "pack")
        self.store.check(graph=graph, radii=self.config.radii, key=self.key)
        self.engine = Prilo.setup(graph, self.config, store=self.store)

    def _close_engine(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.store.close()
            self.store = self.engine = None


class BatchZipfStore(_StoreBacked):
    name = "batch-zipf-store"
    tail = 90
    why = ("40-query zipf trace (8 tenants), slashdot 0.1 r3 pack, store-"
           "backed Prilo, cold engine + QueryBatchEngine per pass: grouped "
           "path, CMMCache hits, mmap'd store reads; a cache gain shows "
           "here only")

    def prepare(self) -> float:
        built_s = self._prepare_trace()
        pack = self.fixture / "pack"
        with ArtifactStore.open(pack) as store:
            self._stored_per_ball = _dir_bytes(pack) / len(store)
        return built_s

    def setup(self) -> None:
        self.graph = load_dataset("slashdot", scale=self._scale).graph
        self._open_engine(self.graph)

    def discard(self) -> None:
        self._close_engine()

    def begin_pass(self) -> None:
        # A pass is a cold serving process: nothing of the previous pass's
        # ball cache or CMM cache survives, so the pack is really read.
        self._close_engine()
        self._open_engine(self.graph)
        self._cache = CMMCache()

    def steps(self):
        return [(f"serve-slice-{i}", partial(self._serve, i))
                for i in range(len(self.slices))]

    def _serve(self, i: int) -> StepResult:
        """One slice of the trace through a ``QueryBatchEngine``; the
        slices of a pass share one CMM cache, so the pass behaves like one
        ``serve(trace)`` while each slice gets its own probe readings."""
        block = self.slices[i]
        meter = _EngineMeter(self.engine)
        report = QueryBatchEngine(self.engine, cache=self._cache).serve(block)
        step = StepResult(work=float(len(block)),
                          samples=list(report.latencies),
                          attempted=len(block))
        answers = []
        for outcome, expected in zip(report.outcomes, self.expected[i]):
            if not outcome.ok or outcome.result.match_ball_ids != expected:
                step.failed += 1
                continue
            _result_counters(outcome.result, step.counters, step.derived)
            answers.append(_answer_bytes(outcome.result))
        step.failed += len(block) - len(report.outcomes)
        step.answer = _digest(answers).encode("ascii")
        meter.take(step.counters)
        cache = report.cache_stats
        _add(step.counters, {"cmm_hits": cache.hits,
                             "cmm_misses": cache.misses,
                             "cmm_evictions": cache.evictions})
        return step


class Gateway2Shard(_StoreBacked):
    name = "gateway-2shard"
    why = ("same trace, pack shard_split in 2, verified serving, journals; "
           "op = LocalCluster start, Gateway.run(8 queries), shutdown; 5 "
           "ops/pass: batch-zipf-store plus spawn, wire, certificates, "
           "merge, journal")
    spawns_children = True

    def prepare(self) -> float:
        built_s = self._prepare_trace()
        self.shards_dir = self.fixture / "shards"
        placement = PlacementManifest.read(self.shards_dir)
        balls = list(placement.shard_balls.values())
        self._ball_imbalance = max(balls) / (sum(balls) / len(balls))
        self._stored_per_ball = (_dir_bytes(self.shards_dir)
                                 / placement.balls)
        with ArtifactStore.open(self.fixture / "pack") as store:
            self._tree = MerkleTree.from_leaf_hexes(store.auth["leaves"])
        self._placement = placement
        self._single_engine_reference()
        SCRATCH_ROOT.mkdir(exist_ok=True)
        self._journal_dirs: list[str] = []
        self._proved: list[list[int]] = []
        return built_s

    def _single_engine_reference(self) -> None:
        """Serve every slice on one store-backed engine: the digest the
        gateway must reproduce, the wire bytes of the same queries (shards
        do not report ``MessageSizes``), and the CPU seconds the work
        amplification is relative to."""
        graph = load_dataset("slashdot", scale=self._scale).graph
        self._open_engine(graph)
        self.reference = []
        try:
            for block in self.slices:
                cpu_started = time.process_time()
                report = QueryBatchEngine(self.engine).serve(block)
                cpu = time.process_time() - cpu_started
                self.reference.append({
                    "digest": _digest(_answer_bytes(r)
                                      for r in report.results),
                    "wire_bytes": sum(
                        r.metrics.sizes.user_to_sp()
                        + r.metrics.sizes.sp_to_user()
                        for r in report.results),
                    "cpu_s": cpu,
                    "complete": len(report.results) == len(block),
                })
        finally:
            self._close_engine()

    def setup(self) -> None:
        self.graph = load_dataset("slashdot", scale=self._scale).graph
        # Prilo's effective config equals ``self.config``: its setup only
        # forces the three pruning switches off, which they already are.
        self.verifier = AnswerVerifier.from_placement(
            PlacementManifest.read(self.shards_dir), seed=CONFIG_SEED,
            config=self.config)

    def layer_extras(self):
        return {**super().layer_extras(),
                "placement.ball_imbalance": self._ball_imbalance}

    def steps(self):
        return [(f"slice-{i}", partial(self._serve_slice, i))
                for i in range(len(self.slices))]

    def _serve_slice(self, i: int) -> StepResult:
        block, reference = self.slices[i], self.reference[i]
        journal_dir = tempfile.mkdtemp(dir=SCRATCH_ROOT)
        self._journal_dirs.append(journal_dir)
        specs = make_shard_specs(
            self.graph, self.config, SHARDS, engine="prilo",
            store_root=str(self.shards_dir), journal_dir=journal_dir)
        cluster = LocalCluster(specs)
        cluster.start()
        try:
            report = Gateway(cluster.handles,
                             verifier=self.verifier).run(block)
        finally:
            cluster.shutdown()
        step = StepResult(work=float(len(block)), attempted=len(block))
        answers = []
        for outcome, expected in zip(report.outcomes, self.expected[i]):
            answer = outcome.answer
            if not outcome.ok or answer is None or frozenset(
                    int(b) for b in answer["matches"]) != expected:
                step.failed += 1
                continue
            answers.append(wire.answer_bytes(answer))
            self._proved.append(answer["candidates"])
        digest = _digest(answers)
        if (digest != reference["digest"] or not reference["complete"]
                or report.forgeries_detected or report.deaths):
            step.failed = max(step.failed, 1)
        step.answer = digest.encode("ascii")
        self._gateway_counters(step, report, reference, specs)
        return step

    def _gateway_counters(self, step, report, reference, specs) -> None:
        counters = step.counters
        _add(counters, {
            "queries": len(report.outcomes),
            "wire_bytes": reference["wire_bytes"] + report.proof_bytes,
            "proof_bytes": report.proof_bytes,
            "proofs_checked": report.proofs_checked,
        })
        # Journal records embed pickled timings, so the size wobbles by a
        # few dozen bytes between identical runs: not an exact counter.
        step.derived["journal_bytes"] = sum(
            os.path.getsize(spec.journal_path) for spec in specs)
        _op_counters(report.metrics.ops, counters)
        for name, stats in report.metrics.cache_totals().items():
            if name == "pad":
                _add(counters, {"pad_hits": stats.hits,
                                "pad_lookups": stats.lookups})
        for summary in report.drain_summaries.values():
            cache = summary.get("cmm_cache", {})
            _add(counters, {
                "cmm_hits": cache.get("hits", 0),
                "cmm_misses": cache.get("misses", 0),
                "cmm_evictions": cache.get("evictions", 0),
                "journal_records":
                    summary.get("journal", {}).get("checkpoints_written", 0),
            })
        step.seconds = {"shard_busy_s": report.busy_seconds,
                        "shard_critical_s": report.critical_path_seconds,
                        "reference_cpu_s": reference["cpu_s"]}

    def end_pass(self) -> None:
        for journal_dir in self._journal_dirs:
            shutil.rmtree(journal_dir, ignore_errors=True)
        self._journal_dirs.clear()
        # Certificates are proved inside the shard processes, out of the
        # harness's sight; replay each shard's proof here so a traced pass
        # can time them (outside every operation's wall).
        shard_of = self._placement.shard_of
        for candidates in self._proved:
            for shard in self._placement.members:
                owned = [b for b in candidates if shard_of(b) == shard]
                if owned:
                    self._tree.prove(owned)
        self._proved.clear()


# ----------------------------------------------------------------------
# store-write
# ----------------------------------------------------------------------
class StoreWrite(Workload):
    name = "store-write"
    why = ("dblp 0.05 r1 (240 balls), CLI-default artifacts: create, 6 "
           "single-edge apply_delta (the operations), verify, shard_split, "
           "reopen, 2 checked queries: the write side of the store the "
           "others only read")
    long_steps = True

    scale = (0.05, 0.03)
    delta_count = (6, 2)
    radius = 1
    check_queries = 2
    check_query_size = 4

    def prepare(self) -> float:
        self._scale = self.scale[self.smoke]
        count = self.delta_count[self.smoke]
        graph = load_dataset("dblp", scale=self._scale).graph
        pool = self._delta_pool(graph, count)
        self.deltas = [pool[i] for i in _shuffled(count, self.seed, "delta")]
        self.queries = QGen(graph, seed=POOL_SEED).generate_batch(
            self.check_queries, self.check_query_size, self.radius,
            Semantics.HOM)
        patched = graph.copy()
        for delta in self.deltas:
            delta.apply(patched)
        self.expected = _independent_oracle(patched, self.radius,
                                            self.queries)
        self.inputs_digest = _digest(
            [d.to_bytes() for d in self.deltas]
            + [_query_bytes(q) for q in self.queries])
        self.sizes = {"dataset": "dblp", "scale": self._scale,
                      "radius": self.radius,
                      "balls": graph.num_vertices, "deltas": count,
                      "check_queries": self.check_queries,
                      "artifacts": "twiglet_h=3, BFConfig()"}
        self.config = engine_config(self.radius)
        SCRATCH_ROOT.mkdir(exist_ok=True)
        self._stored_per_ball = 0.0
        return 0.0

    @staticmethod
    def _delta_pool(graph, count: int) -> list:
        """``count`` single-edge rewires, each valid against the initial
        graph and touching distinct edges, so any order applies cleanly."""
        fraction = 1.5 / graph.num_edges
        pool, removed, added = [], set(), set()
        for attempt in range(50 * count):
            delta = random_delta(graph, edge_fraction=fraction,
                                 seed=POOL_SEED + attempt)
            if len(delta.removed_edges) != 1 or len(delta.added_edges) != 1:
                continue
            if (delta.removed_edges[0] in removed
                    or delta.added_edges[0] in added):
                continue
            removed.add(delta.removed_edges[0])
            added.add(delta.added_edges[0])
            pool.append(delta)
            if len(pool) == count:
                return pool
        raise RuntimeError("could not draw a conflict-free delta pool")

    def setup(self) -> None:
        self.graph = load_dataset("dblp", scale=self._scale).graph
        self.key = DataOwnerKey.generate(CONFIG_SEED)

    def begin_pass(self) -> None:
        self._root = Path(tempfile.mkdtemp(dir=SCRATCH_ROOT))
        self._live = self.graph.copy()
        self._store = None

    def end_pass(self) -> None:
        if self._store is not None:
            self._store.close()
        shutil.rmtree(self._root, ignore_errors=True)

    def steps(self):
        deltas = [(f"apply-delta-{i}", partial(self._apply, delta))
                  for i, delta in enumerate(self.deltas)]
        return ([("create", self._create)] + deltas
                + [("verify", self._verify), ("shard-split", self._split),
                   ("reopen-query", self._reopen_and_query)])

    def _create(self) -> StepResult:
        self._store = ArtifactStore.create(
            self._root / "pack", self._live, (self.radius,), self.key,
            twiglet_h=3, bf_config=BFConfig())
        balls = len(self._store)
        self._stored_per_ball = _dir_bytes(self._root / "pack") / balls
        return StepResult(work=float(balls), samples=[],
                          failed=int(balls != self._live.num_vertices))

    def _apply(self, delta) -> StepResult:
        report = self._store.apply_delta(delta, self._live, self.key)
        return StepResult(
            failed=int(report.balls_after != report.balls_before),
            counters={"dirty_balls": report.dirty,
                      "reencrypted": report.reencrypted})

    def _verify(self) -> StepResult:
        self._store.check(graph=self._live, radii=self.config.radii,
                          key=self.key)
        report = self._store.verify(self.key)
        return StepResult(samples=[], failed=int(
            not report.ok or report.decrypted != len(self._store)))

    def _split(self) -> StepResult:
        placement = store_mod.shard_split(
            self._root / "pack", self._root / "shards", SHARDS)
        return StepResult(samples=[], failed=int(
            placement["balls"] != len(self._store)))

    def _reopen_and_query(self) -> StepResult:
        self._store.close()
        self._store = ArtifactStore.open(self._root / "pack")
        step = StepResult(samples=[], attempted=len(self.queries))
        answers = []
        with Prilo.setup(self._live, self.config,
                         store=self._store) as engine:
            for query, expected in zip(self.queries, self.expected):
                result = engine.run(query)
                step.failed += int(result.match_ball_ids != expected)
                _result_counters(result, step.counters, step.derived)
                answers.append(_answer_bytes(result))
        step.answer = _digest(answers).encode("ascii")
        return step


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SoloEvalHom, SoloPrunedSsim, BatchZipfStore,
                              Gateway2Shard, StoreWrite)}
