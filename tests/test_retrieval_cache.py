"""The user's memo of decoded ball slices (DESIGN.md 7, 9.1).

``User.retrieve_and_match`` MAC-checks every blob the Dealer serves, but
decrypts and decodes a blob once per distinct ``(cipher version, tag,
Sigma_Q)``: a warm memo answers list for list what a fresh user answers,
a tampered or swapped blob takes the same detect -> re-fetch -> recover
path on a warm user as on a cold one, a re-encrypted ball misses, the
memo evicts at its bound and its balls stay read-only.  A record must
also be the ball that was asked for: another ball's authentic blob is
detected, re-fetched, and -- served wrong twice -- a
:class:`BallIntegrityError` (CLI exit 3).

``REPRO_CHAOS_SEED`` (CI's chaos-smoke job sets it) varies the chaos
schedule of the warm-memo tamper test; its assertions hold for every
seed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hmac
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRU
from repro.cli import main
from repro.crypto.keys import DataOwnerKey, UserKeyring
from repro.crypto.stream_cipher import StreamCipher
from repro.framework.faults import (
    ChaosPolicy,
    FaultAction,
    FaultInjector,
    FaultKind,
)
from repro.framework import wire
from repro.framework.gateway import (
    Gateway,
    ShardClient,
    check_verdict_shape,
)
from repro.framework.messages import EncryptedBallBlob
from repro.framework.metrics import (
    CacheStats,
    MessageSizes,
    PhaseTimings,
    RunMetrics,
    scoped_cache_name,
)
from repro.framework.prilo import Prilo
from repro.framework.prilo_star import PriloStar
from repro.framework.roles import (
    BALL_SLICE_MEMO_WEIGHT,
    BallIntegrityError,
    Dealer,
    User,
)
from repro.framework.server import CMMCache, QueryBatchEngine
from repro.framework.shard import LocalCluster, ShardServer, ShardSpec
from repro.graph.delta import GraphDelta
from repro.graph.io import ball_to_bytes
from repro.graph.labeled_graph import BallGraphView
from repro.graph.query import Semantics
from repro.semantics.evaluate import find_matches
from repro.storage import ArtifactStore
from tests.test_label_slice import slice_world, text_ids

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
KEY = DataOwnerKey.generate(11)
RECORDS = {"int": ball_to_bytes,
           "text": lambda ball: ball_to_bytes(text_ids(ball))}


@pytest.fixture(scope="module")
def keyring(cgbe):
    return UserKeyring(cgbe=cgbe, enclave_key=bytes(32), owner_key=KEY)


@pytest.fixture(scope="module")
def fleet(dataset, test_config, certified_cuts):
    """``fleet(shards)``: the certified cut a gateway here serves (shard
    specs plus the gateway's verifier), built once per shard count."""
    def cut(shards: int = 2):
        return certified_cuts(dataset.graph, test_config, shards)

    return cut


class BlobDealer:
    """A Dealer over fixed records, each encrypted once.  ``serve`` maps a
    requested id to the id whose blob is served; ``refetch_serve`` does
    the same for re-fetches; ``corrupt(ball_id, blob)`` may alter the
    first serve of a ball."""

    def __init__(self, records: dict[int, bytes], *, serve=None,
                 refetch_serve=None, corrupt=None) -> None:
        cipher = KEY.cipher()
        self.blobs = {bid: EncryptedBallBlob(
            ball_id=bid, blob=cipher.encrypt(record, nonce=bytes(16)))
            for bid, record in records.items()}
        self._serve = serve or {}
        self._refetch_serve = refetch_serve or {}
        self._corrupt = corrupt

    def fetch_encrypted_ball(self, ball_id: int) -> EncryptedBallBlob:
        blob = self.blobs[self._serve.get(ball_id, ball_id)]
        if self._corrupt is not None:
            blob = replace(blob, blob=self._corrupt(ball_id, blob.blob))
        return replace(blob, ball_id=ball_id)

    def refetch_encrypted_ball(self, ball_id: int) -> EncryptedBallBlob:
        source = self._refetch_serve.get(ball_id, ball_id)
        return replace(self.blobs[source], ball_id=ball_id)


def retrieve(user, dealer, query, ids, injector=None):
    return user.retrieve_and_match(ids, dealer, query, MessageSizes(),
                                   PhaseTimings(), faults=injector)


def events(injector):
    return [(e.kind, e.key, e.action, e.detail)
            for e in injector.report.events]


def flip(position):
    def corrupt(ball_id, blob):
        flipped = bytearray(blob)
        flipped[position % len(flipped)] ^= 0x01
        return bytes(flipped)
    return corrupt


def matching_world(first_seed: int = 0):
    """The first ``slice_world`` (hom) from ``first_seed`` on with a
    match: (query, ball)."""
    for seed in range(first_seed, first_seed + 500):
        query, ball = slice_world(seed, Semantics.HOM)
        if find_matches(query, ball):
            return query, ball
    raise AssertionError("no matching world")


# ----------------------------------------------------------------------
# a warm memo answers what a fresh user answers
# ----------------------------------------------------------------------
class TestWarmEqualsFresh:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_warm_matches_equal_a_fresh_users(self, keyring, seed):
        # The three semantics share one world (and so one alphabet):
        # after the first, every retrieval of a record is a memo hit.
        worlds = {sem: slice_world(seed, sem) for sem in Semantics}
        ball = worlds[Semantics.HOM][1]
        for kind, write in RECORDS.items():
            dealer = BlobDealer({seed: write(ball)})
            warm = User(keyring)
            for query, _ in worlds.values():
                retrieve(warm, dealer, query, [seed])
            for sem, (query, _) in worlds.items():
                fresh = retrieve(User(keyring), dealer, query, [seed])
                assert retrieve(warm, dealer, query, [seed]) == fresh, \
                    (kind, sem)
            stats = warm.slices.stats
            assert (stats.misses, stats.hits) == (1, 5), kind

    def test_distinct_alphabets_do_not_share_a_slice(self, keyring):
        query, ball = matching_world()
        other = next(q for q, _ in (slice_world(s, Semantics.HOM)
                                    for s in range(1, 200))
                     if q.alphabet != query.alphabet)
        dealer = BlobDealer({ball.ball_id: ball_to_bytes(ball)})
        user = User(keyring)
        for q in (query, other, query, other):
            assert retrieve(user, dealer, q, [ball.ball_id]) == retrieve(
                User(keyring), dealer, q, [ball.ball_id])
        assert (user.slices.stats.misses, user.slices.stats.hits) == (2, 2)


    def test_a_miss_is_one_mac_and_one_keystream_a_hit_one_mac(
            self, keyring, monkeypatch):
        query, ball = matching_world()
        dealer = BlobDealer({ball.ball_id: ball_to_bytes(ball)})
        calls = []
        digest, keystream = hmac.digest, StreamCipher._keystream
        monkeypatch.setattr(hmac, "digest", lambda *args: (
            calls.append("mac"), digest(*args))[1])
        monkeypatch.setattr(StreamCipher, "_keystream", lambda *args: (
            calls.append("keystream"), keystream(*args))[1])
        user = User(keyring)
        retrieve(user, dealer, query, [ball.ball_id])
        assert calls == ["mac", "keystream"]
        retrieve(user, dealer, query, [ball.ball_id])
        assert calls == ["mac", "keystream", "mac"]


# ----------------------------------------------------------------------
# tampered and swapped blobs on a warm memo
# ----------------------------------------------------------------------
class TestTamperOnWarmMemo:
    @pytest.mark.parametrize("position", [0, 40, -1],
                             ids=["nonce", "body", "tag"])
    def test_tampered_blob_same_events_as_cold(self, keyring, position):
        query, ball = matching_world()
        bid = ball.ball_id
        records = {bid: ball_to_bytes(ball)}
        warm = User(keyring)
        clean = retrieve(warm, BlobDealer(records), query, [bid])
        assert clean

        outcomes = []
        for user in (warm, User(keyring)):
            injector = FaultInjector()
            dealer = BlobDealer(records, corrupt=flip(position))
            outcomes.append((retrieve(user, dealer, query, [bid], injector),
                             events(injector)))
        (warm_found, warm_events), (cold_found, cold_events) = outcomes
        assert warm_found == cold_found == clean
        assert warm_events == cold_events
        assert [e[2] for e in warm_events] == [
            FaultAction.DETECTED, FaultAction.RETRIED, FaultAction.RECOVERED]
        assert warm_events[0][1] == f"retrieve:b{bid}"

    def test_chaos_schedule_same_on_warm_and_cold(self, keyring):
        """Seeded chaos flips one byte of some first serves: a warm user
        records the same events and answers as a cold one, and both
        answer what a fault-free retrieval does."""
        worlds = [slice_world(seed, Semantics.HOM) for seed in range(40)]
        query = worlds[0][0]
        records = {ball.ball_id: ball_to_bytes(ball) for _, ball in worlds}
        ids = sorted(records)
        clean = retrieve(User(keyring), BlobDealer(records), query, ids)

        def chaotic():
            injector = FaultInjector(ChaosPolicy(
                seed=CHAOS_SEED, fault_rate=0.5,
                kinds=(FaultKind.STORE_TAMPER,)))

            def corrupt(ball_id, blob):
                return injector.corrupt(FaultKind.STORE_TAMPER,
                                        f"store:encrypted:{ball_id}", blob)
            return injector, BlobDealer(records, corrupt=corrupt)

        warm = User(keyring)
        retrieve(warm, BlobDealer(records), query, ids)
        outcomes = []
        for user in (warm, User(keyring)):
            injector, dealer = chaotic()
            outcomes.append((retrieve(user, dealer, query, ids, injector),
                             events(injector)))
        (warm_found, warm_events), (cold_found, cold_events) = outcomes
        assert warm_found == cold_found == clean
        assert warm_events == cold_events
        recovered = [e for e in warm_events
                     if e[2] == FaultAction.RECOVERED]
        injected = [e for e in warm_events if e[2] == FaultAction.INJECTED]
        assert len(recovered) == len(injected) > 0


class TestSwappedBall:
    @staticmethod
    def _swap_world():
        query, ball = matching_world()
        other = next(b for _, b in (slice_world(s, Semantics.HOM)
                                    for s in range(ball.ball_id + 1, 600))
                     if not find_matches(query, b))
        return query, ball, other

    @pytest.mark.parametrize("warm_first", [False, True],
                             ids=["cold", "warm"])
    def test_another_balls_blob_is_detected_and_refetched(self, keyring,
                                                          warm_first):
        query, ball, other = self._swap_world()
        records = {ball.ball_id: ball_to_bytes(ball),
                   other.ball_id: ball_to_bytes(other)}
        user = User(keyring)
        if warm_first:
            retrieve(user, BlobDealer(records), query,
                     [ball.ball_id, other.ball_id])
        injector = FaultInjector()
        dealer = BlobDealer(records, serve={ball.ball_id: other.ball_id})
        found = retrieve(user, dealer, query, [ball.ball_id], injector)
        assert found == {ball.ball_id: find_matches(query, ball)}
        recorded = events(injector)
        assert [e[2] for e in recorded] == [
            FaultAction.DETECTED, FaultAction.RETRIED, FaultAction.RECOVERED]
        assert f"holds ball {other.ball_id}, not {ball.ball_id}" \
            in recorded[0][3]

    def test_swapped_twice_raises_the_integrity_error(self, keyring):
        query, ball, other = self._swap_world()
        records = {ball.ball_id: ball_to_bytes(ball),
                   other.ball_id: ball_to_bytes(other)}
        swap = {ball.ball_id: other.ball_id}
        dealer = BlobDealer(records, serve=swap, refetch_serve=swap)
        with pytest.raises(BallIntegrityError, match=str(ball.ball_id)):
            retrieve(User(keyring), dealer, query, [ball.ball_id])

    def test_engine_answers_the_requested_ball(self, dataset, test_config,
                                               monkeypatch):
        """On an engine: serving another ball's authentic blob for a
        matched ball once no longer drops that ball's matches."""
        query = dataset.random_queries(2, size=4, diameter=2, seed=13)[0]
        with Prilo.setup(dataset.graph, test_config) as engine:
            base = engine.run(query)
            assert base.matches
            target = min(base.matches)
            decoy = next(bid for bid in sorted(engine.index.id_map().values())
                         if not find_matches(query,
                                             engine.index.ball_by_id(bid)))
            dealer = engine.dealer
            honest = dealer.fetch_encrypted_ball
            monkeypatch.setattr(dealer, "fetch_encrypted_ball", lambda bid: (
                honest(decoy) if bid == target else honest(bid)))
            with Prilo.setup(dataset.graph, test_config) as cold:
                cold.dealer = dealer
                for served in (engine, cold):  # warm memo, then cold
                    result = served.run(query)
                    assert result.matches == base.matches
                    keys = {(e.key, e.action)
                            for e in result.metrics.faults.events}
                    assert (f"retrieve:b{target}",
                            FaultAction.RECOVERED) in keys

    def test_cli_exits_3_when_served_wrong_twice(self, monkeypatch, capsys):
        def wrong(self, ball_id):
            return self._store.get(1 if ball_id == 0 else 0)

        monkeypatch.setattr(Dealer, "fetch_encrypted_ball", wrong)
        monkeypatch.setattr(Dealer, "refetch_encrypted_ball", wrong)
        assert main(["--scale", "0.05", "--modulus", "512", "run",
                     "slashdot", "--size", "4", "--diameter", "2"]) == 3
        out = capsys.readouterr().out
        assert "FAILED: ball " in out and "re-served blob" in out


# ----------------------------------------------------------------------
# deltas, the bound, read-only entries
# ----------------------------------------------------------------------
class TestDeltaMisses:
    def test_reencrypted_ball_misses_and_answers_equal_a_rebuild(
            self, tmp_path, dataset, test_config):
        radii = (2,)
        key = DataOwnerKey.generate(test_config.seed)
        config = replace(test_config, radii=radii)
        graph = dataset.graph.copy()
        query = dataset.random_queries(1, size=4, diameter=2, seed=13)[0]
        store = ArtifactStore.create(tmp_path / "live", graph, radii, key)
        with store, Prilo.setup(graph, config, store=store) as engine:
            server = QueryBatchEngine(engine, cache=CMMCache())
            before = server.serve([query]).results[0]
            assert before.matches
            target = min(before.matches)
            center = next(c for (c, _), bid in engine.index.id_map().items()
                          if bid == target)
            neighbor = next(v for v in graph.vertices()
                            if v != center and not graph.has_edge(center, v))
            application = server.apply_delta(
                GraphDelta(added_edges=((center, neighbor),)))
            dirty = set(application.dirty_ball_ids)
            assert target in dirty
            after = server.serve([query]).results[0]
            slices = after.metrics.caches["ball_slice"]
            retrieved = set(after.verified_ids)
            stale = retrieved & (dirty | set(application.added_ball_ids)
                                 | (retrieved - set(before.verified_ids)))
            assert slices.misses == len(stale) > 0
            assert slices.hits == len(retrieved) - len(stale)
            rebuilt_store = ArtifactStore.create(
                tmp_path / "rebuilt", graph, radii, key)
            with rebuilt_store, Prilo.setup(
                    graph, config, store=rebuilt_store) as rebuilt:
                again = rebuilt.run(query)
        assert _canonical(after) == _canonical(again)


def _canonical(result):
    answer = wire.canonical_answer_of_result(result)
    return sorted(m for ms in answer["matches"].values() for m in ms)


class TestBound:
    def test_memo_evicts_least_recent_at_its_bound(self, keyring):
        worlds = [slice_world(seed, Semantics.HOM) for seed in range(12)]
        query = worlds[0][0]
        balls = [ball for _, ball in worlds]
        records = {b.ball_id: ball_to_bytes(b) for b in balls}
        dealer = BlobDealer(records)
        user = User(keyring)
        probe = User(keyring)
        retrieve(probe, dealer, query, sorted(records))
        weights = sorted(
            ball.size + ball.graph.num_edges
            for ball in probe.slices.values())
        bound = sum(weights[-3:])  # every slice fits, not all of them
        user.slices = LRU(bound, weigh=user.slices.weigh)
        ids = sorted(records)
        found = retrieve(user, dealer, query, ids)
        stats = user.slices.stats
        assert stats.evictions > 0
        assert stats.entries == len(user.slices) < len(ids)
        assert stats.weight <= bound and stats.capacity == bound
        # The earliest ids were evicted: retrieving them again misses,
        # and the answers are unchanged.
        misses = stats.misses
        assert retrieve(user, dealer, query, ids[:1]) == {
            bid: m for bid, m in found.items() if bid == ids[0]}
        assert user.slices.stats.misses == misses + 1

    def test_recently_used_entry_survives(self, keyring):
        _, ball = slice_world(0, Semantics.HOM)
        weight = ball.size + ball.graph.num_edges
        memo = LRU(2 * weight, weigh=User(keyring).slices.weigh)
        memo.put(("a",), ball)
        memo.put(("b",), ball)
        assert memo.get(("a",)) is ball  # "b" is now least recent
        memo.put(("c",), ball)
        assert memo.get(("b",)) is None
        assert memo.get(("a",)) is ball and memo.get(("c",)) is ball
        assert memo.stats.evictions == 1 and memo.stats.entries == 2
        assert memo.stats.weight == 2 * weight

    def test_an_oversized_slice_is_kept_alone(self, keyring):
        _, ball = slice_world(0, Semantics.HOM)
        memo = LRU(1, weigh=User(keyring).slices.weigh)
        memo.put(("a",), ball)
        memo.put(("b",), ball)
        assert memo.stats.entries == 1 and memo.get(("b",)) is ball

    def test_default_bound_is_the_module_constant(self, keyring):
        assert User(keyring).slices.stats.capacity == BALL_SLICE_MEMO_WEIGHT


class TestReadOnly:
    def test_cached_ball_cannot_be_mutated(self, keyring):
        query, ball = matching_world()
        dealer = BlobDealer({ball.ball_id: ball_to_bytes(ball)})
        user = User(keyring)
        first = retrieve(user, dealer, query, [ball.ball_id])
        (cached,) = user.slices.values()
        assert isinstance(cached.graph, BallGraphView)
        vertex = next(iter(cached.graph.vertices()))
        for mutate in (lambda g: g.add_vertex("x", "a"),
                       lambda g: g.add_edge(vertex, vertex),
                       lambda g: g.remove_vertex(vertex)):
            with pytest.raises(TypeError, match="read-only"):
                mutate(cached.graph)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cached.ball_id = ball.ball_id + 1
        # A caller editing a returned match does not reach the memo.
        for match in first[ball.ball_id]:
            match.add_vertex("intruder", "a")
        assert retrieve(user, dealer, query, [ball.ball_id]) == retrieve(
            User(keyring), dealer, query, [ball.ball_id])


# ----------------------------------------------------------------------
# observability: RunMetrics, the trace, gateway verdicts
# ----------------------------------------------------------------------
class TestObservability:
    def test_run_metrics_and_matching_event(self, dataset, test_config):
        from repro.observability import Tracer

        query = dataset.random_queries(2, size=4, diameter=2, seed=13)[0]
        tracer = Tracer()
        with Prilo.setup(dataset.graph, test_config,
                         tracer=tracer) as engine:
            first = engine.run(query)
            second = engine.run(query)
        retrieved = len(first.verified_ids)
        assert retrieved
        one, two = (r.metrics.caches["ball_slice"] for r in (first, second))
        assert (one.misses, one.hits) == (retrieved, 0)
        assert (two.misses, two.hits) == (0, retrieved)
        matching = [s for s in tracer.spans if s.name == "query_matching"]
        assert [(s.attrs["decoded"], s.attrs["reused"])
                for s in matching] == [(retrieved, 0), (0, retrieved)]

    def test_gateway_verdicts_carry_the_memo(self, dataset, test_config,
                                             fleet):
        query = wire.query_to_jsonable(
            dataset.random_queries(2, size=4, diameter=2, seed=13)[0])

        async def serve_twice():
            server = ShardServer(ShardSpec(0, dataset.graph, test_config,
                                           fleet(1).shard_root()))
            await server.start()
            client = ShardClient(0, "127.0.0.1", server.port)
            try:
                await client.connect()
                return [await client.request({
                    "t": "query", "qid": qid, "jindex": qid,
                    "query": query, "members": [0]}) for qid in (0, 1)]
            finally:
                await client.close()
                await server.close()

        verdicts = asyncio.run(serve_twice())
        metrics = RunMetrics()
        for verdict in verdicts:
            check_verdict_shape(verdict)
            metrics.record_shard_caches(0, {
                name: CacheStats.from_dict(payload)
                for name, payload in verdict["caches"].items()})
        retrieved = len(verdicts[0]["verified"])
        assert retrieved
        merged = metrics.caches[scoped_cache_name("ball_slice", 0)]
        assert (merged.misses, merged.hits) == (retrieved, retrieved)

    @pytest.mark.parametrize("engine_class", [Prilo, PriloStar],
                             ids=["prilo", "prilo-star"])
    def test_run_records_the_decrypt_memo(self, dataset, test_config,
                                          engine_class):
        """``caches["decrypt"]`` is the user's unblinding memo over PM and
        result decryption: exactly what the CGBE key's counters moved."""
        query = dataset.random_queries(2, size=4, diameter=2, seed=13)[0]
        with engine_class.setup(dataset.graph, test_config) as engine:
            memo = engine.user.keyring.cgbe.decrypt_stats
            for _ in range(2):
                before = memo.snapshot()
                recorded = engine.run(query).metrics.caches["decrypt"]
                assert recorded == memo.delta(before)
                assert recorded.lookups > 0

    def test_gateway_reports_the_fleet_decrypt_memo(self, dataset, fleet):
        queries = dataset.random_queries(2, size=4, diameter=2, seed=13)
        cut = fleet()
        with LocalCluster(cut.specs()) as cluster:
            report = Gateway(cluster.handles,
                             verifier=cut.verifier()).run(queries)
        assert all(outcome.ok for outcome in report.outcomes)
        assert report.metrics.cache_totals()["decrypt"].lookups > 0
        assert any(name.startswith("decrypt@shard")
                   for name in report.metrics.caches)
