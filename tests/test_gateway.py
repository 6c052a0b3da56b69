"""Sharded serving tier: ring placement, wire protocol, split stores,
shard-aware metrics, zipf traffic, and gateway equivalence/chaos.

The load-bearing assertions are the byte-identity ones: a plain engine,
a 1-shard gateway, an N-shard gateway and a gateway that lost a shard
mid-batch must produce answers whose canonical JSON bytes are equal --
:func:`repro.framework.wire.answer_bytes` is the contract the scaling
benchmark and the CI shard-smoke job both lean on.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import pathlib
import signal
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import DataOwnerKey
from repro.crypto.ops import OpCounter
from repro.framework import wire
from repro.framework.gateway import (
    Gateway,
    GatewayChaos,
    GatewayError,
    ShardClient,
)
from repro.framework.metrics import (
    CacheStats,
    JournalCounters,
    RunMetrics,
    base_cache_name,
    scoped_cache_name,
)
from repro.framework.placement import (
    HashRing,
    PlacementError,
    PlacementManifest,
    orphan_predicate,
    ring_for,
)
from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.framework.server import QueryBatchEngine, QueryStatus, QueryStream
from repro.framework.shard import (
    LocalCluster,
    ShardError,
    ShardServer,
    ShardSpec,
    make_shard_specs,
    run_shard,
)
from repro.graph.ball import extract_ball
from repro.graph.query import Semantics
from repro.observability.spans import Tracer
from repro.storage import (
    ArtifactStore,
    RunJournal,
    StoreMiss,
    journal_key,
    shard_split,
)
from repro.storage import store as store_module
from repro.workloads.datasets import tiny_dataset
from repro.workloads.traffic import TrafficSpec, generate_traffic, zipf_ranks


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=0, num_vertices=120, num_labels=8)


@pytest.fixture(scope="module")
def gw_config():
    return PriloConfig(k_players=2, modulus_bits=1024, q_bits=24,
                       r_bits=24, radii=(3,), seed=6)


def _baseline_answers(graph, config, queries, engine_cls=Prilo):
    engine = engine_cls.setup(graph, config)
    try:
        return [wire.canonical_answer_of_result(engine.run(q))
                for q in queries]
    finally:
        engine.close()


def _owners(ring, ids):
    return {ball_id: ring.owner_of(ball_id) for ball_id in ids}


def _assert_byte_identical(expected, answers):
    assert len(expected) == len(answers)
    for i, (a, b) in enumerate(zip(expected, answers)):
        assert b is not None, f"query {i} has no merged answer"
        assert wire.answer_bytes(a) == wire.answer_bytes(b), \
            f"query {i}: sharded answer diverges from baseline"


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_complete(self):
        ids = list(range(400))
        a = HashRing([0, 1, 2, 3]).assign(ids)
        b = HashRing([0, 1, 2, 3]).assign(ids)
        assert a == b
        owned = [bid for member in a.values() for bid in member]
        assert sorted(owned) == ids  # partition: disjoint and complete

    def test_every_member_owns_something(self):
        assign = HashRing([0, 1, 2, 3]).assign(range(400))
        assert all(assign[m] for m in (0, 1, 2, 3))

    def test_minimal_movement_on_member_loss(self):
        ids = range(500)
        before = _owners(HashRing([0, 1, 2, 3]), ids)
        after = _owners(HashRing([0, 1, 3]), ids)
        moved = {bid for bid in ids if before[bid] != after[bid]}
        # Exactly the dead member's balls move, nothing else.
        assert moved == {bid for bid, owner in before.items() if owner == 2}

    @pytest.mark.parametrize("vnodes", [1, 16, 64])
    def test_replacement_moves_only_orphans_across_vnode_counts(
            self, vnodes):
        """The minimal-movement property is a property of consistent
        hashing itself, not of the default geometry: at 1, 16 and 64
        vnodes per member, a shard death moves exactly the dead member's
        balls, and the survivors' re-placement passes
        (``orphan_predicate`` with ``prev_members``) cover exactly that
        orphan set, disjointly."""
        ids = range(500)
        for dead in (0, 2, 3):
            prev = (0, 1, 2, 3)
            now = tuple(m for m in prev if m != dead)
            before = _owners(HashRing(list(prev), vnodes=vnodes), ids)
            after = _owners(HashRing(list(now), vnodes=vnodes), ids)
            orphans = {b for b, owner in before.items() if owner == dead}
            moved = {b for b in ids if before[b] != after[b]}
            assert moved == orphans, \
                f"vnodes={vnodes}, dead={dead}: non-orphans moved"
            covered: set[int] = set()
            for shard in now:
                keep = orphan_predicate(shard, now, prev, vnodes=vnodes)
                mine = {b for b in ids if keep(b)}
                assert not covered & mine
                covered |= mine
            assert covered == orphans

    def test_salt_and_vnodes_change_placement(self):
        ids = range(200)
        base = _owners(HashRing([0, 1, 2]), ids)
        assert _owners(HashRing([0, 1, 2], salt="other"), ids) != base
        assert _owners(HashRing([0, 1, 2], vnodes=8), ids) != base

    def test_rejects_degenerate_rings(self):
        with pytest.raises(PlacementError):
            HashRing([])
        with pytest.raises(PlacementError):
            HashRing([0, 1], vnodes=0)

    def test_ring_for_is_memoized(self):
        assert ring_for([2, 0, 1]) is ring_for([0, 1, 2])


class TestOrphanPredicate:
    def test_membership_partition(self):
        members = (0, 1, 2, 3)
        ids = range(300)
        owners = _owners(ring_for(members), ids)
        for shard in members:
            keep = orphan_predicate(shard, members)
            assert {b for b in ids if keep(b)} == \
                {b for b, o in owners.items() if o == shard}

    def test_replacement_pass_covers_exactly_the_moved_balls(self):
        prev = (0, 1, 2, 3)
        now = (0, 1, 3)
        ids = range(300)
        before = _owners(ring_for(prev), ids)
        orphans = {b for b, owner in before.items() if owner == 2}
        covered = set()
        for shard in now:
            keep = orphan_predicate(shard, now, prev)
            mine = {b for b in ids if keep(b)}
            assert not covered & mine  # survivors never overlap
            covered |= mine
        assert covered == orphans


class TestPlacementManifest:
    def test_round_trip(self, tmp_path):
        manifest = PlacementManifest(
            members=(0, 1, 2), graph_digest="d",
            radii=(3,), balls=9,
            shard_dirs={m: f"shard-{m}" for m in (0, 1, 2)},
            shard_balls={0: 3, 1: 3, 2: 3})
        manifest.write(tmp_path)
        loaded = PlacementManifest.read(tmp_path)
        assert loaded == manifest
        assert loaded.shard_of(17) == manifest.ring().owner_of(17)

    def test_rejects_wrong_kind(self, tmp_path):
        (tmp_path / "placement.json").write_text(json.dumps({"kind": "x"}))
        with pytest.raises(PlacementError):
            PlacementManifest.read(tmp_path)

    @pytest.mark.parametrize("previous", [False, True])
    def test_interrupted_write_leaves_no_truncated_file(
            self, tmp_path, monkeypatch, previous):
        """A write cut off half way leaves no ``placement.json`` or a
        complete, readable one -- never a truncated file."""
        old = PlacementManifest(
            members=(0, 1), graph_digest="old",
            radii=(2,), balls=2, shard_dirs={0: "shard-0", 1: "shard-1"},
            shard_balls={0: 1, 1: 1})
        new = PlacementManifest(
            members=(0, 1, 2), graph_digest="new",
            radii=(2,), balls=9,
            shard_dirs={m: f"shard-{m}" for m in (0, 1, 2)},
            shard_balls={0: 3, 1: 3, 2: 3})
        if previous:
            old.write(tmp_path)

        def torn(path, data, *args, **kwargs):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("power cut mid-write")

        monkeypatch.setattr(pathlib.Path, "write_text", torn)
        with pytest.raises(OSError, match="power cut"):
            new.write(tmp_path)
        monkeypatch.undo()
        if (tmp_path / "placement.json").exists():
            assert PlacementManifest.read(tmp_path) in (old, new)
            assert previous


#: A placement with every field set, auth block included.
_PLACEMENT = PlacementManifest(
    members=(0, 1), graph_digest="d",
    radii=(2,), balls=9, shard_dirs={0: "shard-0", 1: "shard-1"},
    shard_balls={0: 4, 1: 5}, auth_root="ab",
    catalog={"2": {"A": [1, 2]}}, catalog_digest="cd").to_jsonable()


class TestMalformedPlacement:
    """A ``placement.json`` of the wrong shape, or one naming a shard
    directory outside its own, is a ``PlacementError`` from ``read`` (CLI
    ``gateway --store``: ``FAILED:`` exit 3), never a raw exception or a
    silent start."""

    @staticmethod
    def _write(root, payload) -> None:
        data = payload if isinstance(payload, bytes) else \
            json.dumps(payload).encode()
        (root / "placement.json").write_bytes(data)

    def _refused(self, root, capsys):
        with pytest.raises(PlacementError, match="malformed placement"):
            PlacementManifest.read(root)
        from repro.cli import main

        capsys.readouterr()
        assert main(["--scale", "0.02", "gateway", "slashdot", "--store",
                     str(root), "--shards", "2", "--count", "2",
                     "--tenants", "1", "--size", "4",
                     "--diameter", "2"]) == 3
        assert "FAILED: malformed placement manifest" in \
            capsys.readouterr().out

    def test_well_formed_reads(self, tmp_path):
        self._write(tmp_path, _PLACEMENT)
        assert PlacementManifest.read(tmp_path).to_jsonable() == _PLACEMENT

    def test_not_an_object(self, tmp_path, capsys):
        self._write(tmp_path, [])
        self._refused(tmp_path, capsys)

    def test_members_missing(self, tmp_path, capsys):
        self._write(tmp_path, {k: v for k, v in _PLACEMENT.items()
                               if k != "members"})
        self._refused(tmp_path, capsys)

    def test_members_not_ints(self, tmp_path, capsys):
        self._write(tmp_path, {**_PLACEMENT, "members": ["x"]})
        self._refused(tmp_path, capsys)

    def test_not_utf8(self, tmp_path, capsys):
        self._write(tmp_path, b"\xff\xfe" + json.dumps(_PLACEMENT).encode())
        self._refused(tmp_path, capsys)

    def test_shard_dir_outside_the_fleet_root(self, tmp_path, capsys):
        shards = {**_PLACEMENT["shards"],
                  "0": {"dir": "../../pl/pack", "balls": 4}}
        self._write(tmp_path, {**_PLACEMENT, "shards": shards})
        self._refused(tmp_path, capsys)

    @pytest.mark.parametrize("geometry", [{"vnodes": 32},
                                          {"salt": "other-ring"}])
    def test_other_ring_geometry(self, tmp_path, capsys, geometry):
        """The ring geometry is fixed: a cut that names another one would
        place balls where its shard packs do not hold them."""
        self._write(tmp_path, {**_PLACEMENT, **geometry})
        with pytest.raises(PlacementError, match="ring geometry"):
            PlacementManifest.read(tmp_path)
        self._refused(tmp_path, capsys)

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("placement-fuzz")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzz_reads_or_raises_placement_error(self, fuzz_dir, data):
        text = json.dumps(_PLACEMENT).encode()
        kind = data.draw(st.sampled_from(["truncate", "flip", "retype"]))
        if kind == "truncate":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        elif kind == "flip":
            flipped = bytearray(text)
            flipped[data.draw(st.integers(0, len(text) - 1))] ^= 1 << \
                data.draw(st.integers(0, 7))
            text = bytes(flipped)
        else:
            doc = json.loads(text)
            target = data.draw(st.sampled_from(
                [doc, doc["shards"], doc["shards"]["1"], doc["auth"]]))
            value = data.draw(st.sampled_from(
                [None, True, -1, 1.5, "x", "..", [], {}, [1], {"1": "x"}]))
            target[data.draw(st.sampled_from(sorted(target)))] = value
            text = json.dumps(doc).encode()
        self._write(fuzz_dir, text)
        try:
            PlacementManifest.read(fuzz_dir)
        except PlacementError:
            pass


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestWire:
    def test_frame_round_trip(self):
        payload = {"t": "query", "qid": 3, "members": [0, 1]}
        assert wire.decode_frame(wire.encode_frame(payload)[4:]) == payload

    def test_rejects_non_object_payloads(self):
        with pytest.raises(wire.WireError):
            wire.decode_frame(b"[1, 2]")
        with pytest.raises(wire.WireError):
            wire.decode_frame(b"\xff\xfe")

    def test_rejects_oversized_frames(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        with pytest.raises(wire.WireError):
            wire.encode_frame({"t": "x" * 64})

    def test_query_round_trip(self, dataset):
        for semantics in Semantics:
            query = dataset.random_query(size=5, semantics=semantics,
                                         seed=4)
            back = wire.query_from_jsonable(wire.query_to_jsonable(query))
            assert back.semantics is query.semantics
            assert back.diameter == query.diameter
            assert back.vertex_order == query.vertex_order
            assert [back.label(u) for u in back.vertex_order] == \
                [query.label(u) for u in query.vertex_order]

    def test_reader_rejects_an_oversized_announce_without_allocating(
            self):
        """A hostile length prefix beyond MAX_FRAME_BYTES must fail fast
        -- before the reader tries to buffer what the prefix claims."""
        async def main():
            reader = asyncio.StreamReader()
            huge = wire.MAX_FRAME_BYTES + 1
            reader.feed_data(huge.to_bytes(4, "big"))
            with pytest.raises(wire.WireError, match="announced"):
                await wire.read_frame(reader)

        asyncio.run(main())

    def test_reader_distinguishes_clean_eof_from_torn_frames(self):
        async def clean_eof():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await wire.read_frame(reader)

        async def torn(prefix_only: bool):
            reader = asyncio.StreamReader()
            if prefix_only:
                reader.feed_data(b"\x00\x01")  # half a length prefix
            else:
                frame = wire.encode_frame({"t": "ping"})
                reader.feed_data(frame[:-3])  # body cut short
            reader.feed_eof()
            return await wire.read_frame(reader)

        assert asyncio.run(clean_eof()) is None
        for prefix_only in (True, False):
            with pytest.raises(wire.WireError, match="mid-frame"):
                asyncio.run(torn(prefix_only))

    def test_canonical_answer_is_form_insensitive(self, dataset):
        graph = dataset.graph
        sub = extract_ball(graph, next(iter(graph.vertices())), 1,
                           ball_id=0).graph
        from repro.graph.io import graph_to_json

        engine_side = wire.canonical_answer(
            [2, 1], [1], [1], {1: [sub]})
        wire_side = wire.canonical_answer(
            (1, 2), (1,), (1,), {"1": [graph_to_json(sub)]})
        assert wire.answer_bytes(engine_side) == wire.answer_bytes(wire_side)
        assert engine_side["num_matches"] == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


class TestWireFuzz:
    """No bytes a peer can send make the frame parser raise anything but
    ``WireError``, or hand back anything but a ``dict`` -- the reader
    loops on both sides of the socket catch exactly that."""

    @staticmethod
    def _read(data: bytes):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await wire.read_frame(reader)

        return asyncio.run(main())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_frames(self, data):
        frame = bytearray(wire.encode_frame(data.draw(
            st.dictionaries(st.text(max_size=4), _JSON, max_size=4))))
        kind = data.draw(st.sampled_from(
            ["intact", "truncated", "bit-flipped", "oversized-prefix",
             "non-object", "nested"]))
        if kind == "truncated":
            del frame[data.draw(st.integers(0, len(frame) - 1)):]
        elif kind == "bit-flipped":
            position = data.draw(st.integers(0, len(frame) - 1))
            frame[position] ^= 1 << data.draw(st.integers(0, 7))
        elif kind == "oversized-prefix":
            frame[:4] = data.draw(st.integers(
                wire.MAX_FRAME_BYTES + 1, 2 ** 32 - 1)).to_bytes(4, "big")
        elif kind in ("non-object", "nested"):
            if kind == "nested":
                body = (data.draw(st.sampled_from([b"[", b'{"a":']))
                        * data.draw(st.integers(100_000, 200_000)))
            else:
                body = json.dumps(data.draw(_JSON.filter(
                    lambda value: not isinstance(value, dict)))).encode()
            frame = len(body).to_bytes(4, "big") + body
        outcomes = []
        for parse, raw in ((self._read, bytes(frame)),
                           (wire.decode_frame, bytes(frame[4:]))):
            try:
                outcomes.append(parse(raw))
            except wire.WireError:
                outcomes.append(wire.WireError)
        read, decoded = outcomes
        assert isinstance(read, dict) or read is wire.WireError or (
            read is None and not frame)  # clean EOF: nothing was sent
        assert isinstance(decoded, dict) or decoded is wire.WireError
        if kind == "intact":
            assert read == decoded and isinstance(read, dict)
        elif kind != "bit-flipped":
            assert read in (wire.WireError, None)


@contextlib.contextmanager
def _hard_timeout(seconds: float):
    """Fail instead of hanging, even when the event loop spins in a loop
    that never yields (``asyncio.wait_for`` cannot fire there): SIGALRM
    interrupts between two bytecodes -- and keeps firing, once per task
    that spins."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.2)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


async def _hang_up(writer, writers):
    for other in writers:  # the whole pool at once: the shard is gone
        other.close()


async def _nest_deeply(writer, writers):
    writer.write((200_000).to_bytes(4, "big") + b"[" * 200_000)
    await writer.drain()


async def _unhashable_rid(writer, writers):
    await wire.write_frame(writer, {"t": "verdict", "rid": []})


class TestLastShardNeverHangsTheGateway:
    """One fake in-process shard that is honest through hello and the
    health check, then dies or turns hostile on its first query: the
    batch fails with ``GatewayError`` (CLI exit 3) -- it used to spin at
    100 % CPU (the socket reader saw the death first) or wait forever on
    a request whose reader had died of a ``RecursionError``."""

    @pytest.mark.parametrize("on_query", [_hang_up, _nest_deeply,
                                          _unhashable_rid],
                             ids=lambda fn: fn.__name__.strip("_"))
    def test_batch_fails_with_gateway_error(self, dataset, on_query):
        writers = []

        async def shard(reader, writer):
            writers.append(writer)
            await wire.write_frame(writer, {"t": "hello", "shard": 0})
            try:
                while (request := await wire.read_frame(reader)) is not None:
                    if request["t"] == "ping":
                        await wire.write_frame(
                            writer, {"t": "pong", "rid": request["rid"]})
                    else:
                        await on_query(writer, writers)
            except (wire.WireError, ConnectionError):
                pass

        async def main():
            server = await asyncio.start_server(shard, "127.0.0.1", 0)
            handle = types.SimpleNamespace(
                shard_id=0, host="127.0.0.1",
                port=server.sockets[0].getsockname()[1])
            try:
                await Gateway([handle]).serve(
                    dataset.random_queries(2, size=5, seed=4))
            finally:
                server.close()

        with _hard_timeout(20), pytest.raises(GatewayError,
                                              match="no members survive"):
            asyncio.run(main())


class TestDeadClientPool:
    def test_mark_dead_fails_pending_and_tears_the_pool_down(self):
        """A client that loses its connection fails every pending request
        with ShardDied, cancels its reader task, closes its writer and
        drops it, so no later request can write to a dead socket."""
        from repro.framework.gateway import ShardDied

        closed: list[int] = []

        class FakeWriter:
            def __init__(self, i):
                self.i = i

            def close(self):
                closed.append(self.i)

        async def main():
            client = ShardClient(3, "127.0.0.1", 1)
            deaths: list[int] = []
            client.on_death = deaths.append
            client._writer = FakeWriter(0)
            reader = asyncio.ensure_future(asyncio.sleep(60))
            client._reader = reader
            futures = [asyncio.get_running_loop().create_future()
                       for _ in range(2)]
            client._pending.update(enumerate(futures))
            client._mark_dead()
            assert client.dead
            assert deaths == [3]
            assert closed == [0]
            assert client._writer is None, "dead connection left live"
            assert not client._pending
            for future in futures:
                with pytest.raises(ShardDied):
                    await future
            # A request after death fails fast instead of touching the
            # (now closed) connection.
            with pytest.raises(ShardDied):
                await client.request({"t": "ping"})
            await asyncio.sleep(0)  # let the cancellation land
            assert reader.cancelled() or reader.done()
            # Idempotent: a second connection loss on the same client
            # must not re-fire on_death or double-close.
            client._mark_dead()
            assert deaths == [3] and closed == [0]

        asyncio.run(main())


# ---------------------------------------------------------------------------
# Shard-aware metrics merges (the satellite bugfix)
# ---------------------------------------------------------------------------
class TestShardAwareMetrics:
    def test_same_cache_label_from_two_shards_sums_exactly_once(self):
        metrics = RunMetrics()
        metrics.record_shard_caches(0, {"cmm": CacheStats(
            hits=10, misses=5, entries=7, weight=70, capacity=100)})
        metrics.record_shard_caches(1, {"cmm": CacheStats(
            hits=1, misses=2, entries=3, weight=30, capacity=100)})
        # Per-shard records stay intact under qualified keys...
        assert metrics.caches[scoped_cache_name("cmm", 0)].hits == 10
        assert metrics.caches[scoped_cache_name("cmm", 1)].entries == 3
        # ...and the fleet total sums counters exactly once.
        totals = metrics.cache_totals()
        assert set(totals) == {"cmm"}
        assert totals["cmm"].hits == 11
        assert totals["cmm"].misses == 7

    def test_repeated_verdicts_from_one_shard_accumulate(self):
        metrics = RunMetrics()
        for _ in range(3):
            metrics.record_shard_caches(2, {"pad": CacheStats(hits=2)})
        assert metrics.caches[scoped_cache_name("pad", 2)].hits == 6

    def test_base_cache_name_round_trip(self):
        assert base_cache_name(scoped_cache_name("cmm", 4)) == "cmm"
        assert base_cache_name("cmm") == "cmm"

    def test_cache_stats_from_dict_ignores_derived_fields(self):
        stats = CacheStats(hits=3, misses=1, entries=2, weight=9,
                           capacity=10)
        assert CacheStats.from_dict(stats.as_dict()) == stats

    def test_op_counter_merge_scoped_preserves_totals_and_round_trips(self):
        shard = OpCounter()
        shard.bucket("evaluation", "player:1").modmul = 7
        shard.bucket("evaluation", "user").modexp = 3
        fleet = OpCounter()
        fleet.merge_scoped(shard, scope="shard0")
        fleet.merge_scoped(shard, scope="shard1")
        assert fleet.totals().modmul == 14
        assert fleet.totals().modexp == 6
        assert fleet.bucket("evaluation", "player:1@shard0").modmul == 7
        back = OpCounter.from_dict(fleet.as_dict())
        assert back.as_dict() == fleet.as_dict()

    def test_journal_counters_round_trip(self):
        counters = JournalCounters(checkpoints_written=4, shares_skipped=2,
                                   reattestations=1)
        assert JournalCounters.from_dict(counters.as_dict()) == counters


# ---------------------------------------------------------------------------
# Zipf traffic
# ---------------------------------------------------------------------------
class TestTraffic:
    def test_deterministic_for_a_fixed_seed(self, dataset):
        spec = TrafficSpec(count=20, tenants=4, size=5, seed=9)
        qa, ra = generate_traffic(dataset, spec)
        qb, rb = generate_traffic(dataset, spec)
        assert ra == rb
        assert [repr(q) for q in qa] == [repr(q) for q in qb]

    def test_seed_changes_the_trace(self, dataset):
        base = TrafficSpec(count=20, tenants=4, size=5, seed=9)
        other = TrafficSpec(count=20, tenants=4, size=5, seed=10)
        assert generate_traffic(dataset, base)[1] != \
            generate_traffic(dataset, other)[1]

    def test_zipf_skew_favors_rank_one(self):
        ranks = zipf_ranks(500, 8, 1.2, seed=3)
        counts = [ranks.count(r) for r in range(8)]
        assert counts[0] == max(counts)
        assert counts[0] > counts[-1]
        assert len(ranks) == 500

    def test_trace_interleaves_tenants(self, dataset):
        spec = TrafficSpec(count=16, tenants=3, size=5, seed=2)
        queries, ranks = generate_traffic(dataset, spec)
        assert len(queries) == 16
        assert set(ranks) <= {0, 1, 2}
        assert len(set(ranks)) > 1


# ---------------------------------------------------------------------------
# Store shard-split + miss fallbacks
# ---------------------------------------------------------------------------
class TestShardSplit:
    @pytest.fixture(scope="class")
    def split(self, dataset, gw_config, tmp_path_factory):
        root = tmp_path_factory.mktemp("store")
        out = tmp_path_factory.mktemp("split")
        source = ArtifactStore.create(root / "src", dataset.graph, (3,),
                                      DataOwnerKey.generate(gw_config.seed))
        shard_split(root / "src", out / "shards", 3)
        return source, out / "shards"

    def test_placement_matches_ring_and_counts(self, split):
        source, out = split
        placement = PlacementManifest.read(out)
        assert placement.members == (0, 1, 2)
        assert placement.balls == sum(placement.shard_balls.values())
        ring = placement.ring()
        for member in placement.members:
            store = ArtifactStore.open(out / f"shard-{member}")
            held = set(store._slices)
            assert held == {b for b in source._slices
                            if ring.owner_of(b) == member}

    def test_shard_packs_verify_independently(self, split, gw_config):
        _, out = split
        store = ArtifactStore.open(out / "shard-1")
        report = store.verify(DataOwnerKey.generate(gw_config.seed))
        assert not report.tampered and not report.stale

    def test_refuses_non_empty_target(self, split, dataset, gw_config,
                                      tmp_path):
        from repro.storage import StoreError

        (tmp_path / "junk").write_text("x")
        with pytest.raises(StoreError):
            shard_split(tmp_path, tmp_path, 2)

    def test_missing_ball_raises_store_miss(self, split):
        _, out = split
        placement = PlacementManifest.read(out)
        store = ArtifactStore.open(out / "shard-0")
        foreign = next(b for b in placement.ring().assign(
            range(placement.balls))[1])
        with pytest.raises(StoreMiss):
            store.load_ball(foreign)

    def test_store_index_falls_back_to_live_extraction(self, split,
                                                       dataset):
        _, out = split
        store = ArtifactStore.open(out / "shard-0")
        index = store.ball_index(dataset.graph)
        addr_of = {bid: key for key, bid in index._ids.items()}
        missing = next(b for b in sorted(addr_of)
                       if b not in store._slices)
        center, radius = addr_of[missing]
        ball = index.ball(center, radius)
        expected = extract_ball(dataset.graph, center, radius,
                                ball_id=missing)
        assert ball.ball_id == missing
        assert set(ball.graph.vertices()) == set(expected.graph.vertices())
        # The miss must not quarantine the (healthy, just sliced) pack.
        assert not store.quarantined


# ---------------------------------------------------------------------------
# Shard server protocol (in-process, no fork)
# ---------------------------------------------------------------------------
class TestShardServer:
    def test_socket_round_trip(self, dataset, gw_config):
        query = dataset.random_query(size=5, seed=4)
        baseline = _baseline_answers(dataset.graph, gw_config, [query])[0]

        async def main():
            server = ShardServer(ShardSpec(0, dataset.graph, gw_config))
            await server.start()
            client = ShardClient(0, "127.0.0.1", server.port)
            try:
                await client.connect()
                assert client.hello["shard"] == 0
                pong = await client.request({"t": "ping"})
                assert pong["t"] == "pong" and pong["served"] == 0
                verdict = await client.request({
                    "t": "query", "qid": 0, "jindex": 0,
                    "query": wire.query_to_jsonable(query),
                    "members": [0]})
                assert verdict["t"] == "verdict"
                assert verdict["status"] == QueryStatus.OK
                unknown = await client.request({"t": "bogus"})
                assert unknown["t"] == "error"
                drained = await client.request({"t": "drain"})
                assert drained["t"] == "drained"
                assert drained["summary"]["queries"] == 1
                return verdict
            finally:
                await client.close()
                await server.close()

        verdict = asyncio.run(main())
        merged = wire.canonical_answer(
            verdict["candidates"], verdict["pm_positive"],
            verdict["verified"], verdict["matches"])
        assert wire.answer_bytes(merged) == wire.answer_bytes(baseline)
        assert "caches" in verdict and "ops" in verdict

    def test_query_without_an_integer_qid_gets_an_error_frame(
            self, dataset, gw_config):
        """...not a dropped connection: the shard keeps serving on it."""
        query = wire.query_to_jsonable(dataset.random_query(size=5, seed=4))

        async def main():
            server = ShardServer(ShardSpec(0, dataset.graph, gw_config))
            await server.start()
            client = ShardClient(0, "127.0.0.1", server.port)
            try:
                await client.connect()
                for qid in ("absent", "7", 1.5, True, [0], None):
                    request = {"t": "query", "qid": qid, "query": query,
                               "members": [0]}
                    if qid == "absent":
                        del request["qid"]
                    reply = await asyncio.wait_for(client.request(request),
                                                   timeout=20)
                    assert reply["t"] == "error" and "qid" in reply["detail"]
                pong = await client.request({"t": "ping"})
                assert pong["t"] == "pong" and pong["served"] == 0
            finally:
                await client.close()
                await server.close()

        asyncio.run(main())

    def test_query_stream_matches_batch_engine(self, dataset, gw_config):
        queries = dataset.random_queries(2, size=5, seed=4)
        with QueryBatchEngine(Prilo.setup(dataset.graph,
                                          gw_config)) as batch:
            batch_report = batch.serve(queries)
        with QueryBatchEngine(Prilo.setup(dataset.graph,
                                          gw_config)) as engine:
            stream = QueryStream(engine)
            outcomes = [stream.serve_one(q) for q in queries]
            stream.request_drain()
            late = stream.serve_one(queries[0])
            report = stream.report()
        assert [o.status for o in outcomes] == [QueryStatus.OK] * 2
        assert late.status == QueryStatus.DRAINED
        for batch_result, stream_result in zip(batch_report.results,
                                               report.results):
            assert wire.answer_bytes(
                wire.canonical_answer_of_result(batch_result)) == \
                wire.answer_bytes(
                    wire.canonical_answer_of_result(stream_result))


    def test_query_stream_applies_the_queue_bound(self, dataset,
                                                  gw_config):
        """A stream is the batch's admission path, queue bound included:
        the same three queries give the same statuses through ``serve``
        and one query at a time."""
        queries = dataset.random_queries(3, size=5, seed=4)
        shed = [QueryStatus.OK] + [QueryStatus.REJECTED_OVERLOAD] * 2
        with QueryBatchEngine(Prilo.setup(dataset.graph, gw_config),
                              queue_bound=1) as batch:
            report = batch.serve(queries)
        assert [o.status for o in report.outcomes] == shed
        with QueryBatchEngine(Prilo.setup(dataset.graph, gw_config),
                              queue_bound=1) as engine:
            stream = QueryStream(engine)
            assert [stream.serve_one(q).status for q in queries] == shed
        assert stream.report().admission == report.admission

    def test_engine_drain_stops_a_stream(self, dataset, gw_config):
        """One drain flag: ``request_drain`` on the engine (what SIGTERM
        sets during ``serve``) also stops an open stream."""
        query = dataset.random_query(size=5, seed=4)
        with QueryBatchEngine(Prilo.setup(dataset.graph,
                                          gw_config)) as engine:
            stream = QueryStream(engine)
            engine.request_drain()
            assert stream.drained
            outcome = stream.serve_one(query)
        assert outcome.status == QueryStatus.DRAINED
        assert stream.report().admission.drained == 1


class TestShardJournalLifecycle:
    def test_close_closes_the_journal(self, dataset, gw_config, tmp_path):
        """The shard opens its journal, so the shard closes it: after
        ``close()`` the handle is released, nothing is left unsynced and
        replay sees every record (admission, per query a begin, its
        shares and a commit)."""
        path = tmp_path / "shard-0.wal"
        query = dataset.random_query(size=5, seed=4)

        async def main():
            server = ShardServer(ShardSpec(0, dataset.graph, gw_config,
                                           journal_path=str(path)))
            await server.start()
            served = server.stream.serve_one(query, index=0)
            assert served.status == QueryStatus.OK
            assert server.journal._fh is not None
            await server.close()
            return server.journal

        journal = asyncio.run(main())
        assert journal._fh is None and not journal._unsynced
        state = RunJournal(path, journal_key(gw_config.seed)).replay()
        assert state.committed_queries == 1
        assert state.records == journal.records_written
        assert state.record_counts["batch_admit"] == 1
        assert state.record_counts["share_result"] == gw_config.k_players


class TestDigestInheritedThroughFork:
    """``LocalCluster.start`` digests the graph once, before it forks: a
    shard's staleness check and journal fingerprint read the inherited
    memo, and no shard process serialises the graph for a digest."""

    @pytest.fixture(scope="class")
    def shards(self, dataset, gw_config, tmp_path_factory):
        root = tmp_path_factory.mktemp("fork-digest")
        ArtifactStore.create(root / "src", dataset.graph, (3,),
                             DataOwnerKey.generate(gw_config.seed))
        shard_split(root / "src", root / "shards", 2)
        return root

    @staticmethod
    def _digests_only_in_the_parent(monkeypatch) -> list:
        """Make a digest computed in any other process raise; return the
        list of graphs the parent digested."""
        parent, real = os.getpid(), store_module.graph_to_json
        digested = []

        def guarded(graph):
            if os.getpid() != parent:
                raise RuntimeError("a shard process computed a graph digest")
            digested.append(graph)
            return real(graph)

        monkeypatch.setattr(store_module, "graph_to_json", guarded)
        return digested

    def _specs(self, dataset, gw_config, shards, wal):
        # A copy: a graph object nobody has digested yet.
        return make_shard_specs(
            dataset.graph.copy(), gw_config, 2,
            store_root=str(shards / "shards"), journal_dir=str(wal))

    def test_forked_shards_start_and_serve(self, dataset, gw_config, shards,
                                           tmp_path, monkeypatch):
        queries = dataset.random_queries(2, size=5, seed=4)
        expected = _baseline_answers(dataset.graph, gw_config, queries)
        specs = self._specs(dataset, gw_config, shards, tmp_path)
        digested = self._digests_only_in_the_parent(monkeypatch)
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles).run(queries)
        assert [o.status for o in report.outcomes] == \
            [QueryStatus.OK] * len(queries)
        _assert_byte_identical(expected, report.answers)
        assert digested == [specs[0].graph]  # once, for both shards
        assert report.metrics.journal.checkpoints_written > 0

    def test_without_the_warm_up_the_child_fails(self, dataset, gw_config,
                                                 shards, tmp_path,
                                                 monkeypatch):
        """The negative control: the same shard, forked without the
        parent's digest, has to compute one -- and so cannot start."""
        spec = self._specs(dataset, gw_config, shards, tmp_path)[0]
        self._digests_only_in_the_parent(monkeypatch)
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=run_shard, args=(spec, child_conn))
        process.start()
        child_conn.close()
        try:
            assert parent_conn.poll(60)
            reply = parent_conn.recv()
        finally:
            process.kill()
            process.join(timeout=10)
        assert reply == ("RuntimeError: a shard process computed a graph "
                         "digest", False)


class TestShardStartFailure:
    """A shard that cannot start is a ``ShardError`` naming it -- not the
    ``EOFError`` of a start-up pipe whose child already died -- and no
    sibling is left running."""

    @staticmethod
    def _refused(specs):
        cluster = LocalCluster(specs)
        with pytest.raises(ShardError) as refusal:
            cluster.start()
        assert cluster.handles == []
        assert not [child for child in multiprocessing.active_children()
                    if child.name.startswith("repro-shard-")]
        return refusal.value

    def test_stale_and_missing_packs(self, dataset, gw_config, tmp_path):
        ArtifactStore.create(tmp_path / "src", dataset.graph, (3,),
                             DataOwnerKey.generate(gw_config.seed))
        shard_split(tmp_path / "src", tmp_path / "shards", 2)
        moved_on = tiny_dataset(seed=1, num_vertices=120, num_labels=8).graph
        error = self._refused(make_shard_specs(
            moved_on, gw_config, 2, store_root=str(tmp_path / "shards")))
        assert error.stale
        assert "shard 0 failed to start: StoreStale" in str(error)
        assert str(tmp_path) not in str(error)  # redacted like the wire's
        (tmp_path / "shards" / "shard-1" / "manifest.json").unlink()
        error = self._refused(make_shard_specs(
            dataset.graph, gw_config, 2, store_root=str(tmp_path / "shards")))
        assert not error.stale
        assert "shard 1 failed to start: StoreError" in str(error)

    def test_child_that_dies_without_a_word(self, dataset, gw_config,
                                            monkeypatch):
        monkeypatch.setattr("repro.framework.shard.run_shard",
                            lambda spec, conn: os._exit(3))
        error = self._refused(make_shard_specs(dataset.graph, gw_config, 1))
        assert not error.stale
        assert "shard 0 failed to start: exited before" in str(error)


# ---------------------------------------------------------------------------
# Gateway equivalence (the tentpole contract)
# ---------------------------------------------------------------------------
class TestGatewayEquivalence:
    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_two_shards_match_plain_engine_with_pruning(self, dataset,
                                                        gw_config,
                                                        semantics):
        queries = dataset.random_queries(3, size=5, semantics=semantics,
                                         seed=4)
        graph = dataset.graph_for(semantics)
        expected = _baseline_answers(graph, gw_config, queries,
                                     engine_cls=PriloStar)
        with LocalCluster(make_shard_specs(graph, gw_config, 2,
                                           engine="prilo-star")) as cluster:
            report = Gateway(cluster.handles).run(queries)
        assert [o.status for o in report.outcomes] == \
            [QueryStatus.OK] * len(queries)
        _assert_byte_identical(expected, report.answers)

    def test_one_and_four_shards_match_plain_engine(self, dataset,
                                                    gw_config):
        queries, _ = generate_traffic(
            dataset, TrafficSpec(count=6, tenants=3, size=5, seed=11))
        expected = _baseline_answers(dataset.graph, gw_config, queries)
        for shards in (1, 4):
            specs = make_shard_specs(dataset.graph, gw_config, shards)
            with LocalCluster(specs) as cluster:
                report = Gateway(cluster.handles).run(queries)
            _assert_byte_identical(expected, report.answers)
            assert report.shards == shards
            assert set(report.per_shard_busy) == set(range(shards))
            assert report.critical_path_seconds <= report.busy_seconds

    def test_shard_death_mid_batch_recovers_byte_identically(self, dataset,
                                                             gw_config):
        queries, _ = generate_traffic(
            dataset, TrafficSpec(count=8, tenants=3, size=5, seed=11))
        expected = _baseline_answers(dataset.graph, gw_config, queries)
        specs = make_shard_specs(dataset.graph, gw_config, 4)
        with LocalCluster(specs) as cluster:
            gateway = Gateway(cluster.handles,
                              chaos=GatewayChaos(seed=42,
                                                 kill_after_verdicts=2))
            report = gateway.run(queries)
        assert report.deaths, "chaos must kill a shard mid-batch"
        assert report.re_dispatches > 0
        assert len(report.final_members) == 3
        assert report.completed == len(queries), "no query may be lost"
        _assert_byte_identical(expected, report.answers)

    def test_gateway_serves_from_split_store_with_journals(
            self, dataset, gw_config, tmp_path):
        queries = dataset.random_queries(2, size=5, seed=4)
        expected = _baseline_answers(dataset.graph, gw_config, queries)
        ArtifactStore.create(tmp_path / "src", dataset.graph, (3,),
                             DataOwnerKey.generate(gw_config.seed))
        shard_split(tmp_path / "src", tmp_path / "shards", 2)
        specs = make_shard_specs(
            dataset.graph, gw_config, 2,
            store_root=str(tmp_path / "shards"),
            journal_dir=str(tmp_path / "wal"))
        (tmp_path / "wal").mkdir()
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles).run(queries)
        _assert_byte_identical(expected, report.answers)
        assert report.metrics.journal.checkpoints_written > 0
        assert (tmp_path / "wal" / "shard-0.wal").exists()
        assert (tmp_path / "wal" / "shard-1.wal").exists()

    def test_queue_bound_admits_the_first_submissions(self, dataset,
                                                      gw_config):
        """The fleet admits once: under ``queue_bound=2`` exactly queries
        0 and 1 are served, byte-identical to the plain engine, and no
        shard ever sees a shed query."""
        queries, _ = generate_traffic(
            dataset, TrafficSpec(count=6, tenants=3, size=5, seed=11))
        expected = _baseline_answers(dataset.graph, gw_config, queries[:2])
        tracer = Tracer()
        with LocalCluster(make_shard_specs(dataset.graph, gw_config,
                                           4)) as cluster:
            report = Gateway(cluster.handles, queue_bound=2,
                             tracer=tracer).run(queries)
        assert [o.status for o in report.outcomes] == \
            [QueryStatus.OK] * 2 + [QueryStatus.REJECTED_OVERLOAD] * 4
        _assert_byte_identical(expected, report.answers[:2])
        assert report.answers[2:] == [None] * 4
        assert {o.detail for o in report.outcomes[2:]} == \
            {"queue bound 2 exceeded"}
        assert sorted(report.drain_summaries) == [0, 1, 2, 3]
        for summary in report.drain_summaries.values():
            assert summary["admission"]["submitted"] == 2
            assert summary["statuses"] == [QueryStatus.OK] * 2
        (admission,) = [s for s in tracer.spans if s.name == "admission"]
        assert admission.attrs == {"submitted": 6, "admitted": 2,
                                   "shed": 4}

    def test_rejects_a_non_positive_queue_bound(self):
        handle = types.SimpleNamespace(shard_id=0, host="", port=0)
        for bound in (0, -1, True):
            with pytest.raises(ValueError, match="queue_bound"):
                Gateway([handle], queue_bound=bound)

    def test_each_shard_journals_queries_in_routing_order(
            self, dataset, gw_config, tmp_path):
        """One connection per shard and FIFO windows: every shard begins
        the queries in the gateway's signature-grouped routing order."""
        queries, _ = generate_traffic(
            dataset, TrafficSpec(count=8, tenants=3, size=5, seed=11))
        groups: dict[tuple, list[int]] = {}
        for qid, query in enumerate(queries):
            signature = (tuple(query.label(u) for u in query.vertex_order),
                         query.diameter, query.semantics)
            groups.setdefault(signature, []).append(qid)
        order = [qid for indices in groups.values() for qid in indices]
        assert order != sorted(order), "the trace must regroup"
        (tmp_path / "wal").mkdir()
        specs = make_shard_specs(dataset.graph, gw_config, 2,
                                 journal_dir=str(tmp_path / "wal"))
        with LocalCluster(specs) as cluster:
            report = Gateway(cluster.handles).run(queries)
        assert report.completed == len(queries)
        for shard_id in (0, 1):
            state = RunJournal(tmp_path / "wal" / f"shard-{shard_id}.wal",
                               journal_key(gw_config.seed)).replay()
            assert [q.index for q in state.queries.values()] == order

    def test_rejects_degenerate_fleets(self):
        with pytest.raises(GatewayError):
            Gateway([])

    def test_chaos_rejects_unknown_victim(self):
        with pytest.raises(GatewayError):
            GatewayChaos(kill_shard=9).resolve((0, 1))
