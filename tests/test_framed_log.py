"""The one framed record log under the run journal and the delta log
(DESIGN.md "Durable state"): its byte format is pinned, and no byte
string on disk can make replay raise anything but the log's typed error.

The frame layout is spelled out here independently of ``src/`` on
purpose -- these tests are the format's second witness::

    A5 | type:u8 | len:u32 | payload | crc32:u32      (little-endian)
    payload = meta_len:u32 | meta JSON object | blob
"""

import hashlib
import json
import os
import struct
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_INTEGRITY, main
from repro.framework.prilo import Prilo
from repro.framework.server import QueryBatchEngine, QueryStream
from repro.graph.delta import random_delta
from repro.storage import (
    DeltaError,
    DeltaLog,
    JournalError,
    RecordType,
    RunJournal,
    delta_key,
    graph_digest,
    journal_key,
)
from repro.storage.delta import DELTA_RECORD
from repro.workloads.datasets import tiny_dataset

SEED = 3
_HEADER = struct.Struct("<BBI")
_U32 = struct.Struct("<I")


def _frame(rtype: int, payload: bytes) -> bytes:
    header = _HEADER.pack(0xA5, rtype, len(payload))
    return header + payload + _U32.pack(zlib.crc32(header + payload))


def _payload(meta, blob: bytes = b"") -> bytes:
    meta_bytes = json.dumps(meta).encode("utf-8")
    return _U32.pack(len(meta_bytes)) + meta_bytes + blob


def _frame_spans(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of every frame of an intact log."""
    spans, offset = [], 0
    while offset < len(data):
        length = _HEADER.unpack_from(data, offset)[2]
        end = offset + _HEADER.size + length + _U32.size
        spans.append((offset, end))
        offset = end
    assert offset == len(data)
    return spans


#: CRC-valid payloads no writer of ours produces.  Each one crashed at
#: least one of the two replay loops before they shared a parser
#: (struct.error, JSONDecodeError, AttributeError, KeyError).
MALFORMED = {
    "shorter-than-meta-length": b"\x01\x02",
    "meta-not-json": _U32.pack(3) + b"abc",
    "meta-not-utf8": _U32.pack(2) + b"\xff\xfe",
    "meta-not-an-object": _U32.pack(2) + b"[]",
    "meta-missing-required-keys": _payload({}),
    "meta-len-past-payload": _U32.pack(100) + b"{}",
}


def _write_run_journal(path, dataset, test_config) -> None:
    queries = dataset.random_queries(2, size=4, diameter=2, seed=13)
    journal = RunJournal(path, journal_key(SEED))
    engine = Prilo.setup(dataset.graph, test_config)
    QueryBatchEngine(engine, journal=journal).serve(queries + queries[:1])
    journal.close()


def _write_delta_log(path, dataset) -> None:
    graph = dataset.graph.copy()
    with DeltaLog(path, delta_key(SEED)) as log:
        for step in range(3):
            parent = graph_digest(graph)
            delta = random_delta(graph, edge_fraction=0.02,
                                 remove_vertices=step % 2, seed=40 + step)
            delta.apply(graph)
            log.append(delta, parent=parent, result=graph_digest(graph))


@pytest.fixture(scope="module")
def dataset():
    """A private instance: the session-wide dataset's query generator is
    stateful (the same seed hands out different queries each time it is
    asked), so drawing from it here would shift what later files get."""
    return tiny_dataset(seed=2)


@pytest.fixture(scope="module")
def journal_bytes(dataset, test_config, tmp_path_factory):
    path = tmp_path_factory.mktemp("framed") / "run.journal"
    _write_run_journal(path, dataset, test_config)
    return path.read_bytes()


@pytest.fixture(scope="module")
def delta_log_bytes(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("framed") / "deltas.log"
    _write_delta_log(path, dataset)
    return path.read_bytes()


class TestGoldenLogBytes:
    """sha256 of both log files of one fixed seeded run, recorded on the
    commit before the two logs were moved onto one ``FramedLog``.  The
    clock is pinned because share outcomes pickle their wall times, and
    the dataset is fresh because its query generator is stateful.

    ``run.journal`` was re-recorded twice since: when the Straus kernel's
    product-tree memo and single-bit window entries lowered the pickled
    share op counters (only ``modmul`` moved; every verdict replays
    equal), and when ``CacheStats`` moved to ``repro.cache``, since a
    pickled share outcome names its class by module (the old name still
    resolves: ``tests/test_cache.py``).  ``deltas.log`` is the original
    recording."""

    def test_same_bytes(self, test_config, tmp_path, monkeypatch):
        dataset = tiny_dataset(seed=2)
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        _write_run_journal(tmp_path / "run.journal", dataset, test_config)
        monkeypatch.undo()
        _write_delta_log(tmp_path / "deltas.log", dataset)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.iterdir()} == {
            "run.journal": "2785fc321f41f80752bbf3a5aa39796c"
                           "743e28b21a51a4e5299bfe04fd513bc1",
            "deltas.log": "9834010d193f957481a27fd948567814"
                          "d05848fa1279e90fe8ddb5ce1636306e",
        }


class TestGroupCommit:
    """``fsync`` is group commit, decided by the record type: a query's
    commit (before its answer leaves) carries its begin and share records
    to disk, a drain syncs, ``close()`` syncs an unacknowledged tail --
    and a BEGIN / SHARE / admission record never syncs on its own.  When
    every record synced, the same N-query batch paid (k + 2)N + 1
    ``fsync``s (admission, then begin + k shares + commit per query)."""

    @pytest.fixture
    def synced(self, monkeypatch):
        """The file size at every ``fsync``, in call order."""
        sizes = []
        real = os.fsync

        def fsync(fd):
            sizes.append(os.fstat(fd).st_size)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return sizes

    @staticmethod
    def _ends(path, *names) -> list[int]:
        """End offsets of the records of the named types, in file order."""
        data = path.read_bytes()
        wanted = {t for t, name in RunJournal.RECORD_TYPES.items()
                  if name in names}
        return [end for start, end in _frame_spans(data)
                if data[start + 1] in wanted]

    @pytest.fixture
    def engine(self, dataset, test_config):
        queries = dataset.random_queries(3, size=4, diameter=2, seed=13)
        engine = Prilo.setup(dataset.graph, test_config)
        yield engine, queries
        engine.close()

    def test_one_fsync_per_committed_query(self, tmp_path, engine, synced,
                                           test_config):
        engine, queries = engine
        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(SEED))
        report = QueryBatchEngine(engine, journal=journal).serve(queries)
        assert report.admission.completed == len(queries)
        assert synced == self._ends(path, "query_commit")
        assert len(synced) == len(queries)
        journal.close()  # the last record was a commit: nothing to sync
        assert len(synced) == len(queries)
        counts = journal.replay().record_counts
        assert counts["query_begin"] == len(queries)
        assert counts["share_result"] == test_config.k_players * len(queries)

    def test_drain_and_close_sync_the_tail(self, tmp_path, engine, synced):
        engine, queries = engine
        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(SEED))
        stream = QueryStream(QueryBatchEngine(engine, journal=journal))
        for query in queries:
            stream.serve_one(query)
        stream.request_drain()
        assert synced == self._ends(path, "query_commit", "drain")
        assert len(synced) == len(queries) + 1
        # An unacknowledged tail (a begun query, one share) waits for
        # close(), which syncs it once.
        journal.append(RecordType.QUERY_BEGIN, {"query": "q", "index": 9})
        journal.append_share("q", "eval:0:p0", {"x": 1})
        assert len(synced) == len(queries) + 1
        journal.close()
        assert synced[-1] == path.stat().st_size
        assert len(synced) == len(queries) + 2
        journal.close()
        assert len(synced) == len(queries) + 2

    def test_delta_log_syncs_every_record(self, tmp_path, dataset, synced):
        path = tmp_path / "deltas.log"
        _write_delta_log(path, dataset)
        assert synced == [end for _start, end
                          in _frame_spans(path.read_bytes())]
        assert len(synced) == 3


class TestMalformedFrames:
    """A frame whose CRC holds but whose payload no writer produced is
    hostile, not torn: counted as tampered, replay carries on."""

    @pytest.mark.parametrize("rtype", [RecordType.BATCH_ADMIT,
                                       RecordType.QUERY_BEGIN,
                                       RecordType.SHARE_RESULT,
                                       RecordType.QUERY_COMMIT])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_run_journal(self, tmp_path, name, rtype):
        if (rtype == RecordType.BATCH_ADMIT
                and name == "meta-missing-required-keys"):
            pytest.skip("an admission record has no required key")
        path = tmp_path / "j"
        journal = RunJournal(path, journal_key(SEED))
        journal.append(RecordType.QUERY_BEGIN, {"query": "q0", "index": 0})
        journal.close()
        with path.open("ab") as fh:
            fh.write(_frame(rtype, MALFORMED[name]))
        journal.append(RecordType.QUERY_COMMIT,
                       {"query": "q0", "answer_digest": "d" * 64})
        journal.close()

        state = journal.replay(truncate=False)
        assert state.tampered_records == 1
        assert state.truncated_bytes == 0
        assert state.records == 3
        assert state.queries["q0"].committed
        assert journal.inspect()["tampered_records"] == 1
        assert main(["--seed", str(SEED), "journal", "inspect",
                     str(path)]) == EXIT_INTEGRITY

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_delta_log(self, tmp_path, dataset, name):
        path = tmp_path / "d"
        graph = dataset.graph.copy()
        log = DeltaLog(path, delta_key(SEED))

        def append(seed):
            parent = graph_digest(graph)
            delta = random_delta(graph, edge_fraction=0.02, seed=seed)
            delta.apply(graph)
            log.append(delta, parent=parent, result=graph_digest(graph))

        append(1)
        log.close()
        with path.open("ab") as fh:
            fh.write(_frame(DELTA_RECORD, MALFORMED[name]))
        append(2)
        log.close()

        state = log.replay(truncate=False)
        assert state.tampered_records == 1
        assert state.truncated_bytes == 0
        assert [record.seq for record in state.records] == [0, 1]
        assert log.inspect()["tampered_records"] == 1
        assert main(["--seed", str(SEED), "store", "apply-delta",
                     str(tmp_path / "no-store"), "dblp", str(path),
                     "--inspect"]) == EXIT_INTEGRITY

    @pytest.mark.parametrize("seq", [-1, 1 << 64, 1.5, "0", None, True])
    def test_delta_seq_outside_its_domain(self, tmp_path, seq):
        """``seq`` is digested as an unsigned 64-bit integer; anything
        else must be refused before the digest is computed."""
        path = tmp_path / "d"
        path.write_bytes(_frame(DELTA_RECORD, _payload(
            {"v": "prilo-delta/1", "seq": seq, "parent": "p", "result": "r",
             "digest": "0" * 64}, b"{}")))
        state = DeltaLog(path, delta_key(SEED)).replay(truncate=False)
        assert (state.tampered_records, len(state.records)) == (1, 0)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _replay(cls, key, typed_error, fuzz_dir, data: bytes):
    path = fuzz_dir / "fuzzed.log"
    path.write_bytes(data)
    try:
        return cls(path, key).replay(truncate=False)
    except typed_error:
        return None


@st.composite
def _mutations(draw, data: bytes):
    """``(position, xor, recompute_crc)`` over an intact log."""
    return (draw(st.integers(0, len(data) - 1)),
            draw(st.integers(1, 255)),
            draw(st.booleans()))


def _mutate(data: bytes, position: int, xor: int, recompute: bool):
    """Flip one byte; optionally re-seal the frame it sits in with a
    fresh CRC (written where the *original* length field put it).
    Returns the bytes and the mutated frame's ``(index, start)``."""
    spans = _frame_spans(data)
    index = next(i for i, (_s, end) in enumerate(spans) if position < end)
    start, end = spans[index]
    out = bytearray(data)
    out[position] ^= xor
    if recompute:
        out[end - 4:end] = _U32.pack(zlib.crc32(bytes(out[start:end - 4])))
    return bytes(out), index, start


class TestFuzz:
    """Every truncation point and every single-byte mutation -- with and
    without a recomputed CRC -- of a log written by a real run replays
    to a state, raising nothing but the log's typed error."""

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_run_journal_truncation(self, journal_bytes, fuzz_dir, data):
        cut = data.draw(st.integers(0, len(journal_bytes)))
        state = _replay(RunJournal, journal_key(SEED), JournalError,
                        fuzz_dir, journal_bytes[:cut])
        whole = [end for _start, end in _frame_spans(journal_bytes)
                 if end <= cut]
        assert state.records == len(whole)
        assert state.truncated_bytes == cut - (whole[-1] if whole else 0)
        assert state.tampered_records == 0

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_run_journal_mutation(self, journal_bytes, fuzz_dir, data):
        position, xor, recompute = data.draw(_mutations(journal_bytes))
        mutated, index, start = _mutate(journal_bytes, position, xor,
                                        recompute)
        state = _replay(RunJournal, journal_key(SEED), JournalError,
                        fuzz_dir, mutated)
        if state is not None and not recompute:
            # A CRC mismatch is a torn tail from the mutated frame on.
            assert state.records == index
            assert state.truncated_bytes == len(mutated) - start

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_delta_log(self, delta_log_bytes, fuzz_dir, data):
        spans = _frame_spans(delta_log_bytes)
        cut = data.draw(st.integers(0, len(delta_log_bytes)))
        state = _replay(DeltaLog, delta_key(SEED), DeltaError,
                        fuzz_dir, delta_log_bytes[:cut])
        whole = [end for _start, end in spans if end <= cut]
        assert len(state.records) == len(whole)
        assert state.truncated_bytes == cut - (whole[-1] if whole else 0)

        position, xor, recompute = data.draw(_mutations(delta_log_bytes))
        mutated, index, start = _mutate(delta_log_bytes, position, xor,
                                        recompute)
        state = _replay(DeltaLog, delta_key(SEED), DeltaError,
                        fuzz_dir, mutated)
        if not recompute:
            assert len(state.records) == index
            assert state.truncated_bytes == len(mutated) - start
        elif position < spans[index][1] - 4:
            # The keyed digest covers everything a record asserts: a
            # re-sealed mutation is torn (header) or tampered (payload),
            # never accepted.
            assert len(state.records) < len(spans)
            assert state.tampered_records or state.truncated_bytes
