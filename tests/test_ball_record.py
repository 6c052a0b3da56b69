"""Ball record v2 (:func:`repro.graph.io.ball_to_bytes`, DESIGN.md 9.1):
the byte format is pinned, it is a pure function of the ball, no byte
string can make the decoder raise anything but ``BallDecodeError`` or
size anything from a count it has not checked, and what earlier releases
wrote is refused: a v1 (JSON) record does not decode, and a version-1
store is stale.

The layout is spelled out here independently of ``src/`` on purpose --
these tests are the format's second witness (little-endian)::

    magic 00 'B' 'R' '2' | flags:u32 | ball_id:i64 | radius:u32
      | vertices:u32 | edges:u32 | labels:u32 | center index:u32
    labels   x (len:u32 | repr text)          first-appearance order
    vertices x id:i64                          flags bit 0 clear
         or  x (len:u32 | repr text)           flags bit 0 set
    vertices x label code      \\  u16 while vertices <= 65535,
    edges x source index        > u32 beyond
    edges x target index       /
"""

import hashlib
import os
import struct
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.crypto.keys import DataOwnerKey
from repro.graph.ball import Ball, extract_ball
from repro.graph.generators import fig3_graph
from repro.graph.io import (
    BallDecodeError,
    ball_from_bytes,
    ball_to_bytes,
    graph_to_json,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.storage import ArtifactStore, StoreError, StoreStale
from repro.workloads.datasets import load_dataset
from tests.ball_v1 import ball_from_bytes_v1, ball_to_bytes_v1

HEADER = struct.Struct("<4sIqIIIII")
MAGIC = b"\x00BR2"


def _texts(*texts: bytes) -> bytes:
    return b"".join(struct.pack("<I", len(t)) + t for t in texts)


def record(*, magic=MAGIC, flags=0, ball_id=7, radius=1,
           labels=(b"'A'", b"'B'"), ids=(5, -6, 2**40),
           codes=(0, 1, 0), edges=((0, 1), (1, 2), (2, 0)), center=1,
           counts=None, tail=b"") -> bytes:
    """A record assembled by hand; ``counts`` overrides the header's
    ``(vertices, edges, labels)`` without touching the body."""
    n_vertices, n_edges, n_labels = counts or (len(ids), len(edges),
                                               len(labels))
    body = (struct.pack(f"<{len(ids)}q", *ids)
            if all(isinstance(v, int) for v in ids) else _texts(*ids))
    return b"".join((
        HEADER.pack(magic, flags, ball_id, radius, n_vertices, n_edges,
                    n_labels, center),
        _texts(*labels), body,
        struct.pack(f"<{len(codes)}H", *codes),
        struct.pack(f"<{len(edges)}H", *(u for u, _ in edges)),
        struct.pack(f"<{len(edges)}H", *(v for _, v in edges)), tail))


HAND_BALL = Ball(
    graph=LabeledGraph.from_edges({5: "A", -6: "B", 2**40: "A"},
                                  [(5, -6), (-6, 2**40), (2**40, 5)]),
    center=-6, radius=1, ball_id=7)


class TestLayout:
    def test_hand_assembled_record_is_what_the_encoder_writes(self):
        # repr order: '-6' < '1099511627776' < '5'.
        expected = record(ids=(-6, 2**40, 5), labels=(b"'B'", b"'A'"),
                          codes=(0, 1, 1), edges=((0, 1), (1, 2), (2, 0)),
                          center=0)
        assert ball_to_bytes(HAND_BALL) == expected

    def test_non_canonical_order_still_decodes(self):
        ball = ball_from_bytes(record())
        assert ball == HAND_BALL and ball.ball_id == 7
        assert list(ball.graph.vertices()) == [5, -6, 2**40]

    def test_text_ids(self):
        data = record(flags=1, ids=(b"'v1'", b"(2, 'x')", b"3"))
        ball = ball_from_bytes(data)
        assert ball.center == (2, "x")
        assert ball.graph == LabeledGraph.from_edges(
            {"v1": "A", (2, "x"): "B", 3: "A"},
            [("v1", (2, "x")), ((2, "x"), 3), (3, "v1")])
        assert ball_to_bytes(ball) == data

    def test_v1_records_are_told_apart(self):
        """The JSON records earlier releases wrote lack the magic: a
        typed error, not a decode."""
        with pytest.raises(BallDecodeError, match="not a ball record"):
            ball_from_bytes(ball_to_bytes_v1(HAND_BALL))

    @pytest.mark.parametrize("n", [0xFFFF, 0x10001], ids=["u16", "u32"])
    def test_index_width_follows_the_vertex_count(self, n):
        """One edge between the last two vertices (in record order), so
        the u32 case carries indices no u16 can."""
        order = sorted(range(n), key=repr)
        ball = Ball(graph=LabeledGraph.from_edges(
            dict.fromkeys(range(n), 0), [(order[-2], order[-1])]),
            center=order[-1], radius=n, ball_id=2**40)
        data = ball_to_bytes(ball)
        width = 2 if n == 0xFFFF else 4
        assert len(data) == (HEADER.size + len(_texts(b"0")) + 8 * n
                             + width * n + 2 * width)
        assert data[-2 * width:] == struct.pack(
            "<2H" if width == 2 else "<2I", n - 2, n - 1)
        restored = ball_from_bytes(data)
        assert restored == ball and restored.ball_id == 2**40
        assert ball_to_bytes(restored) == data


_IDS = st.one_of(
    st.integers(0, 40), st.integers(-40, -1),
    st.integers(2**63, 2**63 + 40),                 # no int64: text ids
    st.text(alphabet="av'\"\\ é", max_size=3),
    st.tuples(st.integers(0, 3), st.sampled_from("ab")))
_LABELS = st.one_of(st.integers(-2, 2), st.sampled_from(["A", "B", "é'"]))


@st.composite
def balls(draw, ids=_IDS):
    vertices = draw(st.lists(ids, min_size=1, max_size=10, unique=True))
    labels = {v: draw(_LABELS) for v in vertices}
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                          max_size=20))
    return Ball(graph=LabeledGraph.from_edges(labels, edges),
                center=draw(ends), radius=draw(st.integers(0, 5)),
                ball_id=draw(st.integers(-1, 2**40)))


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(ball=st.one_of(balls(), balls(st.integers(-40, 40))))
    def test_round_trip_is_exact_and_canonical(self, ball):
        data = ball_to_bytes(ball)
        restored = ball_from_bytes(data)
        assert restored == ball
        assert (restored.ball_id, restored.radius) == (ball.ball_id,
                                                       ball.radius)
        assert ball_to_bytes(restored) == data
        int_ids = all(type(v) is int and -2**63 <= v < 2**63
                      for v in ball.graph.vertices())
        assert HEADER.unpack_from(data)[1] == (0 if int_ids else 1)
        # Types survive, not only equality (1 == True == 1.0).
        assert graph_to_json(restored.graph) == graph_to_json(ball.graph)
        assert repr(restored.center) == repr(ball.center)
        # A v2-decoded graph iterates exactly as the v1-decoded one did.
        legacy = ball_from_bytes_v1(ball_to_bytes_v1(ball))
        assert list(restored.graph.vertices()) == list(legacy.graph.vertices())
        assert list(restored.graph.edges()) == list(legacy.graph.edges())

    def test_same_bytes_in_every_process(self):
        """String ids and labels: set iteration order follows the hash
        seed, the record does not."""
        program = (
            "import hashlib\n"
            "from repro.graph.ball import extract_ball\n"
            "from repro.graph.generators import fig3_graph\n"
            "from repro.graph.io import ball_to_bytes\n"
            "g = fig3_graph()\n"
            "print(hashlib.sha256(b''.join(\n"
            "    ball_to_bytes(extract_ball(g, v, 2, ball_id=i))\n"
            "    for i, v in enumerate(sorted(g.vertices())))).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        digests = {
            subprocess.run(
                [sys.executable, "-c", program], check=True,
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2", "3")}
        g = fig3_graph()
        assert digests == {hashlib.sha256(b"".join(
            ball_to_bytes(extract_ball(g, v, 2, ball_id=i))
            for i, v in enumerate(sorted(g.vertices())))).hexdigest() + "\n"}


class TestTypedErrors:
    """What ``TestBallDecodeError`` in ``test_io.py`` pins for v1, for the
    binary decoder."""

    @pytest.mark.parametrize("data", [
        record(counts=(2**32 - 1, 3, 2)),             # vertices overrun
        record(counts=(3, 2**32 - 1, 2)),             # edges overrun
        record(counts=(3, 3, 2**32 - 1)),             # labels overrun
        record(flags=1, counts=(2**32 - 1, 3, 2)),    # ... as text ids
        record(counts=(2, 3, 2)),                     # body longer than said
        record(edges=((0, 1), (1, 3), (2, 0))),       # index past the table
        record(codes=(0, 2, 0)),                      # label code past it
        record(center=3),
        record(ids=(5, 5, 2**40)),                    # duplicate vertex id
        record(edges=((0, 1), (1, 1), (2, 0))),       # self loop
        record(edges=((0, 1), (0, 1), (2, 0))),       # duplicate edge
        record(flags=2), record(flags=1 << 31),       # unknown flag bits
        record(tail=b"\x00"),                         # trailing bytes
        record(labels=(b"!A", b"'B'")),               # SyntaxError
        record(labels=(b"'A'", b"\xff")),             # not UTF-8
        record(labels=(b"'A'", b"(" * 5000)),         # too deep to parse
        record(flags=1),                              # ints read as texts
        record(flags=1, ids=(b"1", b"x", b"3")),      # id not a literal
        record(radius=2**32 - 1)[:HEADER.size - 1],   # short header
        MAGIC,
    ])
    def test_malformed_record(self, data):
        tracemalloc.start()
        try:
            with pytest.raises(BallDecodeError):
                ball_from_bytes(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Nothing was sized from a claimed count (2**32 - 1 vertices
        # would be 32 GiB of ids).
        assert peak < 1 << 20

    def test_wrong_magic_is_not_a_record(self):
        for magic in (b"\x00BR3", b"\x01BR2", b"\x00\x00\x00\x00"):
            with pytest.raises(BallDecodeError):
                ball_from_bytes(record(magic=magic))


def _real_records() -> list[bytes]:
    slashdot = load_dataset("slashdot", scale=0.05).graph
    fig3 = fig3_graph()
    return [ball_to_bytes(extract_ball(fig3, "v6", 2, ball_id=17)),
            ball_to_bytes(extract_ball(slashdot, 0, 1, ball_id=0)),
            ball_to_bytes(extract_ball(slashdot, 3, 2, ball_id=2**33))]


class TestFuzz:
    """Every truncation point and every single-byte mutation of real
    records decodes to a ``Ball`` or raises the typed error -- nothing
    else, as ``test_framed_log.py`` has it for the framed log."""

    RECORDS = _real_records()

    def test_truncation_and_mutation(self):
        @settings(max_examples=250, deadline=None)
        @given(data=st.data())
        def fuzz(data):
            original = data.draw(st.sampled_from(self.RECORDS))
            cut = data.draw(st.integers(0, len(original) - 1))
            with pytest.raises(BallDecodeError):
                ball_from_bytes(original[:cut])
            mutated = bytearray(original)
            mutated[data.draw(st.integers(0, len(original) - 1))] ^= \
                data.draw(st.integers(1, 255))
            try:
                ball = ball_from_bytes(bytes(mutated))
            except BallDecodeError:
                return
            assert isinstance(ball, Ball) and ball.center in ball.graph

        started = time.perf_counter()
        fuzz()
        assert time.perf_counter() - started < 10

    def test_every_header_bit_flip(self):
        """Exhaustive where it matters most: the counts everything else
        is sized from."""
        original = self.RECORDS[0]
        for bit in range(HEADER.size * 8):
            damaged = bytearray(original)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                ball_from_bytes(bytes(damaged))
            except BallDecodeError:
                pass


# ---------------------------------------------------------------------------
# the store reads exactly its own version
# ---------------------------------------------------------------------------
RADII = (2,)
SEED = 3  # matches test_config so store key == engine owner key


class TestV1Store:
    def test_v1_store_is_stale(self, tmp_path, dataset, capsys):
        """A version-1 manifest is an earlier release's: rebuild it."""
        from repro.storage import store as store_module

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store_module, "_VERSION", 1)
            ArtifactStore.create(tmp_path / "v1", dataset.graph, RADII,
                                 DataOwnerKey.generate(SEED),
                                 twiglet_h=None).close()
        with pytest.raises(StoreStale, match="store version 1"):
            ArtifactStore.open(tmp_path / "v1")
        capsys.readouterr()
        assert main(["store", "verify", str(tmp_path / "v1")]) == 2
        assert "STALE: store is stale: written by an earlier release" in \
            capsys.readouterr().out

    def test_future_version_is_refused_by_name(self, tmp_path, dataset,
                                               monkeypatch):
        """What an older checkout says about a v2 store, one version on."""
        from repro.storage import store as store_module

        monkeypatch.setattr(store_module, "_VERSION", 3)
        ArtifactStore.create(tmp_path / "v3", dataset.graph, RADII,
                             DataOwnerKey.generate(SEED),
                             twiglet_h=None).close()
        with pytest.raises(StoreError, match="unsupported store version 3"):
            ArtifactStore.open(tmp_path / "v3")
        assert main(["store", "verify", str(tmp_path / "v3")]) == 3
