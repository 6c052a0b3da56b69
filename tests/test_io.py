"""Round-trip tests for graph serialization."""

import ast
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.ball import extract_ball
from repro.graph.generators import fig3_graph, power_law_graph
from repro.graph.io import (
    BallDecodeError,
    _parse_literal,
    ball_from_bytes,
    ball_to_bytes,
    dump_edge_list,
    graph_from_json,
    graph_to_json,
    load_edge_list,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.workloads.datasets import load_dataset


class TestEdgeList:
    def test_roundtrip_string_ids(self, tmp_path):
        g = fig3_graph()
        path = tmp_path / "g.txt"
        dump_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_roundtrip_int_ids(self, tmp_path):
        g = power_law_graph(40, 2, 5, seed=1)
        path = tmp_path / "g.txt"
        dump_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded == g
        # Identifier types survive (ints stay ints).
        assert all(isinstance(v, int) for v in loaded.vertices())

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n# vertex 1 'A'\n# vertex 2 'B'\n1 2\n")
        g = load_edge_list(path)
        assert g.num_vertices == 2
        assert g.has_edge(1, 2)


class TestJson:
    def test_roundtrip(self):
        g = fig3_graph()
        assert graph_from_json(graph_to_json(g)) == g

    def test_canonical(self):
        g = fig3_graph()
        assert graph_to_json(g) == graph_to_json(g.copy())


class TestBallBytes:
    def test_roundtrip(self):
        g = fig3_graph()
        ball = extract_ball(g, "v6", 2, ball_id=17)
        restored = ball_from_bytes(ball_to_bytes(ball))
        assert restored.ball_id == 17
        assert restored.center == "v6"
        assert restored.radius == 2
        assert restored.graph == ball.graph

    @pytest.mark.parametrize("string_ids", [False, True],
                             ids=["int-ids", "str-ids"])
    def test_roundtrip_every_slashdot_ball(self, string_ids):
        g = load_dataset("slashdot", scale=0.05).graph
        if string_ids:
            g = LabeledGraph.from_edges(
                {f"u{v}": f"L{g.label(v)}" for v in g.vertices()},
                [(f"u{u}", f"u{v}") for u, v in g.edges()])
        for ball_id, center in enumerate(sorted(g.vertices())):
            ball = extract_ball(g, center, 2, ball_id=ball_id)
            restored = ball_from_bytes(ball_to_bytes(ball))
            assert restored == ball and restored.ball_id == ball_id
            assert restored.graph.num_edges == ball.graph.num_edges
            assert hash(restored.graph) == hash(ball.graph)
            assert ball_to_bytes(restored) == ball_to_bytes(ball)


def literal_outcome(parse, text):
    try:
        value = parse(text)
    except (ValueError, TypeError, SyntaxError, MemoryError,
            RecursionError) as exc:
        return type(exc)
    return type(value), value


class TestLiteralFastPath:
    """Only text with ``repr(int(text)) == text`` may skip ``literal_eval``;
    everything else gets exactly its value or its error."""

    @pytest.mark.parametrize("text, expected", [
        ("12", 12), ("0", 0), ("-5", -5), ("1_0", 10), ("+1", 1),
        (" 7", 7), ("1 ", 1), ("\t3", 3), ("1\n", 1), ("-0", 0),
        ("0x10", 16), ("1e3", 1000.0), ("2.5", 2.5), ("None", None),
        ("True", True), ("'v6'", "v6"), ("'7'", "7"), ("(1, 'a')", (1, "a")),
        ("'A'", "A"), ("1j", 1j),
    ])
    def test_values(self, text, expected):
        value = _parse_literal(text)
        assert (type(value), value) == (type(expected), expected)
        assert literal_outcome(ast.literal_eval, text) == \
            (type(expected), expected)

    @pytest.mark.parametrize("text, error", [
        ("007", SyntaxError), ("\u0661\u0662", SyntaxError),   # Arabic 12
        ("\uff19", SyntaxError),                               # fullwidth 9
        ("", SyntaxError), ("--1", ValueError), ("9" * 5000, SyntaxError),
        ("v6", ValueError), (5, ValueError), (5.0, ValueError),
        (True, ValueError), (None, ValueError), (["1"], ValueError),
        (b"1", ValueError), (float("inf"), ValueError),
        (float("nan"), ValueError),
    ])
    def test_errors(self, text, error):
        with pytest.raises(error):
            _parse_literal(text)
        assert literal_outcome(ast.literal_eval, text) is error

    @given(st.text(alphabet="0123456789-+_ .e'x\u0661\uff19", max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_equals_literal_eval(self, text):
        assert literal_outcome(_parse_literal, text) == \
            literal_outcome(ast.literal_eval, text)


#: The ball record header (DESIGN.md 9.1), field by field.
_HEADER = struct.Struct("<4sIqIIIII")
_FIELDS = ("magic", "flags", "ball_id", "radius", "vertices", "edges",
           "labels", "center")


class TestBallDecodeError:
    """Every malformed payload surfaces as the one typed error the store's
    quarantine path (and any other caller) can catch.
    ``tests/test_ball_record.py`` holds the record's exhaustive vectors;
    these run over one real record."""

    BALL = ball_to_bytes(extract_ball(fig3_graph(), "v6", 2, ball_id=17))

    def test_is_a_value_error(self):
        assert issubclass(BallDecodeError, ValueError)

    def test_every_single_bit_flip_decodes_or_raises_typed(self):
        decoded = rejected = 0
        for bit in range(len(self.BALL) * 8):
            damaged = bytearray(self.BALL)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                ball_from_bytes(bytes(damaged))
                decoded += 1
            except BallDecodeError:
                rejected += 1
        assert decoded and rejected > decoded

    @pytest.mark.parametrize("graph_json", [
        "not json", "[]", "5", "null", '{"vertices":[]}',
        '{"vertices":5,"edges":[]}', '{"vertices":[["1"]],"edges":[]}',
        '{"vertices":[[["1"],"2"]],"edges":[]}',
        '{"vertices":[[Infinity,"2"]],"edges":[]}',
        '{"vertices":[["!1","2"]],"edges":[]}',                 # SyntaxError
        '{"vertices":[["1","2"],["1","3"]],"edges":[]}',        # relabel
        '{"vertices":[["1","2"]],"edges":[["1","1"]]}',         # self loop
        '{"vertices":[["1","2"]],"edges":[["1","9"]]}',         # unknown
        '{"vertices":[["' + "(" * 5000 + '","2"]],"edges":[]}',  # too deep
        "[" * 100_000,
    ])
    def test_malformed_graph(self, graph_json):
        with pytest.raises(BallDecodeError):
            graph_from_json(graph_json)

    @pytest.mark.parametrize("patch", [
        {"center": 99}, {"center": 2**32 - 1}, {"vertices": 2},
        {"vertices": 2**20}, {"edges": 0}, {"edges": 2**20},
        {"flags": 2},
    ])
    def test_malformed_ball_fields(self, patch):
        fields = dict(zip(_FIELDS, _HEADER.unpack_from(self.BALL)))
        data = (_HEADER.pack(*{**fields, **patch}.values())
                + self.BALL[_HEADER.size:])
        with pytest.raises(BallDecodeError):
            ball_from_bytes(data)

    def test_missing_field_and_bad_bytes(self):
        for data in (self.BALL[:_HEADER.size - 1], b"\xff\xfe", b"",
                     b"[1,2]", json.dumps({"ball_id": 17}).encode()):
            with pytest.raises(BallDecodeError):
                ball_from_bytes(data)

    def test_lenient_forms_still_accepted(self):
        """The accepted language did not shrink: non-canonical int reprs
        and an edge endpoint spelled differently from its vertex entry."""
        g = graph_from_json(
            '{"vertices":[["1_0","+2"],[" 7","2"]],"edges":[["10","7"]]}')
        assert g == LabeledGraph.from_edges({10: 2, 7: 2}, [(10, 7)])
