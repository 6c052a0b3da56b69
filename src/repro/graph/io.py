"""Serialization of labeled graphs.

Two formats:

* SNAP-style labeled edge list -- a ``# vertex <id> <label>`` header section
  followed by ``<src> <dst>`` lines; round-trips the datasets the paper
  downloads from SNAP (plus the labels the paper adds).
* JSON -- used as the plaintext payload of encrypted balls (the data owner
  encrypts serialized ball data before shipping it to the SP, Sec. 2.3).
"""

from __future__ import annotations

import ast
import json
from contextlib import contextmanager
from pathlib import Path

from repro.graph.ball import Ball
from repro.graph.labeled_graph import LabeledGraph


class BallDecodeError(ValueError):
    """A serialized graph or ball is malformed: bad JSON, wrong shapes, an
    unparsable repr, or graph data :class:`LabeledGraph` rejects."""


def dump_edge_list(graph: LabeledGraph, path: str | Path) -> None:
    """Write ``graph`` as a labeled edge list."""
    lines = [f"# vertex {v!r} {graph.label(v)!r}"
             for v in sorted(graph.vertices(), key=repr)]
    lines.extend(f"{u!r} {v!r}" for u, v in
                 sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_edge_list(path: str | Path) -> LabeledGraph:
    """Read a labeled edge list written by :func:`dump_edge_list`.

    Vertex ids and labels are parsed with ``ast.literal_eval`` so ints and
    strings round-trip exactly.
    """
    labels: list[tuple[object, object]] = []
    edges: list[tuple[object, object]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# vertex "):
            v_repr, label_repr = line[len("# vertex "):].split(" ", 1)
            labels.append((ast.literal_eval(v_repr),
                           ast.literal_eval(label_repr)))
        elif line.startswith("#"):
            continue
        else:
            u_repr, v_repr = line.split(" ", 1)
            edges.append((ast.literal_eval(u_repr),
                          ast.literal_eval(v_repr)))
    return LabeledGraph.from_edges(labels, edges)


def graph_to_json(graph: LabeledGraph) -> str:
    """Canonical JSON form (deterministic ordering) of a labeled graph."""
    payload = {
        "vertices": [[repr(v), repr(graph.label(v))]
                     for v in sorted(graph.vertices(), key=repr)],
        "edges": [[repr(u), repr(v)] for u, v in
                  sorted(graph.edges(),
                         key=lambda e: (repr(e[0]), repr(e[1])))],
    }
    return json.dumps(payload, separators=(",", ":"))


class _LiteralCache(dict):
    """``repr`` text -> value, parsed once per distinct text: the edge
    section repeats the vertex section's ids, so it is all dict hits."""

    def __missing__(self, text):
        value = self[text] = _parse_literal(text)
        return value


def _parse_literal(text):
    """``ast.literal_eval(text)``, skipping the parser for canonical ints:
    only text that is exactly the ``repr`` of its int takes the short cut,
    anything else (``"007"``, ``"1_0"``, ``" 7"``, strings, tuples) gets
    ``literal_eval``'s own value or error."""
    try:
        value = int(text)
    except (ValueError, TypeError, OverflowError):  # not int text at all
        return ast.literal_eval(text)
    return value if repr(value) == text else ast.literal_eval(text)


@contextmanager
def _decoding(what: str):
    """Turn whatever a malformed payload trips into one typed error."""
    try:
        yield
    except BallDecodeError:
        raise
    except (ValueError, KeyError, TypeError, SyntaxError, RecursionError,
            MemoryError) as exc:
        raise BallDecodeError(f"malformed {what}: {exc!r}") from exc


def graph_from_json(text: str) -> LabeledGraph:
    """Inverse of :func:`graph_to_json`; :class:`BallDecodeError` on any
    malformed payload."""
    with _decoding("graph payload"):
        payload = json.loads(text)
        parsed = _LiteralCache()
        return LabeledGraph.from_edges(
            [(parsed[v], parsed[label]) for v, label in payload["vertices"]],
            [(parsed[u], parsed[v]) for u, v in payload["edges"]])


def ball_to_bytes(ball: Ball) -> bytes:
    """The plaintext the data owner encrypts per ball (Sec. 2.3, step 1)."""
    payload = {
        "ball_id": ball.ball_id,
        "center": repr(ball.center),
        "radius": ball.radius,
        "graph": graph_to_json(ball.graph),
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def ball_from_bytes(data: bytes) -> Ball:
    """Inverse of :func:`ball_to_bytes`; :class:`BallDecodeError` on any
    malformed payload."""
    with _decoding("ball payload"):
        payload = json.loads(data.decode("utf-8"))
        return Ball(graph=graph_from_json(payload["graph"]),
                    center=_parse_literal(payload["center"]),
                    radius=payload["radius"],
                    ball_id=payload["ball_id"])
