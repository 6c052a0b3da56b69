"""Serialization of labeled graphs.

Three formats:

* SNAP-style labeled edge list -- a ``# vertex <id> <label>`` header section
  followed by ``<src> <dst>`` lines; round-trips the datasets the paper
  downloads from SNAP (plus the labels the paper adds).
* JSON -- the canonical text form of a graph: wire queries, answers and the
  graph digest.
* Ball record -- the binary plaintext payload of encrypted balls (the
  data owner encrypts serialized ball data before shipping it to the SP,
  Sec. 2.3).
"""

from __future__ import annotations

import ast
import json
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.graph.ball import Ball
from repro.graph.labeled_graph import (
    BallGraphView,
    LabeledGraph,
    check_ball_arrays,
)


class BallDecodeError(ValueError):
    """A serialized graph or ball is malformed: bad JSON, wrong shapes, a
    record whose counts or indices overrun it, an unparsable repr, or graph
    data :class:`LabeledGraph` rejects."""


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
    """Canonical JSON form (deterministic ordering) of a labeled graph:
    vertices sorted by ``repr``, edges by their endpoints' ``repr`` pair
    (one ``repr`` per vertex, shared by both sections)."""
    text = {v: repr(v) for v in graph.vertices()}
    payload = {
        "vertices": [[text[v], repr(graph.label(v))]
                     for v in sorted(text, key=text.__getitem__)],
        "edges": sorted([text[u], text[v]] for u, v in graph.edges()),
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
            MemoryError, IndexError, OverflowError, struct.error) as exc:
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


# ----------------------------------------------------------------------
# ball record (layout: DESIGN.md section 9.1)
# ----------------------------------------------------------------------
#: First byte 0x00: no JSON text can start with it.
_MAGIC = b"\x00BR2"
#: magic | flags | ball_id | radius | vertices | edges | labels | center
_HEADER = struct.Struct("<4sIqIIIII")
_LENGTH = struct.Struct("<I")
#: Flag bit 0: vertex ids are length-prefixed ``repr`` text, not int64s.
_TEXT_IDS = 1
_INT64 = range(-2**63, 2**63)


def _index_code(n_vertices: int) -> str:
    """Vertex indices and label codes: u16 while they fit, u32 beyond."""
    return "H" if n_vertices <= 0xFFFF else "I"


def _pack(code: str, values) -> bytes:
    return struct.pack(f"<{len(values)}{code}", *values)


def _pack_texts(texts) -> bytes:
    encoded = [text.encode("utf-8") for text in texts]
    return b"".join(part for text in encoded
                    for part in (_LENGTH.pack(len(text)), text))


def ball_to_bytes(ball: Ball) -> bytes:
    """The plaintext the data owner encrypts per ball (Sec. 2.3, step 1):
    one record, a pure function of the ball -- vertices in ``repr``
    order, edges sorted by vertex-index pair."""
    graph = ball.graph
    order = sorted(graph.vertices(), key=repr)
    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    label_codes: dict[str, int] = {}
    codes = [label_codes.setdefault(repr(graph.label(v)), len(label_codes))
             for v in order]
    # One int per edge, (source index, target index) in base n: sorts in
    # index-pair order at well under the cost of sorting tuples.
    pairs = sorted(index[u] * n + index[v] for u, v in graph.edges())
    if all(type(v) is int and v in _INT64 for v in order):
        flags, ids = 0, _pack("q", order)
    else:
        flags, ids = _TEXT_IDS, _pack_texts(map(repr, order))
    code = _index_code(n)
    return b"".join((
        _HEADER.pack(_MAGIC, flags, ball.ball_id, ball.radius, n,
                     len(pairs), len(label_codes), index[ball.center]),
        _pack_texts(label_codes), ids, _pack(code, codes),
        _pack(code, [p // n for p in pairs]),
        _pack(code, [p % n for p in pairs])))


def _literals(data: bytes, pos: int, count: int) -> tuple[list, int]:
    """``count`` length-prefixed ``repr`` texts from ``pos``: their values
    and the offset after them.  Each text takes at least its 4-byte length
    prefix, so the record, not ``count``, bounds the loop and the list."""
    values, size, length_at = [], len(data), _LENGTH.unpack_from
    for _ in range(count):
        start = pos + _LENGTH.size
        pos = start + length_at(data, pos)[0]
        if pos > size:
            raise BallDecodeError(f"text at offset {start} overruns the record")
        text = data[start:pos]
        # Canonical non-negative int text (the datasets' labels): no parser.
        if text.isdigit() and (text == b"0" or not text.startswith(b"0")):
            values.append(int(text))
        else:
            values.append(_parse_literal(str(text, "utf-8")))
    return values, pos


def _label_slice(arrays, labels, center: int):
    """The record's arrays cut to the vertices whose label is in
    ``labels``, plus the ``center`` position, and the edges among them.
    The whole record passes :func:`check_ball_arrays` first, and every
    label a vertex carries is hashed (as the full view's label index
    does), so a record decodes sliced exactly when it decodes whole."""
    ids, table, codes, sources, targets = arrays
    check_ball_arrays(*arrays)
    used = np.bincount(codes, minlength=len(table)).tolist()
    keep = np.array([count and label in labels
                     for label, count in zip(table, used)], bool)[codes]
    keep[center] = True
    kept = np.flatnonzero(keep)
    position = np.cumsum(keep) - 1  # old position -> kept position
    inside = keep[sources] & keep[targets]
    return ((ids[kept] if isinstance(ids, np.ndarray)
             else [ids[i] for i in kept.tolist()]),
            table, codes[kept], position[sources[inside]],
            position[targets[inside]])


def _ball_from_record(data: bytes, labels=None) -> Ball:
    (magic, flags, ball_id, radius, n_vertices, n_edges, n_labels,
     center) = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise BallDecodeError(f"not a ball record (magic {magic!r})")
    if flags & ~_TEXT_IDS:
        raise BallDecodeError(f"unknown flag bits {flags:#x}")
    table, pos = _literals(data, _HEADER.size, n_labels)
    if flags & _TEXT_IDS:
        ids, pos = _literals(data, pos, n_vertices)
    else:
        ids = np.frombuffer(data, "<q", n_vertices, pos)
        pos += ids.nbytes
    # Zero-copy reads: ``frombuffer`` refuses a count the remaining bytes
    # cannot hold before anything is sized from it.
    code = "<" + _index_code(n_vertices)
    codes = np.frombuffer(data, code, n_vertices, pos)
    pos += codes.nbytes
    sources = np.frombuffer(data, code, n_edges, pos)
    targets = np.frombuffer(data, code, n_edges, pos + sources.nbytes)
    if pos + 2 * sources.nbytes != len(data):
        raise BallDecodeError("trailing bytes after the record")
    arrays = (ids, table, codes, sources, targets)
    center_id = ids[center] if flags & _TEXT_IDS else int(ids[center])
    if labels is not None:
        arrays = _label_slice(arrays, labels, center)
    return Ball(graph=BallGraphView(*arrays), center=center_id,
                radius=radius, ball_id=ball_id)


def ball_from_bytes(data: bytes, labels=None) -> Ball:
    """Inverse of :func:`ball_to_bytes`; :class:`BallDecodeError` on any
    malformed payload, raised here and by no later read of the ball's
    :class:`BallGraphView`.

    ``labels`` (a set) keeps only the vertices carrying one of them, plus
    the center, and the edges among those: the query's ``Sigma_Q`` slice,
    all a label-preserving matcher can map onto.  The whole record is
    validated either way, so the same bytes raise for every ``labels``.
    ``None`` keeps the whole ball."""
    with _decoding("ball payload"):
        return _ball_from_record(data, labels)
