"""The v1 ball record writer -- JSON inside JSON -- as ``repro.graph.io``
had it until ball record v2 replaced it.  ``src/`` only *reads* v1 now;
the writer lives on here as the oracle for the compatibility tests."""

import json

from repro.graph.io import graph_to_json


def ball_to_bytes_v1(ball) -> bytes:
    payload = {
        "ball_id": ball.ball_id,
        "center": repr(ball.center),
        "radius": ball.radius,
        "graph": graph_to_json(ball.graph),
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def write_v1_stores(monkeypatch) -> None:
    """Make ``ArtifactStore.create`` write what the previous release wrote:
    v1 records under ``"version": 1``."""
    from repro.storage import store as store_module

    monkeypatch.setattr(store_module, "ball_to_bytes", ball_to_bytes_v1)
    monkeypatch.setattr(store_module, "_VERSION", 1)


def ball_from_bytes_v1(data: bytes):
    """The v1 reader as ``repro.graph.io`` had it: a mutable graph grown by
    ``LabeledGraph.from_edges`` in record order.  ``src/`` now decodes
    every record into a ``BallGraphView``; this stays as the oracle for
    what a decoded graph answers and in which order it iterates."""
    import ast

    from repro.graph.ball import Ball
    from repro.graph.io import graph_from_json

    payload = json.loads(data.decode("utf-8"))
    return Ball(graph=graph_from_json(payload["graph"]),
                center=ast.literal_eval(payload["center"]),
                radius=payload["radius"], ball_id=payload["ball_id"])
