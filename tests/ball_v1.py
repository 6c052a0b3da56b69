"""The v1 ball record -- JSON inside JSON -- as ``repro.graph.io`` wrote
and read it until ball record v2 replaced it.  ``src/`` refuses v1 records
now; this pair stays as an independent oracle: what a decoded graph
answers and in which order it iterates, and what a v1 record looks like
to the decoder that must refuse it."""

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


def ball_from_bytes_v1(data: bytes):
    """The v1 reader: a mutable graph grown by ``LabeledGraph.from_edges``
    in record order.  ``src/`` decodes every record into a
    ``BallGraphView``; this is the oracle for what a decoded graph answers
    and in which order it iterates."""
    import ast

    from repro.graph.ball import Ball
    from repro.graph.io import graph_from_json

    payload = json.loads(data.decode("utf-8"))
    return Ball(graph=graph_from_json(payload["graph"]),
                center=ast.literal_eval(payload["center"]),
                radius=payload["radius"], ball_id=payload["ball_id"])
