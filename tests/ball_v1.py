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
