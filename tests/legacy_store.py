"""The store layout of the release before the tree artifact went: a
``trees.json`` beside the packs (each ball's Sec. 4.1 tree encodings and
bloom filter under the graph-wide label codec), listed in the manifest's
checksums, with the BF parameters under the manifest's ``bf`` key.
``src/`` no longer writes or reads either; this writer stays as the
oracle for the compatibility tests, the way ``tests/ball_v1.py`` keeps
the v1 ball record."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.core.bf_pruning import PAD_ENCODING, BFConfig
from repro.core.encoding import LabelCodec
from repro.core.trees import (
    BF_TOPOLOGIES,
    bf_threshold_exceeded,
    enumerate_center_tree_encodings,
)
from repro.filters.bloom import BloomFilter
from repro.storage import ArtifactStore

TREES = "trees.json"


def _tree_artifact(ball, codec, config: BFConfig) -> dict:
    if bf_threshold_exceeded(ball.graph, ball.center, config.threshold_t):
        return {"bypassed": True}
    encodings, truncated = enumerate_center_tree_encodings(
        ball.graph, ball.center, codec, BF_TOPOLOGIES,
        max_trees=config.max_ball_trees)
    if truncated:
        return {"bypassed": True, "trees": len(encodings)}
    bloom = BloomFilter(config.filter_bits(), config.filter_hashes())
    bloom.add(PAD_ENCODING)
    bloom.update(encodings)
    return {"bypassed": False, "trees": len(encodings),
            "filter_hex": bloom.to_bytes().hex()}


def make_legacy(root, graph, config: BFConfig = BFConfig()) -> None:
    """Turn the fresh store at ``root`` (built from ``graph``) into what
    the earlier release's ``store build`` wrote: add ``trees.json``, its
    checksum and the ``bf`` key, and re-commit the manifest."""
    root = Path(root)
    codec = LabelCodec.from_alphabet(graph.alphabet)
    with ArtifactStore.open(root) as store:
        balls = {str(ball_id): _tree_artifact(store.load_ball(ball_id),
                                              codec, config)
                 for ball_id in store.ball_ids()}
    bf = asdict(config)
    (root / TREES).write_text(
        json.dumps({"bf": bf, "balls": balls}, separators=(",", ":"),
                   sort_keys=True), encoding="utf-8")
    manifest = json.loads((root / "manifest.json").read_text("utf-8"))
    manifest["bf"] = bf
    manifest["checksums"][TREES] = hashlib.sha256(
        (root / TREES).read_bytes()).hexdigest()
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
