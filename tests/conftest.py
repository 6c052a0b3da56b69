"""Shared fixtures: the Fig. 3 worked example, a small CGBE instance, a
miniature dataset, and the certified shard-split cuts a gateway serves.
CGBE uses a 1024-bit modulus with 24-bit q/r in tests -- the same algebra
as the paper's 4096/32/32 at a fraction of the cost."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.crypto.cgbe import CGBE
from repro.crypto.keys import DataOwnerKey
from repro.framework.placement import PlacementManifest
from repro.framework.prilo import PriloConfig
from repro.framework.shard import ENGINE_CLASSES, make_shard_specs
from repro.framework.verify import AnswerVerifier
from repro.graph.ball import extract_ball
from repro.graph.generators import fig3_graph, fig3_query
from repro.graph.labeled_graph import LabeledGraph
from repro.storage import ArtifactStore, graph_digest, shard_split
from repro.workloads.datasets import tiny_dataset


@pytest.fixture(scope="session")
def fig3():
    """(query, graph) of the paper's running example."""
    return fig3_query(), fig3_graph()


@pytest.fixture(scope="session")
def fig3_ball(fig3):
    query, graph = fig3
    return extract_ball(graph, "v6", query.diameter, ball_id=0)


@pytest.fixture(scope="session")
def cgbe():
    # 24-bit q keeps the factor-q test's false-violation probability
    # (~1/q per decrypted aggregate) negligible across the whole suite.
    return CGBE.generate(modulus_bits=1024, q_bits=24, r_bits=24, seed=7)


@pytest.fixture(scope="session")
def test_config():
    """Engine config sized for tests."""
    return PriloConfig(k_players=2, modulus_bits=1024, q_bits=24, r_bits=24,
                       radii=(1, 2, 3), seed=3)


@pytest.fixture(scope="session")
def dataset():
    return tiny_dataset(seed=2)


@dataclass
class CertifiedCut:
    """A ``store shard-split`` cut of one authenticated pack, with the
    graph and config its fleet serves: the specs of a certifying shard
    fleet and the verifier of its gateway."""

    root: Path
    #: The unsplit pack the cut was taken from.
    pack: Path
    graph: LabeledGraph
    config: PriloConfig
    shards: int

    def specs(self, engine: str = "prilo", **kwargs):
        return make_shard_specs(self.graph, self.config, self.shards,
                                store_root=str(self.root), engine=engine,
                                **kwargs)

    def verifier(self, engine: str = "prilo") -> AnswerVerifier:
        # Certificates bind the engine class's effective config.
        return AnswerVerifier.from_placement(
            PlacementManifest.read(self.root), seed=self.config.seed,
            config=ENGINE_CLASSES[engine].effective_config(self.config))

    def shard_root(self, shard_id: int = 0) -> str:
        return str(self.root / f"shard-{shard_id}")


@pytest.fixture(scope="session")
def certified_cuts(tmp_path_factory):
    """``cut(graph, config, shards)``: a :class:`CertifiedCut` whose pack
    and split are built once per (graph digest, radii, key seed, shard
    count) and shared by every test module that asks for the same one."""
    roots: dict[tuple, Path] = {}

    def cut(graph: LabeledGraph, config: PriloConfig,
            shards: int = 2) -> CertifiedCut:
        key = (graph_digest(graph), tuple(config.radii), config.seed)
        if key not in roots:
            roots[key] = tmp_path_factory.mktemp("pack") / "pack"
            ArtifactStore.create(roots[key], graph, config.radii,
                                 DataOwnerKey.generate(config.seed)).close()
        out = roots[key].parent / f"shards-{shards}"
        if not out.exists():
            shard_split(roots[key], out, shards)
        return CertifiedCut(out, roots[key], graph, config, shards)

    return cut
