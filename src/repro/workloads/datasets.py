"""Dataset registry: scaled synthetic stand-ins for Table 3.

The paper evaluates on SNAP's *Slashdot*, *DBLP*, and *Twitter* with random
uniform labels, plus the LDBC SNB SF1 graph with tag-class labels
(Sec. 6.4).  Offline, we generate small-world topologies (ring lattice +
shortcuts + hubs) calibrated so that radius-3 candidate balls fall in the
Table 4 size regime -- the quantity the candidate-enumeration and pruning
costs actually depend on -- with Table 3's label-alphabet sizes, scaled so
a laptop evaluates hundreds of balls per query in seconds.  Every benchmark
prints the scale it ran at; EXPERIMENTS.md records paper-vs-measured per
figure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.graph.generators import social_graph, relabel_uniform
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.ldbc import ldbc_like_graph
from repro.graph.qgen import QGen
from repro.graph.query import Query, Semantics


@dataclass(frozen=True)
class DatasetSpec:
    """Generation parameters plus the paper's Table 3/4 reference figures."""

    name: str
    num_vertices: int
    lattice_neighbors: int
    rewire_probability: float
    hom_labels: int
    ssim_labels: int
    hubs: int = 0
    hub_degree: int = 0
    reciprocity: float = 0.2
    seed: int = 11
    kind: str = "social"
    paper_vertices: int = 0
    paper_edges: int = 0
    paper_avg_ball: int = 0   # Table 4, |Sigma^H| row

    def scaled(self, scale: float) -> "DatasetSpec":
        """Shrink/grow the vertex count; locality and labels preserved."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(self, num_vertices=max(
            int(self.num_vertices * scale), 2 * self.lattice_neighbors + 2))


DATASET_SPECS: dict[str, DatasetSpec] = {
    # Table 3: Slashdot 82,168 V / 948,464 E, labels 100/64.
    # Table 4: avg ball 243 (|Sigma|=100); we target ~1/2 of that.
    "slashdot": DatasetSpec("slashdot", num_vertices=4000,
                            lattice_neighbors=5, rewire_probability=0.06,
                            hom_labels=100, ssim_labels=64,
                            hubs=6, hub_degree=40, reciprocity=0.35,
                            paper_vertices=82_168, paper_edges=948_464,
                            paper_avg_ball=243),
    # Table 3: DBLP 317,080 V / 1,049,866 E, labels 150/64.
    # Table 4: avg ball 25 -- DBLP is sparse and local.
    "dblp": DatasetSpec("dblp", num_vertices=4800,
                        lattice_neighbors=3, rewire_probability=0.02,
                        hom_labels=150, ssim_labels=64,
                        hubs=4, hub_degree=20, reciprocity=0.5,
                        paper_vertices=317_080, paper_edges=1_049_866,
                        paper_avg_ball=25),
    # Table 3: Twitter 81,306 V / 1,768,149 E (densest), labels 100/64.
    # Table 4: avg ball 245.
    "twitter": DatasetSpec("twitter", num_vertices=4000,
                           lattice_neighbors=7, rewire_probability=0.08,
                           hom_labels=100, ssim_labels=64,
                           hubs=8, hub_degree=60, reciprocity=0.2,
                           paper_vertices=81_306, paper_edges=1_768_149,
                           paper_avg_ball=245),
    # Sec. 6.4: LDBC SF1, 3.16M V / 10.4M E, 213 tag-class labels.
    "ldbc": DatasetSpec("ldbc", num_vertices=6000, lattice_neighbors=3,
                        rewire_probability=0.05, hom_labels=213,
                        ssim_labels=213, kind="ldbc",
                        paper_vertices=3_156_275, paper_edges=10_375_137),
}


@dataclass
class Dataset:
    """A generated dataset with both label-alphabet variants of Table 3."""

    spec: DatasetSpec
    graph: LabeledGraph              # |Sigma^H| labels (hom / sub-iso runs)
    ssim_graph: LabeledGraph         # |Sigma^S| labels (ssim runs)

    @property
    def name(self) -> str:
        return self.spec.name

    def graph_for(self, semantics: Semantics) -> LabeledGraph:
        """The paper runs ssim on the 64-label variants (Table 3)."""
        if semantics is Semantics.SSIM:
            return self.ssim_graph
        return self.graph

    def random_query(self, size: int = 8, diameter: int = 3,
                     semantics: Semantics = Semantics.HOM,
                     seed: int = 0) -> Query:
        return self.random_queries(1, size, diameter, semantics, seed)[0]

    def random_queries(self, count: int, size: int = 8, diameter: int = 3,
                       semantics: Semantics = Semantics.HOM,
                       seed: int = 0) -> list[Query]:
        """The paper's per-experiment workload: ``count`` QGen queries
        (10 under the default setting, Sec. 6.1).  A fresh generator per
        call: the same arguments return the same queries every time."""
        qgen = QGen(self.graph_for(semantics), seed=self.spec.seed + seed)
        return qgen.generate_batch(count, size, diameter, semantics)


def load_dataset(name: str, scale: float = 1.0,
                 seed: int | None = None) -> Dataset:
    """Generate a named dataset deterministically.

    ``scale`` multiplies the default vertex count; ``seed`` overrides the
    spec's seed (for variance studies).
    """
    try:
        spec = DATASET_SPECS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; available: "
                       f"{sorted(DATASET_SPECS)}") from None
    if scale != 1.0:
        spec = spec.scaled(scale)
    if seed is not None:
        spec = replace(spec, seed=seed)
    if spec.kind == "ldbc":
        graph = ldbc_like_graph(num_vertices=spec.num_vertices,
                                edges_per_vertex=spec.lattice_neighbors,
                                num_labels=spec.hom_labels, seed=spec.seed)
        return Dataset(spec=spec, graph=graph, ssim_graph=graph)
    graph = social_graph(spec.num_vertices, spec.lattice_neighbors,
                         spec.rewire_probability, spec.hom_labels,
                         seed=spec.seed, reciprocity=spec.reciprocity,
                         hubs=spec.hubs, hub_degree=spec.hub_degree)
    ssim_graph = relabel_uniform(graph, spec.ssim_labels,
                                 seed=spec.seed + 1)
    return Dataset(spec=spec, graph=graph, ssim_graph=ssim_graph)


def tiny_dataset(seed: int = 0, num_vertices: int = 250,
                 num_labels: int = 16) -> Dataset:
    """A miniature dataset for tests: same shape, seconds-scale runtimes."""
    rng = random.Random(seed)
    spec = DatasetSpec("tiny", num_vertices=num_vertices,
                       lattice_neighbors=3, rewire_probability=0.05,
                       hom_labels=num_labels,
                       ssim_labels=max(num_labels // 2, 2),
                       seed=rng.randrange(1 << 30))
    graph = social_graph(spec.num_vertices, spec.lattice_neighbors,
                         spec.rewire_probability, spec.hom_labels,
                         seed=spec.seed)
    ssim_graph = relabel_uniform(graph, spec.ssim_labels, seed=spec.seed + 1)
    return Dataset(spec=spec, graph=graph, ssim_graph=ssim_graph)
