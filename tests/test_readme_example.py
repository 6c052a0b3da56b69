"""The README quickstart must keep working verbatim."""


def test_readme_quickstart_runs():
    from repro import Semantics
    from repro.framework import PriloConfig, PriloStar
    from repro.graph import Query
    from repro.graph.generators import social_graph

    graph = social_graph(num_vertices=600, lattice_neighbors=3,
                         rewire_probability=0.05, num_labels=12, seed=42)

    query = Query.from_edges(
        labels={"a": 3, "b": 7, "c": 5},
        edges=[("b", "a"), ("c", "b")],       # the secret structure
        semantics=Semantics.HOM)

    engine = PriloStar.setup(graph, PriloConfig(k_players=4, seed=7))
    result = engine.run(query)
    assert result.num_matches >= 0
    assert len(result.verified_ids) >= len(result.match_ball_ids)
    # The per-Player wall-clocks the README prints right below it.
    assert result.metrics.per_worker_eval_wall


def test_readme_chaos_example_runs():
    from repro import Semantics
    from repro.framework import ChaosPolicy, PriloConfig, PriloStar
    from repro.graph import Query
    from repro.graph.generators import social_graph

    graph = social_graph(num_vertices=600, lattice_neighbors=3,
                         rewire_probability=0.05, num_labels=12, seed=42)
    query = Query.from_edges(
        labels={"a": 3, "b": 7, "c": 5},
        edges=[("b", "a"), ("c", "b")],
        semantics=Semantics.HOM)
    clean = PriloStar.setup(graph, PriloConfig(seed=7)).run(query)

    config = PriloConfig(seed=7, chaos=ChaosPolicy(seed=7, fault_rate=0.1))
    with PriloStar.setup(graph, config) as engine:
        result = engine.run(query)
    assert result.matches == clean.matches
    assert "injected=" in result.metrics.faults.summary_line()


def test_readme_example_scripts_exist():
    from pathlib import Path

    readme = Path(__file__).parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    examples = Path(__file__).parent.parent / "examples"
    for line in text.splitlines():
        if line.startswith("| `") and line.endswith(" |"):
            name = line.split("`")[1]
            if name.endswith(".py"):
                assert (examples / name).is_file(), f"README lists {name}"


def test_readme_batch_serving_runs():
    from repro import Semantics
    from repro.framework import PriloConfig, PriloStar, QueryBatchEngine
    from repro.graph import Query
    from repro.graph.generators import social_graph

    graph = social_graph(num_vertices=600, lattice_neighbors=3,
                         rewire_probability=0.05, num_labels=12, seed=42)
    query = Query.from_edges(
        labels={"a": 3, "b": 7, "c": 5},
        edges=[("b", "a"), ("c", "b")],
        semantics=Semantics.HOM)
    query2 = Query.from_edges(
        labels={"a": 2, "b": 7, "c": 5},
        edges=[("b", "a"), ("c", "b")],
        semantics=Semantics.HOM)

    batch = QueryBatchEngine(PriloStar.setup(graph, PriloConfig(seed=7)))
    report = batch.serve([query, query2, query])
    summary = report.summary()
    assert summary["queries"] == 3
    assert summary["distinct_signatures"] == 2
    # The repeated query hits the cache and answers like a solo run.
    solo = PriloStar.setup(graph, PriloConfig(seed=7)).run(query)
    assert report.results[0].match_ball_ids == solo.match_ball_ids
    assert report.results[2].match_ball_ids == solo.match_ball_ids
    assert report.cache_stats.hits > 0
