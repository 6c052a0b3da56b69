"""Fig. 2: the paper's headline results.

(a) Average pruning power of the oblivious techniques: 3-hop neighbor
    labels [17] < paths [57] < twiglets (fraction of negatives pruned).
(b) Speedup on Slashdot: RSG time-to-first-results over Prilo*'s
    (PM + SSG), which the paper reports as ~4x.
"""

from _common import NUM_QUERIES, bench_config, dataset, emit, format_row

from repro.workloads.experiments import pruning_study, retrieval_study


def test_fig2a_pruning_power(benchmark):
    ds = dataset("slashdot")
    queries = ds.random_queries(NUM_QUERIES, size=8, diameter=3, seed=3)
    config = bench_config()

    study = benchmark.pedantic(
        pruning_study, args=(ds, queries),
        kwargs={"methods": ("neighbor", "path", "twiglet"),
                "config": config, "combine": ()},
        rounds=1, iterations=1)

    widths = (12, 12, 14, 10)
    lines = [format_row(("method", "remaining", "pruned-frac", "PPCR"),
                        widths)]
    negatives = study.candidates - (study.confusion["twiglet"].tp
                                    + study.confusion["twiglet"].fn)
    for method in ("neighbor", "path", "twiglet"):
        counts = study.confusion[method]
        pruned_frac = counts.pruned / max(negatives, 1)
        lines.append(format_row(
            (method, study.remaining(method), f"{pruned_frac:.2f}",
             f"{counts.ppcr:.2f}"), widths))
        assert counts.fn == 0
    emit("fig02a_pruning_power", lines)

    # Fig. 2(a) ordering: twiglet >= path >= neighbor pruning power.
    assert (study.confusion["twiglet"].pruned
            >= study.confusion["path"].pruned
            >= study.confusion["neighbor"].pruned)


def test_fig2b_slashdot_speedup(benchmark):
    """Fig. 2(b)'s metric is the time for the user to obtain the *first*
    query results: SSG places a positive at the front of some player's
    sequence, RSG somewhere random.

    Both semantics are reported.  The clear speedups appear under ssim,
    whose per-ball verification cost is uniform across negatives (the
    paper's regime); under hom at this scale most negative balls die in
    candidate enumeration at near-zero cost, so first-result times are
    bounded by the positive ball's own evaluation either way.
    """
    from repro.graph.query import Semantics

    ds = dataset("slashdot")
    config = bench_config()

    def run_both():
        return {
            semantics: retrieval_study(
                ds, ds.random_queries(NUM_QUERIES, size=8, diameter=3,
                                      semantics=semantics, seed=4),
                k_values=(4,), config=config)
            for semantics in (Semantics.HOM, Semantics.SSIM)
        }

    studies = benchmark.pedantic(run_both, rounds=1, iterations=1)
    widths = (8, 8, 10, 14, 14, 10)
    lines = [format_row(("sem", "query", "PPCR", "SSG-first(s)",
                         "RSG-first(s)", "speedup"), widths)]
    mean_by_semantics = {}
    for semantics, study in studies.items():
        speedups = []
        for i, record in enumerate(study.records):
            ssg, rsg = record.ssg_first_positive, record.rsg_first_positive
            speedup = min(rsg / ssg, 100.0) if ssg > 0 else 1.0
            speedups.append(speedup)
            lines.append(format_row(
                (semantics.value, f"q{i}", f"{record.ppcr:.2f}",
                 f"{ssg:.4f}", f"{rsg:.4f}", f"{speedup:.1f}x"), widths))
        mean_by_semantics[semantics] = sum(speedups) / len(speedups)
    lines.append("mean first-result speedup: " + ", ".join(
        f"{s.value}: {v:.1f}x" for s, v in mean_by_semantics.items())
        + " (paper: ~4x on Slashdot)")
    emit("fig02b_slashdot_speedup", lines)

    # Shape: Prilo* is never slower, and clearly faster where negatives
    # carry evaluation cost.
    assert all(v >= 0.99 for v in mean_by_semantics.values())
    assert mean_by_semantics[Semantics.SSIM] >= 1.5
