"""Incremental delta maintenance vs from-scratch pack rebuild.

The dynamic-graph contract (DESIGN.md section 14): when a small delta
(here <= 1% of slashdot's edges rewired, no vertex removals) hits an
outsourced pack, ``ArtifactStore.apply_delta`` must

(a) re-encrypt **exactly** the added balls and the balls whose record
    bytes changed, and reuse every other ciphertext byte for byte --
    gated as counts, not seconds.  ``changed`` comes from comparing the
    pre- and post-delta plaintext packs record by record;
    ``reencrypted == changed + added``, ``reused == balls + added -
    removed - reencrypted`` (no vertex is added here, so that is
    ``balls - reencrypted - removed``), and every reused ball's
    ``encrypted.pack`` bytes equal the pre-delta pack's;

(b) leave a store that answers **identically** to the rebuilt one --
    the match multiset of a store-backed engine on the incrementally
    maintained pack equals the rebuilt pack's on the same queries.

The dirty-ball fraction is reported beside the changed fraction, so a
regression in the touched-vertex BFS (suddenly marking everything dirty)
shows up as a coverage diff, and the gap between the two is the
re-encryption the record comparison saves.  The wall-clock ratio
against ``ArtifactStore.create`` on the post-delta graph is printed as
information only: a build is extraction + twiglets + encryption +
Merkle per ball, while an apply pays extraction and a record comparison
for its dirty balls, twiglets + encryption + Merkle for the changed
ones, plus a fixed cost per delta (rewriting both
packs, joining ``twiglets.json``, re-serialising the manifest whole;
after an ``open()`` also checksumming every artifact and parsing
``twiglets.json``), so the ratio moves with the pack's size and says
little about whether (a) holds.

Scale: slashdot at 0.05x the registry default (400 radius-1 balls).  The
numbers are relative costs of the maintenance layer, not paper figures.
"""

import time

from _common import (
    SCALE,
    bench_config,
    emit,
    format_row,
    parse_cli,
    write_bench_json,
)

from repro.crypto.keys import DataOwnerKey
from repro.framework.prilo import Prilo
from repro.framework.wire import canonical_answer_of_result
from repro.graph.delta import random_delta
from repro.storage import ArtifactStore
from repro.workloads.datasets import load_dataset

BENCH_SCALE = 0.1 * SCALE
#: Radius-1 balls: on the scaled-down slashdot the radius-2
#: neighborhood of any touched vertex reaches a hub and through it
#: most of the graph (~70% of balls dirty from a single rewire), so
#: radius 1 is where "update cost proportional to delta size" is
#: actually observable at this scale.  The dirty-set math is identical
#: at every radius; only the reach differs.
RADII = (1,)
#: Well under the <= 1%-of-edges headline workload (one rewired edge
#: at this scale); no vertex removals.
EDGE_FRACTION = 0.0005
DELTA_SEED = 17
NUM_QUERIES = 2
QUERY_SIZE = 4


def _flat_answers(engine, queries):
    """Ball-id-erased answers: incremental and rebuilt stores number
    surviving balls differently (survivors keep their historical ids),
    so equality is over match content, not coordinates."""
    out = []
    for query in queries:
        answer = canonical_answer_of_result(engine.run(query))
        out.append((sorted(m for ms in answer["matches"].values()
                           for m in ms),
                    answer["num_matches"]))
    return out


def _plaintext_records(store) -> dict[int, bytes]:
    """Ball id -> its ``balls.pack`` record bytes."""
    return {ball_id: store._record(ball_id)[0]
            for ball_id in store.ball_ids()}


def dynamic_update_study(tmp_dir) -> dict:
    from pathlib import Path

    tmp = Path(tmp_dir)
    ds = load_dataset("slashdot", scale=BENCH_SCALE)
    config = bench_config(radii=RADII)
    key = DataOwnerKey.generate(config.seed)

    # The pre-delta pack: built once, then incrementally maintained.
    graph = ds.graph.copy()
    store = ArtifactStore.create(tmp / "incremental", graph, RADII, key,
                                 twiglet_h=3)
    balls_before = len(store.ball_id_map(graph))
    blobs_before = {ball_id: store.load_encrypted(ball_id)
                    for ball_id in store.ball_ids()}
    records_before = _plaintext_records(store)

    delta = random_delta(graph, edge_fraction=EDGE_FRACTION,
                         seed=DELTA_SEED)
    edges_touched = len(delta.added_edges) + len(delta.removed_edges)

    started = time.perf_counter()
    report = store.apply_delta(delta, graph, key)
    apply_seconds = time.perf_counter() - started
    records_after = _plaintext_records(store)
    changed = {ball_id for ball_id, record in records_after.items()
               if ball_id in records_before
               and record != records_before[ball_id]}
    reused_ids = [ball_id for ball_id in store.ball_ids()
                  if ball_id in blobs_before and ball_id not in changed]

    # The alternative the delta log exists to avoid: rebuild the whole
    # pack from the post-delta graph.
    rebuilt_graph = graph.copy()
    started = time.perf_counter()
    rebuilt = ArtifactStore.create(tmp / "rebuilt", rebuilt_graph, RADII,
                                   key, twiglet_h=3)
    rebuild_seconds = time.perf_counter() - started

    store.check(graph=graph, key=key)
    queries = ds.random_queries(NUM_QUERIES, size=QUERY_SIZE,
                                diameter=RADII[0], seed=13)
    incremental_engine = Prilo.setup(graph, config, store=store)
    rebuilt_engine = Prilo.setup(rebuilt_graph, config, store=rebuilt)
    try:
        incremental_answers = _flat_answers(incremental_engine, queries)
        rebuilt_answers = _flat_answers(rebuilt_engine, queries)
    finally:
        incremental_engine.close()
        rebuilt_engine.close()

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "balls": balls_before,
        "edge_fraction": EDGE_FRACTION,
        "edges_touched": edges_touched,
        "dirty_balls": report.dirty,
        "changed_balls": len(changed),
        "added_balls": report.added,
        "removed_balls": report.removed,
        "reencrypted": report.reencrypted,
        "reused": report.reused,
        "dirty_fraction": (report.dirty / balls_before
                           if balls_before else 0.0),
        "changed_fraction": (len(changed) / balls_before
                             if balls_before else 0.0),
        "reused_blobs_identical": len(reused_ids) == report.reused and all(
            store.load_encrypted(ball_id) == blobs_before[ball_id]
            for ball_id in reused_ids),
        "apply_seconds": apply_seconds,
        "rebuild_seconds": rebuild_seconds,
        "speedup": (rebuild_seconds / apply_seconds
                    if apply_seconds > 0 else float("inf")),
        "answers_identical": incremental_answers == rebuilt_answers,
    }


def check_gates(study: dict) -> None:
    """The maintenance contract, as exact counts and byte equality."""
    assert study["reencrypted"] == (study["changed_balls"]
                                    + study["added_balls"]), (
        "re-encrypted a ball whose record did not change, or missed one "
        "that did")
    assert study["reused"] == (study["balls"] + study["added_balls"]
                               - study["removed_balls"]
                               - study["reencrypted"]), (
        "an unchanged ball was not reused verbatim")
    assert study["reused_blobs_identical"], (
        "a reused ball's ciphertext changed")
    assert study["answers_identical"], (
        "incrementally maintained store diverged from the rebuilt one")


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_dynamic_updates(benchmark, tmp_path):
    check_gates(benchmark.pedantic(dynamic_update_study, args=(tmp_path,),
                                   rounds=1, iterations=1))


# ----------------------------------------------------------------------
# Script mode (--json writes benchmarks/out/BENCH_dynamic.json)
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    import tempfile

    args = parse_cli(argv)
    with tempfile.TemporaryDirectory() as tmp:
        study = dynamic_update_study(tmp)

    widths = (24, 12, 12)
    lines = [format_row(("operation", "seconds", "relative"), widths)]
    lines.append(format_row(
        ("full rebuild", f"{study['rebuild_seconds']:.2f}", "-"), widths))
    lines.append(format_row(
        ("apply_delta", f"{study['apply_seconds']:.2f}",
         f"{study['speedup']:.2f}x"), widths))
    lines.append("")
    lines.append(
        f"delta touched {study['edges_touched']} edges "
        f"({study['edge_fraction']:.2%} of {study['edges']}): "
        f"{study['dirty_balls']}/{study['balls']} balls dirty "
        f"({study['dirty_fraction']:.1%}), {study['changed_balls']} "
        f"changed ({study['changed_fraction']:.1%}), "
        f"{study['reencrypted']} re-encrypted, {study['reused']} "
        f"ciphertexts reused "
        f"(byte-identical: "
        f"{'yes' if study['reused_blobs_identical'] else 'NO'})")
    lines.append(
        "answers identical to rebuild: "
        + ("yes" if study["answers_identical"] else "NO"))
    lines.append("(the wall ratio is information; the gates are the "
                 "counts above)")
    emit("dynamic_updates", lines)

    check_gates(study)

    if args.json:
        write_bench_json("dynamic", {
            "dataset": "slashdot", "scale": BENCH_SCALE,
            "gates": {"reencrypted_equals_changed_plus_added": True,
                      "reused_equals_unchanged": True,
                      "reused_blobs_identical": True,
                      "answers_identical": True},
            **study})


if __name__ == "__main__":
    main()
