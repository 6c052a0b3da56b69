"""Crash-resume speedup and steady-state journaling overhead.

The durability contract (DESIGN.md section 9) has two performance
halves, measured here on the PR-2 batch-serving workload (16
homomorphism queries over 4 distinct patterns, CMM reuse on):

(a) *Steady state*: journaling every admission, share outcome, and
    commit (CRC-framed appends, each flushed so ``kill -9`` loses none;
    one ``fsync`` per committed query, so a host crash loses at most the
    un-acknowledged query's shares) must cost <= 5% of the
    unjournaled batch makespan -- durability is not allowed to eat the
    batch engine's speedup.

(b) *Crash resume*: after a crash ~90% of the way through the batch
    (simulated by truncating the journal to the exact bytes
    ``kill -9`` mid-write leaves behind), restarting with resume must
    complete >= 2x faster than a cold restart that recomputes the whole
    batch -- and the resumed answers must be byte-identical to the
    uninterrupted run's.

Scale: slashdot at 0.2x the registry default, matching
``bench_batch_serving.py`` -- the numbers are relative costs of the
durability layer, not paper figures.
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

from repro.framework.prilo_star import PriloStar
from repro.framework.server import QueryBatchEngine
from repro.graph.query import Semantics
from repro.storage.journal import RunJournal, journal_key
from repro.workloads.datasets import load_dataset

BATCH = 16
DISTINCT_QUERIES = 4
QUERY_SIZE = 8
QUERY_DIAMETER = 3
BENCH_SCALE = 0.2 * SCALE
MAX_OVERHEAD = 0.05
MIN_RESUME_SPEEDUP = 2.0
#: Timings are min-of-N: the journal's true cost is ~100ms against a
#: ~2s batch, so a single-shot measurement is dominated by scheduler
#: noise rather than the durability layer being measured.
REPEATS = 3
#: Crash after ~90% of the durable checkpoints: the late-batch crash is
#: the case durability exists for (most of the work is already paid
#: for), and the re-evaluated tail is still a real multi-share suffix.
CRASH_FRACTION = 0.9


def _setup():
    ds = load_dataset("slashdot", scale=BENCH_SCALE)
    graph = ds.graph_for(Semantics.HOM)
    config = bench_config(radii=(QUERY_DIAMETER,))
    distinct = ds.random_queries(DISTINCT_QUERIES, size=QUERY_SIZE,
                                 diameter=QUERY_DIAMETER,
                                 semantics=Semantics.HOM, seed=5)
    queries = [distinct[i % DISTINCT_QUERIES] for i in range(BATCH)]
    return graph, config, queries


def _answer_key(result):
    return (result.candidate_ids,
            tuple(sorted(result.verified_ids)),
            tuple(sorted(result.match_ball_ids)),
            result.num_matches)


def _serve(graph, config, queries, journal_path):
    """Serve the batch on a fresh engine; return (report, seconds).

    Engine setup is excluded from the clock on *every* path (it is
    identical for plain/journaled/cold/resume, and what the speedup
    measures is completion of the serving work after a restart).
    """
    journal = (RunJournal(journal_path, journal_key(config.seed))
               if journal_path else None)
    try:
        with QueryBatchEngine(PriloStar.setup(graph, config),
                              journal=journal) as server:
            started = time.perf_counter()
            report = server.serve(queries)
            seconds = time.perf_counter() - started
    finally:
        if journal is not None:
            journal.close()
    return report, seconds


def _count_frames(data):
    offset, frames = 0, 0
    while True:
        frame = RunJournal._read_frame(data, offset)
        if frame is None:
            return frames
        offset = frame[2]
        frames += 1


def _truncate_after(path, keep_records):
    """Crash simulation: keep ``keep_records`` frames plus a torn tail --
    byte-for-byte what ``kill -9`` mid-append leaves on disk."""
    data = path.read_bytes()
    offset = 0
    for _ in range(keep_records):
        frame = RunJournal._read_frame(data, offset)
        if frame is None:
            break
        offset = frame[2]
    path.write_bytes(data[:offset] + b"\xa5\x03\x10")


def crash_resume_study(tmp_dir) -> dict:
    from pathlib import Path

    tmp = Path(tmp_dir)
    graph, config, queries = _setup()

    plain_times, journaled_times = [], []
    full_path = tmp / "full.journal"
    for round_id in range(REPEATS):
        plain, seconds = _serve(graph, config, queries, None)
        plain_times.append(seconds)
        path = tmp / f"full-{round_id}.journal"
        journaled, seconds = _serve(graph, config, queries, path)
        journaled_times.append(seconds)
        assert ([_answer_key(r) for r in journaled.results]
                == [_answer_key(r) for r in plain.results]), (
            "journaling changed the answers")
    full_path.write_bytes((tmp / "full-0.journal").read_bytes())
    plain_seconds = min(plain_times)
    journaled_seconds = min(journaled_times)
    overhead = ((journaled_seconds - plain_seconds) / plain_seconds
                if plain_seconds > 0 else 0.0)
    checkpoints = journaled.journal.checkpoints_written

    # Crash: truncate the full journal after ~90% of its *frames* --
    # begin/share/commit records interleave, so the frame count (not the
    # share-checkpoint count) is what tracks batch progress.
    crash_path = tmp / "crashed.journal"
    full_bytes = full_path.read_bytes()
    crash_path.write_bytes(full_bytes)
    _truncate_after(crash_path,
                    int(_count_frames(full_bytes) * CRASH_FRACTION))
    crashed_bytes = crash_path.read_bytes()

    # Resume appends to the journal it recovers, so every timed round
    # restarts from a fresh copy of the same crashed journal.  The cold
    # restart keeps journaling on (fresh file) so the comparison
    # isolates resume, not durability bookkeeping.
    resume_times, cold_times = [], []
    for round_id in range(REPEATS):
        path = tmp / f"crashed-{round_id}.journal"
        path.write_bytes(crashed_bytes)
        resumed, seconds = _serve(graph, config, queries, path)
        resume_times.append(seconds)
        cold, seconds = _serve(graph, config, queries,
                               tmp / f"cold-{round_id}.journal")
        cold_times.append(seconds)
        assert ([_answer_key(r) for r in resumed.results]
                == [_answer_key(r) for r in cold.results]
                == [_answer_key(r) for r in plain.results]), (
            "resume diverged from the uninterrupted answers")
    resume_seconds = min(resume_times)
    cold_seconds = min(cold_times)
    assert resumed.journal.shares_skipped >= 1, "resume replayed nothing"

    speedup = cold_seconds / resume_seconds if resume_seconds > 0 else 1.0
    return {
        "batch": BATCH,
        "distinct_queries": DISTINCT_QUERIES,
        "crash_fraction": CRASH_FRACTION,
        "plain_seconds": plain_seconds,
        "journaled_seconds": journaled_seconds,
        "journal_overhead": overhead,
        "checkpoints_written": checkpoints,
        "cold_restart_seconds": cold_seconds,
        "resume_seconds": resume_seconds,
        "resume_speedup": speedup,
        "shares_skipped": resumed.journal.shares_skipped,
        "records_replayed": resumed.journal.records_replayed,
        "shares_evaluated_on_resume": resumed.journal.shares_evaluated,
        "replayed_commits": resumed.admission.replayed_commits,
        "identical_answers": True,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_crash_resume(benchmark, tmp_path):
    study = benchmark.pedantic(crash_resume_study, args=(tmp_path,),
                               rounds=1, iterations=1)
    assert study["identical_answers"]
    assert study["resume_speedup"] >= MIN_RESUME_SPEEDUP, (
        f"resume only {study['resume_speedup']:.2f}x faster than a cold "
        f"restart (< {MIN_RESUME_SPEEDUP:.0f}x)")
    assert study["journal_overhead"] <= MAX_OVERHEAD, (
        f"steady-state journaling overhead {study['journal_overhead']:.1%}"
        f" > {MAX_OVERHEAD:.0%}")


# ----------------------------------------------------------------------
# Script mode (--json writes benchmarks/out/BENCH_journal.json)
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    import tempfile

    args = parse_cli(argv)
    with tempfile.TemporaryDirectory() as tmp:
        study = crash_resume_study(tmp)

    widths = (22, 12, 12)
    lines = [format_row(("configuration", "seconds", "relative"), widths)]
    lines.append(format_row(
        ("batch (no journal)", f"{study['plain_seconds']:.3f}", "-"),
        widths))
    lines.append(format_row(
        ("batch (journaled)", f"{study['journaled_seconds']:.3f}",
         f"+{study['journal_overhead']:.1%}"), widths))
    lines.append(format_row(
        ("cold restart", f"{study['cold_restart_seconds']:.3f}", "-"),
        widths))
    lines.append(format_row(
        ("resume", f"{study['resume_seconds']:.3f}",
         f"{study['resume_speedup']:.2f}x"), widths))
    lines.append("")
    lines.append(
        f"crash at {study['crash_fraction']:.0%} of "
        f"{study['checkpoints_written']} checkpoints: resume skipped "
        f"{study['shares_skipped']} journaled shares, re-evaluated "
        f"{study['shares_evaluated_on_resume']}, replayed "
        f"{study['replayed_commits']} commits")
    emit("crash_resume", lines)

    assert study["resume_speedup"] >= MIN_RESUME_SPEEDUP, (
        f"resume only {study['resume_speedup']:.2f}x faster than cold "
        "restart")
    assert study["journal_overhead"] <= MAX_OVERHEAD, (
        f"journal overhead {study['journal_overhead']:.1%} > "
        f"{MAX_OVERHEAD:.0%}")

    if args.json:
        write_bench_json("journal", {
            "dataset": "slashdot", "scale": BENCH_SCALE,
            "semantics": "hom", **study})


if __name__ == "__main__":
    main()
