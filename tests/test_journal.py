"""Crash-safe durable serving: the write-ahead run journal, checkpoint/
resume, per-query deadlines and admission control (DESIGN.md section 9).

The headline property, asserted across all three semantics and pruning
on/off: ``kill -9`` at a chaos-chosen durable
checkpoint, followed by a resume of the *same* submission list, yields
byte-identical answer sets to the uninterrupted run -- and both agree
with the plaintext oracle.
"""

import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.bf_pruning import BFConfig
from repro.framework.executor import EvaluationShare, share_key
from repro.framework.faults import (
    INJECTABLE_KINDS,
    VALID_KINDS,
    ChaosPolicy,
    FaultKind,
)
from repro.framework.prilo import (
    BallBudgetExceeded,
    Deadline,
    DeadlineExceeded,
    Prilo,
    PriloConfig,
)
from repro.framework.prilo_star import PriloStar
from repro.framework.server import (
    QueryBatchEngine,
    QueryStatus,
)
from repro.graph.query import Query, Semantics
from repro.tee.attestation import measure
from repro.storage.journal import (
    JournalError,
    RecordType,
    RunJournal,
    answer_digest,
    config_fingerprint,
    journal_key,
    keyed_digest,
    query_idempotency_key,
)
from repro.workloads.experiments import ground_truth_positive_ids

KEY = journal_key(3)


def _queries(dataset, semantics, count=2, distinct=2):
    base = dataset.random_queries(distinct, size=4, diameter=2,
                                  semantics=semantics, seed=13)
    return [base[i % distinct] for i in range(count)]


def _answer_key(result):
    """The byte-identity of one answer: everything the user receives."""
    return (result.candidate_ids,
            tuple(sorted(result.pm_positive_ids)),
            tuple(sorted(result.verified_ids)),
            tuple(sorted(result.match_ball_ids)),
            result.num_matches,
            tuple(sorted(result.matches)))


def _engine(dataset, config, semantics, pruning):
    graph = dataset.graph_for(semantics)
    if pruning:
        config = replace(config, use_twiglet=True, use_bf=True,
                         bf=BFConfig(eta=16, expected_trees=200))
        return PriloStar.setup(graph, config)
    return Prilo.setup(graph, config)


def _truncate_after(path, keep_records):
    """Simulate a crash: keep the first ``keep_records`` journal records
    and leave a torn partial frame behind (what ``kill -9`` mid-write
    leaves on disk)."""
    data = Path(path).read_bytes()
    offset = 0
    for _ in range(keep_records):
        frame = RunJournal._read_frame(data, offset)
        if frame is None:
            break
        offset = frame[2]
    Path(path).write_bytes(data[:offset] + b"\xa5\x03\x10")


# ---------------------------------------------------------------------------
# Record framing, torn writes, tamper evidence
# ---------------------------------------------------------------------------
class TestFraming:
    def test_append_replay_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "j", KEY)
        journal.append(RecordType.BATCH_ADMIT, {"fingerprint": "f" * 64})
        journal.append(RecordType.QUERY_BEGIN, {"query": "q0", "index": 0})
        journal.append_share("q0", "eval:0:p0", {"verdict": 1},
                             [{"kind": "worker_crash", "key": "eval:0:p0",
                               "action": "injected"}])
        journal.append(RecordType.QUERY_COMMIT,
                       {"query": "q0", "answer_digest": "d" * 64})
        journal.close()

        state = RunJournal(tmp_path / "j", KEY).replay()
        assert state.records == 4
        assert state.fingerprint == "f" * 64
        assert state.truncated_bytes == 0
        assert state.tampered_records == 0
        query = state.queries["q0"]
        assert query.committed and query.answer_digest == "d" * 64
        share = query.shares["eval:0:p0"]
        assert share.outcome == {"verdict": 1}
        assert share.events[0]["kind"] == "worker_crash"

    def test_torn_tail_truncated_and_appendable(self, tmp_path):
        path = tmp_path / "j"
        journal = RunJournal(path, KEY)
        for i in range(5):
            journal.append(RecordType.QUERY_BEGIN, {"query": f"q{i}",
                                                    "index": i})
        journal.close()
        _truncate_after(path, 3)
        dirty = path.stat().st_size

        journal = RunJournal(path, KEY)
        state = journal.replay()
        assert state.records == 3
        assert state.truncated_bytes == 3
        # Replay self-healed the file; appending continues cleanly.
        assert path.stat().st_size == dirty - 3
        journal.append(RecordType.DRAIN, {})
        journal.close()
        state = RunJournal(path, KEY).replay()
        assert state.records == 4 and state.drained

    def test_mid_file_corruption_reads_as_lost_tail(self, tmp_path):
        path = tmp_path / "j"
        journal = RunJournal(path, KEY)
        for i in range(4):
            journal.append(RecordType.QUERY_BEGIN, {"query": f"q{i}",
                                                    "index": i})
        journal.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # CRC break inside record 2-ish
        path.write_bytes(bytes(data))
        state = RunJournal(path, KEY).replay(truncate=False)
        assert 0 < state.records < 4
        assert state.truncated_bytes > 0

    def test_wrong_key_share_is_tampered_not_torn(self, tmp_path):
        """A record CRC-valid but keyed under a different key is hostile:
        dropped, counted, and the share left for re-evaluation."""
        path = tmp_path / "j"
        foreign = RunJournal(path, journal_key(999))
        foreign.append_share("q0", "eval:0:p0", {"verdict": 1})
        foreign.close()
        state = RunJournal(path, KEY).replay()
        assert state.tampered_records == 1
        assert state.truncated_bytes == 0
        assert "q0" not in state.queries or not state.queries["q0"].shares

    def test_giant_length_field_reads_as_torn(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"\xa5\x01\xff\xff\xff\x7f" + b"x" * 64)
        state = RunJournal(path, KEY).replay(truncate=False)
        assert state.records == 0
        assert state.truncated_bytes > 0

    def test_unknown_record_type_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "j", KEY)
        with pytest.raises(JournalError):
            journal.append(99, {})

    def test_empty_key_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal(tmp_path / "j", b"")

    def test_inspect_non_destructive(self, tmp_path):
        path = tmp_path / "j"
        journal = RunJournal(path, KEY)
        journal.append(RecordType.BATCH_ADMIT, {"fingerprint": "f" * 64})
        journal.append_share("q0", "eval:0:p0", {"v": 1})
        journal.close()
        torn = path.read_bytes() + b"\xa5"
        path.write_bytes(torn)
        summary = RunJournal(path, KEY).inspect()
        assert summary["records"] == 2
        assert summary["truncated_bytes"] == 1
        assert summary["last_checkpoint"].startswith("share_result:")
        assert path.read_bytes() == torn  # inspect never truncates


class TestKeysAndFingerprints:
    def test_fingerprint_ignores_scheduling_knobs(self, test_config):
        scheduled = replace(test_config,
                            chaos=ChaosPolicy(seed=1, fault_rate=0.5),
                            deadline_ms=50.0, ball_budget=7)
        assert (config_fingerprint(test_config, "g")
                == config_fingerprint(scheduled, "g"))

    def test_fingerprint_unchanged_by_the_retired_executor_knobs(
            self, test_config):
        """Recorded at the last commit whose config still carried
        ``executor`` / ``parallelism``: journals written there resume
        here because the digest never hashed either field."""
        assert config_fingerprint(test_config) == (
            "96c7689de996e793f322b227abb0e2b73604fe1ca9935e8d31681f0be914065a")

    def test_fingerprint_tracks_answer_shaping_fields(self, test_config):
        assert (config_fingerprint(test_config, "g")
                != config_fingerprint(replace(test_config, seed=4), "g"))
        assert (config_fingerprint(test_config, "g")
                != config_fingerprint(test_config, "other-graph"))
        assert (config_fingerprint(test_config, "g")
                != config_fingerprint(
                    replace(test_config, radii=(1, 2)), "g"))

    def test_idempotency_keys(self, dataset):
        q1, q2 = _queries(dataset, Semantics.HOM, count=2, distinct=2)
        assert (query_idempotency_key(KEY, q1, 0)
                == query_idempotency_key(KEY, q1, 0))
        # Same query at another batch position consumes different
        # randomness -- distinct key.
        assert (query_idempotency_key(KEY, q1, 0)
                != query_idempotency_key(KEY, q1, 1))
        assert (query_idempotency_key(KEY, q1, 0)
                != query_idempotency_key(KEY, q2, 0))
        # Key owner matters: a foreign key cannot predict ours.
        assert (query_idempotency_key(KEY, q1, 0)
                != query_idempotency_key(journal_key(999), q1, 0))

    def test_share_keys_are_protocol_coordinates(self):
        assert share_key(2, EvaluationShare(player=1, balls=())) \
            == "eval:2:p1"
        assert share_key(0, EvaluationShare(player=3, balls=(),
                                            cached=True)) == "verify:0:p3"

    def test_answer_digest_keyed(self):
        a = answer_digest(KEY, [1, 2], [2], 3)
        assert a == answer_digest(KEY, [2, 1], [2], 3)
        assert a != answer_digest(KEY, [1, 2], [2], 4)
        assert a != answer_digest(journal_key(999), [1, 2], [2], 3)
        assert keyed_digest(KEY, b"x") != keyed_digest(journal_key(999),
                                                       b"x")


# ---------------------------------------------------------------------------
# The acceptance matrix: kill -9 -> resume, byte-identical answers
# ---------------------------------------------------------------------------
def _serve_batch(dataset, config, semantics, pruning, queries, journal_path,
                 out_path, kill_seed=None):
    """Serve ``queries``; on success pickle the answer keys, counters and
    per-query eval-coordinate fault events to ``out_path``.  The crash
    matrix runs this in a fresh interpreter (see :func:`_crash_pass`)."""
    if kill_seed is not None:
        config = replace(config, chaos=ChaosPolicy(
            seed=kill_seed, fault_rate=0.5,
            kinds=(FaultKind.KILL_PROCESS,)))
    engine = _engine(dataset, config, semantics, pruning)
    journal = (RunJournal(journal_path, journal_key(config.seed))
               if journal_path else None)
    try:
        with QueryBatchEngine(engine, journal=journal) as server:
            report = server.serve(queries)
    finally:
        if journal is not None:
            journal.close()
    payload = ([_answer_key(r) for r in report.results],
               report.journal.as_dict(),
               [[e.as_dict() for e in r.metrics.faults.events
                 if e.key.startswith(("eval:", "verify:"))]
                for r in report.results])
    with open(out_path, "wb") as fh:
        pickle.dump(payload, fh)


#: Crash-pass child program: a *fresh* interpreter (no inherited pytest
#: state, no forked locks) that rebuilds the conftest dataset
#: (``tiny_dataset(seed=2)``), unpickles the remaining ``_serve_batch``
#: arguments, and serves the batch under the armed kill schedule.
_CRASH_CHILD = """
import pickle, sys
with open(sys.argv[1], "rb") as fh:
    args = pickle.load(fh)
from repro.workloads.datasets import tiny_dataset
import test_journal
test_journal._serve_batch(tiny_dataset(seed=2), *args)
"""


def _crash_pass(args_path, log_path, program=_CRASH_CHILD, *argv):
    """Run one crash/resume pass (``program``, given ``args_path`` and
    ``argv``) in a subprocess; return its exit code (``-signal.SIGKILL``
    when the chaos schedule fired).  Output goes to ``log_path`` --
    never to a pipe a SIGKILL'd child's orphans could hold open."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    with open(log_path, "ab") as log:
        return subprocess.run(
            [sys.executable, "-c", program, str(args_path),
             *map(str, argv)],
            env=env, stdout=log, stderr=log, timeout=600).returncode


class TestKillResumeMatrix:
    """``kill -9`` at a chaos-chosen checkpoint, resume, byte-identical
    answers -- the PR's acceptance matrix."""

    @pytest.mark.parametrize("pruning", [False, True],
                             ids=["no-pruning", "pruning"])
    @pytest.mark.parametrize("semantics", [Semantics.HOM,
                                           Semantics.SUB_ISO,
                                           Semantics.SSIM])
    def test_kill_then_resume_matches_uninterrupted(
            self, dataset, test_config, tmp_path, semantics, pruning):
        queries = _queries(dataset, semantics)

        # Uninterrupted baseline (same process, no journal, no chaos).
        _serve_batch(dataset, test_config, semantics, pruning, queries, None,
                     tmp_path / "baseline.pkl")
        with open(tmp_path / "baseline.pkl", "rb") as fh:
            baseline, _, _ = pickle.load(fh)

        # Crash loop: the kill schedule stays armed on every resume; each
        # pass checkpoints at least one share before dying (the SIGKILL
        # fires only after a fresh durable append), so it converges.  The
        # kill coin is a pure hash of (seed, coordinate); a seed whose
        # schedule never fires for this cell's coordinates proves nothing,
        # so try a few seeds (fresh journal each) until one kills.
        kills = 0
        for kill_seed in (7, 11, 5, 29):
            journal_path = tmp_path / f"run-{kill_seed}.journal"
            out_path = tmp_path / f"answers-{kill_seed}.pkl"
            args_path = tmp_path / f"child-args-{kill_seed}.pkl"
            with open(args_path, "wb") as fh:
                pickle.dump((test_config, semantics, pruning, queries,
                             journal_path, out_path, kill_seed), fh)
            for attempt in range(10):
                code = _crash_pass(args_path, tmp_path / "child.log")
                if code == 0:
                    break
                assert code == -signal.SIGKILL, (
                    code, (tmp_path / "child.log").read_text())
                kills += 1
            else:
                pytest.fail("crash/resume loop did not converge in "
                            "10 passes")
            if kills:
                break
        assert kills >= 1, "no chaos schedule killed the process"

        with open(out_path, "rb") as fh:
            resumed, counters, _ = pickle.load(fh)
        assert resumed == baseline
        assert counters["shares_skipped"] >= 1
        assert counters["records_replayed"] == counters["shares_skipped"]

        # The plaintext oracle agrees (differential check, Sec. 2.1).
        engine = _engine(dataset, test_config, semantics, pruning)
        try:
            for query, key in zip(queries, resumed):
                _, candidates = engine.candidate_balls(query)
                truth = ground_truth_positive_ids(query, candidates)
                assert set(key[3]) == truth
        finally:
            engine.close()


#: The crash child, with ``os.fsync`` logging the journal's size to
#: ``argv[2]`` at every call (``os.write`` reaches the kernel before the
#: SIGKILL can interrupt anything).
_FSYNC_LOGGING_CHILD = """
import os, sys
log = os.open(sys.argv[2], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
real_fsync = os.fsync

def fsync(fd):
    os.write(log, b"%d\\n" % os.fstat(fd).st_size)
    real_fsync(fd)

os.fsync = fsync
""" + _CRASH_CHILD


class TestKillAfterUnsyncedShare:
    """Group commit ``fsync``s a query's records at its commit, so the
    chaos SIGKILL right after a SHARE_RESULT kills a process whose last
    record was flushed but never ``fsync``'d.  A SIGKILL does not need
    the ``fsync``: the record is on disk, intact, and the resume skips
    its share with byte-identical answers."""

    def test_flushed_share_survives_sigkill(self, dataset, test_config,
                                            tmp_path):
        queries = _queries(dataset, Semantics.HOM)
        _serve_batch(dataset, test_config, Semantics.HOM, False, queries,
                     None, tmp_path / "baseline.pkl")
        with open(tmp_path / "baseline.pkl", "rb") as fh:
            baseline, _, _ = pickle.load(fh)

        journal_path = tmp_path / "run.journal"
        synced_log = tmp_path / "fsyncs.txt"
        for kill_seed in (7, 11, 5, 29):
            journal_path.unlink(missing_ok=True)
            synced_log.unlink(missing_ok=True)
            args_path = tmp_path / "child-args.pkl"
            with open(args_path, "wb") as fh:
                pickle.dump((test_config, Semantics.HOM, False, queries,
                             journal_path, tmp_path / "unused.pkl",
                             kill_seed), fh)
            code = _crash_pass(args_path, tmp_path / "child.log",
                               _FSYNC_LOGGING_CHILD, synced_log)
            if code == -signal.SIGKILL:
                break
            assert code == 0, (tmp_path / "child.log").read_text()
        else:
            pytest.fail("no chaos schedule killed the process")

        data = journal_path.read_bytes()
        offset, last = 0, None
        while (frame := RunJournal._read_frame(data, offset)) is not None:
            last, offset = frame[0], frame[2]
        assert offset == len(data), "the last record is intact"
        assert last == RecordType.SHARE_RESULT
        synced = ([int(line) for line in synced_log.read_text().split()]
                  if synced_log.exists() else [])
        assert max(synced, default=0) < len(data), \
            "the killed share's record was never fsync'd"

        _serve_batch(dataset, test_config, Semantics.HOM, False, queries,
                     journal_path, tmp_path / "resumed.pkl")
        with open(tmp_path / "resumed.pkl", "rb") as fh:
            resumed, counters, _ = pickle.load(fh)
        assert resumed == baseline
        assert counters["shares_skipped"] >= 1


# ---------------------------------------------------------------------------
# Differential oracle + in-process crash simulation (fast path)
# ---------------------------------------------------------------------------
class TestResumeDifferential:
    """Truncation-simulated crashes (exactly the bytes ``kill -9``
    mid-write leaves behind): resumed == uninterrupted == plaintext
    oracle, per semantics."""

    @pytest.mark.parametrize("semantics", [Semantics.HOM,
                                           Semantics.SUB_ISO,
                                           Semantics.SSIM])
    def test_resumed_equals_encrypted_equals_oracle(
            self, dataset, test_config, tmp_path, semantics):
        queries = _queries(dataset, semantics, count=3, distinct=2)
        graph = dataset.graph_for(semantics)
        baseline = QueryBatchEngine(
            Prilo.setup(graph, test_config)).serve(queries)

        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(test_config.seed))
        first = QueryBatchEngine(Prilo.setup(graph, test_config),
                                 journal=journal).serve(queries)
        journal.close()
        total = first.journal.checkpoints_written
        assert total >= len(queries)

        # Crash after roughly half the checkpoints (plus framing records).
        _truncate_after(path, 2 + total // 2)

        journal = RunJournal(path, journal_key(test_config.seed))
        engine = Prilo.setup(graph, test_config)
        resumed = QueryBatchEngine(engine, journal=journal).serve(queries)
        journal.close()
        assert resumed.journal.shares_skipped >= 1
        assert resumed.journal.checkpoints_written >= 1

        assert ([_answer_key(r) for r in resumed.results]
                == [_answer_key(r) for r in first.results]
                == [_answer_key(r) for r in baseline.results])
        for query, result in zip(queries, resumed.results):
            _, candidates = engine.candidate_balls(query)
            assert (result.match_ball_ids
                    == ground_truth_positive_ids(query, candidates))

    def test_mixed_eval_and_verify_records_all_skipped(
            self, dataset, test_config, tmp_path):
        """One batch, both spellings: ssim shares are journaled under
        ``eval:``, cache-fed hom shares under ``verify:`` -- a resume over
        the complete journal dispatches none of them."""
        hom = _queries(dataset, Semantics.HOM, count=1)[0]
        queries = [hom, Query(pattern=hom.pattern, semantics=Semantics.SSIM,
                              vertex_order=hom.vertex_order)]
        path = tmp_path / "run.journal"
        key = journal_key(test_config.seed)
        with RunJournal(path, key) as journal:
            first = QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                                     journal=journal).serve(queries)
        with RunJournal(path, key) as journal:
            spellings = [{share.split(":")[0] for share in query.shares}
                         for query in journal.replay().queries.values()]
            assert spellings == [{"verify"}, {"eval"}]
            resumed = QueryBatchEngine(
                Prilo.setup(dataset.graph, test_config),
                journal=journal).serve(queries)
        assert resumed.journal.shares_evaluated == 0
        assert (resumed.journal.shares_skipped
                == first.journal.checkpoints_written
                == first.journal.shares_evaluated > 0)
        assert ([_answer_key(r) for r in resumed.results]
                == [_answer_key(r) for r in first.results])

    def test_fingerprint_mismatch_refused(self, dataset, test_config,
                                          tmp_path):
        queries = _queries(dataset, Semantics.HOM)
        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(test_config.seed))
        QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                         journal=journal).serve(queries)
        journal.close()

        other = replace(test_config, radii=(1, 2))
        journal = RunJournal(path, journal_key(test_config.seed))
        with pytest.raises(JournalError, match="different engine"):
            QueryBatchEngine(Prilo.setup(dataset.graph, other),
                             journal=journal).serve(queries)
        journal.close()

    def test_committed_answer_cross_checked(self, dataset, test_config,
                                            tmp_path):
        """A full journal replays every commit and cross-checks digests;
        a forged commit digest is an integrity violation."""
        queries = _queries(dataset, Semantics.HOM)
        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(test_config.seed))
        QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                         journal=journal).serve(queries)

        # Honest resume: every commit replayed, digests agree.
        resumed = QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                                   journal=journal).serve(queries)
        assert resumed.admission.replayed_commits == len(queries)

        # Forge a commit for query 0 with a bogus digest.
        key = query_idempotency_key(journal.key, queries[0], 0)
        journal.append(RecordType.QUERY_COMMIT,
                       {"query": key, "index": 0,
                        "answer_digest": "f" * 64})
        with pytest.raises(JournalError, match="integrity"):
            QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                             journal=journal).serve(queries)
        journal.close()


# ---------------------------------------------------------------------------
# Satellite 1: fault metrics merge across a resumed run, counted once
# ---------------------------------------------------------------------------
class TestFaultMetricsMerge:
    def test_replayed_fault_events_counted_exactly_once(
            self, dataset, test_config, tmp_path):
        """Fault events journaled with a share replay exactly once on
        resume.  Journals written while the in-engine process pool existed
        carry ``worker_crash`` events on eval shares: resuming one reports
        each of them once, and answers stay the uninterrupted run's."""
        queries = _queries(dataset, Semantics.HOM)
        path = tmp_path / "run.journal"
        key = journal_key(test_config.seed)
        with RunJournal(path, key) as journal:
            first = QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                                     journal=journal).serve(queries)
        # Crash after BATCH_ADMIT, QUERY_BEGIN(q0) and q0's first share.
        _truncate_after(path, 3)
        with RunJournal(path, key) as journal:
            qkey, query_state = next(iter(journal.replay().queries.items()))
            share, entry = next(iter(query_state.shares.items()))
            event = {"kind": "worker_crash", "key": share,
                     "action": "recovered", "detail": "pool respawned",
                     "attempt": 1}
            journal.append_share(qkey, share, entry.outcome, [event])
            resumed = QueryBatchEngine(
                Prilo.setup(dataset.graph, test_config),
                journal=journal).serve(queries)
        assert resumed.journal.shares_skipped == 1
        assert resumed.journal.replayed_fault_events == 1
        assert [e.as_dict() for r in resumed.results
                for e in r.metrics.faults.events] == [event]
        assert ([_answer_key(r) for r in resumed.results]
                == [_answer_key(r) for r in first.results])

    def test_tampered_share_re_evaluated(self, dataset, test_config,
                                         tmp_path):
        """A journal whose share records fail the keyed digest falls back
        to live evaluation -- same answers, tamper counted."""
        queries = _queries(dataset, Semantics.HOM)

        # Write the journal under a *different* key: every share record
        # authenticates against the wrong key on replay.
        path = tmp_path / "run.journal"
        journal = RunJournal(path, b"not-the-derived-key")
        QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                         journal=journal).serve(queries)
        journal.close()

        journal = RunJournal(path, journal_key(test_config.seed))
        state = journal.replay()
        assert state.tampered_records > 0
        journal.close()

    def test_wrong_shape_outcome_recomputed(self, dataset, test_config,
                                            tmp_path):
        """An authenticated record whose payload is not a ShareOutcome
        (a forged pickle under a leaked key) is counted as tampered and
        the share recomputed -- answers unchanged."""
        queries = _queries(dataset, Semantics.HOM)
        baseline = QueryBatchEngine(
            Prilo.setup(dataset.graph, test_config)).serve(queries)

        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(test_config.seed))
        first = QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                                 journal=journal).serve(queries)
        # Overwrite query 0's first share with a wrong-shape payload
        # (later records win on replay).
        key = query_idempotency_key(journal.key, queries[0], 0)
        share_key = sorted(journal.replay().queries[key].shares)[0]
        journal.append_share(key, share_key, {"not": "a ShareOutcome"})

        resumed = QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                                   journal=journal).serve(queries)
        journal.close()
        assert resumed.journal.tampered_records == 1
        assert resumed.journal.shares_evaluated == 1  # just the bad one
        assert ([_answer_key(r) for r in resumed.results]
                == [_answer_key(r) for r in baseline.results])


# ---------------------------------------------------------------------------
# Exactly-once counter merge across repeated resumes (regression)
# ---------------------------------------------------------------------------
class TestResumeTwiceCounters:
    """PM-phase fault events replay exactly once.

    The PM record journals the fault events fired on the PM-phase
    coordinates (``Prilo._PM_EVENT_PREFIXES``: sealed-channel re-requests
    and enclave ECALL retries).  A resume that replays the PM verdicts
    must replay those events too, or post-resume fault totals would
    under-count the cold run's (the regression this class was written
    for dropped the PM fan-out's own events).  This test crashes after the
    first PM record, resumes, then resumes again with a complete journal,
    asserting full fault-event and cache-counter equality with the
    uninterrupted chaotic run each time.
    """

    # Attestation rejection is chaos-decided per ``reattest:`` coordinate,
    # so with it enabled every resume adds legitimate resume-only events
    # (and failed re-attestation recomputes PMs, hiding the replay path
    # this test pins down).  Exclude it; the remaining kinds still hit the
    # PM fan-out.
    KINDS = tuple(k for k in INJECTABLE_KINDS
                  if k != FaultKind.ENCLAVE_ATTESTATION)

    @staticmethod
    def _fault_events(report):
        return [sorted((e.kind, e.key, e.action, e.attempt)
                       for e in r.metrics.faults.events)
                for r in report.results]

    @staticmethod
    def _pad_caches(report):
        # cmm and decrypt lookups legitimately drop on resume: replay
        # skips enumeration, and a replayed PM verdict is not decrypted.
        return [{name: (stats.hits, stats.misses, stats.evictions)
                 for name, stats in sorted(r.metrics.caches.items())
                 if name not in ("cmm", "decrypt")}
                for r in report.results]

    def test_counters_equal_cold_run_after_two_resumes(
            self, dataset, test_config, tmp_path):
        chaos = ChaosPolicy(seed=11, fault_rate=0.5, kinds=self.KINDS)
        config = replace(test_config, chaos=chaos)
        queries = _queries(dataset, Semantics.SUB_ISO)

        def run(journal=None):
            engine = _engine(dataset, config, Semantics.SUB_ISO, True)
            return QueryBatchEngine(engine, journal=journal).serve(queries)

        cold = run()
        assert any(ev for ev in self._fault_events(cold)), \
            "chaos schedule injected nothing; test is vacuous"
        assert any(any(key.startswith(Prilo._PM_EVENT_PREFIXES)
                       for _, key, _, _ in ev)
                   for ev in self._fault_events(cold)), \
            "no PM-phase fault; the replay path is not exercised"

        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(config.seed))
        run(journal)
        journal.close()

        # Crash right after BATCH_ADMIT + QUERY_BEGIN(q0) + q0's PM
        # record: the first resume must replay the PM verdicts *and* the
        # executor-level fault events journaled with them.
        _truncate_after(path, 3)
        journal = RunJournal(path, journal_key(config.seed))
        first = run(journal)
        journal.close()
        assert first.journal.pm_replays >= 1
        assert self._fault_events(first) == self._fault_events(cold)
        assert self._pad_caches(first) == self._pad_caches(cold)
        assert ([_answer_key(r) for r in first.results]
                == [_answer_key(r) for r in cold.results])

        # Second resume over the now-complete journal: committed answers
        # replay wholesale, counters still merge exactly once.
        journal = RunJournal(path, journal_key(config.seed))
        second = run(journal)
        journal.close()
        assert second.admission.replayed_commits == len(queries)
        assert self._fault_events(second) == self._fault_events(cold)
        assert self._pad_caches(second) == self._pad_caches(cold)
        assert ([_answer_key(r) for r in second.results]
                == [_answer_key(r) for r in cold.results])


# ---------------------------------------------------------------------------
# Pruning-message replay: re-attestation gate, fallback to recomputation
# ---------------------------------------------------------------------------
class TestPMReplay:
    """A resume reuses journaled (Dealer-visible) PM verdicts only after
    every player's enclave re-attests; any failure -- a rogue report or a
    wrong-shape record -- degrades soundly to recomputation."""

    def _runs(self, dataset, test_config, tmp_path):
        queries = _queries(dataset, Semantics.HOM)
        baseline = QueryBatchEngine(
            _engine(dataset, test_config, Semantics.HOM, True)).serve(queries)
        journal = RunJournal(tmp_path / "run.journal",
                             journal_key(test_config.seed))
        first = QueryBatchEngine(
            _engine(dataset, test_config, Semantics.HOM, True),
            journal=journal).serve(queries)
        assert ([_answer_key(r) for r in first.results]
                == [_answer_key(r) for r in baseline.results])
        return queries, baseline, journal

    def test_pm_verdicts_replayed_after_reattestation(
            self, dataset, test_config, tmp_path):
        queries, baseline, journal = self._runs(dataset, test_config,
                                                tmp_path)
        engine = _engine(dataset, test_config, Semantics.HOM, True)
        resumed = QueryBatchEngine(engine, journal=journal).serve(queries)
        journal.close()

        assert resumed.journal.pm_replays == len(queries)
        assert resumed.journal.reattestations == (
            len(queries) * test_config.k_players)
        assert resumed.journal.tampered_records == 0
        assert ([_answer_key(r) for r in resumed.results]
                == [_answer_key(r) for r in baseline.results])

    def test_rogue_attestation_report_forces_recompute(
            self, dataset, test_config, tmp_path):
        """One player returning a report for the wrong application makes
        every query recompute its PMs -- zero replays, a DEGRADED event
        per query, identical matches and verified ids.

        The enclave is still rogue when the PMs are recomputed, so the
        user's own attestation (``User.prepare``) fails too and the query
        runs twiglet-only.  ``compute_pms_kernel`` documents that as
        sound -- skipping BF "keeps strictly more candidates" -- hence PM
        positives are a superset of the baseline's, not equal to them."""
        from repro.framework.faults import FaultAction

        queries, baseline, journal = self._runs(dataset, test_config,
                                                tmp_path)
        engine = _engine(dataset, test_config, Semantics.HOM, True)
        rogue = engine.players[0].enclave
        genuine = rogue.attest()
        rogue.attest = lambda: replace(
            genuine, measurement=measure("rogue-enclave/9.9"))

        resumed = QueryBatchEngine(engine, journal=journal).serve(queries)
        journal.close()

        assert resumed.journal.pm_replays == 0
        assert resumed.journal.reattestations >= len(queries)
        degraded = [e for r in resumed.results
                    for e in r.metrics.faults.events
                    if e.key.startswith("reattest:")
                    and e.action == FaultAction.DEGRADED]
        assert len(degraded) == len(queries)
        for got, want in zip(resumed.results, baseline.results):
            assert any(e.key.startswith("enclave:")
                       and e.action == FaultAction.DEGRADED
                       for e in got.metrics.faults.events)
            assert got.pm_positive_ids >= want.pm_positive_ids
            got_key, want_key = _answer_key(got), _answer_key(want)
            # Everything but the PM positives (index 1) is identical.
            assert got_key[:1] + got_key[2:] == want_key[:1] + want_key[2:]

    def test_wrong_shape_pm_record_recomputed(self, dataset, test_config,
                                              tmp_path):
        """A forged PM record (authenticated but not PM-shaped) is counted
        as tampered and that query's PMs recomputed; the untouched query
        still replays."""
        queries, baseline, journal = self._runs(dataset, test_config,
                                                tmp_path)
        key = query_idempotency_key(journal.key, queries[0], 0)
        journal.append_share(key, PriloStar.PM_SHARE_KEY,
                             {"ball_ids": "not-a-tuple"})

        resumed = QueryBatchEngine(
            _engine(dataset, test_config, Semantics.HOM, True),
            journal=journal).serve(queries)
        journal.close()

        assert resumed.journal.tampered_records == 1
        assert resumed.journal.pm_replays == len(queries) - 1
        assert ([_answer_key(r) for r in resumed.results]
                == [_answer_key(r) for r in baseline.results])


# ---------------------------------------------------------------------------
# Admission control: overload shedding, ball budget, deadlines, drain
# ---------------------------------------------------------------------------
class TestAdmissionControl:
    def test_queue_bound_sheds_deterministically(self, dataset,
                                                 test_config):
        queries = _queries(dataset, Semantics.HOM, count=4, distinct=2)
        with QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                              queue_bound=2) as server:
            report = server.serve(queries)
        statuses = [o.status for o in report.outcomes]
        assert statuses == [QueryStatus.OK, QueryStatus.OK,
                            QueryStatus.REJECTED_OVERLOAD,
                            QueryStatus.REJECTED_OVERLOAD]
        assert report.admission.shed_overload == 2
        assert report.admission.completed == 2
        assert len(report.results) == 2
        # Admitted prefix answers are unaffected by the shedding.
        baseline = QueryBatchEngine(
            Prilo.setup(dataset.graph, test_config)).serve(queries[:2])
        assert ([_answer_key(r) for r in report.results]
                == [_answer_key(r) for r in baseline.results])

    def test_ball_budget_rejects_pre_evaluation(self, dataset, test_config):
        config = replace(test_config, ball_budget=1)
        query = _queries(dataset, Semantics.HOM)[0]
        engine = Prilo.setup(dataset.graph, config)
        _, candidates = engine.candidate_balls(query)
        assert len(candidates) > 1  # otherwise the test is vacuous
        with pytest.raises(BallBudgetExceeded) as info:
            engine.run(query)
        assert info.value.candidates == len(candidates)
        assert info.value.budget == 1

        with QueryBatchEngine(Prilo.setup(dataset.graph, config)) as server:
            report = server.serve([query])
        assert (report.outcomes[0].status
                == QueryStatus.REJECTED_BALL_BUDGET)
        assert report.admission.shed_ball_budget == 1
        assert not report.results

    def test_deadline_reports_partial_state(self, dataset, test_config):
        config = replace(test_config, deadline_ms=1e-6)
        query = _queries(dataset, Semantics.HOM)[0]
        engine = Prilo.setup(dataset.graph, config)
        with pytest.raises(DeadlineExceeded) as info:
            engine.run(query)
        exc = info.value
        assert exc.metrics is not None
        assert exc.metrics.journal.deadline_hits == 1
        assert exc.elapsed_ms >= exc.budget_ms
        assert exc.where  # names the phase boundary that tripped

        with QueryBatchEngine(Prilo.setup(dataset.graph, config)) as server:
            report = server.serve([query])
        outcome = report.outcomes[0]
        assert outcome.status == QueryStatus.DEADLINE_EXCEEDED
        assert outcome.metrics is not None
        assert report.admission.deadline_exceeded == 1
        assert report.journal.deadline_hits == 1

    def test_generous_deadline_changes_nothing(self, dataset, test_config):
        queries = _queries(dataset, Semantics.HOM)
        baseline = QueryBatchEngine(
            Prilo.setup(dataset.graph, test_config)).serve(queries)
        config = replace(test_config, deadline_ms=600_000.0)
        report = QueryBatchEngine(
            Prilo.setup(dataset.graph, config)).serve(queries)
        assert ([_answer_key(r) for r in report.results]
                == [_answer_key(r) for r in baseline.results])

    def test_deadline_object(self):
        deadline = Deadline(1e-6)
        with pytest.raises(DeadlineExceeded):
            deadline.check("unit test")
        assert Deadline(600_000.0).expired is False

    def test_drain_stops_admission_and_journals(self, dataset, test_config,
                                                tmp_path):
        queries = _queries(dataset, Semantics.HOM, count=3, distinct=2)
        path = tmp_path / "run.journal"
        journal = RunJournal(path, journal_key(test_config.seed))
        server = QueryBatchEngine(Prilo.setup(dataset.graph, test_config),
                                  journal=journal)
        server.request_drain()
        report = server.serve(queries)
        server.close()
        journal.close()
        assert [o.status for o in report.outcomes] == (
            [QueryStatus.DRAINED] * 3)
        assert report.admission.drained == 3
        assert not report.results
        state = RunJournal(path, journal_key(test_config.seed)).replay()
        assert state.drained

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PriloConfig(deadline_ms=0)
        with pytest.raises(ValueError):
            PriloConfig(deadline_ms=True)
        with pytest.raises(ValueError):
            PriloConfig(ball_budget=0)
        with pytest.raises(ValueError):
            PriloConfig(ball_budget=True)
        with pytest.raises(ValueError):
            QueryBatchEngine(object(), queue_bound=0)


# ---------------------------------------------------------------------------
# Chaos vocabulary
# ---------------------------------------------------------------------------
class TestKillProcessChaos:
    def test_kill_process_is_opt_in(self):
        assert FaultKind.KILL_PROCESS not in INJECTABLE_KINDS
        assert FaultKind.KILL_PROCESS in VALID_KINDS
        # Default chaos policies therefore never SIGKILL the test suite.
        policy = ChaosPolicy(seed=1, fault_rate=1.0)
        assert not policy.decides(FaultKind.KILL_PROCESS, "kill:x")

    def test_kill_schedule_deterministic(self):
        policy = ChaosPolicy(seed=1, fault_rate=0.5,
                             kinds=(FaultKind.KILL_PROCESS,))
        decisions = [policy.decides(FaultKind.KILL_PROCESS, f"kill:{i}")
                     for i in range(64)]
        assert any(decisions) and not all(decisions)
        again = [policy.decides(FaultKind.KILL_PROCESS, f"kill:{i}")
                 for i in range(64)]
        assert decisions == again

    def test_unknown_kind_rejected(self, capsys):
        """``worker_crash`` / ``share_timeout`` went with the in-engine
        process pool: the policy and ``--chaos-kinds`` both refuse them
        and name the kinds that are valid.  ``--chaos-kinds`` refuses a
        malicious-SP kind too: only a rogue shard's policy injects it."""
        valid = ", ".join(INJECTABLE_KINDS + (FaultKind.KILL_PROCESS,))
        for kind in ("made_up", "worker_crash", "share_timeout",
                     FaultKind.FORGE_RESULT):
            if kind not in VALID_KINDS:
                with pytest.raises(ValueError, match="choose from") as err:
                    ChaosPolicy(seed=1, fault_rate=0.5, kinds=(kind,))
                assert all(k in str(err.value) for k in VALID_KINDS)
            with pytest.raises(SystemExit) as exit_:
                main(["run", "dblp", "--chaos-seed", "1", "--fault-rate",
                      "0.5", "--chaos-kinds", f"kill_process,{kind}"])
            assert exit_.value.code == 1
            assert capsys.readouterr().err.endswith(f"valid: {valid}\n")
