"""Fault-tolerant query execution (chaos mode).

The contract under test, end to end: under *any* seeded fault schedule --
crashed workers, hung shares, failed attestation, enclave aborts,
corrupted sealed payloads, tampered store packs, dropped Players -- the
engine either recovers or degrades gracefully, and the final match set is
byte-identical to a fault-free serial run.  Every injection decision is a
pure function of ``(seed, kind, key, attempt)``, so the schedules here
replay identically on every platform and backend.

``REPRO_CHAOS_SEED`` (CI's chaos-smoke job sets it) varies the schedule
without touching the assertions: they must hold for *every* seed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

from repro.core.bf_pruning import BFConfig
from repro.framework.executor import ProcessExecutor, SerialExecutor
from repro.framework.faults import (
    INJECTABLE_KINDS,
    ChaosPolicy,
    FaultAction,
    FaultInjector,
    FaultKind,
    FaultRecoveryExhausted,
    FaultReport,
    RecoveryPolicy,
)
from repro.framework.prilo import (
    Deadline,
    DeadlineExceeded,
    Prilo,
    PriloConfig,
)
from repro.framework.prilo_star import PriloStar
from repro.graph.query import Semantics
from repro.tee.channel import AttestationFailure

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

#: Tests should not spend wall-clock sleeping through realistic backoffs.
FAST_RECOVERY = RecoveryPolicy(backoff_seconds=0.01)


def chaos(rate: float, kinds: tuple[str, ...] = INJECTABLE_KINDS,
          **kwargs) -> ChaosPolicy:
    kwargs.setdefault("seed", CHAOS_SEED)
    kwargs.setdefault("timeout_sleep_seconds", 0.05)
    return ChaosPolicy(fault_rate=rate, kinds=kinds, **kwargs)


@pytest.fixture(scope="module")
def config():
    return PriloConfig(k_players=2, modulus_bits=1024, q_bits=16,
                       r_bits=16, radii=(1, 2, 3), seed=3,
                       bf=BFConfig(eta=16, expected_trees=200),
                       recovery=FAST_RECOVERY)


@pytest.fixture(scope="module")
def query_of(dataset):
    def make(semantics=Semantics.HOM):
        return dataset.random_queries(1, size=4, diameter=2,
                                      semantics=semantics, seed=5)[0]
    return make


def run_engine(graph, query, config, *, pruning, **overrides):
    cls = PriloStar if pruning else Prilo
    with cls.setup(graph, replace(config, **overrides)) as engine:
        return engine.run(query)


# ----------------------------------------------------------------------
# the schedule: deterministic, seeded, order-independent
# ----------------------------------------------------------------------
class TestChaosPolicy:
    def test_decisions_are_deterministic(self):
        a = chaos(0.5)
        b = ChaosPolicy(seed=CHAOS_SEED, fault_rate=0.5,
                        timeout_sleep_seconds=0.05)
        coords = [(k, f"eval:{i}:p{p}", n) for k in INJECTABLE_KINDS
                  for i in range(20) for p in range(2) for n in range(2)]
        assert [a.decides(*c) for c in coords] == \
            [b.decides(*c) for c in coords]

    def test_different_seeds_differ(self):
        coords = [(FaultKind.WORKER_CRASH, f"eval:{i}:p0", 0)
                  for i in range(200)]
        one = [chaos(0.5, seed=1).decides(*c) for c in coords]
        two = [chaos(0.5, seed=2).decides(*c) for c in coords]
        assert one != two

    def test_rate_extremes(self):
        always = chaos(1.0)
        never = chaos(0.0)
        assert always.active and not never.active
        for kind in INJECTABLE_KINDS:
            assert always.decides(kind, "x", 0)
            assert not never.decides(kind, "x", 0)

    def test_rate_is_approximately_honoured(self):
        policy = chaos(0.1)
        hits = sum(policy.decides(FaultKind.WORKER_CRASH, f"k{i}", 0)
                   for i in range(4000))
        assert 0.05 < hits / 4000 < 0.16

    def test_faulted_attempts_bounds_retries(self):
        policy = chaos(1.0, faulted_attempts=2)
        assert policy.decides(FaultKind.WORKER_CRASH, "x", 0)
        assert policy.decides(FaultKind.WORKER_CRASH, "x", 1)
        assert not policy.decides(FaultKind.WORKER_CRASH, "x", 2)

    def test_kinds_filter(self):
        policy = chaos(1.0, kinds=(FaultKind.SHARE_TIMEOUT,))
        assert policy.decides(FaultKind.SHARE_TIMEOUT, "x", 0)
        assert not policy.decides(FaultKind.WORKER_CRASH, "x", 0)

    def test_store_stale_is_not_injectable(self):
        assert FaultKind.STORE_STALE not in INJECTABLE_KINDS
        with pytest.raises(ValueError, match="unknown fault kinds"):
            ChaosPolicy(fault_rate=0.5, kinds=(FaultKind.STORE_STALE,))

    @pytest.mark.parametrize("bad", [
        dict(seed=1.5), dict(seed=True), dict(fault_rate=-0.1),
        dict(fault_rate=1.5), dict(kinds=("meteor_strike",)),
        dict(faulted_attempts=0), dict(timeout_sleep_seconds=0.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ChaosPolicy(**{"fault_rate": 0.5, **bad})


class TestRecoveryPolicy:
    @pytest.mark.parametrize("bad", [
        dict(max_retries=-1), dict(backoff_seconds=-0.1),
        dict(backoff_factor=0.5), dict(share_timeout=0.0),
        dict(share_timeout=-1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RecoveryPolicy(**bad)

    def test_backoff_grows_exponentially(self):
        policy = RecoveryPolicy(backoff_seconds=0.1, backoff_factor=2.0)
        assert policy.backoff_for(0) == pytest.approx(0.1)
        assert policy.backoff_for(1) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.8)


class TestConfigValidation:
    def test_chaos_must_be_policy(self):
        with pytest.raises(ValueError, match="ChaosPolicy"):
            PriloConfig(chaos=0.5)

    def test_recovery_must_be_policy(self):
        with pytest.raises(ValueError, match="RecoveryPolicy"):
            PriloConfig(recovery="retry-a-lot")

    @pytest.mark.parametrize("bad", [
        dict(k_players=0), dict(k_players=True), dict(parallelism=0),
        dict(parallelism=2.0), dict(seed="0"), dict(executor="threads"),
    ])
    def test_eager_field_validation(self, bad):
        with pytest.raises(ValueError):
            PriloConfig(**bad)


# ----------------------------------------------------------------------
# executor-level recovery (unit-ish, fast)
# ----------------------------------------------------------------------
def _echo(value):
    """Module-level so the process pool can pickle it by reference."""
    return value * 2


def _nap(seconds):
    time.sleep(seconds)
    return seconds


class TestExecutorRecovery:
    def _calls(self, n=4):
        return [(f"eval:{i}:p{i % 2}", _echo, (i,)) for i in range(n)]

    def test_serial_retries_until_success(self):
        executor = SerialExecutor(recovery=FAST_RECOVERY)
        executor.install_faults(FaultInjector(chaos(1.0, kinds=(
            FaultKind.WORKER_CRASH, FaultKind.SHARE_TIMEOUT))))
        assert executor._run_all(self._calls()) == [0, 2, 4, 6]
        report = executor.faults.report
        assert report.injected == 4
        assert report.detected == 4
        assert report.retries == 4
        assert report.recovered == 4

    def test_serial_exhaustion_raises(self):
        executor = SerialExecutor(
            recovery=replace(FAST_RECOVERY, max_retries=1))
        executor.install_faults(FaultInjector(chaos(
            1.0, kinds=(FaultKind.WORKER_CRASH,), faulted_attempts=99)))
        with pytest.raises(FaultRecoveryExhausted, match="eval:0:p0"):
            executor._run_all(self._calls())

    def test_process_survives_worker_crashes(self):
        before = len(multiprocessing.active_children())
        with ProcessExecutor(workers=2, recovery=FAST_RECOVERY) as executor:
            executor.install_faults(FaultInjector(chaos(
                1.0, kinds=(FaultKind.WORKER_CRASH,))))
            assert executor._run_all(self._calls()) == [0, 2, 4, 6]
            assert executor.respawns >= 1
            report = executor.faults.report
            assert report.injected == 4
            assert report.detected >= 4
            assert report.recovered == 4
        assert len(multiprocessing.active_children()) <= before

    def test_process_share_deadline_trips_and_recovers(self):
        recovery = replace(FAST_RECOVERY, share_timeout=0.15)
        with ProcessExecutor(workers=2, recovery=recovery) as executor:
            executor.install_faults(FaultInjector(chaos(
                1.0, kinds=(FaultKind.SHARE_TIMEOUT,),
                timeout_sleep_seconds=5.0)))
            assert executor._run_all(self._calls(2)) == [0, 2]
            report = executor.faults.report
            assert report.count(FaultAction.DETECTED) >= 2
            kinds = {e.kind for e in report.events
                     if e.action == FaultAction.DETECTED}
            assert FaultKind.SHARE_TIMEOUT in kinds

    def test_process_exhaustion_raises(self):
        recovery = replace(FAST_RECOVERY, max_retries=1)
        with ProcessExecutor(workers=2, recovery=recovery) as executor:
            executor.install_faults(FaultInjector(chaos(
                1.0, kinds=(FaultKind.WORKER_CRASH,), faulted_attempts=99)))
            with pytest.raises(FaultRecoveryExhausted):
                executor._run_all(self._calls(2))

    def test_process_exhaustion_raises_nothing_else(self):
        """A worker that ``os._exit``s while later shares of the round are
        still being submitted breaks the pool under ``submit`` itself;
        that refusal goes through detect -> respawn -> exhaustion like a
        share lost in flight (it used to escape, intermittently, as a
        raw ``BrokenProcessPool``)."""
        recovery = replace(FAST_RECOVERY, max_retries=1)
        for _ in range(25):
            with ProcessExecutor(workers=2, recovery=recovery) as executor:
                executor.install_faults(FaultInjector(chaos(
                    1.0, kinds=(FaultKind.WORKER_CRASH,),
                    faulted_attempts=99)))
                with pytest.raises(FaultRecoveryExhausted):
                    executor._run_all(self._calls(6))
        assert not multiprocessing.active_children()

    def test_hung_pool_is_dead_once_run_all_returns(self):
        """A ``SHARE_TIMEOUT`` respawn kills the abandoned pool's workers:
        none of its pids outlives ``_run_all`` -- not even workers forked
        under a SIGTERM handler (``serve``'s drain handler is inherited
        by a pool forked inside it), which plain ``terminate`` spares."""
        recovery = replace(FAST_RECOVERY, share_timeout=0.15)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with ProcessExecutor(workers=2, recovery=recovery) as executor:
                executor.install_faults(FaultInjector(chaos(
                    1.0, kinds=(FaultKind.SHARE_TIMEOUT,),
                    timeout_sleep_seconds=30.0)))
                abandoned = {}
                reset = executor._reset_pool

                def recording_reset():
                    abandoned.update(executor._pool._processes)
                    reset()

                executor._reset_pool = recording_reset
                started = time.monotonic()
                assert executor._run_all(self._calls(2)) == [0, 2]
                assert time.monotonic() - started < 10
                assert executor.respawns == 1 and len(abandoned) == 2
                assert not any(worker.is_alive()
                               for worker in abandoned.values())
                for pid in abandoned:
                    with pytest.raises(ProcessLookupError):
                        os.kill(pid, 0)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert not multiprocessing.active_children()

    def test_abandoned_fan_out_stops_working(self):
        """``on_result`` raising mid-harvest (the deadline hook) abandons
        the run; its queued and running shares die with the pool instead
        of making the next fan-out wait behind work nobody will read
        (six 1 s naps on 2 workers: 3 s before)."""
        class Abandoned(Exception):
            pass

        abandoned = {}

        def give_up(key, result):
            abandoned.update(executor._pool._processes)
            raise Abandoned(key)

        with ProcessExecutor(workers=2, recovery=FAST_RECOVERY) as executor:
            naps = [(f"eval:{i}:p0", _nap, (1.0 if i else 0.0,))
                    for i in range(7)]
            with pytest.raises(Abandoned, match="eval:0:p0"):
                executor._run_all(naps, on_result=give_up)
            started = time.monotonic()
            assert executor._run_all([("eval:0:p0", _nap, (0.0,))]) == [0.0]
            assert time.monotonic() - started < 0.5
            assert len(abandoned) == 2
            for pid in abandoned:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        assert not multiprocessing.active_children()

    def test_deadline_in_the_harvest_leaves_no_pool_behind(self, dataset,
                                                           config):
        """The same through ``Prilo.run(deadline=...)``: the checkpoint
        hook raises ``DeadlineExceeded`` after the first share, the other
        shares' pool is gone before the caller sees it, ``close()``
        returns at once and the next run gets a fresh pool."""
        workers = {}

        class ExpiresAtTheFirstShare(Deadline):
            def check(self, where):
                if where.startswith("after share"):
                    workers.update(engine.executor._pool._processes)
                    raise DeadlineExceeded(where, self.elapsed_ms,
                                           self.budget_ms)

        query = dataset.random_queries(1, size=4, diameter=2, seed=5)[0]
        engine = Prilo.setup(dataset.graph, replace(
            config, executor="process", parallelism=2))
        with engine:
            with pytest.raises(DeadlineExceeded, match="after share"):
                engine.run(query, deadline=ExpiresAtTheFirstShare(600_000.0))
            assert workers and engine.executor._pool is None
            for pid in workers:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
            assert engine.run(query).candidate_ids
            started = time.monotonic()
            engine.close()
            assert time.monotonic() - started < 0.5
        assert not multiprocessing.active_children()

    def test_no_leaked_processes_after_close(self):
        executor = ProcessExecutor(workers=2, recovery=FAST_RECOVERY)
        executor.install_faults(FaultInjector(chaos(
            1.0, kinds=(FaultKind.WORKER_CRASH,))))
        executor._run_all(self._calls(2))
        executor.close()
        assert not multiprocessing.active_children()


# ----------------------------------------------------------------------
# end-to-end equivalence: chaos never changes answers
# ----------------------------------------------------------------------
class TestChaosEquivalence:
    """The tentpole guarantee: at a 10%+ fault rate across every kind,
    the match set equals the fault-free serial run's, for all three
    semantics, pruning on and off, on both backends."""

    @pytest.mark.parametrize("pruning", [False, True],
                             ids=["plain", "bf+twiglet"])
    @pytest.mark.parametrize("semantics", [Semantics.HOM,
                                           Semantics.SUB_ISO,
                                           Semantics.SSIM])
    def test_serial_chaos_matches_fault_free(self, dataset, config, query_of,
                                             semantics, pruning):
        graph = dataset.graph_for(semantics)
        query = query_of(semantics)
        base = run_engine(graph, query, config, pruning=pruning)
        chaotic = run_engine(graph, query, config, pruning=pruning,
                             chaos=chaos(0.3))
        assert chaotic.matches == base.matches
        assert chaotic.candidate_ids == base.candidate_ids
        assert chaotic.metrics.faults.injected > 0

    @pytest.mark.parametrize("pruning", [False, True],
                             ids=["plain", "bf+twiglet"])
    def test_process_chaos_matches_fault_free(self, dataset, config,
                                              query_of, pruning):
        query = query_of()
        base = run_engine(dataset.graph, query, config, pruning=pruning)
        chaotic = run_engine(dataset.graph, query, config, pruning=pruning,
                             chaos=chaos(0.3), executor="process",
                             parallelism=2)
        assert chaotic.matches == base.matches
        assert chaotic.candidate_ids == base.candidate_ids
        assert chaotic.metrics.faults.injected > 0

    def test_fault_summary_surfaces_in_metrics(self, dataset, config,
                                               query_of):
        result = run_engine(dataset.graph, query_of(), config, pruning=True,
                            chaos=chaos(0.3))
        report = result.metrics.faults
        assert report  # truthy when any event was recorded
        line = report.summary_line()
        for token in ("injected=", "detected=", "retries=", "recovered=",
                      "degraded="):
            assert token in line
        as_dict = report.as_dict()
        assert as_dict["injected"] == report.injected
        assert len(as_dict["events"]) == len(report.events)


# ----------------------------------------------------------------------
# degradation paths
# ----------------------------------------------------------------------
class TestBFDegradation:
    def test_attestation_failure_degrades_to_twiglet_only(self, dataset,
                                                          config, query_of):
        query = query_of()
        base = run_engine(dataset.graph, query, config, pruning=True)
        degraded = run_engine(
            dataset.graph, query, config, pruning=True,
            chaos=chaos(1.0, kinds=(FaultKind.ENCLAVE_ATTESTATION,)))
        assert degraded.matches == base.matches
        assert "bf" in base.pm_per_method
        assert "bf" not in degraded.pm_per_method
        assert "twiglet" in degraded.pm_per_method
        report = degraded.metrics.faults
        events = [e for e in report.events
                  if e.kind == FaultKind.ENCLAVE_ATTESTATION]
        assert any(e.action == FaultAction.DEGRADED for e in events)

    def test_degrade_bf_off_raises(self, dataset, config, query_of):
        strict = replace(config,
                         recovery=replace(FAST_RECOVERY, degrade_bf=False),
                         chaos=chaos(1.0,
                                     kinds=(FaultKind.ENCLAVE_ATTESTATION,)))
        with PriloStar.setup(dataset.graph, strict) as engine:
            with pytest.raises(AttestationFailure):
                engine.run(query_of())

    def test_enclave_memory_recovers_on_retry(self, dataset, config,
                                              query_of):
        query = query_of()
        base = run_engine(dataset.graph, query, config, pruning=True)
        result = run_engine(
            dataset.graph, query, config, pruning=True,
            chaos=chaos(1.0, kinds=(FaultKind.ENCLAVE_MEMORY,)))
        # One retry per ECALL recovers every ball: BF verdicts survive.
        assert result.matches == base.matches
        assert result.pm_per_method.get("bf") == base.pm_per_method.get("bf")
        report = result.metrics.faults
        assert report.recovered > 0
        assert all(e.kind == FaultKind.ENCLAVE_MEMORY
                   for e in report.events)

    def test_enclave_memory_exhaustion_degrades_per_ball(self, dataset,
                                                         config, query_of):
        query = query_of()
        base = run_engine(dataset.graph, query, config, pruning=True)
        result = run_engine(
            dataset.graph, query, config, pruning=True,
            chaos=chaos(1.0, kinds=(FaultKind.ENCLAVE_MEMORY,),
                        faulted_attempts=2))
        # Both attempts abort: each ball's BF verdict is skipped (missing
        # verdicts count positive), the answer is unchanged.
        assert result.matches == base.matches
        assert not result.pm_per_method.get("bf")
        assert result.metrics.faults.degraded > 0

    def test_corrupted_sealed_payload_recovers(self, dataset, config,
                                               query_of):
        query = query_of()
        base = run_engine(dataset.graph, query, config, pruning=True)
        result = run_engine(
            dataset.graph, query, config, pruning=True,
            chaos=chaos(1.0, kinds=(FaultKind.CHANNEL_CORRUPTION,)))
        # Attempt 0 is corrupted in flight, the re-request is pristine.
        assert result.matches == base.matches
        assert result.pm_per_method.get("bf") == base.pm_per_method.get("bf")
        report = result.metrics.faults
        assert any(e.kind == FaultKind.CHANNEL_CORRUPTION
                   and e.action == FaultAction.RECOVERED
                   for e in report.events)


class TestDropoutReplan:
    @pytest.mark.parametrize("pruning", [False, True],
                             ids=["prilo-rsg", "prilo*-ssg"])
    def test_dropout_replans_onto_survivors(self, dataset, config, query_of,
                                            pruning):
        query = query_of()
        three = replace(config, k_players=3)
        base = run_engine(dataset.graph, query, three, pruning=pruning)
        result = run_engine(
            dataset.graph, query, three, pruning=pruning,
            chaos=chaos(1.0, kinds=(FaultKind.PLAYER_DROPOUT,)))
        # rate=1.0 drops every Player; the lowest id is kept alive and
        # inherits every orphaned ball.
        assert result.matches == base.matches
        assert result.verified_ids == base.verified_ids
        survivors = {seq.player for seq in result.sequences}
        assert survivors == {0}
        all_base = {b for seq in base.sequences for b in seq.sequence}
        all_replanned = {b for seq in result.sequences
                        for b in seq.sequence}
        assert all_replanned == all_base
        report = result.metrics.faults
        dropped = [e for e in report.events
                   if e.kind == FaultKind.PLAYER_DROPOUT
                   and e.action == FaultAction.INJECTED]
        assert len(dropped) == 2  # players 1 and 2
        assert any(e.action == FaultAction.DEGRADED for e in report.events
                   if e.kind == FaultKind.PLAYER_DROPOUT)

    def test_replan_disabled_keeps_sequences(self, dataset, config,
                                             query_of):
        query = query_of()
        no_replan = replace(
            config, k_players=3,
            recovery=replace(FAST_RECOVERY, replan_dropouts=False),
            chaos=chaos(1.0, kinds=(FaultKind.PLAYER_DROPOUT,)))
        with Prilo.setup(dataset.graph, no_replan) as engine:
            result = engine.run(query)
        assert {seq.player for seq in result.sequences} == {0, 1, 2}
        assert not result.metrics.faults


# ----------------------------------------------------------------------
# store faults: quarantine, recompute, stale fallback
# ----------------------------------------------------------------------
class TestStoreFaults:
    RADII = (2,)
    SEED = 3

    @pytest.fixture()
    def store(self, tmp_path, dataset):
        from repro.crypto.keys import DataOwnerKey
        from repro.storage import ArtifactStore

        return ArtifactStore.create(
            tmp_path / "store", dataset.graph, self.RADII,
            DataOwnerKey.generate(self.SEED), twiglet_h=3)

    def _config(self, config):
        return replace(config, radii=self.RADII, seed=self.SEED)

    def test_tampered_serves_quarantine_and_recompute(self, dataset, config,
                                                      query_of, store):
        query = query_of()
        cfg = self._config(config)
        base = run_engine(dataset.graph, query, cfg, pruning=True)
        with PriloStar.setup(
                dataset.graph,
                replace(cfg, chaos=chaos(
                    1.0, kinds=(FaultKind.STORE_TAMPER,))),
                store=store) as engine:
            result = engine.run(query)
        # Every first serve of every pack key is corrupted; quarantine +
        # recompute/re-encrypt converge on the fault-free answer.
        assert result.matches == base.matches
        assert result.verified_ids == base.verified_ids
        assert store.quarantined
        report = result.metrics.faults
        assert any(e.kind == FaultKind.STORE_TAMPER
                   and e.action == FaultAction.DEGRADED
                   for e in report.events)

    def _damaged_pack_is_quarantined(self, dataset, config, query_of, store,
                                     damage, error):
        """Rewrite every ``balls.pack`` record with ``damage(pack, slice)``
        and serve from it: the load raises the typed error naming
        ``error``, the pack is quarantined, the answer is the clean one."""
        from repro.graph.io import BallDecodeError
        from repro.storage import ArtifactStore

        pack = bytearray((store.root / "balls.pack").read_bytes())
        slices = dict(store._slices)
        store.close()
        for sl in slices.values():
            damage(pack, sl)
        (store.root / "balls.pack").write_bytes(bytes(pack))

        query = query_of()
        cfg = self._config(config)
        base = run_engine(dataset.graph, query, cfg, pruning=True)
        with ArtifactStore.open(store.root) as damaged:
            with pytest.raises(BallDecodeError, match=error):
                damaged.load_ball(next(iter(slices)))
            with PriloStar.setup(dataset.graph, cfg,
                                 store=damaged) as engine:
                result = engine.run(query)
            assert "balls.pack" in damaged.quarantined
        assert result.matches == base.matches
        assert result.verified_ids == base.verified_ids

    def test_record_preserving_ball_damage_is_quarantined(
            self, dataset, config, query_of, store):
        """Rot that still parses as a record -- the last edge's target
        index points past the vertex table -- takes the same quarantine +
        recompute path as any other damage."""
        def damage(pack, sl):
            pack[sl.offset + sl.length - 2:sl.offset + sl.length] = \
                b"\xff\xff"

        self._damaged_pack_is_quarantined(dataset, config, query_of, store,
                                          damage, "IndexError")

    def test_json_preserving_ball_damage_is_quarantined(
            self, dataset, config, query_of, tmp_path, monkeypatch):
        """The v1 twin, against a v1 pack: rot that keeps ``balls.pack``
        entries valid JSON but breaks a vertex repr (``literal_eval``
        raises SyntaxError, not ValueError) -- it used to escape as a
        traceback."""
        from repro.crypto.keys import DataOwnerKey
        from repro.storage import ArtifactStore
        from tests.ball_v1 import write_v1_stores

        write_v1_stores(monkeypatch)
        store = ArtifactStore.create(
            tmp_path / "v1-store", dataset.graph, self.RADII,
            DataOwnerKey.generate(self.SEED), twiglet_h=3)
        marker = b'{\\"vertices\\":[[\\"'

        def damage(pack, sl):
            at = pack.index(marker, sl.offset, sl.offset + sl.length)
            pack[at + len(marker)] = ord("!")      # "12" -> "!2"

        self._damaged_pack_is_quarantined(dataset, config, query_of, store,
                                          damage, "SyntaxError")

    def test_quarantine_disabled_raises(self, dataset, config, query_of,
                                        store):
        cfg = replace(
            self._config(config),
            recovery=replace(FAST_RECOVERY, quarantine_store=False),
            chaos=chaos(1.0, kinds=(FaultKind.STORE_TAMPER,)))
        with PriloStar.setup(dataset.graph, cfg, store=store) as engine:
            with pytest.raises(Exception):
                engine.run(query_of())

    def test_stale_store_recompute_fallback(self, dataset, config, query_of,
                                            store):
        from repro.storage import StoreError

        query = query_of()
        # config radii (1, 2, 3) != store radii (2,): stale at setup.
        stale_cfg = replace(config, seed=self.SEED)
        with pytest.raises(StoreError):
            PriloStar.setup(dataset.graph, stale_cfg, store=store)
        permissive = replace(
            stale_cfg,
            recovery=replace(FAST_RECOVERY, recompute_on_stale_store=True))
        base = run_engine(dataset.graph, query, permissive, pruning=True)
        with PriloStar.setup(dataset.graph, permissive,
                             store=store) as engine:
            assert engine.store is None  # degraded to in-process rebuild
            result = engine.run(query)
        assert result.matches == base.matches
        events = result.metrics.faults.events
        assert any(e.kind == FaultKind.STORE_STALE
                   and e.action == FaultAction.DEGRADED for e in events)

    def test_user_side_tamper_detection_refetches(self, dataset, config,
                                                  query_of, store):
        """A blob corrupted on its way to the user fails the MAC; the
        Dealer re-serves from the authoritative plaintext pack."""
        query = query_of()
        cfg = self._config(config)
        base = run_engine(dataset.graph, query, cfg, pruning=True)
        with PriloStar.setup(
                dataset.graph,
                replace(cfg, chaos=chaos(
                    1.0, kinds=(FaultKind.STORE_TAMPER,))),
                store=store) as engine:
            result = engine.run(query)
        report = result.metrics.faults
        refetches = [e for e in report.events
                     if e.key.startswith("retrieve:b")
                     and e.action == FaultAction.RECOVERED]
        if base.verified_ids:
            assert refetches
        assert result.matches == base.matches


class TestFaultReportShape:
    def test_empty_report_is_falsy(self):
        report = FaultReport()
        assert not report
        assert report.summary_line() == ("injected=0 detected=0 retries=0 "
                                         "recovered=0 degraded=0")

    def test_counters_track_events(self):
        report = FaultReport()
        report.record(FaultKind.WORKER_CRASH, "k", FaultAction.INJECTED)
        report.record(FaultKind.WORKER_CRASH, "k", FaultAction.DETECTED)
        report.record(FaultKind.WORKER_CRASH, "k", FaultAction.RETRIED)
        report.record(FaultKind.WORKER_CRASH, "k", FaultAction.RECOVERED)
        assert (report.injected, report.detected, report.retries,
                report.recovered, report.degraded) == (1, 1, 1, 1, 0)
        assert report.by_kind() == {FaultKind.WORKER_CRASH: 4}
