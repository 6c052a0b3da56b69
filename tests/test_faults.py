"""Fault-tolerant query execution (chaos mode).

The contract under test, end to end: under *any* seeded fault schedule --
failed attestation, enclave aborts, corrupted sealed payloads, tampered
store packs, dropped Players -- the engine either recovers or degrades
gracefully, and the final match set is byte-identical to a fault-free
run.  Every injection decision is a pure function of ``(seed, kind, key,
attempt)``, so the schedules here replay identically on every platform.
(A dead worker process is a gateway shard's failure mode; its recovery
is tested in ``test_gateway.py`` and ``test_verify.py``.)

``REPRO_CHAOS_SEED`` (CI's chaos-smoke job sets it) varies the schedule
without touching the assertions: they must hold for *every* seed.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.core.bf_pruning import BFConfig
from repro.framework.faults import (
    INJECTABLE_KINDS,
    ChaosPolicy,
    FaultAction,
    FaultKind,
    FaultReport,
)
from repro.framework.prilo import Prilo, PriloConfig
from repro.framework.prilo_star import PriloStar
from repro.graph.query import Semantics

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))


def chaos(rate: float, kinds: tuple[str, ...] = INJECTABLE_KINDS,
          **kwargs) -> ChaosPolicy:
    kwargs.setdefault("seed", CHAOS_SEED)
    return ChaosPolicy(fault_rate=rate, kinds=kinds, **kwargs)


@pytest.fixture(scope="module")
def config():
    return PriloConfig(k_players=2, modulus_bits=1024, q_bits=16,
                       r_bits=16, radii=(1, 2, 3), seed=3,
                       bf=BFConfig(eta=16, expected_trees=200))


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
        b = ChaosPolicy(seed=CHAOS_SEED, fault_rate=0.5)
        coords = [(k, f"enclave-mem:{i}:p{p}", n) for k in INJECTABLE_KINDS
                  for i in range(20) for p in range(2) for n in range(2)]
        assert [a.decides(*c) for c in coords] == \
            [b.decides(*c) for c in coords]

    def test_different_seeds_differ(self):
        coords = [(FaultKind.ENCLAVE_MEMORY, f"enclave-mem:{i}:p0", 0)
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
        hits = sum(policy.decides(FaultKind.ENCLAVE_MEMORY, f"k{i}", 0)
                   for i in range(4000))
        assert 0.05 < hits / 4000 < 0.16

    def test_faulted_attempts_bounds_retries(self):
        policy = chaos(1.0, faulted_attempts=2)
        assert policy.decides(FaultKind.ENCLAVE_MEMORY, "x", 0)
        assert policy.decides(FaultKind.ENCLAVE_MEMORY, "x", 1)
        assert not policy.decides(FaultKind.ENCLAVE_MEMORY, "x", 2)

    def test_kinds_filter(self):
        policy = chaos(1.0, kinds=(FaultKind.CHANNEL_CORRUPTION,))
        assert policy.decides(FaultKind.CHANNEL_CORRUPTION, "x", 0)
        assert not policy.decides(FaultKind.ENCLAVE_MEMORY, "x", 0)

    def test_store_stale_is_not_injectable(self):
        # A stale store is refused at setup, never injected or recovered.
        assert "store_stale" not in INJECTABLE_KINDS
        with pytest.raises(ValueError, match="unknown fault kinds"):
            ChaosPolicy(fault_rate=0.5, kinds=("store_stale",))

    @pytest.mark.parametrize("bad", [
        dict(seed=1.5), dict(seed=True), dict(fault_rate=-0.1),
        dict(fault_rate=1.5), dict(kinds=("meteor_strike",)),
        dict(faulted_attempts=0),
        # The in-engine process pool's crash kind went with the pool.
        dict(kinds=("worker_crash",)),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ChaosPolicy(**{"fault_rate": 0.5, **bad})


class TestConfigValidation:
    def test_chaos_must_be_policy(self):
        with pytest.raises(ValueError, match="ChaosPolicy"):
            PriloConfig(chaos=0.5)

    def test_retired_recovery_field_is_refused(self):
        """Recovery has one behaviour; its switches went with the field.
        Passing one is refused, never silently ignored."""
        with pytest.raises(TypeError, match="recovery"):
            PriloConfig(recovery=None)

    @pytest.mark.parametrize("bad", [
        dict(k_players=0), dict(k_players=True), dict(deadline_ms=0),
        dict(ball_budget=0), dict(seed="0"),
    ])
    def test_eager_field_validation(self, bad):
        with pytest.raises(ValueError):
            PriloConfig(**bad)


# ----------------------------------------------------------------------
# end-to-end equivalence: chaos never changes answers
# ----------------------------------------------------------------------
class TestChaosEquivalence:
    """The tentpole guarantee: at a 10%+ fault rate across every kind,
    the match set equals the fault-free run's, for all three semantics,
    pruning on and off."""

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


# ----------------------------------------------------------------------
# store faults: quarantine, recompute, stale refused
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
            DataOwnerKey.generate(self.SEED))

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

    def test_stale_store_recompute_fallback(self, dataset, config, store):
        """A store found stale at setup is refused: serving wrong balls
        silently is worse than failing loudly, and there is no
        recompute fallback."""
        from repro.storage import StoreError

        # config radii (1, 2, 3) != store radii (2,): stale at setup.
        stale_cfg = replace(config, seed=self.SEED)
        with pytest.raises(StoreError):
            PriloStar.setup(dataset.graph, stale_cfg, store=store)

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
        report.record(FaultKind.ENCLAVE_MEMORY, "k", FaultAction.INJECTED)
        report.record(FaultKind.ENCLAVE_MEMORY, "k", FaultAction.DETECTED)
        report.record(FaultKind.ENCLAVE_MEMORY, "k", FaultAction.RETRIED)
        report.record(FaultKind.ENCLAVE_MEMORY, "k", FaultAction.RECOVERED)
        assert (report.injected, report.detected, report.retries,
                report.recovered, report.degraded) == (1, 1, 1, 1, 0)
        assert report.by_kind() == {FaultKind.ENCLAVE_MEMORY: 4}
