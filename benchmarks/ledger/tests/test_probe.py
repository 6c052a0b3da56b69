"""Host-speed probe: normalisation factor and the readings inside steps."""

import signal
import time

import pytest

from benchmarks.ledger import probe
from benchmarks.ledger.probe import REFERENCE_PROBE_S, ProbeLog, scale


def test_scale_refers_to_the_reference_probe():
    assert scale(REFERENCE_PROBE_S, REFERENCE_PROBE_S) == 1.0
    assert scale(0.03, 0.05) == pytest.approx(REFERENCE_PROBE_S / 0.04)
    # Readings inside the step weigh as much as either end.
    assert scale(0.02, 0.02, [0.05, 0.05]) == pytest.approx(
        REFERENCE_PROBE_S / 0.035)


def test_pass_spread_covers_the_readings_since_begin_pass():
    log = ProbeLog(readings=[9.0])
    log.begin_pass()
    log.readings += [0.02, 0.05, 0.025]
    assert log.pass_spread() == 2.5


def _busy(seconds: float) -> None:
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def test_readings_inside_a_step_are_taken_only_while_armed():
    before = signal.getsignal(signal.SIGALRM)
    with ProbeLog(inside_steps=True) as log:
        _busy(2.5 * probe.INSIDE_INTERVAL_S)
        assert log.inside_readings == []
        log.arm()
        _busy(3.5 * probe.INSIDE_INTERVAL_S)
        readings, took = log.disarm()
        assert 2 <= len(readings) <= 4
        assert took == pytest.approx(sum(readings) / probe.INSIDE_SHARE)
        _busy(2.5 * probe.INSIDE_INTERVAL_S)
        assert len(log.inside_readings) == len(readings)
        # The next step starts a count of its own.
        log.arm()
        assert log.disarm() == ([], 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_inside_steps_no_handler_is_installed():
    before = signal.getsignal(signal.SIGALRM)
    with ProbeLog() as log:
        assert signal.getsignal(signal.SIGALRM) is before
        log.arm()
        _busy(1.5 * probe.INSIDE_INTERVAL_S)
        assert log.disarm() == ([], 0.0)
