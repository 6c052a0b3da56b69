"""Host-speed probe and the noise guard built on it.

The bench host is two shared cores with (at least) two speed states that
alternate every few seconds: the same 0.12 s of work read 0.112-0.245 s
raw in back-to-back repeats.  CPU time tracks wall there, so it is host
speed, not scheduling.  A fixed kernel is therefore run before and after
every timed step and the step's time is scaled by
``REFERENCE_PROBE_S / mean(before, after)``; the same repeats then spread
5-6 % instead of 26-30 %.

The kernel's mix matters.  In the slow state, interpreter-bound Python
(dict and set loops, byte loops, graph walks) takes 1.44-1.58x as long as
in the fast state, 2048-bit modular multiplication only 1.31x, and the
workloads -- CGBE arithmetic inside graph code -- 1.4-1.55x.  The kernel
spends about 30 % of its time in modmuls and 70 % in a dict loop, which
puts its own slowdown (1.45x) in the middle of theirs; a mostly-bigint
kernel under-corrected the store workloads by 10-12 % between a quiet and
a busy quarter of an hour.

``REFERENCE_PROBE_S`` is a constant, so normalised values keep the units
``s`` / ``ms`` ("seconds on a host where the probe takes 20 ms").  Raw
values and every probe reading are kept in the result envelope.
"""

from __future__ import annotations

import signal
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

#: Probe time the normalisation refers to: the median on the host the
#: harness was sized on.  A constant, never re-measured.
REFERENCE_PROBE_S = 0.020

#: A pass whose probe readings spread beyond this max/min ratio is marked
#: noisy and repeated once.  The host's two usual speed states are 1.4x
#: apart and half of all passes see both, so 1.5 would throw away a third
#: of every run; the stalls worth repeating a pass for read 2.8x-4.1x.
NOISY_SPREAD = 2.5

_MODULUS = (1 << 2047) | 0x1234567
_FACTOR = (1 << 2046) + 0xABCDEF12345
_MODMULS = 460
_DICT_OPS = 115_000

#: Readings inside a step: every ``INSIDE_INTERVAL_S`` seconds, over
#: ``1/INSIDE_SHARE`` of the kernel (2-3 ms out of every 100).
INSIDE_INTERVAL_S = 0.1
INSIDE_SHARE = 10


def _kernel(share: int) -> float:
    """One reading of ``1/share`` of the fixed kernel, in seconds."""
    started = time.perf_counter()
    x = 3
    for _ in range(_MODMULS // share):
        x = x * _FACTOR % _MODULUS
    table: dict[int, int] = {}
    for i in range(_DICT_OPS // share):
        table[i & 1023] = table.get(i & 511, 0) + i
    return time.perf_counter() - started


def probe() -> float:
    """One reading of the fixed kernel, in seconds."""
    return _kernel(1)


def scale(before: float, after: float,
          inside: Sequence[float] = ()) -> float:
    """Factor turning a raw duration measured between two readings into
    reference-host seconds; ``inside`` are the readings taken while it ran
    (:meth:`ProbeLog.disarm`), each standing for as much of the step as
    either end."""
    readings = [before, after, *inside]
    return REFERENCE_PROBE_S / (sum(readings) / len(readings))


@dataclass
class ProbeLog:
    """Every reading of one run, grouped by pass for the noise guard.

    With ``inside_steps`` the log also samples host speed *while* a step
    runs: between :meth:`arm` and :meth:`disarm` a SIGALRM handler runs a
    tenth of the kernel every ``INSIDE_INTERVAL_S``.  Two readings at its
    ends say little about a step of seconds on a host whose speed changes
    every 0.5-3 s: the same 2.5 s ``ArtifactStore.create`` spread 12 % with
    them alone and 4 % with the 25 readings inside it.  Only for workloads
    whose steps are their own latency samples and run for 0.2 s or more --
    a reading inside a 50 ms query would add 5 % to it.
    """

    inside_steps: bool = False
    readings: list[float] = field(default_factory=list)
    #: ``(start, seconds)`` of every reading taken inside a step.
    inside_readings: list[tuple[float, float]] = field(default_factory=list)
    _pass_start: int = 0
    _armed_at: int = 0

    def read(self) -> float:
        value = probe()
        self.readings.append(value)
        return value

    def begin_pass(self) -> None:
        self._pass_start = len(self.readings)

    def pass_spread(self) -> float:
        """max/min over the readings taken since :meth:`begin_pass`."""
        window = self.readings[self._pass_start:]
        return max(window) / min(window) if window else 1.0

    def __enter__(self) -> "ProbeLog":
        if self.inside_steps:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.inside_steps:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self.inside_readings.append((started, _kernel(INSIDE_SHARE)))

    def arm(self) -> None:
        """Start sampling inside the step that begins now."""
        self._armed_at = len(self.inside_readings)
        if self.inside_steps:
            signal.setitimer(signal.ITIMER_REAL, INSIDE_INTERVAL_S,
                             INSIDE_INTERVAL_S)

    def disarm(self) -> tuple[list[float], float]:
        """Stop sampling.  Returns the readings taken since :meth:`arm`,
        in whole-kernel seconds (like a reading after a step, one inside
        it starts on caches the step has just filled: a tenth of the
        kernel read a tenth of those), and the seconds they took out of
        the step."""
        if self.inside_steps:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        taken = [seconds for _, seconds in
                 self.inside_readings[self._armed_at:]]
        return [seconds * INSIDE_SHARE for seconds in taken], sum(taken)
