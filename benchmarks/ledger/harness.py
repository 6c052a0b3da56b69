"""The measuring loop every workload runs under.

One closed loop, one client: set-ups (timed, repeated), one untimed
warm-up pass, then whole timed passes over the workload's fixed step list
until the ``--seconds`` budget is used.  Every step is bracketed by
host-speed probe readings (:mod:`.probe`) and reported both raw and
normalised.  With ``trace`` on, passes alternate untraced / traced
(:mod:`.spans`), so the tracing overhead comes from the same process and
the same minutes as the per-layer numbers.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from benchmarks.ledger import spans as span_mod
from benchmarks.ledger.metrics import (
    END_TO_END_NAMES,
    PER_LAYER_NAMES,
    TAIL_SAMPLES,
    percentile,
    quartiles,
    tail_percentile,
)
from benchmarks.ledger.probe import NOISY_SPREAD, ProbeLog, scale

#: Timed set-ups per run (the median is reported; one in smoke mode): at
#: least the first number, and more -- up to the second -- while they have
#: taken less than ``SETUP_MIN_TOTAL_S`` together, because a 3 ms set-up
#: needs more readings than a 150 ms one for a steady median.
SETUP_REPEATS = (5, 25)
SETUP_MIN_TOTAL_S = 0.4


@dataclass
class StepResult:
    """What one step of a pass did."""

    #: Work units completed (queries; balls for ``ArtifactStore.create``).
    work: float = 0.0
    #: Raw latency samples in seconds.  ``None``: the step's own wall time
    #: is its one sample; ``[]``: the step contributes no sample.
    samples: list[float] | None = None
    attempted: int = 1
    failed: int = 0
    #: Counts, summed over the pass (exact for a fixed seed).
    counters: dict[str, float] = field(default_factory=dict)
    #: Time-derived values that are not durations (schedule-replay
    #: fractions); summed like counters, never expected to repeat exactly.
    derived: dict[str, float] = field(default_factory=dict)
    #: Durations the program itself reported (CPU seconds of shards, ...),
    #: raw; the harness normalises them with the step's probe factor.
    seconds: dict[str, float] = field(default_factory=dict)
    #: Canonical answer bytes, folded into the run's answers digest.
    answer: bytes = b""


class Workload:
    """Interface the loop drives; see :mod:`.workloads` for the five."""

    name = ""
    why = ""
    #: Whether operations spawn child processes (their RSS then counts).
    spawns_children = False
    #: Whether every step is its own latency sample and runs for 0.2 s or
    #: more: host speed is then sampled inside the steps too
    #: (``ProbeLog.inside_steps``).
    long_steps = False
    #: The percentile ``op_tail_ms`` reports; the loop runs as many passes
    #: as that percentile needs samples (``TAIL_SAMPLES``).
    tail = 50

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        #: Final input sizes, recorded in the envelope.
        self.sizes: dict[str, object] = {}
        #: Order-sensitive digest of the generated inputs.
        self.inputs_digest = ""

    def prepare(self) -> float:
        """Build fixtures and inputs (untimed); returns seconds spent
        building fixtures that were not cached."""
        raise NotImplementedError

    def setup(self) -> None:
        """Timed: everything between workload start and ready-for-first-
        operation.  Called several times; :meth:`discard` in between."""
        raise NotImplementedError

    def discard(self) -> None:
        """Release what :meth:`setup` built."""

    def ready(self) -> None:
        """Untimed, after the last set-up: oracle computation."""

    def begin_pass(self) -> None:
        pass

    def steps(self) -> list[tuple[str, object]]:
        """``(name, callable returning StepResult)`` for one pass."""
        raise NotImplementedError

    def end_pass(self) -> None:
        pass

    def stored_bytes_per_ball(self) -> float:
        """Bytes at rest per ball (see ``metrics.END_TO_END``)."""
        return self._stored_per_ball

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics that are constants of the inputs."""
        return {}


@dataclass
class StepRecord:
    op: int
    name: str
    #: Wall seconds, less what the probe readings inside the step took.
    raw_s: float
    factor: float
    result: StepResult

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor

    def samples_raw(self) -> list[float]:
        if self.result.samples is None:
            return [self.raw_s]
        return self.result.samples


@dataclass
class PassRecord:
    index: int
    traced: bool
    steps: list[StepRecord]
    probe_spread: float
    #: ``(start, seconds)`` of the probe readings taken inside its steps.
    inside_readings: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    noisy: bool = False

    @property
    def raw_s(self) -> float:
        return sum(step.raw_s for step in self.steps)

    @property
    def norm_s(self) -> float:
        return sum(step.norm_s for step in self.steps)

    def counters(self) -> dict[str, float]:
        """Exact counters, derived values and normalised program-reported
        durations of the pass, in one dict."""
        total = self.exact_counters()
        for step in self.steps:
            for key, value in step.result.derived.items():
                total[key] = total.get(key, 0.0) + value
            for key, value in step.result.seconds.items():
                total[key] = total.get(key, 0.0) + value * step.factor
        return total

    def exact_counters(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for step in self.steps:
            for key, value in step.result.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    def as_dict(self) -> dict:
        samples_raw, samples_norm = [], []
        for step in self.steps:
            raw = step.samples_raw()
            samples_raw.extend(raw)
            samples_norm.extend(value * step.factor for value in raw)
        return {
            "index": self.index, "traced": self.traced, "noisy": self.noisy,
            "probe_spread": self.probe_spread,
            "raw_s": self.raw_s, "norm_s": self.norm_s,
            "work": sum(step.result.work for step in self.steps),
            "failed": sum(step.result.failed for step in self.steps),
            "attempted": sum(step.result.attempted for step in self.steps),
            "steps": [{"op": step.op, "name": step.name,
                       "raw_s": step.raw_s, "norm_s": step.norm_s}
                      for step in self.steps],
            "samples_raw_ms": [v * 1e3 for v in samples_raw],
            "samples_norm_ms": [v * 1e3 for v in samples_norm],
        }


def _guarded(name: str, call) -> StepResult:
    """A step that raises is a failed operation, not a crashed run."""
    try:
        return call()
    except Exception:  # noqa: BLE001 -- the ledger must report, then go on
        print(f"ledger: step {name} raised:", file=sys.stderr)
        traceback.print_exc()
        return StepResult(samples=[], failed=1)


def run_pass(workload: Workload, probes: ProbeLog, index: int, op_base: int,
             recorder: span_mod.SpanRecorder | None = None) -> PassRecord:
    probes.begin_pass()
    inside_from = len(probes.inside_readings)
    before = probes.read()
    workload.begin_pass()
    records: list[StepRecord] = []
    for offset, (name, call) in enumerate(workload.steps()):
        op = op_base + offset
        if recorder is not None:
            recorder.op = op
        probes.arm()
        started = time.perf_counter()
        result = _guarded(name, call)
        raw = time.perf_counter() - started
        inside, inside_s = probes.disarm()
        after = probes.read()
        records.append(StepRecord(op, name, raw - inside_s,
                                  scale(before, after, inside), result))
        before = after
    if recorder is not None:
        recorder.op = None
    workload.end_pass()
    return PassRecord(index=index, traced=recorder is not None,
                      steps=records, probe_spread=probes.pass_spread(),
                      inside_readings=probes.inside_readings[inside_from:])


def _timed_setups(workload: Workload, probes: ProbeLog,
                  smoke: bool) -> list[dict[str, float]]:
    least, most = (1, 1) if smoke else SETUP_REPEATS
    readings: list[dict[str, float]] = []
    while len(readings) < least or (
            len(readings) < most
            and sum(r["raw_s"] for r in readings) < SETUP_MIN_TOTAL_S):
        if readings:
            workload.discard()
        before = probes.read()
        started = time.perf_counter()
        workload.setup()
        raw = time.perf_counter() - started
        factor = scale(before, probes.read())
        readings.append({"raw_s": raw, "norm_s": raw * factor})
    return readings


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result (see ``run.py`` for output)."""
    with ProbeLog(inside_steps=workload.long_steps) as probes:
        return _measure(workload, seconds, trace, probes)


def _measure(workload: Workload, seconds: float, trace: bool,
             probes: ProbeLog) -> dict:
    smoke = workload.smoke
    wall_started = time.perf_counter()
    fixture_build_s = workload.prepare()
    prepare_s = time.perf_counter() - wall_started

    setups = _timed_setups(workload, probes, smoke)
    workload.ready()

    # Warm-up: ball index, fixed-base tables and the decrypt memo fill
    # here, so the timed passes see steady-state serving.
    warm = run_pass(workload, probes, -1, 0)
    op_base = len(warm.steps)
    # Freeze the warm heap, as a pre-fork server would.  Unfrozen, every
    # full collection walks the ~300k objects of the ball index: a third
    # of solo-eval-hom's wall time, landing as +130 ms on whichever
    # operation happens to trigger it.
    gc.collect()
    gc.freeze()

    passes: list[PassRecord] = []
    noisy_repeated = False
    samples_per_pass = sum(len(step.samples_raw()) for step in warm.steps)
    need_plain = 1 if (smoke or trace) else max(2, -(
        -TAIL_SAMPLES[workload.tail] // samples_per_pass))
    need_traced = 1 if trace else 0
    measure_started = time.perf_counter()
    while True:
        kept = [p for p in passes if not p.noisy]
        plain = sum(1 for p in kept if not p.traced)
        traced = sum(1 for p in kept if p.traced)
        want_traced = trace and traced < plain
        if plain >= need_plain and traced >= need_traced:
            if smoke:
                break
            elapsed = time.perf_counter() - measure_started
            if elapsed >= seconds - 0.5 * kept[-1].raw_s:
                break
        if want_traced:
            recorder = span_mod.SpanRecorder()
            with span_mod.tracing(recorder):
                record = run_pass(workload, probes, len(passes), op_base,
                                  recorder)
            record.spans = recorder.spans
            span_mod.add_probe_spans(record.spans, record.inside_readings)
        else:
            record = run_pass(workload, probes, len(passes), op_base)
        op_base += len(record.steps)
        if record.probe_spread > NOISY_SPREAD and not noisy_repeated:
            # Host speed moved too much inside this pass for one factor
            # per step to describe it: keep it in the envelope, repeat it.
            record.noisy = True
            noisy_repeated = True
        passes.append(record)
    measure_s = time.perf_counter() - measure_started
    gc.unfreeze()
    workload.discard()

    kept = [p for p in passes if not p.noisy]
    plain_passes = [p for p in kept if not p.traced]
    traced_passes = [p for p in kept if p.traced]
    first = plain_passes[0]
    exact_repeat_ok = all(p.exact_counters() == first.exact_counters()
                          for p in kept)

    attempted = sum(s.result.attempted for p in kept for s in p.steps)
    failed = sum(s.result.failed for p in kept for s in p.steps)
    answers = hashlib.sha256()
    for step in first.steps:
        answers.update(step.result.answer + b"\x1e")

    result = {
        "workload": workload.name,
        "seed": workload.seed,
        "smoke": smoke,
        "traced": trace,
        "sizes": workload.sizes,
        "inputs_digest": workload.inputs_digest,
        "answers_digest": answers.hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "exact_repeat_ok": exact_repeat_ok,
        "noisy_pass_repeated": noisy_repeated,
        "timing": {"prepare_s": prepare_s, "measure_s": measure_s,
                   "fixture_build_s": fixture_build_s,
                   "wall_s": time.perf_counter() - wall_started},
        "setups": setups,
        "passes": [p.as_dict() for p in passes],
        "probe_readings_ms": [v * 1e3 for v in probes.readings],
        "probe_readings_inside_steps_ms": [
            seconds * 1e3 for _, seconds in probes.inside_readings],
    }
    if trace:
        result["per_layer"] = _per_layer(workload, plain_passes,
                                         traced_passes, probes,
                                         fixture_build_s)
        result["spans"] = [
            {"pass": p.index,
             "spans": [[s.name, s.start, s.end, s.parent, s.op, s.nbytes]
                       for s in p.spans]}
            for p in traced_passes]
    else:
        result["end_to_end"], result["summary"] = _end_to_end(
            workload, plain_passes, setups, attempted, failed)
    return result


def _peak_rss_mb(workload: Workload) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.spawns_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def _end_to_end(workload: Workload, passes: list[PassRecord],
                setups: list[dict[str, float]], attempted: int,
                failed: int) -> tuple[dict[str, float], dict]:
    work = busy = 0.0
    samples: list[float] = []
    for record in passes:
        for step in record.steps:
            if step.result.work:
                work += step.result.work
                busy += step.norm_s
            samples.extend(v * step.factor * 1e3
                           for v in step.samples_raw())
    # Fixed per workload, so that a run with one pass more or fewer does
    # not report another percentile under the same name; smoke runs have
    # too few samples for it and fall back to what they support.
    tail = min(workload.tail, tail_percentile(len(samples)))
    values = {
        "setup_s": statistics.median(s["norm_s"] for s in setups),
        "work_per_s": work / busy,
        "op_p50_ms": percentile(samples, 50),
        "op_tail_ms": percentile(samples, tail),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    counters = passes[0].exact_counters()
    values["wire_bytes_per_query"] = (counters["wire_bytes"]
                                      / counters["queries"])
    values["stored_bytes_per_ball"] = workload.stored_bytes_per_ball()
    assert set(values) == set(END_TO_END_NAMES), sorted(values)
    summary = {
        "samples": len(samples),
        "tail_percentile": tail,
        "timed_passes": len(passes),
        "op_ms": quartiles(samples),
        "pass_norm_s": quartiles([p.norm_s for p in passes]),
        "setup_norm_s": quartiles([s["norm_s"] for s in setups]),
    }
    return values, summary


#: ``*_s`` layer metric -> the span self times it sums:
#: ``(span name, required ancestor or None)``.
SPAN_METRICS: dict[str, tuple[tuple[str, str | None], ...]] = {
    "graph.ball.candidates_s": (
        ("graph.ball.candidates", None),
        ("graph.ball.extract", "graph.ball.candidates")),
    "roles.user.prepare_s": (("roles.user.prepare", None),),
    "roles.user.decrypt_pms_s": (("roles.user.decrypt_pms", None),),
    "roles.user.decrypt_results_s": (("roles.user.decrypt_results", None),),
    "roles.user.match_s": (("roles.user.match", None),),
    "semantics.match_s": (("semantics.match", None),),
    "executor.pm_s": (("executor.pm", None),),
    "executor.eval_s": (("executor.eval", None),),
    "core.verification.verify_s": (("core.verification.verify", None),),
    "core.table_pruning.prune_s": (("core.table_pruning.prune", None),),
    "core.bf_pruning.prune_s": (("core.bf_pruning.prune", None),),
    "core.retrieval.sequence_s": (("core.retrieval.sequence", None),),
    "server.serve_s": (("server.serve", None),),
    "store.open_s": (("store.open", None),),
    "store.load_ball_s": (("store.load_ball", None),),
    "store.load_encrypted_s": (("store.load_encrypted", None),),
    "store.create_s": (("store.create", None),),
    "store.create.tree_artifact_s": (("store.tree_artifact", "store.create"),),
    "store.create.twiglet_s": (("store.twiglet", "store.create"),),
    "store.create.ball_extract_s": (("graph.ball.extract", "store.create"),),
    "store.create.encrypt_s": (("crypto.stream.encrypt", "store.create"),),
    "store.apply_delta_s": (
        ("store.apply_delta", None),
        ("store.tree_artifact", "store.apply_delta"),
        ("store.twiglet", "store.apply_delta"),
        ("graph.ball.extract", "store.apply_delta"),
        ("crypto.stream.encrypt", "store.apply_delta")),
    "store.verify_s": (("store.verify", None),),
    "store.shard_split_s": (("store.shard_split", None),),
    "authenticate.build_auth_s": (("authenticate.build_auth", None),),
    "authenticate.prove_s": (("authenticate.prove", None),),
    "delta.dirty_keys_s": (("delta.dirty_keys", None),),
    "wire.encode_s": (("wire.encode", None),),
    "wire.decode_s": (("wire.decode", None),),
    "verify.verify_s": (("verify.verify", None),),
    "shard.spawn_s": (("shard.spawn", None),),
    "shard.shutdown_s": (("shard.shutdown", None),),
    "gateway.run_s": (("gateway.run", None),),
    "runtime.gc_s": ((span_mod.GC_SPAN, None),),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(c: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics that are pure functions of one pass's counters."""
    queries = c.get("queries", 0)
    out = {
        "graph.ball.candidates_per_query": _ratio(c.get("candidates", 0),
                                                  queries),
        "executor.shares_per_query": _ratio(c.get("shares", 0), queries),
        "core.enumeration.cmms_per_query": _ratio(c.get("cmms", 0), queries),
        "core.verification.bypassed_per_query": _ratio(c.get("bypassed", 0),
                                                       queries),
        "tee.enclave.ecalls_per_query": _ratio(c.get("ecalls", 0), queries),
        "tee.enclave.bytes_in_per_query": _ratio(c.get("enclave_bytes_in", 0),
                                                 queries),
        "core.pruning.pruning_power": (
            1.0 - _ratio(c.get("positives", 0), c["candidates"])
            if c.get("candidates") else 0.0),
        "core.retrieval.all_positives_frac": _ratio(
            c.get("all_positives_frac", 0.0), queries),
        "crypto.cache.pad_hit_rate": _ratio(
            c.get("pad_hits", 0), c.get("pad_lookups", 0)),
        "crypto.cache.decrypt_hit_rate": _ratio(
            c.get("decrypt_hits", 0), c.get("decrypt_lookups", 0)),
        "server.cmm_hit_rate": _ratio(
            c.get("cmm_hits", 0),
            c.get("cmm_hits", 0) + c.get("cmm_misses", 0)),
        "server.cmm_evictions": c.get("cmm_evictions", 0),
        "store.apply_delta.dirty_balls": c.get("dirty_balls", 0),
        "store.apply_delta.reencrypted": c.get("reencrypted", 0),
        "journal.records": c.get("journal_records", 0),
        "journal.bytes": c.get("journal_bytes", 0),
        "verify.proofs_checked": c.get("proofs_checked", 0),
        "verify.proof_bytes_per_query": _ratio(c.get("proof_bytes", 0),
                                               queries),
        "shard.busy_s": c.get("shard_busy_s", 0.0),
        "shard.critical_path_s": c.get("shard_critical_s", 0.0),
        "gateway.fanout_overhead_s": c.get("fanout_overhead_s", 0.0),
        "gateway.work_amplification": _ratio(c.get("shard_busy_s", 0.0),
                                             c.get("reference_cpu_s", 0.0)),
    }
    for op in ("modmul", "modexp", "table_build"):
        out[f"crypto.{op}_per_query"] = _ratio(c.get(f"{op}.all", 0), queries)
        for part in ("eval", "pm", "user"):
            out[f"crypto.{op}_per_query.{part}"] = _ratio(
                c.get(f"{op}.{part}", 0), queries)
    return out


def _per_layer(workload: Workload, plain: list[PassRecord],
               traced: list[PassRecord], probes: ProbeLog,
               fixture_build_s: float) -> dict[str, float]:
    values = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    counters = traced[0].counters()
    # The reference CPU and the shards' CPU are both measured per pass;
    # the fan-out overhead needs the step walls beside them.
    counters["fanout_overhead_s"] = sum(
        step.norm_s - step.result.seconds["shard_critical_s"] * step.factor
        for step in traced[0].steps
        if "shard_critical_s" in step.result.seconds)
    values.update(counter_metrics(counters))
    values.update(workload.layer_extras())

    root = wall = 0.0
    sums = dict.fromkeys(SPAN_METRICS, 0.0)
    calls: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    for record in traced:
        factor_of = {step.op: step.factor for step in record.steps}
        own = span_mod.self_times(record.spans,
                                  lambda op: factor_of.get(op, 1.0))
        for metric, parts in SPAN_METRICS.items():
            sums[metric] += sum(
                span_mod.sum_self(record.spans, own, name, under)
                for name, under in parts)
        root += span_mod.root_time(record.spans)
        wall += record.raw_s
        for span in record.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            nbytes[span.name] = nbytes.get(span.name, 0) + span.nbytes
    passes = len(traced)
    for metric, total in sums.items():
        values[metric] = total / passes
    values["store.load_ball_calls"] = calls.get("store.load_ball", 0) / passes
    values["wire.frames"] = (calls.get("wire.encode", 0)
                             + calls.get("wire.decode", 0)) / passes
    values["wire.bytes"] = (nbytes.get("wire.encode", 0)
                            + nbytes.get("wire.decode", 0)) / passes

    plain_s = statistics.median(p.norm_s for p in plain)
    traced_s = statistics.median(p.norm_s for p in traced)
    values["harness.trace_overhead_frac"] = (traced_s - plain_s) / plain_s
    values["harness.layer_coverage_frac"] = root / wall
    values["harness.probe_ms"] = statistics.median(probes.readings) * 1e3
    values["harness.fixture_build_s"] = fixture_build_s
    assert set(values) == set(PER_LAYER_NAMES), (
        sorted(set(values) ^ set(PER_LAYER_NAMES)))
    return values
