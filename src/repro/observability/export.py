"""Trace and metrics exporters.

Three consumers, three formats:

* :func:`write_trace` / :func:`read_trace` -- the JSON-lines trace file
  behind ``repro run --trace``: one ``meta`` header line, then one line
  per span.  Line-oriented so a crashed run still leaves a parseable
  prefix, and so ``grep role=player`` works without tooling.
* :func:`prometheus_text` -- a Prometheus text-exposition snapshot of a
  batch report (``serve-batch --metrics-out``): counters for latency,
  bytes, cache and admission state that a scrape-file collector (e.g.
  node_exporter's textfile module) can ship as-is.
* :func:`summarize_spans` / :func:`render_summary` -- the per-role /
  per-phase latency histograms behind ``repro trace summarize``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.observability.spans import Span, role_class

#: Trace-file format version (bump on incompatible line-shape changes).
TRACE_FORMAT = 1


# ---------------------------------------------------------------------------
# JSON-lines trace file
# ---------------------------------------------------------------------------
def write_trace(path: str | Path, spans: list[Span],
                meta: dict | None = None) -> Path:
    """Write one meta line plus one line per span; returns the path."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        header = {"type": "meta", "format": TRACE_FORMAT,
                  "spans": len(spans)}
        if meta:
            header.update(meta)
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for span in spans:
            record = {"type": "span"}
            record.update(span.as_dict())
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_trace(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a trace file back into ``(meta, span dicts)``.

    Works on the raw dicts, not :class:`Span` objects, on purpose: the
    leakage audit must be able to examine attributes that would never
    survive Span's construction-time redaction.
    """
    meta: dict = {}
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "meta":
                meta = record
            elif record.get("type") == "span":
                spans.append(record)
    return meta, spans


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _fmt_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(round(value, 9))


def _labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def prometheus_text(report, spans: list[Span] | None = None) -> str:
    """Render a :class:`~repro.framework.server.BatchReport` (plus an
    optional span list) as Prometheus text exposition.

    Everything exported is already in the report's operator summary --
    the exporter adds a format, not a leakage surface.
    """
    lines: list[str] = []

    def metric(name: str, kind: str, help_text: str,
               samples: list[tuple[dict, float]]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            lines.append(f"{name}{_labels(labels)} {_fmt_value(value)}")

    summary = report.summary()
    metric("repro_batch_queries_total", "counter",
           "Completed queries in the batch.",
           [({}, summary["queries"])])
    metric("repro_batch_makespan_seconds", "gauge",
           "Wall-clock of the whole serve call.",
           [({}, summary["makespan_seconds"])])
    metric("repro_query_latency_seconds", "gauge",
           "Per-query end-to-end latency.",
           [({"query": str(i)}, latency)
            for i, latency in enumerate(report.latencies)])
    cache = summary["cmm_cache"]
    metric("repro_cmm_cache_events_total", "counter",
           "CMM cache hit/miss/eviction counters.",
           [({"event": name}, cache[name])
            for name in ("hits", "misses", "evictions")])
    if "admission" in summary:
        metric("repro_admission_total", "counter",
               "Admission-control outcomes.",
               [({"outcome": key}, value)
                for key, value in summary["admission"].items()])
    if "journal" in summary:
        metric("repro_journal_records_total", "counter",
               "Write-ahead journal counters.",
               [({"counter": key}, value)
                for key, value in summary["journal"].items()])
    sizes_total: dict[str, int] = {}
    for result in report.results:
        for fname, value in vars(result.metrics.sizes).items():
            sizes_total[fname] = sizes_total.get(fname, 0) + value
    if sizes_total:
        metric("repro_message_bytes_total", "counter",
               "Protocol message bytes by channel (MessageSizes).",
               [({"channel": key}, value)
                for key, value in sorted(sizes_total.items())])
    ops_total: dict[tuple[str, str, str], int] = {}
    for result in report.results:
        counter = getattr(result.metrics, "ops", None)
        if counter is None:
            continue
        for (phase, role), counts in counter.buckets.items():
            for op, value in counts.as_dict().items():
                key = (op, phase, role)
                ops_total[key] = ops_total.get(key, 0) + value
    if ops_total:
        metric("repro_crypto_ops_total", "counter",
               "Exact crypto op counts (modmul/modexp/table_build) by "
               "phase and role; table_build counts window-table entries, "
               "each multi-bit one also one modmul.",
               [({"op": op, "phase": phase, "role": role}, value)
                for (op, phase, role), value in sorted(ops_total.items())])
    if spans:
        per_group: dict[tuple[str, str], tuple[int, float]] = {}
        for span in spans:
            group = (role_class(span.role), span.name)
            count, total = per_group.get(group, (0, 0.0))
            per_group[group] = (count + 1, total + span.duration_s)
        metric("repro_span_seconds_count", "counter",
               "Traced spans by role class and phase.",
               [({"role": role, "phase": name}, count)
                for (role, name), (count, _) in sorted(per_group.items())])
        metric("repro_span_seconds_sum", "counter",
               "Traced wall seconds by role class and phase.",
               [({"role": role, "phase": name}, total)
                for (role, name), (_, total) in sorted(per_group.items())])
    return "\n".join(lines) + "\n"


def write_metrics(path: str | Path, report,
                  spans: list[Span] | None = None) -> Path:
    path = Path(path)
    path.write_text(prometheus_text(report, spans), encoding="utf-8")
    return path


def gateway_prometheus_text(report,
                            spans: list[Span] | None = None) -> str:
    """Prometheus text exposition of a
    :class:`~repro.framework.gateway.GatewayReport`.

    The headline family is ``repro_verify_total``: certificates checked,
    forgeries detected, shards evicted, and answers withheld, so an
    alert on ``result="forgery"`` fires the moment any shard lies --
    long before an operator reads the exit code.
    """
    lines: list[str] = []

    def metric(name: str, kind: str, help_text: str,
               samples: list[tuple[dict, float]]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            lines.append(f"{name}{_labels(labels)} {_fmt_value(value)}")

    summary = report.summary()
    metric("repro_gateway_queries_total", "counter",
           "Queries served through the scatter-gather gateway.",
           [({}, summary["queries"])])
    metric("repro_gateway_shards", "gauge",
           "Shard fleet size at the start of the run.",
           [({}, summary["shards"])])
    metric("repro_gateway_makespan_seconds", "gauge",
           "Wall-clock of the whole gateway run.",
           [({}, summary["makespan_seconds"])])
    statuses: dict[str, int] = {}
    for status in summary["statuses"]:
        statuses[str(status)] = statuses.get(str(status), 0) + 1
    metric("repro_gateway_outcomes_total", "counter",
           "Merged per-query outcomes by status.",
           [({"status": status}, count)
            for status, count in sorted(statuses.items())])
    verify = summary.get("verify") or {}
    metric("repro_verify_total", "counter",
           "Answer-verification events: certificates checked, forgeries "
           "detected, shards evicted, answers withheld (forged with no "
           "honest member left).",
           [({"result": "checked"}, verify.get("proofs_checked", 0)),
            ({"result": "forgery"}, verify.get("forgeries_detected", 0)),
            ({"result": "evicted"}, len(verify.get("evictions", []))),
            ({"result": "withheld"}, verify.get("forged_answers", 0))])
    metric("repro_verify_proof_bytes_total", "counter",
           "Merkle multiproof bytes verified at the merge boundary.",
           [({}, verify.get("proof_bytes", 0))])
    metric("repro_verify_seconds_total", "counter",
           "Wall seconds spent verifying certificates at the gateway.",
           [({}, verify.get("verify_seconds", 0.0))])
    if spans:
        per_group: dict[tuple[str, str], int] = {}
        for span in spans:
            group = (role_class(span.role), span.name)
            per_group[group] = per_group.get(group, 0) + 1
        metric("repro_span_seconds_count", "counter",
               "Traced spans by role class and phase.",
               [({"role": role, "phase": name}, count)
                for (role, name), count in sorted(per_group.items())])
    return "\n".join(lines) + "\n"


def write_gateway_metrics(path: str | Path, report,
                          spans: list[Span] | None = None) -> Path:
    path = Path(path)
    path.write_text(gateway_prometheus_text(report, spans),
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# per-role / per-phase latency histograms (``repro trace summarize``)
# ---------------------------------------------------------------------------
#: Log-scale bucket upper bounds, in seconds (microseconds to minutes).
_BUCKETS = tuple(10.0 ** e for e in range(-6, 3))


@dataclass
class PhaseStats:
    """Latency distribution of one (role class, phase name) group."""

    role: str
    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    #: Span count per log-scale bucket (see ``_BUCKETS``; the last slot
    #: is the overflow bucket).
    buckets: list[int] = field(default_factory=lambda: [0] * (len(_BUCKETS) + 1))

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.max_s = max(self.max_s, duration_s)
        for i, bound in enumerate(_BUCKETS):
            if duration_s <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def summarize_spans(spans: list[dict]) -> dict[tuple[str, str], PhaseStats]:
    """Group span dicts (from :func:`read_trace`) by (role class, name)."""
    groups: dict[tuple[str, str], PhaseStats] = {}
    for span in spans:
        role = role_class(str(span.get("role", "?")))
        name = str(span.get("name", "?"))
        stats = groups.get((role, name))
        if stats is None:
            stats = groups[(role, name)] = PhaseStats(role=role, name=name)
        stats.add(float(span.get("duration_s", 0.0)))
    return groups


def _bar(count: int, peak: int, width: int = 20) -> str:
    if not count or not peak:
        return ""
    # Log scaling keeps one giant bucket from flattening the rest.
    filled = max(1, round(width * math.log1p(count) / math.log1p(peak)))
    return "#" * filled


def render_summary(groups: dict[tuple[str, str], PhaseStats]) -> str:
    """Human-oriented per-role/per-phase histogram block."""
    if not groups:
        return "trace is empty: no spans\n"
    lines: list[str] = []
    by_role: dict[str, list[PhaseStats]] = {}
    for stats in groups.values():
        by_role.setdefault(stats.role, []).append(stats)
    for role in sorted(by_role):
        phases = sorted(by_role[role], key=lambda s: -s.total_s)
        total = sum(s.total_s for s in phases)
        lines.append(f"[{role}]  {sum(s.count for s in phases)} spans, "
                     f"{total:.4f}s total")
        for stats in phases:
            lines.append(
                f"  {stats.name:<22} n={stats.count:<5} "
                f"mean={stats.mean_s * 1e3:8.3f}ms "
                f"max={stats.max_s * 1e3:8.3f}ms "
                f"total={stats.total_s:8.4f}s")
            peak = max(stats.buckets)
            if peak == 0:
                continue
            for i, count in enumerate(stats.buckets):
                if not count:
                    continue
                if i < len(_BUCKETS):
                    label = f"<={_BUCKETS[i]:.0e}s"
                else:
                    label = f"> {_BUCKETS[-1]:.0e}s"
                lines.append(f"    {label:<10} {count:>6} "
                             f"{_bar(count, peak)}")
        lines.append("")
    return "\n".join(lines)


__all__ = [
    "PhaseStats",
    "TRACE_FORMAT",
    "gateway_prometheus_text",
    "prometheus_text",
    "read_trace",
    "render_summary",
    "summarize_spans",
    "write_gateway_metrics",
    "write_metrics",
    "write_trace",
]
