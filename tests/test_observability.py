"""Privacy-aware observability: construction-time redaction, the
leakage audit, exporters, and the traced == untraced answer identity
(DESIGN.md section 10).

The redaction property asserted across all three semantics and pruning
on/off: *no* dealer/player/enclave/sp-scope span of a traced run carries
an attribute outside the allowed-observation model of
``repro.analysis.leakage`` -- and the only way to get one past the
constructor (the :class:`UncheckedAttrs` taint hook) is exactly what the
leakage audit exists to flag.
"""

import json

import pytest

from repro.analysis.leakage import SPAN_OBSERVABLE_KEYS, SPAN_STRING_KEYS
from repro.core.bf_pruning import BFConfig
from repro.framework.prilo import Prilo
from repro.framework.prilo_star import PriloStar
from repro.framework.server import QueryBatchEngine
from repro.graph.query import Semantics
from repro.observability import (
    RESTRICTED_ROLE_CLASSES,
    LeakageAuditReport,
    RedactionError,
    Span,
    Tracer,
    audit_spans,
    player_role,
    prometheus_text,
    read_trace,
    render_summary,
    role_class,
    summarize_spans,
    write_trace,
)
from repro.observability.spans import NULL_TRACER, UncheckedAttrs

ALL_SEMANTICS = (Semantics.HOM, Semantics.SUB_ISO, Semantics.SSIM)


def _query(dataset, semantics):
    return dataset.random_queries(1, size=4, diameter=2,
                                  semantics=semantics, seed=13)[0]


def _engine(dataset, config, semantics, pruning, tracer=None):
    from dataclasses import replace

    graph = dataset.graph_for(semantics)
    if pruning:
        config = replace(config, use_twiglet=True, use_bf=True,
                         bf=BFConfig(eta=16, expected_trees=200))
        return PriloStar.setup(graph, config, tracer=tracer)
    return Prilo.setup(graph, config, tracer=tracer)


def _answer_key(result):
    return (result.candidate_ids,
            tuple(sorted(result.pm_positive_ids)),
            tuple(sorted(result.verified_ids)),
            tuple(sorted(result.match_ball_ids)),
            result.num_matches,
            tuple(sorted(result.matches)))


# ---------------------------------------------------------------------------
# Construction-time redaction: the policy itself
# ---------------------------------------------------------------------------
class TestRedactionPolicy:
    def test_user_scope_unrestricted(self):
        # The user owns the plaintext; their view carries anything.
        Span("query_matching", "user", 0.0, 0.0,
             {"matches": ["v1", "v2"], "raw": b"\x00"})

    @pytest.mark.parametrize("role", ["dealer", "player:0", "player:3",
                                      "enclave", "sp"])
    def test_restricted_scope_allows_model_counts(self, role):
        span = Span("evaluation", role, 0.0, 0.1,
                    {"balls": 12, "cmms": 40, "bytes": 1024,
                     "replayed": False, "share_key": "eval:0:p1"})
        assert role_class(span.role) in RESTRICTED_ROLE_CLASSES

    @pytest.mark.parametrize("role", ["dealer", "player:1", "enclave",
                                      "sp"])
    def test_query_dependent_key_rejected(self, role):
        with pytest.raises(RedactionError, match="allowed-observation"):
            Span("evaluation", role, 0.0, 0.0, {"ball_answer": 1})

    def test_string_under_numeric_key_rejected(self):
        with pytest.raises(RedactionError, match="public coordinate"):
            Span("evaluation", "dealer", 0.0, 0.0,
                 {"balls": "match@ball:17"})

    @pytest.mark.parametrize("value", [b"\x01\x02", ["v1"], {"v": 1},
                                       ("a",)])
    def test_smuggling_shapes_rejected(self, value):
        with pytest.raises(RedactionError, match="may only"):
            Span("evaluation", "sp", 0.0, 0.0, {"bytes": value})

    def test_unknown_role_rejected(self):
        with pytest.raises(RedactionError, match="unknown role"):
            Span("evaluation", "auditor", 0.0, 0.0, {})

    def test_string_keys_subset_of_observable(self):
        assert SPAN_STRING_KEYS <= SPAN_OBSERVABLE_KEYS

    def test_unchecked_attrs_bypass_then_audit_catches(self):
        span = Span("taint", "dealer", 0.0, 0.0,
                    UncheckedAttrs({"ball_answer": "match@ball:17"}))
        report = audit_spans([span])
        assert not report.ok
        assert report.violations[0].attribute == "ball_answer"

    def test_tracer_span_context_checks_at_exit(self):
        tracer = Tracer()
        with pytest.raises(RedactionError):
            with tracer.span("evaluation", "dealer") as span:
                span.set("verdict", "positive")
        assert tracer.spans == []  # the leaking span never materialized

    def test_null_tracer_is_inert(self):
        NULL_TRACER.event("evaluation", "dealer", verdict="anything")
        with NULL_TRACER.span("evaluation", "dealer") as span:
            span.set("verdict", "anything")
        assert NULL_TRACER.spans == ()
        assert not NULL_TRACER.enabled


# ---------------------------------------------------------------------------
# The redaction property over real traced runs
# ---------------------------------------------------------------------------
class TestTracedRuns:
    @pytest.mark.parametrize("semantics", ALL_SEMANTICS,
                             ids=[s.value for s in ALL_SEMANTICS])
    @pytest.mark.parametrize("pruning", [False, True],
                             ids=["prilo", "prilo-star"])
    def test_restricted_spans_within_bound(self, dataset, test_config,
                                           semantics, pruning):
        """Every SP-side span of a real run passes the audit -- by
        construction (the policy ran in ``__post_init__``) and by
        re-check (the audit agrees)."""
        tracer = Tracer()
        engine = _engine(dataset, test_config, semantics, pruning,
                         tracer=tracer)
        engine.run(_query(dataset, semantics))

        assert tracer.spans, "traced run produced no spans"
        restricted = [s for s in tracer.spans
                      if role_class(s.role) in RESTRICTED_ROLE_CLASSES]
        assert restricted, "no restricted-scope spans; test is vacuous"
        report = audit_spans(tracer.spans)
        assert report.ok, [str(v) for v in report.violations]
        assert report.restricted_spans == len(restricted)
        # The per-role coverage the tentpole promises: user + dealer
        # always; player/enclave only when pruning fans out PM shares.
        roles = {role_class(s.role) for s in tracer.spans}
        assert {"user", "dealer", "sp"} <= roles
        if pruning:
            assert "enclave" in roles

    @pytest.mark.parametrize("semantics", ALL_SEMANTICS,
                             ids=[s.value for s in ALL_SEMANTICS])
    def test_traced_answers_identical_to_untraced(self, dataset,
                                                  test_config, semantics):
        query = _query(dataset, semantics)
        untraced = _engine(dataset, test_config, semantics, True).run(query)
        traced = _engine(dataset, test_config, semantics, True,
                         tracer=Tracer()).run(query)
        assert _answer_key(traced) == _answer_key(untraced)

    def test_query_matching_carries_the_user_stage_split(self, dataset,
                                                         test_config,
                                                         tmp_path):
        """Decrypt / decode / match per retrieved ball ride on the user's
        ``query_matching`` event and survive the trace export; the fetch
        is what is left of ``duration_s``."""
        tracer = Tracer()
        result = _engine(dataset, test_config, Semantics.HOM, False,
                         tracer=tracer).run(_query(dataset, Semantics.HOM))
        assert result.verified_ids, "no ball retrieved; test is vacuous"
        (event,) = [s for s in tracer.spans if s.name == "query_matching"]
        _, exported = read_trace(write_trace(tmp_path / "t.jsonl",
                                             tracer.spans))
        (line,) = [s for s in exported if s["name"] == "query_matching"]
        for attrs, duration in ((event.attrs, event.duration_s),
                                (line["attrs"], line["duration_s"])):
            parts = [attrs[k] for k in ("decrypt_s", "decode_s", "match_s")]
            assert all(isinstance(p, float) and p > 0 for p in parts)
            assert sum(parts) <= duration
            assert attrs["balls"] == len(result.matches)

    def test_audit_flags_injected_taint(self, dataset, test_config):
        tracer = Tracer()
        engine = _engine(dataset, test_config, Semantics.HOM, True,
                         tracer=tracer)
        engine.run(_query(dataset, Semantics.HOM))
        assert audit_spans(tracer.spans).ok

        tracer.inject_unchecked("taint_probe", "dealer",
                                ball_answer="match@ball:17")
        report = audit_spans(tracer.spans)
        assert not report.ok
        assert len(report.violations) == 1
        assert report.violations[0].span_name == "taint_probe"

    def test_batch_serving_spans(self, dataset, test_config, tmp_path):
        from repro.storage.journal import RunJournal, journal_key

        tracer = Tracer()
        engine = _engine(dataset, test_config, Semantics.HOM, True,
                         tracer=tracer)
        queries = [_query(dataset, Semantics.HOM)] * 2
        journal = RunJournal(tmp_path / "j", journal_key(test_config.seed))
        with QueryBatchEngine(engine, journal=journal) as server:
            report = server.serve(queries)
        journal.close()
        assert len(report.results) == 2
        names = {s.name for s in tracer.spans}
        assert "admission" in names
        assert "journal_replay" in names
        assert "query_commit" in names
        commits = [s for s in tracer.spans if s.name == "query_commit"]
        assert [s.attrs["index"] for s in commits] == [0, 1]
        assert not any(s.attrs["replayed"] for s in commits)
        assert audit_spans(tracer.spans).ok


# ---------------------------------------------------------------------------
# Exporters: JSONL round-trip, Prometheus text, summarize
# ---------------------------------------------------------------------------
class TestExporters:
    @pytest.fixture(scope="class")
    def traced_batch(self, dataset, test_config):
        tracer = Tracer()
        engine = _engine(dataset, test_config, Semantics.HOM, True,
                         tracer=tracer)
        with QueryBatchEngine(engine) as server:
            report = server.serve([_query(dataset, Semantics.HOM)] * 2)
        return report, tracer

    def test_jsonl_round_trip(self, traced_batch, tmp_path):
        _, tracer = traced_batch
        path = write_trace(tmp_path / "t.jsonl", tracer.spans,
                           meta={"command": "test"})
        meta, spans = read_trace(path)
        assert meta["format"] == 1
        assert meta["command"] == "test"
        assert meta["spans"] == len(spans) == len(tracer.spans)
        assert spans == [
            dict(s.as_dict(), type="span") for s in tracer.spans]
        # Every line is valid standalone JSON (grep-ability contract).
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_round_tripped_trace_still_audits(self, traced_batch,
                                              tmp_path):
        _, tracer = traced_batch
        path = write_trace(tmp_path / "t.jsonl", tracer.spans)
        _, spans = read_trace(path)
        assert audit_spans(spans).ok

    def test_edited_trace_fails_offline_audit(self, traced_batch,
                                              tmp_path):
        """The audit's reason to exist beyond the constructor: a trace
        edited on disk (or written by a buggy exporter) is still
        checked against the same model."""
        _, tracer = traced_batch
        path = write_trace(tmp_path / "t.jsonl", tracer.spans)
        lines = path.read_text().splitlines()
        doctored = json.loads(lines[1])
        doctored["attrs"]["c_sgx"] = "0xdeadbeef"
        doctored["role"] = "dealer"
        lines[1] = json.dumps(doctored)
        path.write_text("\n".join(lines) + "\n")
        _, spans = read_trace(path)
        report = audit_spans(spans)
        assert not report.ok
        assert any(v.attribute == "c_sgx" for v in report.violations)

    def test_prometheus_text(self, traced_batch):
        report, tracer = traced_batch
        text = prometheus_text(report, tracer.spans)
        assert "# TYPE repro_batch_queries_total counter" in text
        assert "repro_batch_queries_total 2" in text
        assert 'repro_query_latency_seconds{query="0"}' in text
        assert 'repro_cmm_cache_events_total{event="hits"}' in text
        assert "repro_message_bytes_total" in text
        assert 'repro_span_seconds_count{' in text
        # Text-exposition shape: every non-comment line is `name{..} v`.
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            assert name[0].isalpha()
            float(value)

    def test_summarize_and_render(self, traced_batch):
        _, tracer = traced_batch
        groups = summarize_spans([s.as_dict() for s in tracer.spans])
        assert groups
        total = sum(stats.count for stats in groups.values())
        assert total == len(tracer.spans)
        for (role, name), stats in groups.items():
            assert stats.count == sum(stats.buckets)
            assert stats.max_s <= stats.total_s + 1e-12

        text = render_summary(groups)
        assert "[user]" in text and "[dealer]" in text
        assert render_summary({}) == "trace is empty: no spans\n"

    def test_audit_report_summary_lines(self):
        ok = LeakageAuditReport(checked_spans=3, restricted_spans=1)
        assert "ok" in ok.summary_line()
        assert ok.as_dict()["ok"] is True
        tainted = audit_spans([{"name": "x", "role": "sp",
                                "attrs": {"secret": 1}}])
        assert "LEAKAGE" in tainted.summary_line()


def test_player_role_helpers():
    assert player_role(3) == "player:3"
    assert role_class("player:3") == "player"
    assert role_class("enclave") == "enclave"
