"""Span bookkeeping: self-time arithmetic and wrapper restoration."""

import pytest

from benchmarks.ledger import spans
from benchmarks.ledger.spans import Span


def _tree():
    #  0 root  [0, 10]          op 1
    #  1  child [1, 4]
    #  2   leaf  [2, 3]
    #  3  child [5, 9]
    #  4 root  [20, 26]         op 2
    #  5  child [21, 22]
    #  6 root  [30, 31]         between operations (op None)
    return [
        Span("serve", 0.0, 10.0, None, 1),
        Span("eval", 1.0, 4.0, 0, 1),
        Span("verify", 2.0, 3.0, 1, 1),
        Span("match", 5.0, 9.0, 0, 1),
        Span("serve", 20.0, 26.0, None, 2),
        Span("verify", 21.0, 22.0, 4, 2),
        Span("prove", 30.0, 31.0, None, None),
    ]


def test_self_time_is_duration_minus_direct_children():
    own = spans.self_times(_tree())
    assert own == [3.0, 2.0, 1.0, 4.0, 5.0, 1.0, 1.0]
    # Self times partition the root durations.
    assert sum(own) == pytest.approx(10.0 + 6.0 + 1.0)


def test_self_time_scales_per_operation():
    factor = {1: 2.0, 2: 0.5, None: 1.0}
    own = spans.self_times(_tree(), factor.__getitem__)
    assert own == [6.0, 4.0, 2.0, 8.0, 2.5, 0.5, 1.0]


def test_sum_self_filters_by_name_and_ancestor():
    tree = _tree()
    own = spans.self_times(tree)
    assert spans.sum_self(tree, own, "verify") == 2.0
    assert spans.sum_self(tree, own, "verify", under="eval") == 1.0
    assert spans.sum_self(tree, own, "verify", under="serve") == 2.0
    assert spans.sum_self(tree, own, "verify", under="match") == 0.0


def test_root_time_skips_spans_between_operations():
    assert spans.root_time(_tree()) == 16.0


def test_probe_readings_become_children_of_what_they_interrupted():
    tree = _tree()
    # One inside the leaf, one in the root's own time, one in no span.
    spans.add_probe_spans(tree, [(2.5, 0.25), (4.5, 0.5), (12.0, 0.5)])
    added = tree[7:]
    assert [(s.name, s.parent, s.op) for s in added] == [
        (spans.PROBE_SPAN, 2, 1), (spans.PROBE_SPAN, 0, 1)]
    own = spans.self_times(tree)
    assert own[:4] == [2.5, 2.0, 0.75, 4.0]
    # What a step's time leaves out, the covered time leaves out too.
    assert spans.root_time(tree) == 16.0 - 0.75


def test_recorder_links_parents_and_operations():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x + 1, lambda args, out: out)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    recorder.op = 7
    assert outer(1) == 4
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["outer"].parent is None
    assert recorder.spans[by_name["inner"].parent].name == "outer"
    assert by_name["inner"].op == by_name["outer"].op == 7
    assert by_name["inner"].nbytes == 2
    assert by_name["outer"].start <= by_name["inner"].start
    assert by_name["inner"].end <= by_name["outer"].end


def test_recorder_closes_spans_when_the_call_raises():
    recorder = spans.SpanRecorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert recorder.spans[0].end >= recorder.spans[0].start > 0.0
    ok = recorder.wrap("ok", lambda: None)
    ok()
    assert recorder.spans[1].parent is None


def test_collections_are_child_spans_of_what_they_interrupt():
    import gc

    recorder = spans.SpanRecorder()

    def allocate():
        gc.collect()
        return 1

    recorder.op = 3
    with spans.tracing(recorder, table=()):
        assert recorder.on_gc in gc.callbacks
        recorder.wrap("layer", allocate)()
    assert recorder.on_gc not in gc.callbacks
    layer = next(s for s in recorder.spans if s.name == "layer")
    collections = [s for s in recorder.spans if s.name == spans.GC_SPAN]
    assert collections
    for span in collections:
        assert recorder.spans[span.parent] is layer and span.op == 3
        assert layer.start <= span.start <= span.end <= layer.end
    own = spans.self_times(recorder.spans)
    assert own[recorder.spans.index(layer)] < layer.duration


def test_every_table_binding_is_wrapped_then_fully_restored():
    import repro.framework  # noqa: F401  (before repro.storage)

    rows = [(module, path) for module, path, *_ in spans.WRAP_TABLE]
    before = [spans._resolve(*row)[2] for row in rows]
    assert not any(spans.is_wrapped(*row) for row in rows)
    with pytest.raises(RuntimeError):
        with spans.tracing(spans.SpanRecorder()):
            assert all(spans.is_wrapped(*row) for row in rows)
            raise RuntimeError("a failing traced pass must still restore")
    after = [spans._resolve(*row)[2] for row in rows]
    assert all(a is b for a, b in zip(before, after))


def test_wrappers_restored_after_a_traced_run(smoke_result):
    smoke_result("store-write", trace=True)
    assert not any(spans.is_wrapped(module, path)
                   for module, path, *_ in spans.WRAP_TABLE)


def test_classmethod_bindings_keep_their_kind():
    import repro.framework  # noqa: F401
    from repro.storage.store import ArtifactStore

    with spans.tracing(spans.SpanRecorder()):
        assert isinstance(vars(ArtifactStore)["open"], classmethod)
    assert isinstance(vars(ArtifactStore)["open"], classmethod)
