"""Same seed, same inputs and same exact metrics; another seed, other
inputs -- and the correctness gate really gates."""

import pytest

from benchmarks.ledger.metrics import EXACT_NAMES
from benchmarks.ledger.run import WORKLOAD_NAMES, final_line


def _prepared(name: str, seed: int):
    from benchmarks.ledger.workloads import WORKLOADS

    # Full-size inputs: a smoke pool of two or three operations has too
    # few orders for two seeds to be sure to differ.
    workload = WORKLOADS[name](seed=seed, smoke=False)
    if name == "gateway-2shard":
        # The digest needs the trace only, not the single-engine reference.
        workload._prepare_trace()
    else:
        workload.prepare()
    return workload


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_inputs_digest_follows_the_seed(name):
    first, again, other = (_prepared(name, 5), _prepared(name, 5),
                           _prepared(name, 6))
    assert first.inputs_digest == again.inputs_digest
    assert first.inputs_digest != other.inputs_digest
    assert len(first.inputs_digest) == 64


@pytest.mark.parametrize("name", ["solo-pruned-ssim", "batch-zipf-store"])
def test_exact_metrics_repeat_bit_for_bit(smoke_result, name):
    for trace in (False, True):
        first = smoke_result(name, seed=2, trace=trace, repeat=0)
        again = smoke_result(name, seed=2, trace=trace, repeat=1)
        assert first is not again
        assert first["exact_repeat_ok"] and again["exact_repeat_ok"]
        assert first["inputs_digest"] == again["inputs_digest"]
        assert first["answers_digest"] == again["answers_digest"]
        one, two = (final_line(r)["metrics"] for r in (first, again))
        exact = EXACT_NAMES & set(one)
        assert exact
        for metric in sorted(exact):
            assert one[metric]["value"] == two[metric]["value"], metric


def test_a_wrong_answer_fails_the_run(monkeypatch):
    """Break the oracle's view of one query: the run must count the
    operation as failed, report ``correct: false`` and exit non-zero."""
    from benchmarks.ledger import run, workloads

    real = workloads.expected_match_balls
    calls = []

    def skewed(query, balls):
        calls.append(1)
        found = real(query, balls)
        return found | {-1} if len(calls) == 1 else found

    monkeypatch.setattr(workloads, "expected_match_balls", skewed)
    code = run.main(["--workload", "solo-eval-hom", "--smoke"])
    assert code == 1


def test_a_raising_step_counts_as_failed():
    from benchmarks.ledger.harness import StepResult, _guarded

    def boom():
        raise RuntimeError("step blew up")

    result = _guarded("boom", boom)
    assert isinstance(result, StepResult)
    assert result.failed == 1 and result.attempted == 1
    assert result.samples == []
