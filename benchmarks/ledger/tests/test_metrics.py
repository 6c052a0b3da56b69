"""Metric declarations: names, units, the percentile rule, and the
agreement between the harness, its output and BENCHMARK.json."""

import json
import re
from pathlib import Path

import pytest

from benchmarks.ledger import metrics
from benchmarks.ledger.run import WORKLOAD_NAMES, final_line

REPO_ROOT = Path(__file__).resolve().parents[3]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def manifest():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("samples, pct", [
    (1, 50), (39, 50), (40, 75), (99, 75), (100, 90), (5000, 90)])
def test_tail_percentile_rule(samples, pct):
    assert metrics.tail_percentile(samples) == pct
    # The guide's rule: at least ten samples lie beyond a reported tail.
    if pct > 50:
        assert samples * (100 - pct) / 100 >= 10


def test_pass_counts_follow_the_tail_rule():
    from benchmarks.ledger.workloads import WORKLOADS

    for pct, needed in metrics.TAIL_SAMPLES.items():
        assert metrics.tail_percentile(max(needed, 1)) == pct
        if needed:
            assert metrics.tail_percentile(needed - 1) < pct
    assert ({cls.tail for cls in WORKLOADS.values()}
            <= set(metrics.TAIL_SAMPLES))


def test_percentile_averages_the_ten_point_window():
    values = [float(v) for v in range(1, 101)]
    # ranks 45..55, 70..80, 85..95: symmetric windows, so the centre.
    assert metrics.percentile(values, 50) == 50.0
    assert metrics.percentile(values, 75) == 75.0
    assert metrics.percentile(values, 90) == 90.0
    # 40 samples, p75: ranks 28..32.
    assert metrics.percentile([float(v) for v in range(1, 41)], 75) == 30.0
    # Small samples degrade to the plain median.
    assert metrics.percentile([3.0], 90) == 3.0
    assert metrics.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    # One outlier beyond the window does not move the estimate.
    assert metrics.percentile(values[:-1] + [1e9], 50) == 50.0


def test_quartiles_handle_one_value():
    assert metrics.quartiles([4.0]) == {"q1": 4.0, "median": 4.0, "q3": 4.0}
    assert metrics.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])["median"] == 3.0


def test_names_and_units_are_well_formed_and_unique():
    names = metrics.END_TO_END_NAMES + metrics.PER_LAYER_NAMES
    assert len(set(names)) == len(names)
    for name in names + WORKLOAD_NAMES:
        assert NAME.fullmatch(name), name
    for unit in metrics.UNIT_OF.values():
        assert UNIT.fullmatch(unit), unit
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert metric.better in ("lower", "higher")


def test_manifest_repeats_the_declarations(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    setup = manifest["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["unit"] == "s"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert 1 <= len(manifest["per_layer"]) <= 128


def test_manifest_workloads_match_the_harness(manifest):
    from benchmarks.ledger.run import DEFAULT_SECONDS
    from benchmarks.ledger.workloads import WORKLOADS

    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert manifest["run_seconds"] == DEFAULT_SECONDS


@pytest.mark.parametrize("workload", ["solo-pruned-ssim", "store-write"])
def test_printed_names_equal_the_manifest(manifest, smoke_result, workload):
    plain = final_line(smoke_result(workload, trace=False))
    traced = final_line(smoke_result(workload, trace=True))
    assert set(plain) == set(traced) == {"correct", "attempted", "failed",
                                         "metrics"}
    assert list(plain["metrics"]) == [m["name"]
                                      for m in manifest["end_to_end"]]
    assert set(traced["metrics"]) == {m["name"]
                                      for m in manifest["per_layer"]}
    units = {m["name"]: m["unit"]
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    for line in (plain, traced):
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        for name, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == units[name]
            assert isinstance(entry["value"], (int, float))
    assert all(entry["value"] != 0 for entry in plain["metrics"].values())
