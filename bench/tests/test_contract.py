import json
import re

import pytest

from bench.contract import Result, declared, load_spec
from bench.workloads import E2E_METRICS, WORKLOADS, e2e_metrics

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_emit_exactly_the_declared_end_to_end_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(declared(SPEC, traced=False)) == list(E2E_METRICS)
    assert list(e2e_metrics(1.0, [0.1, 0.2], 100.0)) == list(E2E_METRICS)


def test_tail_is_the_p90_only_where_ten_samples_lie_beyond_it():
    few = e2e_metrics(1.0, [1.0, 2.0, 9.0], 100.0)
    assert few["latency_tail_s"] == few["latency_p50_s"] == 2.0
    many = e2e_metrics(1.0, [float(i) for i in range(1, 101)], 100.0)
    assert (many["latency_p50_s"], many["latency_tail_s"]) == (50.0, 90.0)


def test_result_line_has_the_contract_shape():
    metrics = e2e_metrics(1.0, [0.1, 0.2, 0.3], 100.0)
    line = json.loads(Result(True, 3, 0, metrics).line(SPEC, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["peak_rss_mb"] == {"value": 100.0, "unit": "MB"}


@pytest.mark.parametrize("change", ["drop", "add"])
def test_result_line_rejects_undeclared_or_missing_metrics(change):
    metrics = e2e_metrics(1.0, [0.1], 100.0)
    if change == "drop":
        metrics.pop("setup_s")
    else:
        metrics["made_up_s"] = 1.0
    with pytest.raises(ValueError):
        Result(True, 1, 0, metrics).line(SPEC, traced=False)
