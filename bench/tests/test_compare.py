import json

import pytest

from bench.compare import compare, judge

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]


def test_improved_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_spread():
    change = [x - 1.0 for x in PARENT]
    assert judge(PARENT, change, "lower", 0.1) == ("improved", 10, 10)
    # Eight wins of ten is not enough, however large the gap.
    eight = change[:8] + [11.0, 11.0]
    assert judge(PARENT, eight, "lower", 0.1)[0] == "no worse"
    # Too few pairs to claim anything.
    assert judge(PARENT[:5], change[:5], "lower", 0.1)[0] == "no worse"


def test_higher_is_better_flips_the_direction():
    assert judge(PARENT, [x + 1.0 for x in PARENT], "higher", 0.1)[0] == "improved"
    assert judge(PARENT, [x - 2.0 for x in PARENT], "higher", 0.1)[0] == "worse"


@pytest.mark.parametrize("shift, verdict", [(0.5, "no worse"), (1.5, "worse")])
def test_worse_means_beyond_the_bound(shift, verdict):
    assert judge(PARENT, [x + shift for x in PARENT], "lower", 0.1)[0] == verdict


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert judge(noisy, [x + 0.2 for x in noisy], "lower", 0.1)[0] == "unresolved"
    # ... unless every change run reads better than every parent run.
    assert judge(noisy, [1.0] * 10, "lower", 0.1)[0] == "improved"


def _write(path, values):
    with open(path, "w") as handle:
        for value in values:
            metrics = {name: {"value": value, "unit": "s"} for name in ("setup_s", "latency_p50_s")}
            handle.write(json.dumps({"workload": "cli-startup", "traced": False, "metrics": metrics}) + "\n")


def test_compare_prints_one_row_per_workload(tmp_path):
    spec = {
        "workloads": [{"name": "cli-startup"}],
        "end_to_end": [
            {"name": "setup_s", "better": "lower", "bound": 0.25},
            {"name": "latency_p50_s", "better": "lower", "bound": 0.1},
        ],
    }
    _write(tmp_path / "parent.jsonl", PARENT)
    _write(tmp_path / "change.jsonl", [x + 2.0 for x in PARENT])
    text, any_worse = compare(tmp_path / "parent.jsonl", tmp_path / "change.jsonl", spec)
    assert any_worse
    assert text.splitlines()[-1] == "cli-startup  setup_s: no worse | latency_p50_s: worse"
