"""``python -m bench compare PARENT CHANGE``: is a change better, no worse, or worse?

Both sides are result files written by ``python -m bench run --out``
(or directories of them), from runs alternating between the parent
commit and the change. The i-th untraced run of a workload on one side
pairs with the i-th on the other. For each (workload, end-to-end metric):

* **improved**: the change wins at least 9 of 10 pairs (ties count for
  neither), over at least 10 pairs, and the medians differ by more than
  the parent's inter-quartile distance;
* **unresolved**: the parent's own spread is wider than the metric's
  bound and the change does not read better than the parent on every run;
* **worse**: the change's median is worse than the parent's by more than
  the bound ``BENCHMARK.json`` fixes;
* **no worse**: otherwise.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Sequence, Tuple

from bench.stats import quartiles, spread

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: pathlib.Path) -> List[Dict[str, Any]]:
    """Untraced result lines from a results file or every ``*.jsonl`` under a directory."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                run = json.loads(line)
                if not run["traced"]:
                    runs.append(run)
    return runs


def series(runs: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs if run["workload"] == workload and metric in run["metrics"]
    ]


def judge(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, int, int]:
    """``(verdict, pairs won by the change, pairs)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change is better
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    q1, parent_median, q3 = quartiles(parent)
    gain = sign * (parent_median - quartiles(change)[1])
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved", wins, len(pairs)
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread(parent) > bound and not every_run_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * abs(parent_median):
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def compare(parent_path: pathlib.Path, change_path: pathlib.Path, spec: Dict[str, Any]) -> Tuple[str, bool]:
    """The report text and whether any (workload, metric) got worse."""
    parent, change = load_runs(parent_path), load_runs(change_path)
    workloads = [w["name"] for w in spec["workloads"]]
    lines: List[str] = []
    rows: List[str] = []
    any_worse = False
    for workload in workloads:
        verdicts = []
        lines.append(workload)
        for entry in spec["end_to_end"]:
            name = entry["name"]
            p, c = series(parent, workload, name), series(change, workload, name)
            if not p or not c:
                verdicts.append(f"{name}: no data")
                continue
            verdict, wins, pairs = judge(p, c, entry["better"], entry["bound"])
            any_worse = any_worse or verdict == "worse"
            verdicts.append(f"{name}: {verdict}")
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            lines.append(
                f"  {name:15} parent {pm:.6g} [{p1:.6g}, {p3:.6g}] spread {spread(p):.1%}"
                f" | change {cm:.6g} [{c1:.6g}, {c3:.6g}] spread {spread(c):.1%}"
                f" | {(cm - pm) / pm if pm else 0.0:+.1%} (bound {entry['bound']:.0%})"
                f" | wins {wins}/{pairs} | {verdict}"
            )
        rows.append(f"{workload:12} " + " | ".join(verdicts))
    return "\n".join(lines + [""] + rows), any_worse
