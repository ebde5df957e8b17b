"""Figure 10: public path length per country and SIM configuration,
traceroutes to Google and Facebook."""

from __future__ import annotations

from typing import Dict

from repro.analysis.paths import path_length_series
from repro.analysis.stats import boxplot_summary
from repro.experiments import common


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    result: Dict = {}
    for target in ("Google", "Facebook"):
        series = path_length_series(dataset.traceroutes_to(target), segment="public")
        result[target] = {
            key: boxplot_summary(values) for key, values in sorted(series.items())
        }
    return result


def format_result(result: Dict) -> str:
    lines = []
    for target, series in result.items():
        lines.append(f"-- public path length to {target} --")
        lines.append(f"{'Country':8} {'Config':10} {'q1':>5} {'med':>5} {'q3':>5}")
        for (country, config), summary in series.items():
            lines.append(
                f"{country:8} {config:10} {summary.q1:>5.1f} "
                f"{summary.median:>5.1f} {summary.q3:>5.1f}"
            )
    return "\n".join(lines)
