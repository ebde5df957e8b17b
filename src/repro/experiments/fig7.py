"""Figure 7: private path length per country (traceroutes to Google)."""

from __future__ import annotations

from typing import Dict

from repro.analysis.paths import path_length_series
from repro.analysis.stats import boxplot_summary
from repro.experiments import common


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    records = dataset.traceroutes_to("Google")
    series = path_length_series(records, segment="private")
    return {
        key: boxplot_summary(values) for key, values in sorted(series.items())
    }


def format_result(result: Dict) -> str:
    lines = [f"{'Country':8} {'Config':10} {'min':>4} {'q1':>5} {'med':>5} {'q3':>5} {'max':>4}"]
    for (country, config), summary in result.items():
        lines.append(
            f"{country:8} {config:10} {summary.minimum:>4.0f} {summary.q1:>5.1f} "
            f"{summary.median:>5.1f} {summary.q3:>5.1f} {summary.maximum:>4.0f}"
        )
    return "\n".join(lines)
