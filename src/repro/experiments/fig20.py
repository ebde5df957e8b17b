"""Figure 20: jQuery download time from the four remaining CDN
providers (Google CDN, Microsoft Ajax, jQuery, jsDelivr)."""

from __future__ import annotations

from typing import Dict

from repro.analysis.stats import boxplot_summary
from repro.experiments import common

PROVIDERS = ("Google CDN", "Microsoft Ajax", "jQuery", "jsDelivr")


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    result: Dict = {}
    for provider in PROVIDERS:
        groups = dataset.select("cdn").where(provider=provider).group_by(
            "country", "config"
        )
        result[provider] = {
            key: boxplot_summary([r.total_ms for r in records])
            for key, records in groups.items()
        }
    return result


def format_result(result: Dict) -> str:
    lines = []
    for provider, series in result.items():
        lines.append(f"-- {provider} download time (ms) --")
        lines.append(f"{'Country':8} {'Config':10} {'mean':>8} {'med':>8}")
        for (country, config), summary in series.items():
            lines.append(
                f"{country:8} {config:10} {summary.mean:>8.0f} {summary.median:>8.0f}"
            )
    return "\n".join(lines)
