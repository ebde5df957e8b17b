"""Figure 14: (a) Cloudflare CDN download time and (b) DNS lookup time
per country and configuration."""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.analysis.stats import boxplot_summary
from repro.cellular.roaming import RoamingArchitecture
from repro.experiments import common
from repro.worlds import paperdata as pd


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)

    # Insertion-ordered (country, config) series: means_by_arch below
    # concatenates across keys, so first-appearance order is preserved
    # exactly like the historic full-scan loops.
    cdn: Dict[Tuple[str, str], List[float]] = {}
    for record in dataset.select("cdn").where(provider="Cloudflare"):
        key = (record.context.country_iso3, record.context.config_label)
        cdn.setdefault(key, []).append(record.total_ms)

    dns: Dict[Tuple[str, str], List[float]] = {}
    for record in dataset.select("dns"):
        key = (record.context.country_iso3, record.context.config_label)
        dns.setdefault(key, []).append(record.lookup_ms)
    ihbo = dataset.select("dns").where(architecture=RoamingArchitecture.IHBO)
    ihbo_probes = ihbo.count()
    same_country = ihbo.filter(
        lambda r: r.resolver_country == r.context.pgw_country
    ).count()

    def means_by_arch(records_by_key):
        by_arch: Dict[str, List[float]] = {}
        for (country, config), values in records_by_key.items():
            by_arch.setdefault(config, []).extend(values)
        return {cfg: statistics.fmean(vals) for cfg, vals in by_arch.items()}

    return {
        "cdn": {k: boxplot_summary(v) for k, v in sorted(cdn.items())},
        "dns": {k: boxplot_summary(v) for k, v in sorted(dns.items())},
        "cdn_mean_by_config": means_by_arch(cdn),
        "dns_same_country_share": same_country / ihbo_probes if ihbo_probes else None,
    }


def format_result(result: Dict) -> str:
    lines = ["-- (a) Cloudflare jquery.min.js download time (ms) --"]
    lines.append(f"{'Country':8} {'Config':10} {'mean':>8} {'med':>8}")
    for (country, config), summary in result["cdn"].items():
        lines.append(
            f"{country:8} {config:10} {summary.mean:>8.0f} {summary.median:>8.0f}"
        )
    lines.append("-- (b) DNS lookup time (ms) --")
    for (country, config), summary in result["dns"].items():
        lines.append(
            f"{country:8} {config:10} {summary.mean:>8.0f} {summary.median:>8.0f}"
        )
    means = result["cdn_mean_by_config"]
    lines.append(
        "Cloudflare mean by config: "
        + ", ".join(f"{cfg} {mean:.0f} ms" for cfg, mean in sorted(means.items()))
        + "  (paper: IHBO 1316, HR 3203/1781, native 306/514)"
    )
    share = result["dns_same_country_share"]
    if share is not None:
        lines.append(
            f"IHBO DNS resolver in PGW country: {share:.0%} "
            f"(paper {pd.EXPECTED_DNS_SAME_COUNTRY_SHARE:.0%})"
        )
    return "\n".join(lines)
