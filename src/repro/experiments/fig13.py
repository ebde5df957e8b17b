"""Figure 13: download/upload speeds.

(a) web-campaign fast.com downloads per country (grouped by network
configuration and b-MNO), (b) device-campaign downlink and (c) uplink,
per country and configuration, CQI-filtered like the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.metrics import speed_categories
from repro.analysis.stats import boxplot_summary, welch_ttest
from repro.cellular import SIMKind
from repro.experiments import common

ROAMING_DEVICE_COUNTRIES = ("GEO", "DEU", "PAK", "QAT", "SAU", "ESP", "ARE", "GBR")


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    device = common.get_device_dataset(scale, seed)
    web = common.get_web_dataset(seed)

    web_summary = {
        country: boxplot_summary([r.download_mbps for r in records])
        for country, records in web.select("web").group_by("country").items()
    }

    down: Dict[Tuple[str, str], List[float]] = {}
    up: Dict[Tuple[str, str], List[float]] = {}
    for record in device.speedtests:
        if not record.passes_cqi_filter:
            continue
        key = (record.context.country_iso3, record.context.config_label)
        down.setdefault(key, []).append(record.download_mbps)
        up.setdefault(key, []).append(record.upload_mbps)

    def category_shares(sim_kind: SIMKind) -> Dict[str, float]:
        """Country-balanced speed-category shares.

        Per-country category fractions averaged with equal weight, so
        Germany's month-long deployment doesn't drown out the one-day
        ones — this is how the paper's 78.8%/31.9% split reads.
        """
        per_country = []
        by_kind = device.select("speedtest").where(sim_kind=sim_kind).filter(
            lambda r: r.passes_cqi_filter
        )
        for country in ROAMING_DEVICE_COUNTRIES:
            records = by_kind.where(country=country).records()
            if records:
                per_country.append(speed_categories(records))
        keys = ("slow", "medium", "fast")
        if not per_country:
            # A fault-degraded campaign can lose every series of one kind.
            return {key: 0.0 for key in keys}
        return {
            key: sum(shares[key] for shares in per_country) / len(per_country)
            for key in keys
        }

    # Per-country uplink significance (PAK/GEO are the throttled ones).
    uplink_p: Dict[str, float] = {}
    for country in ROAMING_DEVICE_COUNTRIES:
        sim_up = up.get((country, "SIM"), [])
        esim_ups = [v for (c, cfg), vals in up.items()
                    if c == country and cfg != "SIM" for v in vals]
        if len(sim_up) >= 2 and len(esim_ups) >= 2:
            _, p = welch_ttest(sim_up, esim_ups)
            uplink_p[country] = p

    total_filtered = sum(len(v) for v in down.values())
    total_all = len(device.speedtests)
    return {
        "web_download": web_summary,
        "device_down": {k: boxplot_summary(v) for k, v in sorted(down.items())},
        "device_up": {k: boxplot_summary(v) for k, v in sorted(up.items())},
        "esim_categories": category_shares(SIMKind.ESIM),
        "sim_categories": category_shares(SIMKind.PHYSICAL),
        "cqi_retention": total_filtered / total_all if total_all else None,
        "uplink_p_values": uplink_p,
    }


def format_result(result: Dict) -> str:
    lines = ["-- (a) web campaign fast.com download (Mbps) --"]
    lines.append(f"{'Country':8} {'med':>7} {'q1':>7} {'q3':>7}")
    for country, summary in result["web_download"].items():
        lines.append(
            f"{country:8} {summary.median:>7.1f} {summary.q1:>7.1f} {summary.q3:>7.1f}"
        )
    for panel, label in (("device_down", "(b) downlink"), ("device_up", "(c) uplink")):
        lines.append(f"-- {label} (Mbps, CQI>=7) --")
        lines.append(f"{'Country':8} {'Config':10} {'mean':>7} {'med':>7}")
        for (country, config), summary in result[panel].items():
            lines.append(
                f"{country:8} {config:10} {summary.mean:>7.1f} {summary.median:>7.1f}"
            )
    esim = result["esim_categories"]
    sim = result["sim_categories"]
    lines.append(
        f"roaming eSIM: slow {esim['slow']:.1%} fast {esim['fast']:.1%} "
        f"(paper 78.8% / 4.5%)"
    )
    lines.append(
        f"physical SIM: slow {sim['slow']:.1%} fast {sim['fast']:.1%} "
        f"(paper 31.9% / 48%)"
    )
    retention = result["cqi_retention"]
    lines.append(
        "CQI filter retention: "
        + (f"{retention:.0%}" if retention is not None else "n/a")
        + " (paper 80%)"
    )
    return "\n".join(lines)
