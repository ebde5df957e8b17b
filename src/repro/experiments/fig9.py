"""Figure 9: CDF of PGW RTT from IHBO eSIMs in Georgia, Germany and
Spain, split by PGW provider (OVH SAS vs Packet Host)."""

from __future__ import annotations

import statistics
from typing import Dict

from repro.analysis.paths import pgw_rtt_values
from repro.analysis.stats import empirical_cdf
from repro.cellular import SIMKind
from repro.experiments import common

COUNTRIES = ("GEO", "DEU", "ESP")
PROVIDERS = ("OVH SAS", "Packet Host")


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    result: Dict = {}
    for country in COUNTRIES:
        records = [
            r
            for target in ("Google", "Facebook", "YouTube")
            for r in dataset.traceroutes_to(target, country=country, sim_kind=SIMKind.ESIM)
        ]
        per_provider = {}
        for provider in PROVIDERS:
            values = pgw_rtt_values(records, pgw_provider=provider)
            per_provider[provider] = {
                "cdf": empirical_cdf(values) if values else ([], []),
                "median_ms": statistics.median(values) if values else None,
                "samples": len(values),
            }
        result[country] = per_provider
    return result


def format_result(result: Dict) -> str:
    lines = ["PGW RTT by provider (IHBO eSIMs); OS: OVH SAS, PH: Packet Host"]
    for country, per_provider in result.items():
        cells = []
        for provider, data in per_provider.items():
            short = "OS" if provider.startswith("OVH") else "PH"
            median = data["median_ms"]
            text = f"{short}: n={data['samples']}"
            if median is not None:
                text += f", med {median:.0f} ms"
            cells.append(text)
        lines.append(f"{country:5} " + " | ".join(cells))
    return "\n".join(lines)
