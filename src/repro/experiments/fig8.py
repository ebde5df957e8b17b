"""Figure 8: CDF of RTT towards Singtel PGWs from the HR eSIMs in
Pakistan and the UAE.

Same path length (the Singtel core), yet the UAE corridor is faster —
the peering-quality effect the paper highlights.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.analysis.paths import pgw_rtt_values
from repro.analysis.stats import empirical_cdf
from repro.cellular import SIMKind
from repro.experiments import common


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    result = {}
    for country in ("PAK", "ARE"):
        records = [
            r
            for target in ("Google", "Facebook", "YouTube")
            for r in dataset.traceroutes_to(target, country=country, sim_kind=SIMKind.ESIM)
        ]
        values = pgw_rtt_values(records, pgw_provider="Singtel")
        result[country] = {
            "cdf": empirical_cdf(values),
            "median_ms": statistics.median(values) if values else None,
            "samples": len(values),
        }
    return result


def format_result(result: Dict) -> str:
    from repro.analysis.asciiplot import ascii_cdf

    lines = ["RTT to Singtel PGWs (HR eSIMs)"]
    for country, data in result.items():
        lines.append(
            f"{country}: n={data['samples']}, median {data['median_ms']:.0f} ms"
        )
    if result["ARE"]["median_ms"] and result["PAK"]["median_ms"]:
        ratio = result["PAK"]["median_ms"] / result["ARE"]["median_ms"]
        lines.append(f"PAK/ARE median ratio: {ratio:.2f} (paper: PAK slower)")
    series = {c: d["cdf"] for c, d in result.items() if d["cdf"][0]}
    if series:
        lines.append(ascii_cdf(series))
    return "\n".join(lines)
