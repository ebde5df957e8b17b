"""Figure 12: CDFs of the private share of end-to-end latency.

(a) SIM vs native eSIMs, (b) SIM vs HR eSIMs, (c) the six IHBO-country
datasets — the GTP tunnel's contribution to total RTT.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.paths import private_share_values
from repro.analysis.stats import empirical_cdf, percent_above
from repro.cellular import SIMKind
from repro.experiments import common

NATIVE_COUNTRIES = ("KOR", "THA")
HR_COUNTRIES = ("PAK", "ARE")
IHBO_COUNTRIES = ("GEO", "DEU", "QAT", "SAU", "ESP", "GBR")


def _records(dataset, countries):
    return [
        r
        for target in ("Google", "Facebook", "YouTube")
        for country in countries
        for r in dataset.traceroutes_to(target, country=country)
    ]


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)
    panels = {}
    for label, countries in (
        ("native", NATIVE_COUNTRIES),
        ("hr", HR_COUNTRIES),
        ("ihbo", IHBO_COUNTRIES),
    ):
        records = _records(dataset, countries)
        sim = private_share_values(records, sim_kind=SIMKind.PHYSICAL)
        esim = private_share_values(records, sim_kind=SIMKind.ESIM)
        panels[label] = {
            "sim_cdf": empirical_cdf(sim) if sim else ([], []),
            "esim_cdf": empirical_cdf(esim) if esim else ([], []),
            "sim_share_above_98pct": percent_above(sim, 0.98) if sim else None,
            "esim_share_above_98pct": percent_above(esim, 0.98) if esim else None,
        }
    return panels


def format_result(result: Dict) -> str:
    lines = ["share of traceroutes whose private latency exceeds 98% of total:"]
    for label, panel in result.items():
        sim = panel["sim_share_above_98pct"]
        esim = panel["esim_share_above_98pct"]
        lines.append(
            f"{label:7} SIM {sim:6.1%}   eSIM {esim:6.1%}"
        )
    lines.append("paper: >=80% of HR eSIM runs above 98%, <10% for SIMs")
    from repro.analysis.asciiplot import ascii_cdf

    series = {
        f"eSIM/{label}": panel["esim_cdf"]
        for label, panel in result.items()
        if panel["esim_cdf"][0]
    }
    if series:
        lines.append("private-share CDFs (x = share of RTT that is private):")
        lines.append(ascii_cdf(series))
    return "\n".join(lines)
