"""Headline numbers quoted across the abstract and Section 5.1.

Latency inflation of HR (+621%) and IHBO (+64%) over native; share of
measurements above 150 ms per SIM kind; the roaming speed-category
split; and the DoH/DNS observations.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import (
    high_latency_share,
    latency_inflation_by_architecture,
)
from repro.cellular import SIMKind
from repro.cellular.roaming import RoamingArchitecture
from repro.experiments import common
from repro.worlds import paperdata as pd


def run(scale: float = common.DEFAULT_SCALE, seed: int = common.DEFAULT_SEED) -> Dict:
    dataset = common.get_device_dataset(scale, seed)

    # "Latency measurements" in the paper's sense: every RTT observation —
    # speedtest pings and traceroute end-to-end RTTs alike.
    observations: List = [
        (r.context, r.latency_ms) for r in dataset.speedtests
    ]
    observations.extend(
        (r.context, r.final_rtt_ms)
        for r in dataset.traceroutes
        if r.final_rtt_ms is not None
    )

    by_arch: Dict[RoamingArchitecture, List[float]] = {}
    esim_roaming: List[float] = []
    sim_all: List[float] = []
    for ctx, latency in observations:
        if ctx.sim_kind is SIMKind.ESIM:
            by_arch.setdefault(ctx.architecture, []).append(latency)
            if ctx.architecture is not RoamingArchitecture.NATIVE:
                esim_roaming.append(latency)
        else:
            sim_all.append(latency)

    inflation = latency_inflation_by_architecture(by_arch)
    return {
        "hr_inflation": inflation.get(RoamingArchitecture.HR),
        "ihbo_inflation": inflation.get(RoamingArchitecture.IHBO),
        "esim_roaming_high_latency_share": high_latency_share(esim_roaming),
        "sim_high_latency_share": high_latency_share(sim_all),
        "paper": {
            "hr_inflation": pd.EXPECTED_HR_INFLATION,
            "ihbo_inflation": pd.EXPECTED_IHBO_INFLATION,
            "esim_high_latency_share": pd.EXPECTED_ESIM_HIGH_LATENCY_SHARE,
            "sim_high_latency_share": pd.EXPECTED_SIM_HIGH_LATENCY_SHARE,
        },
    }


def format_result(result: Dict) -> str:
    paper = result["paper"]

    def fmt(value) -> str:
        # A partial (fault-degraded) series can miss an architecture.
        return f"+{value:.0%}" if value is not None else "n/a"

    return "\n".join(
        [
            f"HR latency inflation vs native:   {fmt(result['hr_inflation'])} "
            f"(paper +{paper['hr_inflation']:.0%})",
            f"IHBO latency inflation vs native: {fmt(result['ihbo_inflation'])} "
            f"(paper +{paper['ihbo_inflation']:.0%})",
            f"roaming-eSIM measurements >150 ms: "
            f"{result['esim_roaming_high_latency_share']:.1%} "
            f"(paper {paper['esim_high_latency_share']:.1%}; our campaign mix is "
            f"HR-heavier, see EXPERIMENTS.md)",
            f"physical-SIM measurements >150 ms: "
            f"{result['sim_high_latency_share']:.1%} "
            f"(paper {paper['sim_high_latency_share']:.1%})",
        ]
    )
