"""Figure 19: plan size vs price per eSIM and b-MNO.

Airalo plans (<= 5 GB) for countries sharing a b-MNO: same
infrastructure, different prices, and a gap that widens with size.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments import common
from repro.market import AIRALO
from repro.worlds import paperdata as pd


def run() -> Dict:
    curves = common.get_listing(common.SNAPSHOT_DAY).size_price_curves(
        common.SNAPSHOT_DAY, AIRALO
    )

    groups: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for spec in pd.ESIM_OFFERINGS:
        curve = curves.get(spec.country_iso3)
        if curve:
            groups.setdefault(spec.b_mno, {})[spec.country_iso3] = curve

    # The paper's example: Play in Georgia vs Spain.
    geo = dict(groups.get("Play", {}).get("GEO", []))
    esp = dict(groups.get("Play", {}).get("ESP", []))
    shared = sorted(set(geo) & set(esp))
    gap_ratio = None
    if shared:
        gap_ratio = geo[shared[-1]] / esp[shared[-1]]
    return {"groups": groups, "geo_vs_esp_price_ratio": gap_ratio}


def format_result(result: Dict) -> str:
    lines = []
    for b_mno, curves in sorted(result["groups"].items()):
        lines.append(f"-- b-MNO: {b_mno} --")
        for country, curve in sorted(curves.items()):
            points = "  ".join(f"{size:g}GB=${price:.2f}" for size, price in curve)
            lines.append(f"  {country:5} {points}")
    ratio = result["geo_vs_esp_price_ratio"]
    if ratio is not None:
        lines.append(
            f"Play eSIM: Georgia costs {ratio:.2f}x Spain at the largest shared size "
            "(paper: up to ~2x)"
        )
    return "\n".join(lines)
