"""Extension X5: unit economics of Airalo's offerings.

Section 6 conjectures that same-b-MNO price gaps "likely stem from the
distinct roaming agreements between b-MNO and v-MNO". With the wholesale
layer modelled, this experiment decomposes each offering's retail $/GB
into corridor cost and aggregator margin and verifies the conjecture:
Play's Georgia corridor costs more than its Spain corridor, and that
difference, not the markup, drives the Figure 19 gap.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments import common
from repro.market.wholesale import WholesaleMarket, margin_summary
from repro.worlds import paperdata as pd


def run() -> Dict:
    retail = common.get_listing(common.SNAPSHOT_DAY).median_usd_per_gb_by_country(
        common.SNAPSHOT_DAY, provider="Airalo"
    )

    offerings = [
        (spec.country_iso3, spec.b_mno, spec.v_mno)
        for spec in pd.ESIM_OFFERINGS
    ]
    market = WholesaleMarket()
    rows = market.economics_for(offerings, retail)
    summary = margin_summary(rows)

    by_country = {row.country_iso3: row for row in rows}
    geo = by_country.get("GEO")
    esp = by_country.get("ESP")
    decomposition = None
    if geo and esp:
        retail_gap = geo.retail_usd_per_gb - esp.retail_usd_per_gb
        wholesale_gap = geo.wholesale_usd_per_gb - esp.wholesale_usd_per_gb
        decomposition = {
            "retail_gap": retail_gap,
            "wholesale_gap": wholesale_gap,
            "wholesale_share_of_gap": (
                wholesale_gap / retail_gap if retail_gap else None
            ),
        }
    return {"rows": rows, "summary": summary, "geo_vs_esp": decomposition}


def format_result(result: Dict) -> str:
    lines = [
        f"{'Country':8} {'b-MNO':16} {'retail':>8} {'wholesale':>10} "
        f"{'margin':>8} {'share':>7}"
    ]
    for row in result["rows"]:
        lines.append(
            f"{row.country_iso3:8} {row.b_mno:16} "
            f"${row.retail_usd_per_gb:>6.2f} ${row.wholesale_usd_per_gb:>8.2f} "
            f"${row.margin_usd_per_gb:>6.2f} {row.margin_share:>7.0%}"
        )
    summary = result["summary"]
    lines.append(
        f"margins across {summary['count']:.0f} offerings: median "
        f"{summary['median_margin_share']:.0%} "
        f"(range {summary['min_margin_share']:.0%}-"
        f"{summary['max_margin_share']:.0%})"
    )
    decomposition = result["geo_vs_esp"]
    if decomposition:
        lines.append(
            f"Play GEO vs ESP retail gap ${decomposition['retail_gap']:.2f}/GB, "
            f"of which wholesale ${decomposition['wholesale_gap']:.2f} "
            f"({decomposition['wholesale_share_of_gap']:.0%}) — the 'distinct "
            "roaming agreements' of Section 6"
        )
    return "\n".join(lines)
