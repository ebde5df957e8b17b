"""Figure 18: median Airalo eSIM cost per country ($/GB), decile-coded.

The map's data: one median per country plus the decile bounds used for
the colour scale, with Central America called out as the expensive band.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.experiments import common
from repro.market import decile_bounds


def run() -> Dict:
    countries = common.get_countries()
    listing = common.get_listing(common.SNAPSHOT_DAY)
    per_country = listing.median_usd_per_gb_by_country(
        common.SNAPSHOT_DAY, provider="Airalo"
    )
    values = list(per_country.values())
    bounds = decile_bounds(values)

    central = [
        v for iso3, v in per_country.items()
        if countries.get(iso3).subregion == "Central America"
    ]
    return {
        "per_country": dict(sorted(per_country.items())),
        "decile_bounds": bounds,
        "world_median": statistics.median(values),
        "central_america_median": statistics.median(central) if central else None,
        "central_america_above_world": (
            all(v > statistics.median(values) for v in central) if central else None
        ),
    }


def format_result(result: Dict) -> str:
    bounds = result["decile_bounds"]
    lines = [
        f"world median: ${result['world_median']:.2f}/GB (paper $7.9)",
        f"decile bounds: lowest <= ${bounds[0]:.2f} ... highest > ${bounds[-1]:.2f} "
        f"(paper: $4.33 / $12.25)",
        f"Central America median: ${result['central_america_median']:.2f}/GB, "
        f"all above world median: {result['central_america_above_world']}",
    ]
    cheap = sorted(result["per_country"].items(), key=lambda kv: kv[1])[:5]
    pricey = sorted(result["per_country"].items(), key=lambda kv: -kv[1])[:5]
    lines.append("cheapest: " + ", ".join(f"{c} ${v:.2f}" for c, v in cheap))
    lines.append("priciest: " + ", ".join(f"{c} ${v:.2f}" for c, v in pricey))
    return "\n".join(lines)
