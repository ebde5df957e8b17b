"""Extension X2: dynamic PGW placement vs today's static IHBO.

The paper's conclusion: "achieving performant global connectivity will
likely require thick MNAs to evolve beyond today's static IHBO setups,
for example by leveraging PGW deployment that adapts dynamically to user
geography". This experiment quantifies that evolution in three steps:

1. today's static b-MNO-keyed assignment (the measured baseline),
2. nearest-PGW selection over the *existing* fleet,
3. a re-optimised fleet of the same size, placed by greedy k-median
   over the measured user geography.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import common
from repro.geo.coords import haversine_km
from repro.ipx.placement import DemandPoint, assignment, greedy_k_median, mean_weighted_distance_km
from repro.worlds import paperdata as pd

#: Hub cities a PGW could realistically be hosted in.
CANDIDATE_HOSTING_CITIES = [
    ("Amsterdam", "NLD"), ("London", "GBR"), ("Frankfurt", "DEU"),
    ("Paris", "FRA"), ("Madrid", "ESP"), ("Warsaw", "POL"),
    ("Istanbul", "TUR"), ("Dubai", "ARE"), ("Singapore", "SGP"),
    ("Hong Kong", "HKG"), ("Tokyo", "JPN"), ("Mumbai", "IND"),
    ("Ashburn", "USA"), ("Dallas", "USA"), ("Sao Paulo", "BRA"),
    ("Johannesburg", "ZAF"), ("Nairobi", "KEN"), ("Sydney", "AUS"),
]


def _ihbo_demands(world) -> List[DemandPoint]:
    """One demand point per IHBO eSIM country, weighted by campaign size."""
    weights = {e.country_iso3: sum(e.ookla) for e in pd.DEVICE_CAMPAIGN}
    demands = []
    for spec in pd.ESIM_OFFERINGS:
        if spec.architecture != "IHBO":
            continue
        city = world.cities.get(spec.user_city, spec.country_iso3)
        demands.append(
            DemandPoint(
                location=city.location,
                weight=float(weights.get(spec.country_iso3, 10)),
                label=spec.country_iso3,
            )
        )
    return demands


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    world = common.get_world(seed)
    demands = _ihbo_demands(world)

    # Baseline: today's static assignment (first configured site).
    static_distances = {}
    for spec in pd.ESIM_OFFERINGS:
        if spec.architecture != "IHBO":
            continue
        site = world.pgw_sites[spec.pgw_site_ids[0]]
        city = world.cities.get(spec.user_city, spec.country_iso3)
        static_distances[spec.country_iso3] = haversine_km(
            city.location, site.location
        )
    weight = {d.label: d.weight for d in demands}
    total_weight = sum(weight.values())
    static_mean = sum(
        static_distances[label] * weight[label] for label in static_distances
    ) / total_weight

    # Nearest selection over the existing hub fleet.
    existing_sites = [
        world.pgw_sites[sid].city
        for sid in ("packet-host-ams", "packet-host-ash", "ovh-lille",
                    "wlogic-lon", "webbing-ams", "webbing-dal")
    ]
    nearest_mean = mean_weighted_distance_km(
        demands, [c.location for c in existing_sites]
    )

    # Re-optimised fleet of the same size over the hosting candidates.
    candidates = [world.cities.get(name, iso3) for name, iso3 in CANDIDATE_HOSTING_CITIES]
    k = len({c.key for c in existing_sites})
    optimised = greedy_k_median(demands, candidates, k)
    optimised_mean = mean_weighted_distance_km(
        demands, [c.location for c in optimised]
    )
    placed = assignment(demands, optimised)

    return {
        "static_mean_km": static_mean,
        "nearest_mean_km": nearest_mean,
        "optimised_mean_km": optimised_mean,
        "fleet_size": k,
        "optimised_sites": [c.key for c in optimised],
        "assignment": placed,
        "saving_nearest": 1 - nearest_mean / static_mean,
        "saving_optimised": 1 - optimised_mean / static_mean,
    }


def format_result(result: Dict) -> str:
    lines = [
        "demand-weighted mean SGW->PGW distance for the 16 IHBO eSIMs:",
        f"  static (today)        : {result['static_mean_km']:7.0f} km",
        f"  nearest, same fleet   : {result['nearest_mean_km']:7.0f} km "
        f"(-{result['saving_nearest']:.0%})",
        f"  optimised fleet (k={result['fleet_size']}) : "
        f"{result['optimised_mean_km']:7.0f} km (-{result['saving_optimised']:.0%})",
        f"  optimised sites: {', '.join(result['optimised_sites'])}",
    ]
    return "\n".join(lines)
