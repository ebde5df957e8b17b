"""Figure 4: Packet Host (AS54825) PGW assignments and their suboptimality.

The 10 eSIMs whose PGW provider is Packet Host, with the paper's two
headline observations: France/Uzbekistan (Polkomtel) break out in
Virginia despite Amsterdam being closer, and Turkey's breakout in
Amsterdam is farther than its b-MNO's home network.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.cellular import UserEquipment
from repro.experiments import common
from repro.geo.coords import haversine_km
from repro.worlds import paperdata as pd

ATTACHES = 16


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    world = common.get_world(seed)
    entries: List[Dict] = []
    ams = world.cities.get("Amsterdam", "NLD").location
    for spec in pd.ESIM_OFFERINGS:
        if not any(site.startswith("packet-host") for site in spec.pgw_site_ids):
            continue
        rng = random.Random(f"{seed}:fig4:{spec.country_iso3}")
        user_city = world.cities.get(spec.user_city, spec.country_iso3)
        b_home = world.operators.get(spec.b_mno).home_city
        assert b_home is not None
        pgw_cities = set()
        for _ in range(ATTACHES):
            esim = world.sell_esim(spec.country_iso3, rng)
            ue = UserEquipment.provision("Samsung S21+ 5G", user_city, rng)
            ue.install_sim(esim)
            session = ue.switch_to(0, spec.v_mno, world.factory, rng)
            if session.pgw_site.provider_org == "Packet Host":
                pgw_cities.add(session.pgw_site.city.name)
            ue.detach()
        for pgw_city_name in sorted(pgw_cities):
            pgw_city = world.cities.get(
                pgw_city_name, "NLD" if pgw_city_name == "Amsterdam" else "USA"
            )
            distance = haversine_km(user_city.location, pgw_city.location)
            entries.append(
                {
                    "visited_country": spec.country_iso3,
                    "b_mno": spec.b_mno,
                    "b_mno_country": world.operators.get(spec.b_mno).country_iso3,
                    "pgw_city": pgw_city_name,
                    "distance_km": round(distance, 1),
                    "amsterdam_closer": haversine_km(user_city.location, ams) < distance,
                    "farther_than_b_mno": distance
                    > haversine_km(user_city.location, b_home.location),
                }
            )
    return {
        "entries": entries,
        "esim_count": len({e["visited_country"] for e in entries}),
        "transatlantic": [
            e for e in entries if e["pgw_city"] == "Ashburn" and e["amsterdam_closer"]
        ],
    }


def format_result(result: Dict) -> str:
    lines = [
        f"{'Visited':8} {'b-MNO':14} {'PGW city':10} {'Dist km':>9} "
        f"{'AMS closer?':12} {'> b-MNO dist?':13}"
    ]
    for entry in result["entries"]:
        lines.append(
            f"{entry['visited_country']:8} {entry['b_mno']:14} "
            f"{entry['pgw_city']:10} {entry['distance_km']:>9} "
            f"{str(entry['amsterdam_closer']):12} {str(entry['farther_than_b_mno']):13}"
        )
    lines.append(
        f"{result['esim_count']} eSIMs on AS54825; "
        f"{len(result['transatlantic'])} break out in Virginia with Amsterdam closer"
    )
    return "\n".join(lines)
