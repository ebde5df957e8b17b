"""Figure 3: SGW-to-PGW mapping for the 21 roaming eSIMs.

For every roaming offering: the end-user (SGW) location, the PGW
location(s) observed, the straight-line tunnel distance and the
architecture (solid HR / dashed IHBO lines in the paper's map).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.cellular import UserEquipment
from repro.experiments import common
from repro.worlds import paperdata as pd

ATTACHES = 10


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    world = common.get_world(seed)
    lines: List[Dict] = []
    for spec in pd.ESIM_OFFERINGS:
        if spec.architecture == "NATIVE":
            continue
        rng = random.Random(f"{seed}:fig3:{spec.country_iso3}")
        seen = {}
        for _ in range(ATTACHES):
            esim = world.sell_esim(spec.country_iso3, rng)
            ue = UserEquipment.provision(
                "Samsung S21+ 5G",
                world.cities.get(spec.user_city, spec.country_iso3), rng,
            )
            ue.install_sim(esim)
            session = ue.switch_to(0, spec.v_mno, world.factory, rng)
            key = session.pgw_site.site_id
            if key not in seen:
                seen[key] = {
                    "visited_country": spec.country_iso3,
                    "user_city": spec.user_city,
                    "b_mno": spec.b_mno,
                    "pgw_site": key,
                    "pgw_provider": session.pgw_site.provider_org,
                    "pgw_city": session.pgw_site.city.name,
                    "pgw_country": session.breakout_country,
                    "distance_km": round(session.tunnel.distance_km, 1),
                    "architecture": session.architecture.label,
                }
            ue.detach()
        lines.extend(seen.values())
    lines.sort(key=lambda e: (e["b_mno"], e["visited_country"], e["pgw_site"]))
    return {
        "lines": lines,
        "roaming_esims": len({e["visited_country"] for e in lines}),
        "hr_lines": [e for e in lines if e["architecture"] == "HR"],
        "ihbo_lines": [e for e in lines if e["architecture"] == "IHBO"],
    }


def format_result(result: Dict) -> str:
    lines = [
        f"{'Visited':8} {'User city':14} {'b-MNO':16} {'PGW':22} "
        f"{'Dist km':>8} {'Type':5}"
    ]
    for entry in result["lines"]:
        pgw = f"{entry['pgw_city']} ({entry['pgw_provider']})"
        lines.append(
            f"{entry['visited_country']:8} {entry['user_city']:14} "
            f"{entry['b_mno']:16} {pgw:22} {entry['distance_km']:>8} "
            f"{entry['architecture']:5}"
        )
    lines.append(
        f"{result['roaming_esims']} roaming eSIMs; "
        f"{len(result['hr_lines'])} HR lines (solid), "
        f"{len(result['ihbo_lines'])} IHBO lines (dashed)"
    )
    return "\n".join(lines)
