"""Table 2: visited countries, b-MNOs, PGW providers and architectures.

Provisions every Airalo offering repeatedly, records the public IPs the
sessions receive, and runs the paper's classification pipeline (public
IP -> ASN -> HR/LBO/IHBO) to rebuild the table from observations alone.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.analysis.classify import build_breakout_table
from repro.cellular import UserEquipment
from repro.cellular.radio import RadioAccessTechnology, RadioConditions
from repro.measure.records import MeasurementContext
from repro.experiments import common

#: Attaches per country: enough to observe both PGW providers of the
#: alternating (Play / Telna) eSIMs.
ATTACHES_PER_COUNTRY = 12


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    world = common.get_world(seed)
    conditions = RadioConditions(RadioAccessTechnology.NR, 11, -85.0, 14.0)
    contexts: List[MeasurementContext] = []
    for country in world.airalo.served_countries():
        rng = random.Random(f"{seed}:table2:{country}")
        spec = world.offering(country)
        for _ in range(ATTACHES_PER_COUNTRY):
            esim = world.sell_esim(country, rng)
            ue = UserEquipment.provision(
                "Samsung S21+ 5G", world.cities.get(spec.user_city, country), rng
            )
            ue.install_sim(esim)
            session = ue.switch_to(0, spec.v_mno, world.factory, rng)
            contexts.append(MeasurementContext.from_session(session, esim, conditions))
            ue.detach()

    rows = build_breakout_table(contexts, world.geoip, world.operators)
    countries_by_arch: Dict[str, set] = {}
    for row in rows:
        label = row.architecture.label
        countries_by_arch.setdefault(label, set()).add(row.visited_country)
    counts = {label: len(countries) for label, countries in countries_by_arch.items()}
    return {
        "rows": rows,
        "architecture_country_counts": counts,
        "b_mnos": sorted({r.b_mno for r in rows}),
    }


def format_result(result: Dict) -> str:
    lines = [
        f"{'Visited':8} {'b-MNO':16} {'PGW Provider':16} "
        f"{'ASN':7} {'PGW Ctry':8} {'Type':6}"
    ]
    for row in result["rows"]:
        lines.append(
            f"{row.visited_country:8} {row.b_mno:16} {row.pgw_provider:16} "
            f"AS{row.pgw_asn:<5} {row.pgw_country:8} {row.architecture.label:6}"
        )
    lines.append(f"countries per architecture: {result['architecture_country_counts']}")
    return "\n".join(lines)
