"""Extension X6: the Section 7 user implications, quantified.

For every Airalo offering: where do geography-dependent services think
the user is, which jurisdictions handle the data, and who is the
third party in the middle. Summarises the paper's two QoE/privacy
claims — mislocalized content and opaque intermediary handling — across
the 24-country footprint.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.analysis.jurisdiction import GeoExperience, assess_geo_experience
from repro.cellular import UserEquipment
from repro.experiments import common
from repro.worlds import paperdata as pd


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    world = common.get_world(seed)
    experiences: List[GeoExperience] = []
    for spec in pd.ESIM_OFFERINGS:
        rng = random.Random(f"{seed}:jurisdiction:{spec.country_iso3}")
        esim = world.sell_esim(spec.country_iso3, rng)
        ue = UserEquipment.provision(
            "Samsung S21+ 5G",
            world.cities.get(spec.user_city, spec.country_iso3),
            rng,
        )
        ue.install_sim(esim)
        session = ue.switch_to(0, spec.v_mno, world.factory, rng)
        experiences.append(assess_geo_experience(session, world.operators))
        ue.detach()

    mislocalized = [e for e in experiences if not e.localized_correctly]
    third_party = [e for e in experiences if e.crosses_third_country]
    intermediary_countries = sorted(
        {e.apparent_country for e in mislocalized}
    )
    return {
        "experiences": experiences,
        "total": len(experiences),
        "mislocalized": len(mislocalized),
        "third_party_handled": len(third_party),
        "intermediary_countries": intermediary_countries,
    }


def format_result(result: Dict) -> str:
    lines = [
        f"{'User in':8} {'Appears in':10} {'Type':7} {'Handled by':18} "
        f"{'Jurisdictions':20}"
    ]
    for experience in result["experiences"]:
        marker = "" if experience.localized_correctly else "  <- mislocalized"
        lines.append(
            f"{experience.user_country:8} {experience.apparent_country:10} "
            f"{experience.architecture.label:7} "
            f"{experience.third_party_operator:18} "
            f"{'>'.join(experience.jurisdictions):20}{marker}"
        )
    lines.append(
        f"{result['mislocalized']}/{result['total']} eSIMs receive "
        f"geo-content for the wrong country "
        f"(intermediaries: {', '.join(result['intermediary_countries'])})"
    )
    lines.append(
        f"{result['third_party_handled']}/{result['total']} have user data "
        "handled in a country that is neither visited nor chosen — the "
        "Section 7 transparency concern"
    )
    return "\n".join(lines)
