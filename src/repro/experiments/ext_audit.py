"""Extension X3: auditing additional thick MNAs with the same pipeline.

The paper's Future Directions: "extending our methodology to study
additional eSIM providers that may also operate as thick MNAs". The
generic :class:`ThickMnaAuditor` runs the full provision-attach-
classify-verify loop against both Airalo (recovering Table 2) and the
emnify validation operator, with no per-operator code.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.analysis.audit import AuditPlan, ThickMnaAuditor, render_findings
from repro.experiments import common
from repro.worlds import build_emnify_world
from repro.worlds import paperdata as pd

#: Audit a representative slice of Airalo (one offering per b-MNO + the
#: native trio) to keep the default run quick; pass ``full=True`` for
#: all 24.
REPRESENTATIVE_COUNTRIES = (
    "PAK",  # Singtel HR
    "ESP",  # Play IHBO, alternating providers
    "SAU",  # Telna IHBO, Packet Host only
    "MDA",  # Telecom Italia IHBO via Wireless Logic
    "USA",  # Orange IHBO via Webbing Dallas
    "FRA",  # Polkomtel IHBO via Packet Host Virginia
    "KOR", "THA", "MDV",  # native
)


def run(seed: int = common.DEFAULT_SEED, full: bool = False) -> Dict:
    world = common.get_world(seed)
    rng = random.Random(f"{seed}:audit")

    auditor = ThickMnaAuditor(
        operators=world.operators,
        factory=world.factory,
        geoip=world.geoip,
        engine=world.resources.traceroute_engine,
        sp_targets=list(world.resources.sp_targets.values()),
    )
    countries = (
        world.airalo.served_countries() if full else list(REPRESENTATIVE_COUNTRIES)
    )
    plans = []
    for country in countries:
        spec = world.offering(country)
        plans.append(
            AuditPlan(
                country_iso3=country,
                user_city=world.cities.get(spec.user_city, country),
                v_mno_name=spec.v_mno,
            )
        )
    airalo_findings = auditor.audit(world.airalo, plans, rng)

    # Same auditor, different operator: the emnify world.
    emnify_world = build_emnify_world()
    emnify_auditor = ThickMnaAuditor(
        operators=emnify_world.operators,
        factory=emnify_world.factory,
        geoip=emnify_world.geoip,
        engine=emnify_world.engine,
        sp_targets=list(emnify_world.sp_targets.values()),
    )
    emnify_findings = emnify_auditor.audit(
        emnify_world.emnify,
        [AuditPlan("GBR", emnify_world.cities.get("London", "GBR"), "O2 UK")],
        rng,
    )

    # Cross-check Airalo findings against ground truth.
    expected = {
        spec.country_iso3: spec.architecture for spec in pd.ESIM_OFFERINGS
    }
    mismatches = [
        f.country_iso3
        for f in airalo_findings
        if f.inferred_architecture.label.upper() != expected[f.country_iso3].upper()
    ]
    return {
        "airalo": airalo_findings,
        "emnify": emnify_findings,
        "mismatches": mismatches,
        "audited_countries": len(airalo_findings),
    }


def format_result(result: Dict) -> str:
    lines = ["-- Airalo audit --", render_findings(result["airalo"])]
    lines.append("-- emnify audit --")
    lines.append(render_findings(result["emnify"]))
    lines.append(
        f"{result['audited_countries']} offerings audited; "
        f"mismatches vs ground truth: {result['mismatches'] or 'none'}"
    )
    return "\n".join(lines)
