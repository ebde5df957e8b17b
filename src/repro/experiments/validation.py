"""Section 4.3.1: methodology validation against emnify.

Runs 219 traceroutes (73 per SP, as in the paper) from an emnify eSIM in
London and checks that the breakout-geolocation pipeline identifies
AS16509 (Amazon) in Dublin — the operator-confirmed ground truth.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.cellular.radio import RadioAccessTechnology, RadioConditions
from repro.measure.traceroute import postprocess
from repro.worlds import build_emnify_world
from repro.worlds import paperdata as pd

TRACEROUTES_PER_SP = 73  # 3 SPs x 73 = 219 runs

#: HX2's own seed: the emnify validation does not follow the study seed.
SEED = 42


def run() -> Dict:
    world = build_emnify_world()
    rng = random.Random(f"{SEED}:validation")
    esim, session = world.provision_session(rng)
    conditions = RadioConditions(RadioAccessTechnology.NR, 11, -82.0, 14.0)

    identified: Dict = {}
    runs = 0
    verified = 0
    for target in ("Google", "YouTube", "Facebook"):
        provider = world.sp_targets[target]
        for _ in range(TRACEROUTES_PER_SP):
            runs += 1
            result = world.engine.trace(session, provider, conditions, rng)
            record = postprocess(result, session, esim, conditions, world.geoip)
            if not record.pgw_verified:
                continue
            verified += 1
            geo = world.geoip.lookup(record.pgw_ip)
            key = (geo.asn, geo.city, geo.country_iso3)
            identified[key] = identified.get(key, 0) + 1

    return {
        "runs": runs,
        "verified_runs": verified,
        "identified": identified,
        "expected": (pd.ASN_AMAZON, "Dublin", "IRL"),
        "matches_ground_truth": set(identified) == {(pd.ASN_AMAZON, "Dublin", "IRL")},
    }


def format_result(result: Dict) -> str:
    lines = [
        f"{result['runs']} traceroutes, {result['verified_runs']} with verified PGW hop"
    ]
    for (asn, city, country), count in sorted(result["identified"].items()):
        lines.append(f"  PGW provider AS{asn} in {city}, {country}: {count} runs")
    lines.append(
        f"matches operator-confirmed ground truth "
        f"(AS{result['expected'][0]}, {result['expected'][1]}): "
        f"{result['matches_ground_truth']}"
    )
    return "\n".join(lines)
