"""Extension X4: steering of roaming and partner-network visibility.

Quantifies the mechanism behind Figure 5's roamer comparison: generic
Play-Poland roamers spread across several UK networks (coverage choice
plus Play's SoR), so the partner v-MNO observes only a slice of their
activity — while Airalo's profile pins its one partner and shows up in
full. The experiment reports the attach distribution under three
regimes and the resulting visibility ratio at the partner network.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.cellular.steering import (
    NetworkSelector,
    SteeringPolicy,
    VisitedNetworkOption,
)
from repro.experiments import common

#: A UK-like market: the partner network plus two competitors.
UK_NETWORKS = (
    VisitedNetworkOption("O2 UK", 0.35),
    VisitedNetworkOption("EE", 0.40),
    VisitedNetworkOption("Vodafone UK", 0.25),
)

#: Play steers its roamers toward EE (cheapest wholesale agreement).
PLAY_POLICY = SteeringPolicy("Play", preferred=("EE",), compliance=0.75)

SAMPLES = 20_000


def run(seed: int = common.DEFAULT_SEED) -> Dict:
    rng = random.Random(f"{seed}:steering")
    selector = NetworkSelector()
    selector.register_country("GBR", UK_NETWORKS)
    selector.set_policy("GBR", PLAY_POLICY)

    unsteered_selector = NetworkSelector()
    unsteered_selector.register_country("GBR", UK_NETWORKS)

    unsteered = unsteered_selector.attach_distribution("Play", "GBR", rng, SAMPLES)
    steered = selector.attach_distribution("Play", "GBR", rng, SAMPLES)
    airalo = selector.attach_distribution(
        "Play", "GBR", rng, SAMPLES, pinned_operator="O2 UK"
    )

    partner = "O2 UK"
    return {
        "unsteered": unsteered,
        "steered": steered,
        "airalo_pinned": airalo,
        "partner": partner,
        # How much of a roamer's activity the partner core can see,
        # relative to an Airalo user's (always 100% at the partner).
        "partner_visibility_ratio": steered[partner] / airalo[partner],
    }


def format_result(result: Dict) -> str:
    lines = ["attach shares of Play roamers across UK networks:"]
    header = sorted(result["unsteered"])
    lines.append(f"{'regime':16}" + "".join(f"{name:>14}" for name in header))
    for regime in ("unsteered", "steered", "airalo_pinned"):
        shares = result[regime]
        lines.append(
            f"{regime:16}"
            + "".join(f"{shares.get(name, 0.0):>13.1%} " for name in header)
        )
    lines.append(
        f"partner ({result['partner']}) sees "
        f"{result['partner_visibility_ratio']:.0%} of a generic roamer's "
        "activity vs 100% of an Airalo user's — the Figure 5 visibility gap"
    )
    return "\n".join(lines)
