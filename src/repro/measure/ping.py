"""ICMP-style latency probing against service-provider edges."""

from __future__ import annotations

import random
from typing import List

from repro.cellular.core import PDNSession
from repro.cellular.radio import RadioConditions
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServiceProvider


def ping_provider(
    session: PDNSession,
    provider: ServiceProvider,
    fabric: ServiceFabric,
    conditions: RadioConditions,
    rng: random.Random,
    count: int = 4,
) -> List[float]:
    """RTT samples (ms) to the provider edge the session is steered to.

    Matches the paper's RTT-to-SP metric (Figure 11 a/b reads the final
    traceroute hop; a ping train to the same edge gives the same
    distribution).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    edge = provider.nearest_edge(session.pgw_site.location)
    base_rtt = fabric.base_rtt_ms(session, edge.location)
    return [fabric.measured_rtt_ms(base_rtt, conditions, rng) for _ in range(count)]
