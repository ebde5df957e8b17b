"""The per-packet probe trains: the reference the split RTT is checked against.

``ServiceFabric.session_rtt_ms`` is the composition of ``base_rtt_ms``
(private path plus public path) and ``measured_rtt_ms`` (radio, public
overhead, jitter), and ``probe_voip`` and ``ping_provider`` compute the
base once per train. This module keeps the whole sum in one function and
the trains that call it for every packet, one haversine each.
``test_voip.py`` requires equal records and an equal RNG state afterwards.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cellular.core import PDNSession
from repro.cellular.esim import SIMProfile
from repro.cellular.radio import RadioConditions
from repro.geo.coords import GeoPoint
from repro.measure.records import MeasurementContext
from repro.measure.voip import VoIPRecord, e_model_r_factor, mos_from_r, rfc3550_jitter
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServiceProvider


def session_rtt_ms(
    fabric: ServiceFabric,
    session: PDNSession,
    server: GeoPoint,
    conditions: Optional[RadioConditions] = None,
    rng: Optional[random.Random] = None,
) -> float:
    """Radio + private path + public path, every term computed per call."""
    total = session.base_private_rtt_ms
    total += fabric.public_rtt_ms(session.pgw_site.location, server)
    if conditions is not None:
        total += fabric.radio.access_rtt_ms(conditions, rng)
    if rng is not None:
        total += fabric.sample_public_overhead_ms(rng)
        total = fabric.latency.sample_rtt_ms(total, rng)
    return total


def probe_voip(
    session: PDNSession,
    sim: SIMProfile,
    provider: ServiceProvider,
    fabric: ServiceFabric,
    conditions: RadioConditions,
    rng: random.Random,
    packets: int = 50,
    day: int = 0,
) -> VoIPRecord:
    if packets < 2:
        raise ValueError("need at least two packets to measure jitter")
    edge = provider.nearest_edge(session.pgw_site.location)
    loss_rate = fabric.loss_rate(session)

    rtts: List[float] = []
    lost = 0
    for _ in range(packets):
        if rng.random() < loss_rate:
            lost += 1
            continue
        rtts.append(session_rtt_ms(fabric, session, edge.location, conditions, rng))
    if not rtts:
        context = MeasurementContext.from_session(session, sim, conditions, day=day)
        return VoIPRecord(context, provider.name, float("inf"), 0.0, 1.0, 0.0, 1.0)

    mean_rtt = sum(rtts) / len(rtts)
    jitter = rfc3550_jitter(rtts)
    observed_loss = lost / packets
    one_way = mean_rtt / 2.0 + 30.0 + 2.0 * jitter
    r = e_model_r_factor(one_way, observed_loss)
    return VoIPRecord(
        context=MeasurementContext.from_session(session, sim, conditions, day=day),
        target=provider.name,
        mean_rtt_ms=mean_rtt,
        jitter_ms=jitter,
        loss_rate=observed_loss,
        r_factor=r,
        mos=mos_from_r(r),
    )


def ping_provider(
    session: PDNSession,
    provider: ServiceProvider,
    fabric: ServiceFabric,
    conditions: RadioConditions,
    rng: random.Random,
    count: int = 4,
) -> List[float]:
    if count < 1:
        raise ValueError("count must be >= 1")
    edge = provider.nearest_edge(session.pgw_site.location)
    return [
        session_rtt_ms(fabric, session, edge.location, conditions, rng)
        for _ in range(count)
    ]
