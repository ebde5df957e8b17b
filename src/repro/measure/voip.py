"""Real-time-traffic probe: jitter, packet loss and VoIP quality.

The paper's Future Directions call for "a broader suite of network
performance metrics, specifically including jitter and packet loss,
which are crucial for evaluating real-time services like Voice over IP".
This probe sends a simulated RTP-style packet train over a session,
measures RFC 3550 interarrival jitter and loss, and scores the path with
the ITU-T G.107 E-model (simplified), yielding a MOS estimate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.cellular.core import PDNSession
from repro.cellular.esim import SIMProfile
from repro.cellular.radio import RadioConditions
from repro.measure.records import MeasurementContext
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServiceProvider


@dataclass(frozen=True)
class VoIPRecord:
    """One real-time probe result."""

    context: MeasurementContext
    target: str
    mean_rtt_ms: float
    jitter_ms: float
    loss_rate: float
    r_factor: float
    mos: float

    @property
    def usable_for_calls(self) -> bool:
        """MOS >= 3.6 is the usual 'satisfied users' bar."""
        return self.mos >= 3.6


def rfc3550_jitter(rtts_ms: List[float]) -> float:
    """Interarrival jitter per RFC 3550's running estimator."""
    if len(rtts_ms) < 2:
        return 0.0
    jitter = 0.0
    for previous, current in zip(rtts_ms, rtts_ms[1:]):
        jitter += (abs(current - previous) - jitter) / 16.0
    return jitter


def e_model_r_factor(one_way_delay_ms: float, loss_rate: float) -> float:
    """Simplified ITU-T G.107 E-model transmission rating.

    R = R0 - Id(delay) - Ie-eff(loss) with R0 = 93.2 (G.711 defaults).
    ``Id`` penalises one-way delay (sharply beyond 177.3 ms); ``Ie-eff``
    penalises loss with G.711+PLC coefficients.
    """
    if one_way_delay_ms < 0 or not 0.0 <= loss_rate <= 1.0:
        raise ValueError("invalid delay or loss")
    delay_penalty = 0.024 * one_way_delay_ms
    if one_way_delay_ms > 177.3:
        delay_penalty += 0.11 * (one_way_delay_ms - 177.3)
    loss_pct = loss_rate * 100.0
    loss_penalty = 30.0 * math.log(1.0 + 0.15 * loss_pct)
    return max(0.0, 93.2 - delay_penalty - loss_penalty)


def mos_from_r(r: float) -> float:
    """ITU-T G.107 Annex B mapping from R factor to MOS (1.0-4.5)."""
    if r <= 0:
        return 1.0
    if r >= 100:
        return 4.5
    mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7.0e-6
    # The cubic dips fractionally below 1 near R ~ 0; clamp like G.107 does.
    return min(4.5, max(1.0, mos))


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
    """One RTP-style train to the provider's nearest edge."""
    if packets < 2:
        raise ValueError("need at least two packets to measure jitter")
    edge = provider.nearest_edge(session.pgw_site.location)
    loss_rate = fabric.loss_rate(session)
    base_rtt = fabric.base_rtt_ms(session, edge.location)

    rtts: List[float] = []
    lost = 0
    for _ in range(packets):
        if rng.random() < loss_rate:
            lost += 1
            continue
        rtts.append(fabric.measured_rtt_ms(base_rtt, conditions, rng))
    if not rtts:  # a fully black-holed path: report the worst score
        context = MeasurementContext.from_session(session, sim, conditions, day=day)
        return VoIPRecord(context, provider.name, float("inf"), 0.0, 1.0, 0.0, 1.0)

    mean_rtt = sum(rtts) / len(rtts)
    jitter = rfc3550_jitter(rtts)
    observed_loss = lost / packets
    # One-way delay: half the RTT plus codec/jitter-buffer time (~30 ms
    # packetisation + buffer sized to absorb the measured jitter).
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
