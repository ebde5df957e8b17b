"""The service fabric: end-to-end cost composition.

Glues a PDN session (radio + GTP tunnel + PGW core) to the public
internet (PGW -> server). Every measurement tool asks this object the
same three questions: what is the base RTT to a server, how many public
hops does the path take, and which ASNs does it cross.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.cellular.core import PDNSession
from repro.cellular.radio import RadioConditions, RadioModel
from repro.geo.coords import GeoPoint
from repro.net.latency import LatencyModel
from repro.net.topology import ASTopology, NoRouteError

#: Public internet routes between well-peered networks are close to the
#: geodesic; this stretch reflects that (cf. the IPX corridors at >= 2.2).
PUBLIC_STRETCH = 1.25

#: Heavy-tailed per-measurement overhead of the public segment (peering
#: queues, SP internal routing, transient congestion). Lognormal with a
#: small median but a fat tail: most runs add a few ms, a few add tens —
#: exactly the variability the paper reads off the SIM curves in
#: Figure 12 and the 3% of physical-SIM RTTs above 150 ms.
PUBLIC_OVERHEAD_MEDIAN_MS = 2.5
PUBLIC_OVERHEAD_SIGMA = 1.7
#: Cap on a single overhead draw: beyond this a probe would be retried.
PUBLIC_OVERHEAD_CAP_MS = 200.0


class ServiceFabric:
    """Computes path costs from attach sessions to public servers."""

    def __init__(
        self,
        latency: LatencyModel,
        topology: ASTopology,
        radio: Optional[RadioModel] = None,
        public_stretch: float = PUBLIC_STRETCH,
        overhead_median_ms: float = PUBLIC_OVERHEAD_MEDIAN_MS,
        overhead_sigma: float = PUBLIC_OVERHEAD_SIGMA,
    ) -> None:
        if public_stretch < 1.0:
            raise ValueError("public_stretch must be >= 1")
        if overhead_median_ms < 0 or overhead_sigma < 0:
            raise ValueError("overhead parameters cannot be negative")
        self.latency = latency
        self.topology = topology
        self.radio = radio or RadioModel()
        self.public_stretch = public_stretch
        self.overhead_median_ms = overhead_median_ms
        self.overhead_sigma = overhead_sigma

    def sample_public_overhead_ms(self, rng: random.Random) -> float:
        """One draw of the public-segment overhead (ms)."""
        if self.overhead_median_ms == 0:
            return 0.0
        draw = self.overhead_median_ms * math.exp(rng.gauss(0.0, self.overhead_sigma))
        return min(draw, PUBLIC_OVERHEAD_CAP_MS)

    # -- loss --------------------------------------------------------------

    def loss_rate(self, session: PDNSession, base_rtt_ms: Optional[float] = None) -> float:
        """Packet-loss probability on this session's path.

        Loss grows with path length: long GTP corridors over the IPX
        traverse more queues and more congested interconnects. The rate
        is tiny for native paths (~0.1%) and reaches ~1-2% on the worst
        HR corridors — the regime where TCP timeouts and VoIP artefacts
        appear (the jitter/loss extension of Section 7).
        """
        rtt = session.base_private_rtt_ms if base_rtt_ms is None else base_rtt_ms
        return min(0.03, 0.001 + rtt * 3.0e-5)

    # -- latency ----------------------------------------------------------

    def public_rtt_ms(self, breakout: GeoPoint, server: GeoPoint) -> float:
        """Base RTT from the breakout point to a server over the internet."""
        return self.latency.rtt_between(breakout, server, stretch=self.public_stretch)

    def session_rtt_ms(
        self,
        session: PDNSession,
        server: GeoPoint,
        conditions: Optional[RadioConditions] = None,
        rng: Optional[random.Random] = None,
    ) -> float:
        """End-to-end base RTT: radio + private path + public path.

        With ``conditions`` the radio contribution reflects channel
        quality; with ``rng`` the total gets measurement jitter. Without
        either, the value is the deterministic baseline the analysis
        layer decomposes into private and public shares (Figure 12).
        """
        return self.measured_rtt_ms(
            self.base_rtt_ms(session, server), conditions, rng
        )

    def base_rtt_ms(self, session: PDNSession, server: GeoPoint) -> float:
        """Deterministic half of :meth:`session_rtt_ms`: private + public path.

        The same for every probe of one session to one server, so a probe
        train computes it once and passes it to :meth:`measured_rtt_ms`.
        """
        return session.base_private_rtt_ms + self.public_rtt_ms(
            session.pgw_site.location, server
        )

    def measured_rtt_ms(
        self,
        base_rtt_ms: float,
        conditions: Optional[RadioConditions] = None,
        rng: Optional[random.Random] = None,
    ) -> float:
        """Per-probe half of :meth:`session_rtt_ms`: radio, overhead, jitter.

        Adds to ``base_rtt_ms`` (from :meth:`base_rtt_ms`) the radio
        contribution when ``conditions`` is given, and with ``rng`` the
        public-segment overhead and measurement jitter, in that order.
        """
        total = base_rtt_ms
        if conditions is not None:
            total += self.radio.access_rtt_ms(conditions, rng)
        if rng is not None:
            total += self.sample_public_overhead_ms(rng)
            total = self.latency.sample_rtt_ms(total, rng)
        return total

    def private_rtt_ms(
        self,
        session: PDNSession,
        conditions: Optional[RadioConditions] = None,
    ) -> float:
        """Base RTT of the private segment (device to public breakout)."""
        total = session.base_private_rtt_ms
        if conditions is not None:
            total += self.radio.access_rtt_ms(conditions)
        return total

    # -- AS paths -----------------------------------------------------------

    def as_path(self, session: PDNSession, target_asn: int) -> List[int]:
        """ASNs crossed from the session's PGW provider to a target AS."""
        src = session.pgw_site.provider_asn
        try:
            return self.topology.as_path(src, target_asn)
        except (NoRouteError, KeyError):
            # Fall back to an opaque two-AS view: measurements still show
            # source and destination even when the policy graph is sparse
            # or the target AS is unmodelled.
            return [src, target_asn]
