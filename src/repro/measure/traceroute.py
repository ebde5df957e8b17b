"""Traceroute (mtr-style) over simulated data paths.

Produces the hop-by-hop view the paper's path analysis consumes: a run of
private-IP hops inside the PGW provider's core (the GTP tunnel itself is
invisible), the first public IP at the CG-NAT (the "PGW IP address"),
then the public path across transit/peering ASes into the service
provider's network, ending at the chosen edge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.cellular.core import PDNSession
from repro.cellular.esim import SIMProfile
from repro.cellular.radio import RadioConditions
from repro.measure.records import MeasurementContext, TracerouteRecord
from repro.net.addressbook import ASAddressBook
from repro.net.geoip import GeoIPDatabase
from repro.net.ipv4 import IPAddress, is_private_ip, parse_ip
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServiceProvider

#: Response rate for ordinary transit-network routers.
_TRANSIT_RESPONSE_RATE = 0.95


@dataclass(frozen=True)
class Hop:
    """One traceroute line: an address (None = ``*`` timeout) and best RTT."""

    index: int
    ip: Optional[str]
    rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.ip is not None


@dataclass
class TracerouteResult:
    """Raw output of one run, before the paper's post-processing."""

    target_name: str
    target_ip: str
    hops: List[Hop]

    @property
    def responding_hops(self) -> List[Hop]:
        return [hop for hop in self.hops if hop.responded]


class TracerouteEngine:
    """Runs traceroutes from attach sessions to service providers."""

    def __init__(
        self,
        fabric: ServiceFabric,
        addressbook: ASAddressBook,
        cgnat_response_rate: float = 0.9,
        cgnat_response_overrides: Optional[dict] = None,
    ) -> None:
        """``cgnat_response_overrides`` maps (visited ISO3, target name)
        to a response rate, modelling paths where the CG-NAT drops probes
        so consistently that only the SP's ASN shows up (Facebook via the
        German eSIM and both Qatari configurations in the paper,
        attributed to congestion or low-priority ICMP handling)."""
        if not 0.0 <= cgnat_response_rate <= 1.0:
            raise ValueError("cgnat_response_rate must be a probability")
        self.fabric = fabric
        self.addressbook = addressbook
        self.cgnat_response_rate = cgnat_response_rate
        self.cgnat_response_overrides = dict(cgnat_response_overrides or {})
        for rate in self.cgnat_response_overrides.values():
            if not 0.0 <= rate <= 1.0:
                raise ValueError("override rates must be probabilities")

    def trace(
        self,
        session: PDNSession,
        provider: ServiceProvider,
        conditions: RadioConditions,
        rng: random.Random,
    ) -> TracerouteResult:
        """One mtr run to ``provider`` over ``session``.

        All hops of one run share a multiplicative run-level factor (mtr
        reports per-hop *best* RTTs, which are strongly correlated along a
        shared path) plus a small independent per-hop wiggle.
        """
        hops: List[Hop] = []
        radio = self.fabric.radio.access_rtt_ms(conditions)
        tunnel = session.tunnel.base_rtt_ms
        core_ms = session.pgw_site.core_crossing_ms
        k = session.private_hop_count
        run_factor = math.exp(rng.gauss(0.0, self.fabric.latency.params.jitter_sigma))

        # Private segment: the PGW first, then the provider's core.
        for i, private_ip in enumerate(session.private_path):
            progress = i / k
            base = (radio + tunnel + core_ms * progress) * run_factor
            hops.append(self._hop(len(hops) + 1, private_ip, base, rng, 0.98))

        # Public demarcation: the CG-NAT with the session's public IP.
        breakout_rtt = (radio + tunnel + core_ms) * run_factor
        cgnat_rate = self.cgnat_response_overrides.get(
            (session.sgw.city.country_iso3, provider.name),
            self.cgnat_response_rate,
        )
        hops.append(
            self._hop(
                len(hops) + 1,
                str(session.public_ip),
                breakout_rtt,
                rng,
                cgnat_rate,
            )
        )

        # Public segment: transit ASes, then the SP's internal routing.
        # One heavy-tailed overhead draw per run models the public-internet
        # variability this measurement would see (it accrues along the
        # public hops, not inside the GTP tunnel).
        edge = provider.nearest_edge(session.pgw_site.location)
        final_rtt = self.fabric.session_rtt_ms(session, edge.location, conditions)
        final_rtt = final_rtt * run_factor + self.fabric.sample_public_overhead_ms(rng)
        as_path = self.fabric.as_path(session, provider.asn)
        intermediate_asns = as_path[1:-1]

        public_hops: List[tuple] = []  # (asn, router_id, response_rate)
        for asn in intermediate_asns:
            for j in range(rng.randint(1, 2)):
                public_hops.append((asn, f"core-{j}", _TRANSIT_RESPONSE_RATE))
        for j in range(provider.sample_internal_hops(rng) - 1):
            public_hops.append(
                (provider.asn, f"{edge.city.name}-b{j}", provider.icmp_response_rate)
            )

        total_public = len(public_hops) + 1  # +1 for the edge itself
        for position, (asn, router_id, response_rate) in enumerate(public_hops, start=1):
            rtt = breakout_rtt + (final_rtt - breakout_rtt) * position / total_public
            ip = self._router_ip(asn, router_id)
            hops.append(self._hop(len(hops) + 1, ip, rtt, rng, response_rate))

        # Destination edge: always answers (it hosts the service).
        hops.append(self._hop(len(hops) + 1, str(edge.ip), final_rtt, rng, 1.0))

        return TracerouteResult(
            target_name=provider.name, target_ip=str(edge.ip), hops=hops
        )

    def _router_ip(self, asn: int, router_id: str) -> Optional[str]:
        if not self.addressbook.has(asn):
            return None  # unmapped AS: shows as a timeout line
        return str(self.addressbook.router_ip(asn, router_id))

    #: Residual per-hop wiggle on top of the shared run factor.
    _PER_HOP_SIGMA = 0.006

    def _hop(
        self,
        index: int,
        ip: Optional[str],
        base_rtt: float,
        rng: random.Random,
        response_rate: float,
    ) -> Hop:
        if ip is None or rng.random() > response_rate:
            return Hop(index=index, ip=None, rtt_ms=None)
        rtt = base_rtt * math.exp(rng.gauss(0.0, self._PER_HOP_SIGMA))
        return Hop(index=index, ip=ip, rtt_ms=max(rtt, 0.1))


def postprocess(
    result: TracerouteResult,
    session: PDNSession,
    sim: SIMProfile,
    conditions: RadioConditions,
    geoip: GeoIPDatabase,
    day: int = 0,
) -> TracerouteRecord:
    """The paper's post-processing: demarcation, geolocation, ASN mapping.

    Splits the path at the first *responding* public IP, extracts the PGW
    IP and its RTT, counts private/public hops, and maps every public hop
    to an ASN through the GeoIP database (unknown hops are skipped, like
    unmapped WHOIS entries).
    """
    # Per hop, its address parsed once if it answered from public space;
    # None for timeouts and private hops.
    public_ips: List[Optional[IPAddress]] = []
    for hop in result.hops:
        ip = parse_ip(hop.ip) if hop.responded else None
        public_ips.append(None if ip is None or is_private_ip(ip) else ip)
    first_public_index = next(
        (position for position, ip in enumerate(public_ips) if ip is not None), None
    )

    if first_public_index is None:
        private_count = len(result.hops)
        public_count = 0
        pgw_ip = None
        pgw_rtt = None
    else:
        private_count = first_public_index
        public_count = len(result.hops) - first_public_index
        pgw_hop = result.hops[first_public_index]
        pgw_ip = pgw_hop.ip
        pgw_rtt = pgw_hop.rtt_ms

    unique_asns: List[int] = []
    for ip in public_ips:
        if ip is None:
            continue
        record = geoip.lookup_opt(ip)
        if record is not None and record.asn not in unique_asns:
            unique_asns.append(record.asn)

    responding = result.responding_hops
    final_rtt = responding[-1].rtt_ms if responding else None

    return TracerouteRecord(
        context=MeasurementContext.from_session(session, sim, conditions, day=day),
        target=result.target_name,
        hop_ips=[hop.ip for hop in result.hops],
        hop_rtts_ms=[hop.rtt_ms for hop in result.hops],
        private_hops=private_count,
        public_hops=public_count,
        pgw_ip=pgw_ip,
        pgw_rtt_ms=pgw_rtt,
        final_rtt_ms=final_rtt,
        unique_asns=unique_asns,
    )
