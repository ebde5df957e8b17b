"""CDN providers and the curl-style fetch model.

The device campaign downloads ``jquery.min.js`` (v3.6.0) from five CDNs
and records curl's timing phases. The dominant cost for a ~30 KB file is
round trips, not bandwidth — TCP slow start needs a handful of RTTs — so
HR eSIMs with ~400 ms RTTs take seconds while native SIMs take tens of
milliseconds, exactly the spread of Figures 14a/20.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.cellular.core import PDNSession
from repro.geo.coords import GeoPoint
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServerSite, SiteFleet

#: TCP initial congestion window (RFC 6928): 10 segments of ~1460 B.
_INITCWND_BYTES = 10 * 1460


@dataclass(frozen=True)
class Asset:
    """A fetchable object."""

    name: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("asset size must be positive")


#: The artefact every CDN test in the paper downloads.
JQUERY_ASSET = Asset(name="jquery.min.js (v3.6.0)", size_bytes=30_288)


@dataclass(frozen=True)
class CDNFetchResult:
    """curl-style timing breakdown of one fetch."""

    provider: str
    edge: ServerSite
    dns_ms: float
    connect_ms: float
    tls_ms: float
    ttfb_ms: float
    transfer_ms: float
    cache_hit: bool

    @property
    def total_ms(self) -> float:
        return self.dns_ms + self.connect_ms + self.tls_ms + self.ttfb_ms + self.transfer_ms


def slow_start_rounds(size_bytes: int, initcwnd_bytes: int = _INITCWND_BYTES) -> int:
    """Round trips TCP slow start needs to deliver ``size_bytes``.

    The window doubles every RTT starting at ``initcwnd_bytes``; a 30 KB
    asset therefore needs 2 rounds, not a bandwidth-limited stream.
    """
    if size_bytes <= 0:
        raise ValueError("size must be positive")
    if initcwnd_bytes <= 0:
        raise ValueError("initcwnd must be positive")
    delivered = 0
    window = initcwnd_bytes
    rounds = 0
    while delivered < size_bytes:
        delivered += window
        window *= 2
        rounds += 1
    return rounds


@dataclass
class CDNProvider(SiteFleet):
    """A CDN: edge fleet, cache behaviour, and an origin for misses."""

    name: str
    edges: Sequence[ServerSite]
    origin: ServerSite
    cache_hit_rate: float = 0.95
    server_processing_ms: float = 6.0
    # Per-country cache-hit overrides (e.g. Thailand's physical-SIM path
    # hitting a colder cache than the eSIM path, Section 5.1).
    country_cache_hit_rate: Dict[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.edges = tuple(self.edges)
        if not self.edges:
            raise ValueError(f"CDN {self.name} needs at least one edge")
        if not 0.0 <= self.cache_hit_rate <= 1.0:
            raise ValueError("cache_hit_rate must be a probability")
        if self.server_processing_ms < 0:
            raise ValueError("processing time cannot be negative")
        if self.country_cache_hit_rate is None:
            self.country_cache_hit_rate = {}

    def edge_for(self, steering_location: GeoPoint) -> ServerSite:
        """Edge chosen by request steering.

        CDNs map clients via the recursive resolver's location (classic
        DNS-based steering), so the caller passes the resolver site —
        near the PGW for IHBO sessions, in the b-MNO core otherwise.
        """
        return self._ranked(self.edges, steering_location)[0]

    def hit_rate_for(self, country_iso3: str) -> float:
        return self.country_cache_hit_rate.get(country_iso3.upper(), self.cache_hit_rate)

    def fetch(
        self,
        session: PDNSession,
        fabric: ServiceFabric,
        asset: Asset,
        dns_ms: float,
        resolver_location: GeoPoint,
        bandwidth_mbps: float,
        rng: random.Random,
    ) -> CDNFetchResult:
        """One HTTPS fetch of ``asset`` with curl-style phase timing.

        ``dns_ms`` comes from the DNS service (measured separately, as
        curl reports it); ``bandwidth_mbps`` is the session's achievable
        rate, which caps the slow-start transfer for large assets.
        """
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        edge = self.edge_for(resolver_location)
        rtt = fabric.session_rtt_ms(session, edge.location)

        connect = fabric.latency.sample_rtt_ms(rtt, rng)          # TCP SYN/ACK
        tls = fabric.latency.sample_rtt_ms(rtt, rng)              # TLS 1.3: 1-RTT

        cache_hit = rng.random() < self.hit_rate_for(session.sgw.city.country_iso3)
        ttfb = rtt + self.server_processing_ms
        if not cache_hit:
            # Miss: the edge fetches from origin before first byte.
            ttfb += fabric.public_rtt_ms(edge.location, self.origin.location) * 1.5
        ttfb = fabric.latency.sample_rtt_ms(ttfb, rng)

        # Transfer: slow-start round trips, floored by raw bandwidth.
        rounds = slow_start_rounds(asset.size_bytes)
        rtt_limited = (rounds - 1) * rtt  # first-round bytes arrive with TTFB
        bandwidth_limited = asset.size_bytes * 8 / (bandwidth_mbps * 1e6) * 1e3
        transfer = max(rtt_limited, bandwidth_limited)
        transfer = fabric.latency.sample_rtt_ms(transfer, rng) if transfer > 0 else 0.0

        # Loss recovery: every data/handshake packet risks the path's loss
        # rate; fast retransmit costs one extra RTT, a retransmission
        # timeout costs the RTO. On long GTP corridors this is what blows
        # small fetches up to multiple seconds.
        packets = asset.size_bytes // 1460 + 6  # data + handshake segments
        rto_ms = max(1000.0, 2.0 * rtt)
        loss = fabric.loss_rate(session)
        for _ in range(packets):
            if rng.random() >= loss:
                continue
            if rng.random() < 0.5:
                transfer += rtt          # fast retransmit
            else:
                transfer += rto_ms       # timeout

        return CDNFetchResult(
            provider=self.name,
            edge=edge,
            dns_ms=dns_ms,
            connect_ms=connect,
            tls_ms=tls,
            ttfb_ms=ttfb,
            transfer_ms=transfer,
            cache_hit=cache_hit,
        )
