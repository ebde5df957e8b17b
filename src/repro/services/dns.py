"""DNS services: operator resolvers and public anycast (with DoH).

Native/HR/LBO sessions resolve inside the b-MNO's core; IHBO sessions use
Google's public anycast resolvers, which anycast routing lands near the
PGW (74% same-country in the paper). Android's default DNS-over-HTTPS
adds TLS setup cost on resolvers that support it — the overhead the paper
measured by accident and this module models explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cellular.core import PDNSession
from repro.geo.coords import GeoPoint
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServerSite, SiteFleet


@dataclass(frozen=True)
class DoHOverheadModel:
    """Cost of DNS-over-HTTPS on top of plain DNS.

    A cold DoH query pays TCP and TLS handshakes before the query itself
    (``extra_rtts`` more round trips); warm connections reuse the session
    and only pay a small HTTP framing cost.
    """

    cold_probability: float = 0.6
    extra_rtts: int = 2
    warm_overhead_ms: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cold_probability <= 1.0:
            raise ValueError("cold_probability must be a probability")
        if self.extra_rtts < 0 or self.warm_overhead_ms < 0:
            raise ValueError("overheads cannot be negative")


@dataclass(frozen=True)
class DNSAnswer:
    """Result of one resolver interaction (the NextDNS-style probe view)."""

    service_name: str
    resolver: ServerSite
    lookup_ms: float
    used_doh: bool
    cache_hit: bool

    @property
    def resolver_country(self) -> str:
        return self.resolver.city.country_iso3


@dataclass
class DNSService(SiteFleet):
    """A DNS resolution service with one or more resolver sites.

    ``anycast`` services (Google DNS) pick the site nearest the querying
    network's breakout; unicast operator resolvers have a single site in
    the operator's core. ``cache_hit_rate`` controls how often answers
    come straight from the resolver cache versus requiring recursive
    resolution toward authoritative servers.
    """

    name: str
    sites: Sequence[ServerSite]
    anycast: bool = False
    supports_doh: bool = False
    cache_hit_rate: float = 0.8
    recursive_penalty_ms: float = 45.0
    doh: DoHOverheadModel = DoHOverheadModel()
    # BGP anycast is not a geolocation service: a query sometimes lands
    # at the runner-up site (the paper found only 74% of IHBO queries on
    # a resolver in the PGW's country).
    anycast_miss_rate: float = 0.25

    def __post_init__(self) -> None:
        self.sites = tuple(self.sites)
        if not self.sites:
            raise ValueError(f"DNS service {self.name} needs at least one site")
        if not 0.0 <= self.cache_hit_rate <= 1.0:
            raise ValueError("cache_hit_rate must be a probability")
        if self.recursive_penalty_ms < 0:
            raise ValueError("recursive penalty cannot be negative")

    def select_resolver(
        self,
        query_origin: GeoPoint,
        rng: Optional[random.Random] = None,
    ) -> ServerSite:
        """The resolver site answering a query entering at ``query_origin``.

        Anycast routes to the nearest site most of the time; with
        ``anycast_miss_rate`` (and an ``rng``) BGP hands the query to the
        runner-up instead. Unicast operator resolvers always answer from
        their first (canonical) site.
        """
        if not self.anycast:
            return self.sites[0]
        ranked = self._ranked(self.sites, query_origin)
        if (
            rng is not None
            and len(ranked) > 1
            and rng.random() < self.anycast_miss_rate
        ):
            return ranked[1]
        return ranked[0]

    def resolve(
        self,
        session: PDNSession,
        fabric: ServiceFabric,
        rng: random.Random,
        use_doh: Optional[bool] = None,
    ) -> DNSAnswer:
        """One lookup from ``session``, timed like `curl`'s DNS phase.

        ``use_doh`` defaults to the session's negotiated setting; passing
        an explicit value supports the DoH ablation benchmark.
        """
        doh_active = session.dns_uses_doh if use_doh is None else use_doh
        doh_active = doh_active and self.supports_doh

        resolver = self.select_resolver(session.pgw_site.location, rng)
        base_rtt = fabric.session_rtt_ms(session, resolver.location)

        cache_hit = rng.random() < self.cache_hit_rate
        lookup = base_rtt
        if not cache_hit:
            lookup += self.recursive_penalty_ms * (0.5 + rng.random())
        if doh_active:
            if rng.random() < self.doh.cold_probability:
                lookup += self.doh.extra_rtts * base_rtt
            else:
                lookup += self.doh.warm_overhead_ms
        lookup = fabric.latency.sample_rtt_ms(lookup, rng)

        return DNSAnswer(
            service_name=self.name,
            resolver=resolver,
            lookup_ms=lookup,
            used_doh=doh_active,
            cache_hit=cache_hit,
        )
