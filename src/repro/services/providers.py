"""Global service providers (the traceroute / latency targets).

Google and Facebook in the paper: content networks with their own AS and
edge presence near the major interconnection hubs. Edge selection is by
proximity to the *breakout point* — the paper's observation that SP edges
sit close to PGWs in Western Europe is what makes the public path short
for IHBO traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.geo.cities import City
from repro.geo.coords import GeoPoint, haversine_km
from repro.net.ipv4 import IPAddress


@dataclass(frozen=True)
class ServerSite:
    """One deployment location of a service, with its public address."""

    city: City
    ip: IPAddress

    @property
    def location(self) -> GeoPoint:
        return self.city.location


class SiteFleet:
    """Base of a fleet: one provider's sequence of server sites.

    Every fleet steers a client to its sites in the same order: nearest
    first by great-circle distance, ties broken by the address string.
    :meth:`_ranked` computes that order once per client location and
    keeps it in a memo on the fleet; client locations are the world's
    PGW and resolver sites, so the memo stays small. Subclasses freeze
    their sites to a tuple in ``__post_init__``, so a memoized order
    cannot go stale. The memo is derived state: it is no dataclass
    field, so it takes no part in ``==`` or ``repr``, and
    :meth:`__getstate__` leaves it out of pickles.
    """

    def _ranked(self, sites: tuple, origin: GeoPoint) -> tuple:
        """The fleet's ``sites`` (each with a ``location`` and an ``ip``),
        nearest ``origin`` first."""
        memo = self.__dict__.get("_rankings")
        if memo is None:
            memo = self.__dict__["_rankings"] = {}
        ranked = memo.get(origin)
        if ranked is None:
            ranked = memo[origin] = tuple(sorted(
                sites, key=lambda site: (haversine_km(origin, site.location), str(site.ip))
            ))
        return ranked

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_rankings", None)
        return state


@dataclass
class ServiceProvider(SiteFleet):
    """A content/service network with a global edge footprint.

    ``internal_hop_range`` bounds how many hops a traceroute records
    inside the provider's network after entering it (SPs' internal
    routing is what drives public-path-length variance in Figure 10).
    ``icmp_response_rate`` models hops that silently drop traceroute
    probes.
    """

    name: str
    asn: int
    edges: Sequence[ServerSite]
    internal_hop_range: Tuple[int, int] = (2, 7)
    icmp_response_rate: float = 0.97

    def __post_init__(self) -> None:
        self.edges = tuple(self.edges)
        if not self.edges:
            raise ValueError(f"{self.name} needs at least one edge site")
        low, high = self.internal_hop_range
        if not 1 <= low <= high:
            raise ValueError("invalid internal hop range")
        if not 0.0 <= self.icmp_response_rate <= 1.0:
            raise ValueError("icmp_response_rate must be a probability")

    def nearest_edge(self, location: GeoPoint) -> ServerSite:
        """The edge a client breaking out at ``location`` is steered to."""
        return self._ranked(self.edges, location)[0]

    def sample_internal_hops(self, rng: random.Random) -> int:
        low, high = self.internal_hop_range
        return rng.randint(low, high)
