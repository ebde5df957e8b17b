"""Nearest-site selection by brute force: the reference the memoized
fleet rankings are checked against.

Each fleet used to rank its whole fleet on every call, with its own copy
of one key: great-circle distance, then the address string. These are
those four computations, unchanged. ``test_ranking.py`` checks
:class:`~repro.services.providers.SiteFleet`'s memoized ranking against
them.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.geo.coords import GeoPoint, haversine_km
from repro.services import (
    CDNProvider,
    DNSService,
    ServerSite,
    ServiceProvider,
    SpeedtestFleet,
    SpeedtestServer,
)


def nearest_edge(provider: ServiceProvider, location: GeoPoint) -> ServerSite:
    return min(
        provider.edges,
        key=lambda site: (haversine_km(location, site.location), str(site.ip)),
    )


def edge_for(cdn: CDNProvider, steering_location: GeoPoint) -> ServerSite:
    return min(
        cdn.edges,
        key=lambda site: (haversine_km(steering_location, site.location), str(site.ip)),
    )


def select_resolver(
    dns: DNSService, query_origin: GeoPoint, rng: Optional[random.Random] = None
) -> ServerSite:
    if not dns.anycast:
        return dns.sites[0]
    ranked = sorted(
        dns.sites,
        key=lambda site: (haversine_km(query_origin, site.location), str(site.ip)),
    )
    if rng is not None and len(ranked) > 1 and rng.random() < dns.anycast_miss_rate:
        return ranked[1]
    return ranked[0]


def nearest_server(fleet: SpeedtestFleet, client_ip_location: GeoPoint) -> SpeedtestServer:
    return min(
        fleet.servers,
        key=lambda s: (haversine_km(client_ip_location, s.location), str(s.site.ip)),
    )
