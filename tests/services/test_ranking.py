"""The memoized nearest-site ranking against the brute-force selections.

Every fleet of a built world -- SP edges, CDN edges, DNS resolvers and
both speedtest fleets -- is asked for its site from 250 random locations
and from every site and PGW location of the world, and must answer
exactly as the per-call ``min``/``sorted`` of ``tests/services/reference.py``
does, including which draws of a DNS ``rng`` are consumed.
"""

import copy
import pickle
import random

import pytest

from repro.experiments import common
from repro.geo import GeoPoint
from repro.net.ipv4 import parse_ip
from repro.services import (
    CDNProvider,
    DNSService,
    ServerSite,
    ServiceProvider,
    SpeedtestFleet,
    SpeedtestServer,
)
from repro.services import providers as providers_mod

from tests.services import reference


@pytest.fixture(scope="module")
def world():
    return common.get_world()


@pytest.fixture(scope="module")
def origins(world):
    rng = random.Random(20240201)
    points = [
        GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
        for _ in range(250)
    ]
    points += [site.location for site in world.pgw_sites.values()]
    points += [site.location for fleet in _fleets(world) for site in _sites(fleet)]
    return points


def _fleets(world):
    resources = world.resources
    return [
        *resources.sp_targets.values(),
        *resources.cdns.values(),
        *resources.dns_services.values(),
        resources.ookla,
        world.fastcom,
    ]


def _sites(fleet):
    if isinstance(fleet, DNSService):
        return fleet.sites
    if isinstance(fleet, SpeedtestFleet):
        return fleet.servers
    return fleet.edges


def _pick(fleet, origin, rng=None):
    """(memoized answer, reference answer) of ``fleet`` from ``origin``."""
    if isinstance(fleet, ServiceProvider):
        return fleet.nearest_edge(origin), reference.nearest_edge(fleet, origin)
    if isinstance(fleet, CDNProvider):
        return fleet.edge_for(origin), reference.edge_for(fleet, origin)
    if isinstance(fleet, SpeedtestFleet):
        return fleet.nearest_server(origin), reference.nearest_server(fleet, origin)
    twin = copy.copy(rng)
    got = fleet.select_resolver(origin, rng)
    expected = reference.select_resolver(fleet, origin, twin)
    if rng is not None:
        assert rng.getstate() == twin.getstate(), "rng draws differ"
    return got, expected


def test_world_has_every_fleet_kind(world):
    kinds = {type(fleet) for fleet in _fleets(world)}
    assert kinds == {ServiceProvider, CDNProvider, DNSService, SpeedtestFleet}
    dns = [f for f in _fleets(world) if isinstance(f, DNSService)]
    assert {f.anycast for f in dns} == {True, False}


def test_every_fleet_picks_what_brute_force_picks(world, origins):
    assert len(origins) >= 200
    for fleet in _fleets(world):
        for repeat in range(2):  # the second pass reads the memo
            for origin in origins:
                got, expected = _pick(fleet, origin)
                assert got is expected, (fleet.name, origin, repeat)


def test_dns_draws_match(world, origins):
    """Anycast draws once per query and sometimes takes the runner-up;
    unicast never draws."""
    runner_up = 0
    for dns in (f for f in _fleets(world) if isinstance(f, DNSService)):
        rng = random.Random(7)
        for origin in origins * 2:
            got, expected = _pick(dns, origin, rng)
            assert got is expected
            runner_up += got is not reference.select_resolver(dns, origin)
    assert runner_up > 0, "no draw exercised the runner-up branch"


def _tied_sites(cities):
    # One city, two addresses: the distance ties exactly, and the address
    # string breaks the tie ("192.0.2.10" < "192.0.2.9"), against the
    # listed order and the numeric order.
    city = cities.get("Madrid", "ESP")
    return [
        ServerSite(city=city, ip=parse_ip("192.0.2.9")),
        ServerSite(city=city, ip=parse_ip("192.0.2.10")),
        ServerSite(city=cities.get("Singapore", "SGP"), ip=parse_ip("192.0.2.1")),
    ]


def test_exact_distance_tie_is_broken_by_address(world):
    sites = _tied_sites(world.cities)
    origin = GeoPoint(38.72, -9.14)  # Lisbon
    provider = ServiceProvider(name="tie", asn=64999, edges=sites)
    cdn = CDNProvider(name="tie", edges=sites, origin=sites[2])
    fleet = SpeedtestFleet(name="tie", servers=[SpeedtestServer(s) for s in sites])
    dns = DNSService(name="tie", sites=sites, anycast=True, anycast_miss_rate=1.0)
    for candidate in (provider, cdn, fleet):
        got, expected = _pick(candidate, origin)
        assert got is expected
        assert str((got.site if isinstance(got, SpeedtestServer) else got).ip) == "192.0.2.10"
    got, expected = _pick(dns, origin)
    assert got is expected and str(got.ip) == "192.0.2.10"
    # The runner-up draw hands the query to the other tied site.
    got, expected = _pick(dns, origin, random.Random(1))
    assert got is expected and str(got.ip) == "192.0.2.9"


def test_ranking_is_computed_once_per_location(world, monkeypatch):
    sites = _tied_sites(world.cities)
    provider = ServiceProvider(name="memo", asn=64999, edges=sites)
    calls = []
    haversine = providers_mod.haversine_km

    def counting(a, b):
        calls.append(1)
        return haversine(a, b)

    monkeypatch.setattr(providers_mod, "haversine_km", counting)
    madrid, tokyo = GeoPoint(40.4, -3.7), GeoPoint(35.7, 139.7)
    first = provider.nearest_edge(madrid)
    assert len(calls) == len(sites)
    assert provider.nearest_edge(GeoPoint(40.4, -3.7)) is first  # an equal point
    assert len(calls) == len(sites)
    provider.nearest_edge(tokyo)
    assert len(calls) == 2 * len(sites)


def test_sites_are_frozen_to_a_tuple(world):
    sites = _tied_sites(world.cities)
    provider = ServiceProvider(name="frozen", asn=64999, edges=sites)
    cdn = CDNProvider(name="frozen", edges=sites, origin=sites[0])
    dns = DNSService(name="frozen", sites=sites, anycast=True)
    fleet = SpeedtestFleet(name="frozen", servers=[SpeedtestServer(s) for s in sites])
    origin = GeoPoint(1.3, 103.8)
    before = [provider.nearest_edge(origin), cdn.edge_for(origin),
              dns.select_resolver(origin), fleet.nearest_server(origin)]
    del sites[2]  # the Singapore site, nearest ``origin``
    sites.reverse()
    assert all(isinstance(f, tuple) for f in (provider.edges, cdn.edges, dns.sites, fleet.servers))
    assert [provider.nearest_edge(origin), cdn.edge_for(origin),
            dns.select_resolver(origin), fleet.nearest_server(origin)] == before


def test_memo_is_not_state(world):
    def build():
        return ServiceProvider(name="state", asn=64999, edges=_tied_sites(world.cities))

    queried, fresh = build(), build()
    queried.nearest_edge(GeoPoint(0.0, 0.0))
    assert queried == fresh
    assert repr(queried) == repr(fresh)
    assert pickle.dumps(queried) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(queried))
    assert restored == queried
    assert restored.nearest_edge(GeoPoint(0.0, 0.0)) == queried.nearest_edge(GeoPoint(0.0, 0.0))
