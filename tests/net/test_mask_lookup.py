"""GeoIP's masked lookup against the linear scan of
``tests/net/reference.py``."""

import ipaddress
import pickle
import random

import pytest

from repro.experiments import common
from repro.geo import GeoPoint
from repro.net import GeoIPDatabase

from tests.net import reference

HERE = GeoPoint(0.0, 0.0)


def _neighbours(network):
    """The first and last address of ``network``, and one past each end."""
    first = int(network.network_address)
    last = int(network.broadcast_address)
    return [
        ipaddress.IPv4Address(raw)
        for raw in (first - 1, first, last, last + 1)
        if 0 <= raw < 2**32
    ]


def _probes(records, rng, count=2000):
    """Every prefix's edges and one past them, plus random addresses."""
    probes = [ip for record in records for ip in _neighbours(record.network)]
    probes += [ipaddress.IPv4Address(rng.getrandbits(32)) for _ in range(count)]
    for record in records:  # random hosts inside each prefix
        base = int(record.network.network_address)
        probes += [
            ipaddress.IPv4Address(base + rng.randrange(record.network.num_addresses))
            for _ in range(5)
        ]
    return probes


def test_world_lookups_match_linear_scan():
    geoip = common.get_world().geoip
    records = geoip.prefixes()
    assert len(records) > 50
    probes = _probes(records, random.Random(11))
    mapped = 0
    for ip in probes:
        expected = reference.lookup_opt(records, ip)
        assert geoip.lookup_opt(ip) is expected
        assert geoip.lookup_opt(str(ip)) is expected
        mapped += expected is not None
    assert 0 < mapped < len(probes)


def _register(db, records, network, asn):
    records.append(db.register(network, asn, "USA", f"AS{asn}", HERE))


def test_nested_prefixes_in_either_order():
    for order in (("203.0.0.0/16", "203.0.113.0/24"), ("203.0.113.0/24", "203.0.0.0/16")):
        db, records = GeoIPDatabase(), []
        for asn, network in enumerate(order, start=1):
            _register(db, records, network, asn)
        assert db.lookup("203.0.113.7").network.prefixlen == 24
        assert db.lookup("203.0.5.1").network.prefixlen == 16
        assert db.lookup_opt("203.1.0.0") is None
        assert [r.network.prefixlen for r in db.prefixes()] == [24, 16]
        for ip in _probes(records, random.Random(5), count=200):
            assert db.lookup_opt(ip) is reference.lookup_opt(records, ip)


def test_unmapped_addresses():
    db, records = GeoIPDatabase(), []
    assert db.lookup_opt("8.8.8.8") is None
    _register(db, records, "198.51.100.0/24", 1)
    for ip in ("198.51.99.255", "198.51.101.0", "0.0.0.0", "255.255.255.255"):
        assert db.lookup_opt(ip) is None
        with pytest.raises(KeyError):
            db.lookup(ip)


def test_prefix_registered_after_the_first_lookup():
    db, records = GeoIPDatabase(), []
    _register(db, records, "10.0.0.0/8", 1)
    assert db.lookup("10.1.2.3").asn == 1
    # A new, longer prefix length must be scanned before the /8.
    _register(db, records, "10.1.2.0/28", 2)
    assert db.lookup("10.1.2.3").asn == 2
    assert db.lookup("10.1.2.16").asn == 1
    # And a new, shorter one after it.
    _register(db, records, "0.0.0.0/0", 3)
    _register(db, records, "10.1.2.3/32", 4)
    assert db.lookup("10.1.2.3").asn == 4
    assert db.lookup("11.0.0.0").asn == 3
    assert [r.network.prefixlen for r in db.prefixes()] == [32, 28, 8, 0]
    for ip in _probes(records, random.Random(6), count=500):
        assert db.lookup_opt(ip) is reference.lookup_opt(records, ip)


def test_duplicate_prefix_rejected():
    db, records = GeoIPDatabase(), []
    _register(db, records, "198.51.100.0/24", 1)
    _register(db, records, "198.51.100.0/23", 2)  # same address, other length
    with pytest.raises(ValueError):
        db.register(ipaddress.ip_network("198.51.100.0/24"), 3, "USA", "x", HERE)
    assert db.lookup("198.51.100.9").asn == 1
    assert db.lookup("198.51.101.9").asn == 2


def test_pickled_index_round_trips():
    db, records = GeoIPDatabase(), []
    for asn, network in enumerate(("203.0.113.0/24", "203.0.0.0/16", "192.0.2.0/24"), 1):
        _register(db, records, network, asn)
    restored = pickle.loads(pickle.dumps(db))
    assert restored.prefixes() == db.prefixes()
    for ip in _probes(records, random.Random(8), count=200):
        assert restored.lookup_opt(ip) == db.lookup_opt(ip)


def test_index_keyed_by_network_loads_into_the_same_index():
    """State pickled while buckets were keyed by ``IPv4Network``, as in
    caches written before the masked lookup. Those buckets are in the
    order their lengths were first registered: here /16 before /24."""
    db, records = GeoIPDatabase(), []
    for asn, network in enumerate(("203.0.0.0/16", "203.0.113.0/24", "192.0.2.0/24"), 1):
        _register(db, records, network, asn)
    by_network = {}
    for record in records:
        by_network.setdefault(record.network.prefixlen, {})[record.network] = record
    old = GeoIPDatabase.__new__(GeoIPDatabase)
    old.__setstate__({"_by_prefixlen": by_network})
    assert old.prefixes() == db.prefixes()
    for ip in _probes(records, random.Random(9), count=200):
        assert old.lookup_opt(ip) == reference.lookup_opt(records, ip)
