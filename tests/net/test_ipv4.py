"""Tests for IPv4 allocation utilities."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.net import AddressAllocator, PrefixPool, is_private_ip, parse_ip


def test_parse_ip_roundtrip():
    ip = parse_ip("203.0.113.7")
    assert str(ip) == "203.0.113.7"
    assert parse_ip(ip) is ip


def test_is_private_rfc1918():
    assert is_private_ip("10.1.2.3")
    assert is_private_ip("172.16.0.1")
    assert is_private_ip("192.168.1.1")


def test_is_private_cgn_space():
    # 100.64/10 shared address space is used between PGW and CG-NAT.
    assert is_private_ip("100.64.0.1")
    assert is_private_ip("100.127.255.254")
    assert not is_private_ip("100.128.0.1")


def test_is_private_public_addresses():
    assert not is_private_ip("8.8.8.8")
    assert not is_private_ip("203.0.113.1")


def test_prefix_pool_allocates_disjoint_consecutive():
    pool = PrefixPool("198.18.0.0/16", new_prefix=24)
    a = pool.allocate()
    b = pool.allocate()
    assert a == ipaddress.ip_network("198.18.0.0/24")
    assert b == ipaddress.ip_network("198.18.1.0/24")
    assert not a.overlaps(b)
    assert pool.allocated == [a, b]


def test_prefix_pool_exhaustion():
    pool = PrefixPool("198.18.0.0/23", new_prefix=24)
    pool.allocate()
    pool.allocate()
    with pytest.raises(RuntimeError):
        pool.allocate()


def test_prefix_pool_rejects_oversized_request():
    with pytest.raises(ValueError):
        PrefixPool("198.18.0.0/24", new_prefix=16)


def test_address_allocator_sequential_and_labelled():
    alloc = AddressAllocator("203.0.113.0/29")
    first = alloc.allocate("pgw-1")
    second = alloc.allocate("pgw-2")
    assert str(first) == "203.0.113.1"
    assert str(second) == "203.0.113.2"
    assert alloc.owner_of(first) == "pgw-1"
    assert alloc.owner_of("203.0.113.2") == "pgw-2"


def test_address_allocator_exhaustion():
    alloc = AddressAllocator("203.0.113.0/30")  # 2 usable hosts
    alloc.allocate()
    alloc.allocate()
    with pytest.raises(RuntimeError):
        alloc.allocate()


def test_owner_of_unknown_raises():
    alloc = AddressAllocator("203.0.113.0/29")
    with pytest.raises(KeyError):
        alloc.owner_of("203.0.113.1")


PRIVATE_NETWORKS = [
    ipaddress.ip_network(net)
    for net in (
        "10.0.0.0/8",
        "172.16.0.0/12",
        "192.168.0.0/16",
        "100.64.0.0/10",
        "127.0.0.0/8",
        "169.254.0.0/16",
    )
]


def _in_private_network(ip):
    return any(ip in net for net in PRIVATE_NETWORKS)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_private_predicate_matches_explicit_ranges(raw):
    ip = ipaddress.IPv4Address(raw)
    assert is_private_ip(ip) == _in_private_network(ip)


@pytest.mark.parametrize("network", PRIVATE_NETWORKS, ids=str)
def test_private_predicate_at_range_edges(network):
    """The first and last address of each range, and one past each end."""
    first = int(network.network_address)
    last = int(network.broadcast_address)
    edges = [ipaddress.IPv4Address(raw) for raw in (first - 1, first, last, last + 1)]
    assert [_in_private_network(ip) for ip in edges] == [False, True, True, False]
    assert [is_private_ip(ip) for ip in edges] == [False, True, True, False]
    assert [is_private_ip(str(ip)) for ip in edges] == [False, True, True, False]


def test_documentation_ranges_count_as_public():
    # TEST-NET and benchmark space double as simulated public space.
    assert not is_private_ip("198.18.0.1")
    assert not is_private_ip("198.51.100.1")
    assert not is_private_ip("192.0.2.1")


@given(st.integers(min_value=1, max_value=32))
def test_allocations_always_within_supernet(count):
    pool = PrefixPool("198.18.0.0/18", new_prefix=24)
    nets = [pool.allocate() for _ in range(count)]
    supernet = ipaddress.ip_network("198.18.0.0/18")
    assert all(net.subnet_of(supernet) for net in nets)
    # pairwise disjoint
    for i, a in enumerate(nets):
        for b in nets[i + 1:]:
            assert not a.overlaps(b)
