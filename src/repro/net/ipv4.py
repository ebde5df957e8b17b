"""IPv4 address and prefix management.

The simulated registries (RIR-style) hand out /24 prefixes to autonomous
systems, and per-prefix allocators hand out host addresses to PGWs,
CG-NAT pools, CDN edges and DNS resolvers. Everything builds on the
stdlib ``ipaddress`` module; this layer adds deterministic allocation.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, Iterator, List, Union

IPAddress = ipaddress.IPv4Address
IPNetwork = ipaddress.IPv4Network


def parse_ip(value: Union[str, IPAddress]) -> IPAddress:
    """Parse a dotted-quad string into an ``IPv4Address``.

    Accepts an already-parsed address for convenience so call sites do not
    need to special-case their inputs.
    """
    if isinstance(value, ipaddress.IPv4Address):
        return value
    return ipaddress.IPv4Address(value)


# Non-routable space from the simulation's point of view. Deliberately
# narrower than ``IPv4Address.is_private``: documentation/benchmark ranges
# (TEST-NET, 198.18/15) serve as *public* simulated address space here,
# exactly because they can never collide with real operator prefixes.
_PRIVATE_NETWORKS = [
    ipaddress.ip_network("10.0.0.0/8"),
    ipaddress.ip_network("172.16.0.0/12"),
    ipaddress.ip_network("192.168.0.0/16"),
    ipaddress.ip_network("100.64.0.0/10"),  # CGN shared space (PGW <-> CG-NAT)
    ipaddress.ip_network("127.0.0.0/8"),
    ipaddress.ip_network("169.254.0.0/16"),
]

#: ``_PRIVATE_NETWORKS`` as inclusive ``(first, last)`` integer ranges.
_PRIVATE_RANGES = tuple(
    (int(net.network_address), int(net.broadcast_address)) for net in _PRIVATE_NETWORKS
)


def is_private_ip(value: Union[str, IPAddress]) -> bool:
    """True for RFC1918 / CGN (100.64/10) / loopback / link-local space.

    The traceroute demarcation logic in the paper splits paths at the first
    *public* IP; this predicate is that split.
    """
    ip = int(parse_ip(value))
    for first, last in _PRIVATE_RANGES:
        if first <= ip <= last:
            return True
    return False


class PrefixPool:
    """Deterministically allocates subnets out of a supernet.

    Acts as the simulation's address registry: each AS asks for one or
    more /24s and receives consecutive, non-overlapping prefixes. The
    allocation order is the call order, so a seeded world build is fully
    reproducible.
    """

    def __init__(self, supernet: Union[str, IPNetwork], new_prefix: int = 24) -> None:
        self._supernet = ipaddress.IPv4Network(str(supernet))
        if new_prefix < self._supernet.prefixlen:
            raise ValueError(
                f"new_prefix /{new_prefix} is larger than supernet {self._supernet}"
            )
        self._new_prefix = new_prefix
        self._subnets: Iterator[IPNetwork] = self._supernet.subnets(new_prefix=new_prefix)
        self._allocated: List[IPNetwork] = []

    # Live generators cannot be pickled, but allocation order is
    # deterministic: the allocated list says how far the stream advanced,
    # so a restored pool re-derives the iterator and fast-forwards.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_subnets"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        subnets = self._supernet.subnets(new_prefix=self._new_prefix)
        for _ in self._allocated:
            next(subnets)
        self._subnets = subnets

    @property
    def supernet(self) -> IPNetwork:
        return self._supernet

    @property
    def allocated(self) -> List[IPNetwork]:
        """Prefixes handed out so far, in allocation order."""
        return list(self._allocated)

    def allocate(self) -> IPNetwork:
        """Return the next unallocated prefix.

        Raises ``RuntimeError`` when the supernet is exhausted, which in a
        world build signals a sizing bug rather than a recoverable state.
        """
        try:
            subnet = next(self._subnets)
        except StopIteration:
            raise RuntimeError(f"prefix pool {self._supernet} exhausted") from None
        self._allocated.append(subnet)
        return subnet


class AddressAllocator:
    """Hands out host addresses from one prefix, tracking assignments.

    Addresses are returned in ascending order starting at the first host
    address (network + 1). Assignments can be labelled so debugging a
    world build can answer "who owns 203.0.113.7?".
    """

    def __init__(self, network: Union[str, IPNetwork]) -> None:
        self._network = ipaddress.IPv4Network(str(network))
        self._hosts = self._network.hosts()
        self._assignments: Dict[IPAddress, str] = {}

    # Same pickling contract as PrefixPool: every allocation is recorded
    # in ``_assignments`` (addresses are never handed out twice), so its
    # size tells a restored allocator how far to advance a fresh stream.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_hosts"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        hosts = self._network.hosts()
        for _ in range(len(self._assignments)):
            next(hosts)
        self._hosts = hosts

    @property
    def network(self) -> IPNetwork:
        return self._network

    @property
    def assignments(self) -> Dict[IPAddress, str]:
        return dict(self._assignments)

    def allocate(self, label: str = "") -> IPAddress:
        """Return the next free host address in the prefix."""
        try:
            ip = next(self._hosts)
        except StopIteration:
            raise RuntimeError(f"address pool {self._network} exhausted") from None
        self._assignments[ip] = label
        return ip

    def owner_of(self, ip: Union[str, IPAddress]) -> str:
        """Label recorded when ``ip`` was allocated (KeyError if unknown)."""
        return self._assignments[parse_ip(ip)]
