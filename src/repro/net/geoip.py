"""GeoIP database (ipinfo-like).

The paper geolocates PGWs by looking up the public IP a device was
assigned: IP -> (ASN, country, city, coordinates). This module provides
the same longest-prefix-match lookup over the prefixes the simulated
registries allocate.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.geo.coords import GeoPoint
from repro.net.ipv4 import IPAddress, IPNetwork, parse_ip


@dataclass(frozen=True)
class GeoIPRecord:
    """What an ipinfo-style lookup returns for one prefix."""

    network: IPNetwork
    asn: int
    country_iso3: str
    city: str
    location: GeoPoint


class GeoIPDatabase:
    """Longest-prefix-match IP metadata lookup.

    Prefixes are registered as the world is built; lookups return the most
    specific covering record. Unknown addresses raise ``KeyError`` —
    mirroring how an unregistered IP would break the paper's methodology —
    while ``lookup_opt`` offers the forgiving variant used by analysis
    code that tolerates unmapped hops.
    """

    def __init__(self) -> None:
        # One bucket per prefix length, most specific first. A bucket maps
        # each network's address, as an integer, to its record. Prefixes
        # of one length are aligned and disjoint, so an address falls in
        # at most one per bucket: the one keyed by the address with its
        # host bits cleared.
        self._by_prefixlen: Dict[int, Dict[int, GeoIPRecord]] = {}

    def __setstate__(self, state: dict) -> None:
        # Re-key from the records, which carry their networks: a world
        # pickled while buckets were keyed by ``IPv4Network`` loads into
        # the same index as a fresh build.
        self._by_prefixlen = {
            prefixlen: {
                int(record.network.network_address): record
                for record in bucket.values()
            }
            for prefixlen, bucket in sorted(state["_by_prefixlen"].items(), reverse=True)
        }

    def register(
        self,
        network: Union[str, IPNetwork],
        asn: int,
        country_iso3: str,
        city: str,
        location: GeoPoint,
    ) -> GeoIPRecord:
        """Register a prefix; re-registering the same prefix raises."""
        net = ipaddress.IPv4Network(str(network))
        bucket = self._by_prefixlen.get(net.prefixlen)
        if bucket is None:
            bucket = self._by_prefixlen[net.prefixlen] = {}
            self._by_prefixlen = dict(sorted(self._by_prefixlen.items(), reverse=True))
        key = int(net.network_address)
        if key in bucket:
            raise ValueError(f"prefix already registered: {net}")
        record = GeoIPRecord(
            network=net,
            asn=asn,
            country_iso3=country_iso3.upper(),
            city=city,
            location=location,
        )
        bucket[key] = record
        return record

    def lookup(self, ip: Union[str, IPAddress]) -> GeoIPRecord:
        """Most specific record covering ``ip`` (KeyError when unmapped)."""
        record = self.lookup_opt(ip)
        if record is None:
            raise KeyError(f"address not in GeoIP database: {ip}")
        return record

    def lookup_opt(self, ip: Union[str, IPAddress]) -> Optional[GeoIPRecord]:
        """Like ``lookup`` but returns None for unmapped addresses."""
        addr = int(parse_ip(ip))
        for prefixlen, bucket in self._by_prefixlen.items():
            host_bits = 32 - prefixlen
            record = bucket.get(addr >> host_bits << host_bits)
            if record is not None:
                return record
        return None

    def asn_of(self, ip: Union[str, IPAddress]) -> int:
        """ASN owning ``ip`` — the core primitive of the classifier."""
        return self.lookup(ip).asn

    def prefixes(self) -> List[GeoIPRecord]:
        """All registered records, most specific first."""
        return [record for bucket in self._by_prefixlen.values() for record in bucket.values()]
