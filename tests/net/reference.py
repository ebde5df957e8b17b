"""GeoIP lookup by linear scan: the reference the masked lookup is
checked against.

``GeoIPDatabase.lookup_opt`` used to test ``addr in net`` against every
registered prefix, longest prefix length first. This is that computation,
unchanged; ``test_mask_lookup.py`` checks the masked dictionary lookup
against it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.net.geoip import GeoIPRecord
from repro.net.ipv4 import IPAddress, parse_ip


def lookup_opt(
    records: Iterable[GeoIPRecord], ip: Union[str, IPAddress]
) -> Optional[GeoIPRecord]:
    """The most specific of ``records`` (in registration order) covering
    ``ip``."""
    addr = parse_ip(ip)
    by_length = sorted(records, key=lambda record: record.network.prefixlen, reverse=True)
    for record in by_length:
        if addr in record.network:
            return record
    return None
