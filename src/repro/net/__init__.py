"""Internet substrate.

IPv4 address allocation, autonomous-system registry, geoIP database,
AS-level topology with valley-free routing, the fiber latency model and
carrier-grade NAT. These are the pieces the paper's methodology observes
from the outside (public IPs, ASNs, WHOIS, RTTs); here they are modelled
explicitly so that the same observations can be regenerated.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "PrefixPool": "ipv4",
    "AddressAllocator": "ipv4",
    "is_private_ip": "ipv4",
    "parse_ip": "ipv4",
    "AutonomousSystem": "asn",
    "ASKind": "asn",
    "ASRegistry": "asn",
    "GeoIPDatabase": "geoip",
    "GeoIPRecord": "geoip",
    "ASTopology": "topology",
    "NoRouteError": "topology",
    "LatencyModel": "latency",
    "LatencyParams": "latency",
    "CarrierGradeNAT": "cgnat",
})
