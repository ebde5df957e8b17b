"""Mobile network operators and virtual operators.

Each operator owns a PLMN, an AS number, a home location, DNS resolvers,
core-network characteristics (how deep its private path is) and the
bandwidth policy it applies to native vs roaming subscribers — the knob
Section 5.1 concludes dominates roaming throughput.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.cellular.identifiers import IMSIRange, PLMN
from repro.geo.cities import City


class OperatorKind(enum.Enum):
    MNO = "mno"
    MVNO = "mvno"


@dataclass(frozen=True)
class DNSResolverSpec:
    """How an operator resolves DNS for its data sessions.

    Operator resolvers sit inside the core (near the PGW for natives, in
    the home core for HR roamers) and rarely speak DoH; sessions broken
    out via IHBO instead use a public anycast service (Google DNS).
    """

    operator_name: str
    supports_doh: bool = False
    anycast: bool = False


@dataclass(frozen=True)
class BandwidthPolicy:
    """Mean policy rates (Mbps) an operator grants per traffic class.

    These are *shaper targets*: the radio model degrades them with channel
    quality and adds variation. Roaming rates apply to inbound roamers
    (which is how a v-MNO sees Airalo users).
    """

    native_downlink_mbps: float
    native_uplink_mbps: float
    roaming_downlink_mbps: float
    roaming_uplink_mbps: float
    youtube_cap_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        rates = [
            self.native_downlink_mbps,
            self.native_uplink_mbps,
            self.roaming_downlink_mbps,
            self.roaming_uplink_mbps,
        ]
        if any(rate <= 0 for rate in rates):
            raise ValueError("policy rates must be positive")
        if self.youtube_cap_mbps is not None and self.youtube_cap_mbps <= 0:
            raise ValueError("youtube cap must be positive when set")

    def downlink_for(self, roaming: bool) -> float:
        return self.roaming_downlink_mbps if roaming else self.native_downlink_mbps

    def uplink_for(self, roaming: bool) -> float:
        return self.roaming_uplink_mbps if roaming else self.native_uplink_mbps


@dataclass
class MobileOperator:
    """An MNO or MVNO participating in the simulated ecosystem."""

    name: str
    country_iso3: str
    plmn: PLMN
    asn: int
    kind: OperatorKind = OperatorKind.MNO
    home_city: Optional[City] = None
    parent_name: Optional[str] = None          # for MVNOs
    dns: Optional[DNSResolverSpec] = None
    bandwidth: Optional[BandwidthPolicy] = None
    # IMSI ranges this operator rents out to MNAs, keyed by MNA name.
    rented_ranges: Dict[str, List[IMSIRange]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind is OperatorKind.MVNO and not self.parent_name:
            raise ValueError(f"MVNO {self.name} needs a parent operator")
        if self.dns is None:
            self.dns = DNSResolverSpec(operator_name=self.name)

    @property
    def is_mvno(self) -> bool:
        return self.kind is OperatorKind.MVNO

    def rent_range(self, mna_name: str, imsi_range: IMSIRange) -> None:
        """Record that ``imsi_range`` is sub-allocated to an MNA."""
        if not imsi_range.prefix.startswith(self.plmn.code):
            raise ValueError(
                f"range {imsi_range.prefix} does not match {self.name}'s PLMN {self.plmn}"
            )
        self.rented_ranges.setdefault(mna_name, []).append(imsi_range)

    def ranges_for(self, mna_name: str) -> List[IMSIRange]:
        return list(self.rented_ranges.get(mna_name, []))


class OperatorRegistry:
    """All operators of a world, keyed by name."""

    def __init__(self, operators: Iterable[MobileOperator] = ()) -> None:
        self._by_name: Dict[str, MobileOperator] = {}
        for op in operators:
            self.add(op)

    def add(self, operator: MobileOperator) -> None:
        if operator.name in self._by_name:
            raise ValueError(f"duplicate operator: {operator.name}")
        self._by_name[operator.name] = operator

    def get(self, name: str) -> MobileOperator:
        if name not in self._by_name:
            raise KeyError(f"unknown operator: {name}")
        return self._by_name[name]

    def in_country(self, country_iso3: str) -> List[MobileOperator]:
        iso3 = country_iso3.upper()
        return sorted(
            (op for op in self._by_name.values() if op.country_iso3 == iso3),
            key=lambda op: op.name,
        )

    def parent_of(self, operator: MobileOperator) -> MobileOperator:
        """Resolve an MVNO's host MNO (identity for plain MNOs)."""
        if operator.parent_name is None:
            return operator
        return self.get(operator.parent_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[MobileOperator]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)
