"""Steering of Roaming (SoR) and visited-network selection.

Figure 5 compares Airalo users against generic Play-Poland inbound
roamers and finds the roamers' volumes lower, "probably since they rely
on multiple v-MNOs in the UK (not only the one we analyze)". This module
models that mechanism: a visited country hosts several networks, devices
attach by coverage share, and the b-MNO's steering policy (OTA/SIM-based
SoR) pulls a fraction of attaches onto its preferred partners.

Airalo eSIMs are pinned differently: the profile's preferred-PLMN list
targets the one v-MNO the offering was built around, which is why the
partner network sees *all* of an Airalo user's activity but only a slice
of a generic roamer's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class VisitedNetworkOption:
    """One selectable network in a visited country."""

    operator_name: str
    coverage_share: float   # probability of being picked unsteered

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage_share <= 1.0:
            raise ValueError("coverage share must be in (0, 1]")


@dataclass(frozen=True)
class SteeringPolicy:
    """A b-MNO's roaming-steering configuration for one country.

    ``preferred`` is the ranked partner list; ``compliance`` is the
    fraction of attaches SoR successfully lands on the top available
    preference (OTA steering fails on some devices and some attaches).
    """

    b_mno_name: str
    preferred: Tuple[str, ...]
    compliance: float = 0.8

    def __post_init__(self) -> None:
        if not self.preferred:
            raise ValueError("steering needs at least one preferred partner")
        if not 0.0 <= self.compliance <= 1.0:
            raise ValueError("compliance must be a probability")


@dataclass(frozen=True)
class _Resolution:
    """What every attach of one ``(b-MNO, country, pinned)`` shares.

    ``pinned`` set: the attach lands there and draws nothing. Otherwise
    ``compliance`` (``None`` without a policy) costs one draw, landing on
    ``steer_to`` when compliant and that network operates here; every
    other attach makes one coverage draw against ``bounds``, the
    cumulative coverage shares in option order.
    """

    pinned: Optional[str]
    compliance: Optional[float]
    steer_to: Optional[str]
    bounds: Tuple[Tuple[float, str], ...]

    def pick(self, draw: Callable[[], float]) -> str:
        """The network one attach lands on; ``draw`` is ``rng.random``."""
        if self.pinned is not None:
            return self.pinned
        if (
            self.compliance is not None
            and draw() < self.compliance
            and self.steer_to is not None
        ):
            return self.steer_to
        threshold = draw()
        for cumulative, name in self.bounds:
            if threshold < cumulative:
                return name
        return self.bounds[-1][1]


class NetworkSelector:
    """Selects the v-MNO a roamer camps on in a country."""

    def __init__(self) -> None:
        self._options: Dict[str, List[VisitedNetworkOption]] = {}
        self._policies: Dict[Tuple[str, str], SteeringPolicy] = {}

    def register_country(
        self, country_iso3: str, options: Sequence[VisitedNetworkOption]
    ) -> None:
        if not options:
            raise ValueError("a country needs at least one network")
        total = sum(option.coverage_share for option in options)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"coverage shares must sum to 1 (got {total})")
        names = [option.operator_name for option in options]
        if len(set(names)) != len(names):
            raise ValueError("duplicate operator in country options")
        self._options[country_iso3.upper()] = list(options)

    def set_policy(self, country_iso3: str, policy: SteeringPolicy) -> None:
        country = country_iso3.upper()
        if country not in self._options:
            raise KeyError(f"register {country} before setting policies")
        available = {option.operator_name for option in self._options[country]}
        if not set(policy.preferred) & available:
            raise ValueError(
                f"none of {policy.preferred} operates in {country}"
            )
        self._policies[(policy.b_mno_name, country)] = policy

    def options_in(self, country_iso3: str) -> List[VisitedNetworkOption]:
        country = country_iso3.upper()
        if country not in self._options:
            raise KeyError(f"unknown country: {country}")
        return list(self._options[country])

    def _resolve(
        self, b_mno_name: str, country_iso3: str, pinned_operator: Optional[str]
    ) -> _Resolution:
        """The part every attach of ``(b-MNO, country, pinned)`` shares."""
        country = country_iso3.upper()
        options = self.options_in(country)
        names = [option.operator_name for option in options]
        if pinned_operator is not None and pinned_operator not in names:
            raise ValueError(f"{pinned_operator} does not operate in {country}")
        policy = self._policies.get((b_mno_name, country))
        bounds = []
        cumulative = 0.0
        for option in options:
            cumulative += option.coverage_share
            bounds.append((cumulative, option.operator_name))
        return _Resolution(
            pinned=pinned_operator,
            compliance=None if policy is None else policy.compliance,
            steer_to=None if policy is None else next(
                (name for name in policy.preferred if name in names), None
            ),
            bounds=tuple(bounds),
        )

    def select(
        self,
        b_mno_name: str,
        country_iso3: str,
        rng: random.Random,
        pinned_operator: Optional[str] = None,
    ) -> str:
        """The network one attach lands on.

        ``pinned_operator`` models an Airalo-style preferred-PLMN list:
        when set and present in the country, it always wins (the eSIM
        profile is built for that partner).
        """
        return self._resolve(b_mno_name, country_iso3, pinned_operator).pick(
            rng.random
        )

    def attach_distribution(
        self,
        b_mno_name: str,
        country_iso3: str,
        rng: random.Random,
        samples: int = 10_000,
        pinned_operator: Optional[str] = None,
    ) -> Dict[str, float]:
        """Empirical share of attaches per network."""
        if samples < 1:
            raise ValueError("need at least one sample")
        pick = self._resolve(b_mno_name, country_iso3, pinned_operator).pick
        draw = rng.random
        counts: Dict[str, int] = {}
        for _ in range(samples):
            name = pick(draw)
            counts[name] = counts.get(name, 0) + 1
        return {name: count / samples for name, count in sorted(counts.items())}
