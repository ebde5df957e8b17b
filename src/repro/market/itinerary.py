"""Multi-country trip planning over the eSIM market.

Given an itinerary (country, expected data need), compare the three ways
a traveller can cover it — one local eSIM per country, one regional plan
per continent group, or a single global plan — and recommend the cheapest
workable combination. This operationalises the Section 6 economics: the
per-GB premium of multi-country convenience versus per-country plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geo.countries import CountryRegistry
from repro.market.crawler import CrawlDataset
from repro.market.regional import RegionalCatalog


@dataclass(frozen=True)
class TripLeg:
    """One stop: where and how much data it needs."""

    country_iso3: str
    data_gb: float

    def __post_init__(self) -> None:
        if self.data_gb <= 0:
            raise ValueError("a leg needs a positive data estimate")


@dataclass(frozen=True)
class PlanChoice:
    """One purchased item of a trip plan."""

    description: str
    price_usd: float
    covers: Tuple[str, ...]
    data_gb: float


@dataclass(frozen=True)
class TripPlan:
    """A complete covering of the itinerary."""

    strategy: str
    choices: Tuple[PlanChoice, ...]

    @property
    def total_usd(self) -> float:
        return sum(choice.price_usd for choice in self.choices)

    @property
    def purchases(self) -> int:
        return len(self.choices)


class ItineraryPlanner:
    """Recommends how to buy data for a multi-country trip.

    Plans from ``listing``, which must hold the daily listing of every
    day a trip is planned on; the CLI passes ``common.get_listing(day)``.
    """

    def __init__(
        self,
        listing: CrawlDataset,
        countries: CountryRegistry,
        provider: str = "Airalo",
    ) -> None:
        self.listing = listing
        self.countries = countries
        self.provider = provider
        self.regional = RegionalCatalog(listing, countries, provider=provider)

    # -- strategies ------------------------------------------------------------

    def per_country_plan(self, legs: Sequence[TripLeg], day: int) -> Optional[TripPlan]:
        """Cheapest adequate local plan for every leg."""
        choices: List[PlanChoice] = []
        for leg in legs:
            candidates = [
                offer
                for offer in self.listing.offers_on(day, leg.country_iso3)
                if offer.provider == self.provider and offer.data_gb >= leg.data_gb
            ]
            if not candidates:
                return None
            best = min(candidates, key=lambda o: (o.price_usd, o.data_gb))
            choices.append(
                PlanChoice(
                    description=f"{best.data_gb:g} GB {self.provider} "
                                f"{leg.country_iso3} plan",
                    price_usd=best.price_usd,
                    covers=(leg.country_iso3.upper(),),
                    data_gb=best.data_gb,
                )
            )
        return TripPlan(strategy="per-country", choices=tuple(choices))

    def regional_plan(self, legs: Sequence[TripLeg], day: int) -> Optional[TripPlan]:
        """One regional plan per continent group of the itinerary."""
        groups: Dict[str, List[TripLeg]] = {}
        for leg in legs:
            continent = self.countries.get(leg.country_iso3).continent
            groups.setdefault(continent, []).append(leg)
        choices: List[PlanChoice] = []
        for continent, group in sorted(groups.items()):
            need = sum(leg.data_gb for leg in group)
            iso3s = [leg.country_iso3 for leg in group]
            candidates = [
                plan
                for plan in self.regional.plans_covering(iso3s, day)
                if plan.data_gb >= need and plan.region != "Discover Global"
            ]
            if not candidates:
                return None
            best = min(candidates, key=lambda p: (p.price_usd, p.data_gb))
            choices.append(
                PlanChoice(
                    description=f"{best.data_gb:g} GB {best.region}",
                    price_usd=best.price_usd,
                    covers=tuple(sorted(i.upper() for i in iso3s)),
                    data_gb=best.data_gb,
                )
            )
        return TripPlan(strategy="regional", choices=tuple(choices))

    def global_plan(self, legs: Sequence[TripLeg], day: int) -> Optional[TripPlan]:
        """One plan covering everything."""
        need = sum(leg.data_gb for leg in legs)
        iso3s = [leg.country_iso3 for leg in legs]
        candidates = [
            plan
            for plan in self.regional.plans_covering(iso3s, day)
            if plan.data_gb >= need and plan.region == "Discover Global"
        ]
        if not candidates:
            return None
        best = min(candidates, key=lambda p: (p.price_usd, p.data_gb))
        return TripPlan(
            strategy="global",
            choices=(
                PlanChoice(
                    description=f"{best.data_gb:g} GB {best.region}",
                    price_usd=best.price_usd,
                    covers=tuple(sorted(i.upper() for i in iso3s)),
                    data_gb=best.data_gb,
                ),
            ),
        )

    # -- recommendation ----------------------------------------------------------

    def recommend(self, legs: Sequence[TripLeg], day: int = 90) -> Dict[str, TripPlan]:
        """All viable strategies keyed by name, plus ``"best"``."""
        if not legs:
            raise ValueError("an itinerary needs at least one leg")
        plans: Dict[str, TripPlan] = {}
        for builder in (self.per_country_plan, self.regional_plan, self.global_plan):
            plan = builder(legs, day)
            if plan is not None:
                plans[plan.strategy] = plan
        if not plans:
            raise ValueError("no strategy can cover this itinerary")
        best = min(plans.values(), key=lambda p: (p.total_usd, p.purchases))
        plans["best"] = best
        return plans


def render_recommendation(plans: Dict[str, TripPlan]) -> str:
    """Human-readable comparison of the strategies."""
    lines = []
    best = plans["best"]
    for name in ("per-country", "regional", "global"):
        if name not in plans:
            continue
        plan = plans[name]
        marker = "  <- recommended" if plan is best and plan.strategy == name else ""
        lines.append(
            f"{name:12} ${plan.total_usd:7.2f} "
            f"({plan.purchases} purchase(s)){marker}"
        )
        for choice in plan.choices:
            lines.append(f"    - {choice.description}: ${choice.price_usd:.2f}")
    return "\n".join(lines)
