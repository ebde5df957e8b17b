"""Regional and global eSIM plans.

Beyond the per-country plans the crawler scrapes, Airalo-style
marketplaces sell *regional* eSIMs (one profile covering a continent)
and *global* ones. Their unit prices carry a convenience premium over
the covered countries' medians, which is what makes the multi-country
trip-planning problem (:mod:`repro.market.itinerary`) interesting.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.geo.countries import CountryRegistry
from repro.market.crawler import CrawlDataset

#: Regional catalogue shape: (region name, continent filter, premium).
REGIONAL_DEFINITIONS: Tuple[Tuple[str, Optional[str], float], ...] = (
    ("Eurolink", "Europe", 1.25),
    ("Asialink", "Asia", 1.3),
    ("Africa Connect", "Africa", 1.35),
    ("Latamlink", "South America", 1.3),
    ("North America Pass", "North America", 1.3),
    ("Oceanialink", "Oceania", 1.3),
    ("Discover Global", None, 1.6),
)

#: Plan sizes regional eSIMs come in (GB).
REGIONAL_SIZES: Tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 10.0, 20.0)


@dataclass(frozen=True)
class RegionalPlan:
    """One multi-country plan."""

    provider: str
    region: str
    covered_iso3: Tuple[str, ...]
    data_gb: float
    price_usd: float
    day: int

    def __post_init__(self) -> None:
        if not self.covered_iso3:
            raise ValueError("a regional plan must cover at least one country")
        if self.data_gb <= 0 or self.price_usd <= 0:
            raise ValueError("plan size and price must be positive")

    @property
    def usd_per_gb(self) -> float:
        return self.price_usd / self.data_gb

    def covers(self, iso3: str) -> bool:
        return iso3.upper() in self.covered_iso3

    def covers_all(self, iso3s: Sequence[str]) -> bool:
        return all(self.covers(iso3) for iso3 in iso3s)


class RegionalCatalog:
    """Derives a provider's regional plans from its country catalogue.

    The catalogue is the provider's rows of ``listing``, which must hold
    the daily listing of every day asked for. The unit rate of a
    regional plan is the median of the covered countries' per-GB medians
    times the region's convenience premium; the plan price follows the
    provider's superlinear size curve.
    """

    def __init__(
        self,
        listing: CrawlDataset,
        countries: CountryRegistry,
        provider: str = "Airalo",
        size_exponent: float = 1.1,
    ) -> None:
        if size_exponent < 1.0:
            raise ValueError("size exponent must be >= 1")
        self.listing = listing
        self.countries = countries
        self.provider = provider
        self.size_exponent = size_exponent

    def plans_on(self, day: int) -> List[RegionalPlan]:
        per_country = self.listing.median_usd_per_gb_by_country(
            day, provider=self.provider
        )
        plans: List[RegionalPlan] = []
        for region, continent, premium in REGIONAL_DEFINITIONS:
            if continent is None:
                covered = tuple(sorted(per_country))
            else:
                covered = tuple(
                    sorted(
                        iso3 for iso3 in per_country
                        if self.countries.get(iso3).continent == continent
                    )
                )
            if not covered:
                continue
            base_rate = statistics.median(per_country[iso3] for iso3 in covered)
            unit = base_rate * premium
            for size in REGIONAL_SIZES:
                plans.append(
                    RegionalPlan(
                        provider=self.provider,
                        region=region,
                        covered_iso3=covered,
                        data_gb=size,
                        price_usd=round(unit * size**self.size_exponent, 2),
                        day=day,
                    )
                )
        return plans

    def plans_covering(self, iso3s: Sequence[str], day: int) -> List[RegionalPlan]:
        """Regional plans covering every country of an itinerary leg set."""
        wanted = [iso3.upper() for iso3 in iso3s]
        return [plan for plan in self.plans_on(day) if plan.covers_all(wanted)]
