"""eSIM providers and their pricing models.

Prices are deterministic functions of (provider, country, size, day):
a continent base rate (with the drift Figure 16 shows for Asia/Africa),
a stable per-country factor, a provider factor (MobiMatter undercuts
Airalo by ~60%, Keepgo charges a premium), and a mildly superlinear size
curve (the "unjustified non-linear cost increase" of Figure 19). No
vantage term exists — the model, like the measurement, shows no price
discrimination.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.geo.countries import Country

#: Crawl epoch: day 0 is 2024-02-01; the campaign spans ~120 days.
CRAWL_DAYS = 120


@dataclass(frozen=True)
class ContinentPricing:
    """Base $/GB per continent, with an optional linear ramp over time."""

    base_usd_per_gb: float
    ramp_start_day: int = 0
    ramp_end_day: int = 0
    ramp_delta: float = 0.0

    def rate_on(self, day: int) -> float:
        if self.ramp_end_day <= self.ramp_start_day or day <= self.ramp_start_day:
            return self.base_usd_per_gb
        if day >= self.ramp_end_day:
            return self.base_usd_per_gb + self.ramp_delta
        progress = (day - self.ramp_start_day) / (self.ramp_end_day - self.ramp_start_day)
        return self.base_usd_per_gb + self.ramp_delta * progress


#: Asia drifted from ~5.5 to ~6.5 $/GB Feb->Apr; Africa's lower quartile
#: rose similarly (Section 6).
# Bases are set so that *observed* country medians (which include the
# superlinear size ladder, ~1.34x on the median plan) match Figure 16:
# Europe ~4.5, Asia 5.5 -> 6.5, North America ~9 (Central America pushes
# it), Africa trending up.
DEFAULT_CONTINENT_PRICING: Dict[str, ContinentPricing] = {
    "Europe": ContinentPricing(3.4),
    "Asia": ContinentPricing(5.0, ramp_start_day=13, ramp_end_day=60, ramp_delta=0.9),
    "Africa": ContinentPricing(4.6, ramp_start_day=13, ramp_end_day=60, ramp_delta=0.9),
    "North America": ContinentPricing(5.6),
    "South America": ContinentPricing(5.4),
    "Oceania": ContinentPricing(6.2),
}

#: Central America is the expensive outlier of Figure 18.
CENTRAL_AMERICA_MARKUP = 1.6

#: Targeted calibrations for country factors the paper pins down:
#: Figure 19's example has Play-provisioned Georgia costing up to twice
#: Spain as plan sizes grow.
COUNTRY_FACTOR_OVERRIDES: Dict[Tuple[str, str], float] = {
    ("Airalo", "GEO"): 1.45,
    ("Airalo", "ESP"): 0.95,
}


def continent_pricing_for(
    country: Country,
    continent_pricing: Optional[Dict[str, ContinentPricing]] = None,
) -> ContinentPricing:
    """The rate schedule ``country`` is priced under (7 $/GB if unlisted)."""
    return (continent_pricing or DEFAULT_CONTINENT_PRICING).get(
        country.continent, ContinentPricing(7.0)
    )


def _stable_unit(key: str) -> float:
    """Deterministic pseudo-uniform in [0, 1) from a string key."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class EsimProvider:
    """One marketplace seller."""

    name: str
    price_factor: float
    plan_sizes_gb: Tuple[float, ...]
    coverage_count: int                      # countries served
    size_exponent: float = 1.1               # >1: superlinear total price
    country_spread: float = 0.5              # how much country factors vary

    def __post_init__(self) -> None:
        if self.price_factor <= 0 or self.coverage_count < 1:
            raise ValueError("invalid provider parameters")
        if not self.plan_sizes_gb:
            raise ValueError("provider needs at least one plan size")
        if len(set(self.plan_sizes_gb)) < len(self.plan_sizes_gb):
            raise ValueError("plan ladder repeats a size")
        if self.size_exponent < 1.0:
            raise ValueError("size exponent below 1 would mean bulk prices fall")

    def covers(self, country: Country, universe_size: int) -> bool:
        """Stable pseudo-random footprint of ``coverage_count`` countries."""
        if self.coverage_count >= universe_size:
            return True
        score = _stable_unit(f"cov:{self.name}:{country.iso3}")
        return score < self.coverage_count / universe_size

    def country_factor(self, country: Country) -> float:
        """Per-country price multiplier (roaming-agreement economics)."""
        override = COUNTRY_FACTOR_OVERRIDES.get((self.name, country.iso3))
        if override is not None:
            return override
        unit = _stable_unit(f"price:{self.name}:{country.iso3}")
        factor = math.exp((unit - 0.5) * 2.0 * self.country_spread)
        if country.subregion == "Central America":
            factor *= CENTRAL_AMERICA_MARKUP
        return factor

    def unit_rate(self, rate: float, country_factor: float) -> float:
        """$/GB for a 1 GB plan at continent ``rate`` and ``country_factor``."""
        return rate * self.price_factor * country_factor

    def plan_prices(self, unit: float) -> List[float]:
        """The ladder's prices in cents-rounded USD at 1 GB price ``unit``.

        This is the one price formula; the crawl
        (:meth:`~repro.market.esimdb.EsimDB.offer_table`) calls it per
        (provider, country) and distinct set of continent rates.
        """
        exponent = self.size_exponent
        return [round(unit * size**exponent, 2) for size in self.plan_sizes_gb]


# The named providers of Figure 17, calibrated to its medians:
# Airalo ~7.9 $/GB overall, MobiMatter ~60% cheaper, Airhub 2.3, Keepgo 16.2.
AIRALO = EsimProvider(
    name="Airalo", price_factor=1.0,
    plan_sizes_gb=(1, 2, 3, 5, 10, 20, 0.5, 7, 15),
    coverage_count=219,
)
MOBIMATTER = EsimProvider(
    name="MobiMatter", price_factor=0.4,
    plan_sizes_gb=(0.5, 1, 2, 3, 5, 8, 10, 12, 15, 20, 25, 30, 40, 50, 75),
    coverage_count=200,
)
AIRHUB = EsimProvider(
    name="Airhub", price_factor=0.41,
    plan_sizes_gb=(1, 2, 5, 10, 20),
    coverage_count=181,
)
KEEPGO = EsimProvider(
    name="Keepgo", price_factor=2.9,
    plan_sizes_gb=(1, 3, 5, 10),
    coverage_count=180,
)


def build_provider_universe(
    synthetic_count: int = 50,
) -> List[EsimProvider]:
    """The 54 providers EsimDB listed: 4 named + synthetic long tail."""
    providers = [AIRALO, MOBIMATTER, AIRHUB, KEEPGO]
    for index in range(synthetic_count):
        unit = _stable_unit(f"provider:{index}")
        providers.append(
            EsimProvider(
                name=f"Provider-{index + 1:02d}",
                price_factor=0.5 + 1.5 * unit,
                plan_sizes_gb=(1, 3, 5, 10, 20)[: 2 + index % 4],
                coverage_count=20 + int(160 * _stable_unit(f"cov-size:{index}")),
                size_exponent=1.0 + 0.15 * _stable_unit(f"exp:{index}"),
            )
        )
    return providers
