"""Pricing analysis (Figures 16-19).

Median $/GB per country / continent / provider, decile bounds for the
world map, the Feb-May timeline, and the size-vs-price curves compared
across countries sharing a b-MNO.
"""

from __future__ import annotations

import statistics
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.geo.countries import CountryRegistry
from repro.market.models import ESIMOffer


def country_medians(pairs: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Median value per country from ``(iso3, value)`` pairs, keyed in
    first-seen order."""
    buckets: Dict[str, List[float]] = {}
    for iso3, value in pairs:
        buckets.setdefault(iso3, []).append(value)
    return {iso3: statistics.median(vals) for iso3, vals in buckets.items()}


def median_usd_per_gb_by_country(
    offers: Iterable[ESIMOffer],
    provider: Optional[str] = None,
) -> Dict[str, float]:
    """Median $/GB per country (one value per country)."""
    return country_medians(
        (offer.country_iso3, offer.usd_per_gb)
        for offer in offers
        if provider is None or offer.provider == provider
    )


def _by_continent(
    per_country: Dict[str, float], countries: CountryRegistry
) -> Dict[str, List[float]]:
    grouped: Dict[str, List[float]] = {}
    for iso3, value in per_country.items():
        continent = countries.get(iso3).continent
        grouped.setdefault(continent, []).append(value)
    return grouped


def median_usd_per_gb_by_continent(
    offers: Iterable[ESIMOffer],
    countries: CountryRegistry,
    provider: Optional[str] = None,
) -> Dict[str, List[float]]:
    """Country-median $/GB samples grouped by continent (Figure 16 boxes)."""
    return _by_continent(
        median_usd_per_gb_by_country(offers, provider=provider), countries
    )


def provider_country_medians(
    offers: Iterable[ESIMOffer],
) -> Dict[str, List[float]]:
    """Per-provider lists of country medians (the Figure 17 CDFs)."""
    return provider_medians(
        (offer.provider, offer.country_iso3, offer.usd_per_gb) for offer in offers
    )


def provider_medians(
    triples: Iterable[Tuple[Hashable, Hashable, float]],
) -> Dict[Hashable, List[float]]:
    """Sorted per-provider lists of country medians from ``(provider,
    country, value)`` triples, keyed in first-seen order (the second
    half of :func:`provider_country_medians`)."""
    buckets: Dict[Tuple[Hashable, Hashable], List[float]] = {}
    for provider, country, value in triples:
        buckets.setdefault((provider, country), []).append(value)
    out: Dict[Hashable, List[float]] = {}
    for (provider, _country), values in buckets.items():
        out.setdefault(provider, []).append(statistics.median(values))
    for values in out.values():
        values.sort()
    return out


def decile_bounds(values: Sequence[float]) -> List[float]:
    """The nine cut points dividing a distribution into deciles (Fig 18)."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    bounds = []
    n = len(ordered)
    for decile in range(1, 10):
        index = min(n - 1, max(0, round(decile * n / 10) - 1))
        bounds.append(ordered[index])
    return bounds


def price_timeline(
    snapshots_by_day: Dict[int, List[ESIMOffer]],
    countries: CountryRegistry,
    provider: str = "Airalo",
) -> Dict[str, List[Tuple[int, float]]]:
    """Per-continent (day, median-of-country-medians) series (Figure 16)."""
    return country_median_timeline(
        {
            day: median_usd_per_gb_by_country(offers, provider=provider)
            for day, offers in snapshots_by_day.items()
        },
        countries,
    )


def country_median_timeline(
    medians_by_day: Dict[int, Dict[str, float]],
    countries: CountryRegistry,
) -> Dict[str, List[Tuple[int, float]]]:
    """Per-continent (day, median-of-country-medians) series from each
    day's per-country medians (the second half of :func:`price_timeline`)."""
    timeline: Dict[str, List[Tuple[int, float]]] = {}
    for day in sorted(medians_by_day):
        grouped = _by_continent(medians_by_day[day], countries)
        for continent, medians in grouped.items():
            timeline.setdefault(continent, []).append(
                (day, statistics.median(medians))
            )
    return timeline


def size_price_curve(
    offers: Iterable[ESIMOffer],
    country_iso3: str,
    provider: str = "Airalo",
    max_gb: float = 5.0,
) -> List[Tuple[float, float]]:
    """(size, price) points for one country's ladder (Figure 19)."""
    points = sorted(
        {
            (offer.data_gb, offer.price_usd)
            for offer in offers
            if offer.provider == provider
            and offer.country_iso3 == country_iso3.upper()
            and offer.data_gb <= max_gb
        }
    )
    return points
