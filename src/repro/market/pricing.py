"""Pricing analysis (Figures 16-19).

The reductions behind the crawl's aggregates
(:class:`~repro.market.crawler.CrawlDataset`): median $/GB per country
and per provider, the Feb-May per-continent timeline, and decile bounds
for the world map. Each takes plain keys and floats, not offer objects.
"""

from __future__ import annotations

import statistics
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.geo.countries import CountryRegistry


def country_medians(pairs: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Median value per country from ``(iso3, value)`` pairs, keyed in
    first-seen order."""
    buckets: Dict[str, List[float]] = {}
    for iso3, value in pairs:
        buckets.setdefault(iso3, []).append(value)
    return {iso3: statistics.median(vals) for iso3, vals in buckets.items()}


def provider_medians(
    triples: Iterable[Tuple[Hashable, Hashable, float]],
) -> Dict[Hashable, List[float]]:
    """Sorted per-provider lists of country medians from ``(provider,
    country, value)`` triples, keyed in first-seen order (the Figure 17
    CDFs)."""
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


def country_median_timeline(
    medians_by_day: Dict[int, Dict[str, float]],
    countries: CountryRegistry,
) -> Dict[str, List[Tuple[int, float]]]:
    """Per-continent (day, median-of-country-medians) series from each
    day's per-country medians (Figure 16)."""
    timeline: Dict[str, List[Tuple[int, float]]] = {}
    for day in sorted(medians_by_day):
        grouped: Dict[str, List[float]] = {}
        for iso3, value in medians_by_day[day].items():
            grouped.setdefault(countries.get(iso3).continent, []).append(value)
        for continent, medians in grouped.items():
            timeline.setdefault(continent, []).append(
                (day, statistics.median(medians))
            )
    return timeline
