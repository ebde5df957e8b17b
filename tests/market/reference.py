"""The market listing as ``ESIMOffer`` objects: the reference the columns
are checked against.

The crawl (``EsimDB.offer_table``) builds every listing as typed columns
and ``CrawlDataset`` reduces them with numpy. This module is the
straightforward object path those columns replaced: one ``ESIMOffer`` per
plan, from the same price formula (``EsimProvider.plan_prices``), and
the Figure 16-19 reductions written over offer lists.
``test_crawl_columns.py`` checks the columns against it row for row and
aggregate for aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geo.countries import Country, CountryRegistry
from repro.market.crawler import VANTAGE_POINTS, CrawlDataset
from repro.market.esimdb import DEFAULT_VANTAGE, EsimDB
from repro.market.models import ESIMOffer
from repro.market.pricing import (
    country_median_timeline,
    country_medians,
    provider_medians,
)
from repro.market.providers import (
    ContinentPricing,
    EsimProvider,
    continent_pricing_for,
)


@dataclass
class MarketSnapshot:
    """All offers visible on the aggregator on one day from one vantage."""

    day: int
    vantage: str
    offers: List[ESIMOffer] = field(default_factory=list)

    def for_country(self, iso3: str) -> List[ESIMOffer]:
        iso3 = iso3.upper()
        return [o for o in self.offers if o.country_iso3 == iso3]


# -- building listings -------------------------------------------------------


def unit_price(
    provider: EsimProvider,
    country: Country,
    day: int,
    continent_pricing: Optional[Dict[str, ContinentPricing]] = None,
) -> float:
    """$/GB for a 1 GB plan of ``provider`` in ``country`` on ``day``."""
    rate = continent_pricing_for(country, continent_pricing).rate_on(day)
    return provider.unit_rate(rate, provider.country_factor(country))


def offers_for(
    provider: EsimProvider,
    country: Country,
    day: int,
    vantage: str = DEFAULT_VANTAGE,
    continent_pricing: Optional[Dict[str, ContinentPricing]] = None,
) -> List[ESIMOffer]:
    """``provider``'s plan ladder for one country on one day."""
    prices = provider.plan_prices(unit_price(provider, country, day, continent_pricing))
    return [
        ESIMOffer(provider.name, country.iso3, size, price, day, vantage)
        for size, price in zip(provider.plan_sizes_gb, prices)
    ]


def listing_prices(esimdb: EsimDB, day: int) -> List[float]:
    """One listing's ``price_usd`` column, priced ladder by ladder.

    ``offer_table`` used to price every listing this way; it now prices
    each distinct set of continent rates once, and a listing names its
    price column.
    """
    return [
        price
        for provider in esimdb.providers
        for country in esimdb.footprint(provider.name)
        for price in provider.plan_prices(
            unit_price(provider, country, day, esimdb.continent_pricing)
        )
    ]


def snapshot(esimdb: EsimDB, day: int, vantage: str = DEFAULT_VANTAGE) -> MarketSnapshot:
    """Every offer listed on ``day`` as seen from ``vantage``."""
    listed = MarketSnapshot(day=day, vantage=vantage)
    for provider in esimdb.providers:
        for country in esimdb.footprint(provider.name):
            listed.offers.extend(offers_for(
                provider, country, day, vantage, esimdb.continent_pricing,
            ))
    return listed


def crawl_vantages(
    esimdb: EsimDB, day: int, vantages: Sequence[str] = VANTAGE_POINTS
) -> List[MarketSnapshot]:
    """The price-discrimination probe: one snapshot per location."""
    return [snapshot(esimdb, day, vantage=v) for v in vantages]


# -- reading a crawl's vantage listings back as objects ---------------------


def vantage_snapshots(crawl: CrawlDataset) -> List[MarketSnapshot]:
    """The crawl's ``(day, vantage)`` probe listings, in crawl order: the
    table's template rows, each priced from the listing's price column."""
    table = crawl.table
    providers, countries = table.providers, table.countries
    template = [table.provider.tolist(), table.country.tolist(), table.data_gb.tolist()]
    out = []
    for day, vantage, index in table.listings[table.daily:]:
        out.append(MarketSnapshot(day, vantage, [
            ESIMOffer(providers[p], countries[c], gb, price, day, vantage)
            for p, c, gb, price in zip(*template, table.prices[index].tolist())
        ]))
    return out


# -- the Figure 16-19 reductions over offers ---------------------------------


def price_discrimination_detected(snapshots: Sequence[MarketSnapshot]) -> bool:
    """True if any (provider, country, size) price differs by vantage."""
    if len(snapshots) < 2:
        raise ValueError("need at least two vantage snapshots to compare")
    reference = {
        (o.provider, o.country_iso3, o.data_gb): o.price_usd
        for o in snapshots[0].offers
    }
    return any(
        reference.get((o.provider, o.country_iso3, o.data_gb)) != o.price_usd
        for listed in snapshots[1:]
        for o in listed.offers
    )


def median_usd_per_gb_by_country(
    offers: Iterable[ESIMOffer], provider: Optional[str] = None
) -> Dict[str, float]:
    """Median $/GB per country (one value per country)."""
    return country_medians(
        (offer.country_iso3, offer.usd_per_gb)
        for offer in offers
        if provider is None or offer.provider == provider
    )


def provider_country_medians(offers: Iterable[ESIMOffer]) -> Dict[str, List[float]]:
    """Per-provider lists of country medians (the Figure 17 CDFs)."""
    return provider_medians(
        (offer.provider, offer.country_iso3, offer.usd_per_gb) for offer in offers
    )


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


def size_price_curve(
    offers: Iterable[ESIMOffer],
    country_iso3: str,
    provider: str = "Airalo",
    max_gb: float = 5.0,
) -> List[Tuple[float, float]]:
    """(size, price) points for one country's ladder (Figure 19)."""
    return sorted({
        (offer.data_gb, offer.price_usd)
        for offer in offers
        if offer.provider == provider
        and offer.country_iso3 == country_iso3.upper()
        and offer.data_gb <= max_gb
    })
