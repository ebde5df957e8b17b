"""The eSIM-offer aggregator (EsimDB stand-in).

Serves daily snapshots of every provider's catalogue over the covered
regions. The crawler queries it exactly like the paper's crawler queried
esimdb.com: one full listing per day per vantage point. Listings come
back as typed columns, a whole crawl at once (:meth:`EsimDB.offer_table`).
Prices carry no vantage dependence: crawling from Madrid, Abu Dhabi or
New Jersey returns identical numbers, matching the paper's
no-price-discrimination finding.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geo.countries import Country, CountryRegistry
from repro.market.providers import (
    ContinentPricing,
    EsimProvider,
    continent_pricing_for,
)

#: Where a listing is crawled from unless a vantage is named.
DEFAULT_VANTAGE = "NJ"

#: The last day a listing can hold: CLI ``market`` and ``trip`` refuse
#: a later ``--day`` up front.
MAX_DAY = 0xFFFF

#: One listing: ``(day, vantage, index into OfferTable.prices)``.
Listing = Tuple[int, str, int]


@dataclass(frozen=True)
class OfferTable:
    """A whole crawl as typed columns.

    Every listing holds the same offers, stored once as the template:
    ``provider`` and ``country`` are ``H`` codes into the ``providers``
    and ``countries`` label tuples, ``data_gb`` is ``d``. ``prices``
    holds one ``d`` column per distinct set of continent rates, aligned
    with the template. ``listings`` names each listing's price column in
    crawl order, and the first ``daily`` of them are the daily ones. It
    pickles as is: an ``array`` records its machine format and converts
    on load.
    """

    provider: array
    country: array
    data_gb: array
    prices: Tuple[array, ...]
    providers: Tuple[str, ...]
    countries: Tuple[str, ...]
    listings: Tuple[Listing, ...]
    daily: int


class EsimDB:
    """Aggregates provider catalogues into queryable daily snapshots."""

    def __init__(
        self,
        providers: Sequence[EsimProvider],
        countries: CountryRegistry,
        continent_pricing: Optional[Dict[str, ContinentPricing]] = None,
    ) -> None:
        if not providers:
            raise ValueError("aggregator needs at least one provider")
        # One key per row: vantage listings are compared by price column.
        if len({provider.name for provider in providers}) < len(providers):
            raise ValueError("two providers share a name")
        self.providers = list(providers)
        self.countries = countries
        self.continent_pricing = continent_pricing
        # Footprints are stable: compute once.
        universe = len(countries)
        self._footprint: Dict[str, List[Country]] = {
            provider.name: [
                c for c in countries if provider.covers(c, universe)
            ]
            for provider in self.providers
        }

    def footprint(self, provider_name: str) -> List[Country]:
        if provider_name not in self._footprint:
            raise KeyError(f"unknown provider: {provider_name}")
        return list(self._footprint[provider_name])

    def offer_table(
        self,
        days: Sequence[int],
        vantages: Sequence[Tuple[int, str]] = (),
    ) -> OfferTable:
        """A whole crawl as one :class:`OfferTable`.

        Holds one listing per day in ``days`` seen from
        :data:`DEFAULT_VANTAGE`, then one per ``(day, vantage)`` probe in
        ``vantages``. Within a listing, rows are ordered by provider,
        country, then the provider's plan ladder; labels are coded in
        first-listed order.

        Prices come from :meth:`EsimProvider.plan_prices`, once per
        distinct set of continent rates: a listing whose rates all equal
        an earlier listing's shares its price column. Every day must be
        in ``[0, MAX_DAY]``.
        """
        listings = [(day, DEFAULT_VANTAGE) for day in days]
        listings += [(day, vantage) for day, vantage in vantages]
        if any(not 0 <= day <= MAX_DAY for day, _ in listings):
            raise ValueError(f"day must be in [0, {MAX_DAY}]")
        # Label -> code, in first-listed order.
        provider_codes: Dict[str, int] = {}
        country_codes: Dict[str, int] = {}

        # Provider, country and size repeat in every listing: lay them
        # out once. Per (provider, country), keep what does not depend on
        # the day -- the rate schedule and the country factor (a sha256
        # call) -- so a listing only computes prices.
        ladders = []
        col_provider, col_country, col_gb = array("H"), array("H"), array("d")
        for provider in self.providers:
            code = provider_codes.setdefault(provider.name, len(provider_codes))
            n = len(provider.plan_sizes_gb)
            for country in self._footprint[provider.name]:
                ladders.append((
                    provider,
                    continent_pricing_for(country, self.continent_pricing),
                    provider.country_factor(country),
                ))
                col_provider.extend([code] * n)
                country_code = country_codes.setdefault(country.iso3, len(country_codes))
                col_country.extend([country_code] * n)
                col_gb.extend(provider.plan_sizes_gb)
        # ESIMOffer's validation, as one check over the rows.
        if col_gb and min(col_gb) <= 0:
            raise ValueError("plan size must be positive")
        # A listing's prices depend on the day only through the rate of
        # each schedule, and most days share their rates with an earlier
        # listing (the ramps are flat outside days 13-60): price each
        # distinct rate vector once, and point later listings at it.
        schedules = list(dict.fromkeys(pricing for _, pricing, _ in ladders))
        priced: Dict[Tuple[float, ...], int] = {}  # rate vector -> price column
        prices: List[array] = []
        listed = []
        for day, vantage in listings:
            rates = tuple(pricing.rate_on(day) for pricing in schedules)
            index = priced.get(rates)
            if index is None:
                index = priced[rates] = len(prices)
                column = array("d")
                for provider, pricing, factor in ladders:
                    column.extend(provider.plan_prices(
                        provider.unit_rate(pricing.rate_on(day), factor)
                    ))
                if column and min(column) <= 0:
                    raise ValueError("price must be positive")
                prices.append(column)
            listed.append((day, vantage, index))
        return OfferTable(
            col_provider, col_country, col_gb, tuple(prices),
            tuple(provider_codes), tuple(country_codes), tuple(listed), len(days),
        )

    def total_offers_per_day(self) -> int:
        """Catalogue size (the paper quotes 75,875 offers on 2024-05-01)."""
        return sum(
            len(self._footprint[p.name]) * len(p.plan_sizes_gb)
            for p in self.providers
        )
