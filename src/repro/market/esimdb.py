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

#: The last day an offer table can hold: its ``day`` column is ``H``.
MAX_DAY = 0xFFFF

#: One listing's rows: ``(day, vantage, first_row, end_row)``.
Listing = Tuple[int, str, int, int]


@dataclass(frozen=True)
class OfferTable:
    """A whole crawl as typed columns, one row per offer.

    ``provider``, ``country`` and ``vantage`` are ``H`` codes into the
    ``providers``, ``countries`` and ``vantages`` label tuples; ``day``
    is ``H``, ``data_gb`` and ``price_usd`` are ``d``. ``listings``
    holds the row range of each listing in crawl order, and the first
    ``daily`` of them are the daily ones. It pickles as is: an ``array``
    records its machine format and converts on load.
    """

    provider: array
    country: array
    vantage: array
    day: array
    data_gb: array
    price_usd: array
    providers: Tuple[str, ...]
    countries: Tuple[str, ...]
    vantages: Tuple[str, ...]
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
        an earlier listing's copies its prices. Every day must be in
        ``[0, MAX_DAY]``, the range of the ``day`` column.
        """
        listings = [(day, DEFAULT_VANTAGE) for day in days]
        listings += [(day, vantage) for day, vantage in vantages]
        if any(not 0 <= day <= MAX_DAY for day, _ in listings):
            raise ValueError(f"day must be in [0, {MAX_DAY}]")
        col_provider, col_country = array("H"), array("H")
        col_vantage, col_day = array("H"), array("H")
        col_gb, col_price = array("d"), array("d")
        # Label -> code, in first-listed order.
        provider_codes: Dict[str, int] = {}
        country_codes: Dict[str, int] = {}
        vantage_codes: Dict[str, int] = {}

        # Provider, country and size repeat in every listing: lay them
        # out once. Per (provider, country), keep what does not depend on
        # the day -- the rate schedule and the country factor (a sha256
        # call) -- so a listing only computes prices.
        ladders = []
        template_provider, template_country = array("H"), array("H")
        template_gb = array("d")
        for provider in self.providers:
            code = provider_codes.setdefault(provider.name, len(provider_codes))
            n = len(provider.plan_sizes_gb)
            for country in self._footprint[provider.name]:
                ladders.append((
                    provider,
                    continent_pricing_for(country, self.continent_pricing),
                    provider.country_factor(country),
                ))
                template_provider.extend([code] * n)
                country_code = country_codes.setdefault(country.iso3, len(country_codes))
                template_country.extend([country_code] * n)
                template_gb.extend(provider.plan_sizes_gb)
        # ESIMOffer's validation, as one check over the rows.
        if template_gb and min(template_gb) <= 0:
            raise ValueError("plan size must be positive")
        rows = len(template_gb)
        # A listing's prices depend on the day only through the rate of
        # each schedule, and most days share their rates with an earlier
        # listing (the ramps are flat outside days 13-60): price each
        # distinct rate vector once, and copy its rows after that.
        schedules = list(dict.fromkeys(pricing for _, pricing, _ in ladders))
        priced: Dict[Tuple[float, ...], int] = {}  # rate vector -> first row
        bounds = []
        for day, vantage in listings:
            first = len(col_price)
            col_provider.extend(template_provider)
            col_country.extend(template_country)
            vantage_code = vantage_codes.setdefault(vantage, len(vantage_codes))
            col_vantage.extend(array("H", [vantage_code]) * rows)
            col_day.extend(array("H", [day]) * rows)
            col_gb.extend(template_gb)
            rates = tuple(pricing.rate_on(day) for pricing in schedules)
            source = priced.get(rates)
            if source is not None:
                col_price.extend(col_price[source:source + rows])
            else:
                priced[rates] = first
                for provider, pricing, factor in ladders:
                    col_price.extend(provider.plan_prices(
                        provider.unit_rate(pricing.rate_on(day), factor)
                    ))
            bounds.append((day, vantage, first, len(col_price)))
        if col_price and min(col_price) <= 0:
            raise ValueError("price must be positive")
        return OfferTable(
            col_provider, col_country, col_vantage, col_day, col_gb, col_price,
            tuple(provider_codes), tuple(country_codes), tuple(vantage_codes),
            tuple(bounds), len(days),
        )

    def total_offers_per_day(self) -> int:
        """Catalogue size (the paper quotes 75,875 offers on 2024-05-01)."""
        return sum(
            len(self._footprint[p.name]) * len(p.plan_sizes_gb)
            for p in self.providers
        )
