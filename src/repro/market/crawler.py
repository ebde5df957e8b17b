"""The crawler-based campaign (Section 3.3).

Daily retrievals of the aggregator's full listing from February to May
2024, plus the three-vantage crawl (Madrid, Abu Dhabi, New Jersey) run in
April/May to test for price discrimination.

A crawl is kept as one :class:`~repro.market.esimdb.OfferTable` of
typed columns (see :meth:`~repro.market.esimdb.EsimDB.offer_table`), not
as ~400k offer objects: the persistent cache unpickles it in
milliseconds, and the Figure 16-19 aggregates read the columns directly.
Those methods import numpy where they compute, so importing this module
(which ``repro list`` does) does not load it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.geo.countries import CountryRegistry
from repro.market.esimdb import EsimDB, Listing, OfferTable
from repro.market.models import ESIMOffer
from repro.market.pricing import (
    country_median_timeline,
    country_medians,
    provider_medians,
)
from repro.market.providers import EsimProvider

if TYPE_CHECKING:
    import numpy as np

#: The multi-vantage check of Section 3.3.
VANTAGE_POINTS = ("Madrid", "Abu Dhabi", "NJ")

#: When the multi-vantage check ran: day 84 is late April 2024.
VANTAGE_CHECK_DAY = 84


class CrawlDataset:
    """Everything the crawler collected, over one offer table.

    ``offers_on()`` and ``all_offers()`` materialise :class:`ESIMOffer`
    rows on demand. Read back from the columns, ``data_gb`` is always a
    float (``1.0``, not ``1``), so materialised offers are for display
    and inspection, not for exported results.
    """

    def __init__(self, table: OfferTable) -> None:
        if not isinstance(table, OfferTable):
            raise ValueError(f"not an offer table: {type(table).__name__}")
        self.table = table
        self._daily = table.listings[:table.daily]
        self._vantage = table.listings[table.daily:]

    # -- objects on demand ----------------------------------------------------

    def _offers(self, listing: Listing, rows) -> List[ESIMOffer]:
        """``listing``'s offers at template ``rows`` (a slice or an index
        array), in row order."""
        import numpy as np

        day, vantage, index = listing
        table = self.table
        columns = (
            np.asarray(column)[rows].tolist()
            for column in (
                table.provider, table.country, table.data_gb, table.prices[index],
            )
        )
        providers, countries = table.providers, table.countries
        return [
            ESIMOffer(providers[p], countries[c], gb, price, day, vantage)
            for p, c, gb, price in zip(*columns)
        ]

    def _listing_on(self, day: int) -> Listing:
        for listing in self._daily:
            if listing[0] == day:
                return listing
        raise KeyError(f"no snapshot for day {day}")

    def offers_on(self, day: int, country: Optional[str] = None) -> List[ESIMOffer]:
        """The daily listing of ``day``, in listed order.

        With ``country`` (an ISO3 code, any case), only that country's
        offers; none for a country no provider covers.
        """
        listing = self._listing_on(day)
        if country is None:
            return self._offers(listing, slice(None))
        table = self.table
        return self._offers(
            listing, self._rows_of(table.country, table.countries, country.upper())
        )

    def days(self) -> List[int]:
        return [listing[0] for listing in self._daily]

    def all_offers(self) -> List[ESIMOffer]:
        return [
            offer
            for listing in self._daily
            for offer in self._offers(listing, slice(None))
        ]

    # -- column aggregates ----------------------------------------------------
    #
    # Each equals the object-path computation of ``tests/market/reference.py``
    # over the same listing's offers: equal floats, in the same order.

    def _usd_per_gb(self, index: int, rows) -> np.ndarray:
        """$/GB at template ``rows`` (a slice or an index array) under
        price column ``index``: ``price_usd / data_gb`` in float64, the
        division :attr:`ESIMOffer.usd_per_gb` makes."""
        import numpy as np

        table = self.table
        return np.asarray(table.prices[index])[rows] / np.asarray(table.data_gb)[rows]

    @staticmethod
    def _rows_of(column: array, labels: Tuple[str, ...], value: str) -> np.ndarray:
        """Indexes of the template rows whose ``column`` holds ``value``'s
        code in ``labels``; none if ``value`` is no label."""
        import numpy as np

        code = labels.index(value) if value in labels else -1
        return np.flatnonzero(np.asarray(column) == code)

    def _country_medians(self, index: int, provider: str) -> Dict[str, float]:
        import numpy as np

        table = self.table
        rows = self._rows_of(table.provider, table.providers, provider)
        names = table.countries
        return country_medians(zip(
            [names[c] for c in np.asarray(table.country)[rows].tolist()],
            self._usd_per_gb(index, rows).tolist(),
        ))

    def price_timeline(
        self, countries: CountryRegistry, provider: str = "Airalo"
    ) -> Dict[str, List[Tuple[int, float]]]:
        """Figure 16's per-continent series over the daily listings:
        per day, the median of ``provider``'s country medians per
        continent."""
        return country_median_timeline(
            {
                day: self._country_medians(index, provider)
                for day, _, index in self._daily
            },
            countries,
        )

    def median_usd_per_gb_by_country(
        self, day: int, provider: str = "Airalo"
    ) -> Dict[str, float]:
        """Median $/GB per country on ``day``, in first-listed order.

        Figure 18's map and X5's retail prices.
        """
        _, _, index = self._listing_on(day)
        return self._country_medians(index, provider)

    def provider_country_medians(self, day: int) -> Dict[str, List[float]]:
        """Per-provider sorted country medians on ``day`` (Figure 17)."""
        _, _, index = self._listing_on(day)
        table = self.table
        medians = provider_medians(zip(
            table.provider.tolist(),
            table.country.tolist(),
            self._usd_per_gb(index, slice(None)).tolist(),
        ))
        return {table.providers[code]: values for code, values in medians.items()}

    def offer_counts(self, day: int) -> Dict[str, int]:
        """Offers per provider on ``day``, in first-listed order."""
        self._listing_on(day)
        names = self.table.providers
        counts = Counter(self.table.provider.tolist())
        return {names[code]: count for code, count in counts.items()}

    def size_price_curves(
        self, day: int, provider: EsimProvider, max_gb: float = 5.0
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Per country, ``provider``'s (size, price) points up to ``max_gb``.

        Figure 19's curves on ``day``: each country's distinct points,
        sorted by size, then price.

        A size is read from ``provider.plan_sizes_gb`` by the row's
        position in the ladder, not from the float column, so it keeps
        the provider's own type: ``1``, not ``1.0``.
        """
        import numpy as np

        _, _, index = self._listing_on(day)
        table = self.table
        rows = self._rows_of(table.provider, table.providers, provider.name)
        sizes = provider.plan_sizes_gb
        ladders, partial = divmod(rows.size, len(sizes))
        gb = np.asarray(table.data_gb)[rows]
        if partial or not np.array_equal(gb, np.tile(np.asarray(sizes, dtype=float), ladders)):
            raise ValueError(f"{provider.name}'s rows do not follow its plan ladder")
        names = table.countries
        curves: Dict[str, Set[Tuple[float, float]]] = {}
        columns = zip(
            np.asarray(table.country)[rows].tolist(),
            gb.tolist(),
            np.asarray(table.prices[index])[rows].tolist(),
        )
        for position, (country, size_gb, price) in enumerate(columns):
            if size_gb <= max_gb:
                curves.setdefault(names[country], set()).add(
                    (sizes[position % len(sizes)], price)
                )
        return {iso3: sorted(points) for iso3, points in curves.items()}

    def price_discrimination_detected(self) -> bool:
        """True if any (provider, country, size) price differs between
        the vantage listings: their price columns differ, since no
        template row repeats a key (see :class:`EsimDB`)."""
        if len(self._vantage) < 2:
            raise ValueError("need at least two vantage snapshots to compare")
        first, *others = (self.table.prices[index] for _, _, index in self._vantage)
        return any(prices != first for prices in others)


class MarketCrawler:
    """Runs the full crawl schedule against an aggregator."""

    def __init__(self, esimdb: EsimDB) -> None:
        self.esimdb = esimdb

    def crawl_daily(
        self,
        start_day: int = 0,
        end_day: int = 120,
        step: int = 1,
        vantage_day: Optional[int] = None,
    ) -> CrawlDataset:
        """One listing per ``step`` days over [start_day, end_day).

        With ``vantage_day`` set, the dataset also holds the
        :data:`VANTAGE_POINTS` listings of that day.
        """
        if end_day <= start_day:
            raise ValueError("end_day must exceed start_day")
        if step < 1:
            raise ValueError("step must be >= 1")
        probes = (
            [(vantage_day, v) for v in VANTAGE_POINTS]
            if vantage_day is not None else []
        )
        return CrawlDataset(
            self.esimdb.offer_table(range(start_day, end_day, step), probes)
        )
