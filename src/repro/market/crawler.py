"""The crawler-based campaign (Section 3.3).

Daily retrievals of the aggregator's full listing from February to May
2024, plus the three-vantage crawl (Madrid, Abu Dhabi, New Jersey) run in
April/May to test for price discrimination.

A crawl is kept as one :class:`~repro.core.columns.ColumnStore` (see
:meth:`~repro.market.esimdb.EsimDB.offer_table`), not as ~400k offer
objects: the persistent cache memory-maps it back in milliseconds, and
the Figure 16 aggregates read the columns directly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.columns import ColumnStore
from repro.geo.countries import CountryRegistry
from repro.market.esimdb import OFFER_TABLE_KIND, EsimDB
from repro.market.models import ESIMOffer, MarketSnapshot
from repro.market.pricing import country_median_timeline, country_medians

#: The multi-vantage check of Section 3.3.
VANTAGE_POINTS = ("Madrid", "Abu Dhabi", "NJ")

#: When the multi-vantage check ran: day 84 is late April 2024.
VANTAGE_CHECK_DAY = 84

#: One listing's rows: ``[day, vantage, first_row, end_row]``.
Listing = Tuple[int, str, int, int]


class CrawlDataset:
    """Everything the crawler collected, over one offer table.

    ``days()``, ``offers_on()``, ``all_offers()`` and the two snapshot
    lists materialise :class:`ESIMOffer` rows on demand. Read back from
    the columns, ``data_gb`` is always a float (``1.0``, not ``1``), so
    materialised offers are for inspection, not for exported results.
    """

    def __init__(self, table: ColumnStore) -> None:
        if table.meta.get("kind") != OFFER_TABLE_KIND:
            raise ValueError(
                f"not an offer table: meta kind {table.meta.get('kind')!r}"
            )
        self.table = table
        listings = [tuple(listing) for listing in table.meta["listings"]]
        daily = table.meta["daily"]
        self._daily: List[Listing] = listings[:daily]
        self._vantage: List[Listing] = listings[daily:]

    # -- objects on demand ----------------------------------------------------

    def _offers(self, listing: Listing) -> List[ESIMOffer]:
        first, end = listing[2], listing[3]
        table = self.table
        providers = table.strings("provider").values()
        countries = table.strings("country").values()
        vantages = table.strings("vantage").values()
        columns = (
            table.column(name)[first:end].tolist()
            for name in ("provider", "country", "data_gb", "price_usd", "day", "vantage")
        )
        return [
            ESIMOffer(providers[p], countries[c], gb, price, day, vantages[v])
            for p, c, gb, price, day, v in zip(*columns)
        ]

    def _snapshot(self, listing: Listing) -> MarketSnapshot:
        return MarketSnapshot(
            day=listing[0], vantage=listing[1], offers=self._offers(listing)
        )

    @property
    def daily_snapshots(self) -> List[MarketSnapshot]:
        return [self._snapshot(listing) for listing in self._daily]

    @property
    def vantage_snapshots(self) -> List[MarketSnapshot]:
        return [self._snapshot(listing) for listing in self._vantage]

    def offers_on(self, day: int) -> List[ESIMOffer]:
        for listing in self._daily:
            if listing[0] == day:
                return self._offers(listing)
        raise KeyError(f"no snapshot for day {day}")

    def days(self) -> List[int]:
        return [listing[0] for listing in self._daily]

    def all_offers(self) -> List[ESIMOffer]:
        return [o for listing in self._daily for o in self._offers(listing)]

    # -- column aggregates ----------------------------------------------------

    def price_timeline(
        self, countries: CountryRegistry, provider: str = "Airalo"
    ) -> Dict[str, List[Tuple[int, float]]]:
        """Figure 16's per-continent series over the daily listings.

        Read from the columns, it equals
        :func:`~repro.market.pricing.price_timeline` over the same offers:
        equal floats, in the same order.
        """
        import numpy as np

        table = self.table
        code = table.strings("provider").lookup(provider)
        mask = np.asarray(table.column("provider")) == code
        country = np.asarray(table.column("country"))
        usd_per_gb = np.asarray(table.column("price_usd")) / np.asarray(
            table.column("data_gb")
        )
        names = table.strings("country").values()
        by_day: Dict[int, Dict[str, float]] = {}
        for day, _, first, end in self._daily:
            rows = mask[first:end]
            by_day[day] = country_medians(zip(
                [names[c] for c in country[first:end][rows].tolist()],
                usd_per_gb[first:end][rows].tolist(),
            ))
        return country_median_timeline(by_day, countries)

    def price_discrimination_detected(self) -> bool:
        """True if any price differs between the vantage listings.

        :meth:`MarketCrawler.price_discrimination_detected`, read from
        the columns.
        """
        table = self.table
        names = ("provider", "country", "data_gb", "price_usd")
        listings = []
        for _, _, first, end in self._vantage:
            p, c, gb, price = (table.column(n)[first:end].tolist() for n in names)
            listings.append(zip(zip(p, c, gb), price))
        return _discriminates(listings)


def _discriminates(listings: Sequence[Iterable[Tuple[Hashable, float]]]) -> bool:
    """True if any key's price differs from (or is absent in) the first
    listing; each listing yields ``((provider, country, size), price)``."""
    if len(listings) < 2:
        raise ValueError("need at least two vantage snapshots to compare")
    reference = dict(listings[0])
    for listing in listings[1:]:
        for key, price in listing:
            if key not in reference or reference[key] != price:
                return True
    return False


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

    def crawl_vantages(
        self, day: int, vantages: Sequence[str] = VANTAGE_POINTS
    ) -> List[MarketSnapshot]:
        """The price-discrimination probe: one snapshot per location."""
        return [self.esimdb.snapshot(day, vantage=v) for v in vantages]

    @staticmethod
    def price_discrimination_detected(snapshots: Sequence[MarketSnapshot]) -> bool:
        """True if any (provider, country, size) price differs by vantage."""
        return _discriminates([
            [((o.provider, o.country_iso3, o.data_gb), o.price_usd) for o in s.offers]
            for s in snapshots
        ])
