"""The columnar market crawl against the object path, row for row.

``EsimDB.offer_table`` and the reference object path
(``tests/market/reference.py``) share one price formula; these tests pin
that every row of the cached crawl — all 18 weekly listings and the three
late-April vantage listings — equals the offer the object path lists,
and that the Figure 16-19 aggregates and the listing reads of CLI
``market``/``trip`` equal the ones computed over offer objects.
"""

import dataclasses
from array import array
from collections import Counter

import pytest

from repro.core import cache as cache_mod
from repro.geo import default_country_registry
from repro.market import (
    AIRALO,
    ContinentPricing,
    CrawlDataset,
    EsimDB,
    EsimProvider,
    MarketCrawler,
    build_provider_universe,
)
from repro.market.crawler import VANTAGE_CHECK_DAY, VANTAGE_POINTS
from repro.market.esimdb import MAX_DAY

from tests.market import reference

#: The sampling step ``common.get_market`` caches.
STEP = 7
DAYS = list(range(0, 120, STEP))

#: An offer table's template columns, one row per offer of a listing.
TEMPLATE = ("provider", "country", "data_gb")


@pytest.fixture(scope="module")
def countries():
    return default_country_registry()


@pytest.fixture(scope="module")
def esimdb(countries):
    return EsimDB(build_provider_universe(), countries)


@pytest.fixture(scope="module")
def crawl(esimdb):
    return MarketCrawler(esimdb).crawl_daily(
        0, 120, step=STEP, vantage_day=VANTAGE_CHECK_DAY
    )


@pytest.fixture(scope="module")
def timeline(crawl, countries):
    return crawl.price_timeline(countries, provider="Airalo")


def _rows(offers):
    return [
        (o.provider, o.country_iso3, o.data_gb, o.price_usd, o.day, o.vantage)
        for o in offers
    ]


def test_crawl_shape(crawl, tmp_path):
    table = crawl.table
    assert crawl.days() == DAYS and len(DAYS) == 18
    assert [(s.day, s.vantage) for s in reference.vantage_snapshots(crawl)] == [
        (VANTAGE_CHECK_DAY, v) for v in VANTAGE_POINTS
    ]
    assert len(crawl.all_offers()) == 408_006 == 18 * 22_667
    assert len(table.listings) == 21 and table.daily == 18
    assert {name: getattr(table, name).typecode for name in TEMPLATE} == {
        "provider": "H", "country": "H", "data_gb": "d",
    }
    for name in TEMPLATE:
        assert len(getattr(table, name)) == 22_667
    # One price column per distinct set of continent rates: days 0-7,
    # each ramp day 14-56, and days 63-119 with the day-84 probes.
    assert len(table.prices) == 9
    assert all(p.typecode == "d" and len(p) == 22_667 for p in table.prices)
    assert sorted({index for _, _, index in table.listings}) == list(range(9))
    # The cached entry: the template once, nine price columns.
    path = cache_mod.ArtifactCache(tmp_path).store("market", table)
    assert path.stat().st_size <= 2_500_000


@pytest.mark.parametrize("day", DAYS)
def test_daily_listing_equals_object_snapshot(crawl, esimdb, countries, timeline, day):
    objects = reference.snapshot(esimdb, day).offers
    assert _rows(crawl.offers_on(day)) == _rows(objects)
    # Figure 16's per-day point, from the columns vs from the objects.
    expected = reference.price_timeline({day: objects}, countries, provider="Airalo")
    got = {
        continent: [point for point in series if point[0] == day]
        for continent, series in timeline.items()
    }
    assert got == expected
    assert list(got) == list(expected)  # continent order too


@pytest.mark.parametrize("vantage", VANTAGE_POINTS)
def test_vantage_listing_equals_object_snapshot(crawl, esimdb, vantage):
    (listing,) = [
        s for s in reference.vantage_snapshots(crawl) if s.vantage == vantage
    ]
    expected = reference.snapshot(esimdb, VANTAGE_CHECK_DAY, vantage=vantage).offers
    assert _rows(listing.offers) == _rows(expected)


def test_price_discrimination_equals_object_path(crawl, esimdb):
    objects = reference.crawl_vantages(esimdb, VANTAGE_CHECK_DAY)
    assert reference.price_discrimination_detected(objects) is False
    assert crawl.price_discrimination_detected() is False


def test_price_discrimination_detected_from_columns(crawl):
    table = crawl.table
    *listings, (day, vantage, index) = table.listings
    assert vantage == "NJ"
    prices = array("d", table.prices[index])
    prices[-1] += 0.01  # the NJ listing's last plan
    tweaked = CrawlDataset(dataclasses.replace(
        table,
        prices=table.prices + (prices,),
        listings=(*listings, (day, vantage, len(table.prices))),
    ))
    assert tweaked.price_discrimination_detected() is True
    snapshots = reference.vantage_snapshots(tweaked)
    assert reference.price_discrimination_detected(snapshots) is True


def test_price_discrimination_detected_from_objects(crawl):
    madrid, abu_dhabi, _ = reference.vantage_snapshots(crawl)
    tweaked = list(abu_dhabi.offers)
    tweaked[0] = dataclasses.replace(tweaked[0], price_usd=tweaked[0].price_usd + 1.0)
    changed = reference.MarketSnapshot(abu_dhabi.day, abu_dhabi.vantage, tweaked)
    assert reference.price_discrimination_detected([madrid, changed])
    with pytest.raises(ValueError, match="two vantage"):
        reference.price_discrimination_detected([madrid])


def test_offer_table_is_byte_deterministic(esimdb):
    table, again = esimdb.offer_table([0, 1]), esimdb.offer_table([0, 1])
    assert table == again
    for name in TEMPLATE:
        assert getattr(table, name).tobytes() == getattr(again, name).tobytes()
    assert [p.tobytes() for p in table.prices] == [p.tobytes() for p in again.prices]


#: Flat days before the Asia/Africa ramp (days 13-60), ramp days, flat
#: days after it, and days out of order or repeated.
REUSE_DAYS = [0, 7, 13, 14, 21, 28, 35, 42, 49, 56, 60, 63, 119, 21, 0, 56]


def test_offer_table_reuse_equals_per_listing_pricing(esimdb):
    table = esimdb.offer_table(REUSE_DAYS, [(84, "Madrid"), (35, "Abu Dhabi")])
    for day, _, index in table.listings:
        assert table.prices[index].tolist() == reference.listing_prices(esimdb, day), day


def test_offer_table_reuse_with_staggered_ramps(countries):
    """Two schedules ramping over different windows: a listing may share
    one rate with an earlier listing but not the other."""
    pricing = {
        "Europe": ContinentPricing(3.4, ramp_start_day=0, ramp_end_day=10, ramp_delta=1.0),
        "Asia": ContinentPricing(5.0, ramp_start_day=20, ramp_end_day=30, ramp_delta=1.0),
    }
    esimdb = EsimDB(build_provider_universe(8), countries, pricing)
    days = [0, 10, 15, 20, 25, 30, 40, 5, 15, 25]
    table = esimdb.offer_table(days)
    for day, _, index in table.listings:
        assert table.prices[index].tolist() == reference.listing_prices(esimdb, day), day


def test_crawl_prices_each_rate_vector_once(esimdb, monkeypatch):
    calls = []
    plan_prices = EsimProvider.plan_prices

    def counting(self, unit):
        calls.append(self.name)
        return plan_prices(self, unit)

    monkeypatch.setattr(EsimProvider, "plan_prices", counting)
    MarketCrawler(esimdb).crawl_daily(0, 120, step=STEP, vantage_day=VANTAGE_CHECK_DAY)
    ladders = sum(len(esimdb.footprint(p.name)) for p in esimdb.providers)
    # Days 0 and 7 share the base rates, days 14-56 ramp, and days 63-119
    # and the three day-84 probes share the ramped ones: 9 distinct.
    assert len(calls) == 9 * ladders


def test_offer_table_validates_rows(countries):
    esimdb = EsimDB(build_provider_universe(), countries)
    # The day column is "H": a day outside it is a ValueError, not the
    # OverflowError array.array would raise.
    for day in (-1, MAX_DAY + 1, 70_000):
        with pytest.raises(ValueError, match="day must be in"):
            esimdb.offer_table([day])
        with pytest.raises(ValueError, match="day must be in"):
            esimdb.offer_table([0], [(day, "NJ")])
    assert CrawlDataset(esimdb.offer_table([MAX_DAY])).days() == [MAX_DAY]
    # A price that rounds to zero cents fails ESIMOffer's check on both paths.
    free = EsimProvider("Free", price_factor=1e-6, plan_sizes_gb=(1,), coverage_count=999)
    with pytest.raises(ValueError, match="price must be positive"):
        reference.snapshot(EsimDB([free], countries), 0)
    with pytest.raises(ValueError, match="price must be positive"):
        EsimDB([free], countries).offer_table([0])


def test_crawl_dataset_rejects_other_tables():
    with pytest.raises(ValueError):
        CrawlDataset({"kind": "subscriber-population"})


#: Ways a cached crawl entry gets damaged: bytes overwritten in place,
#: and a torn write that kept only the first 100 bytes.
DAMAGE = {
    "scribble": lambda blob: b"\x00scribbled\x00" + blob[11:],
    "truncate": lambda blob: blob[:100],
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_cached_crawl_rebuilds_byte_identical_after_corruption(tmp_path, damage):
    from repro.experiments import common

    previous = cache_mod.get_default_cache()
    store = cache_mod.configure(root=tmp_path / "cache")
    try:
        common.clear_caches()
        built = common.get_market()[1].table
        (path,) = store.root.iterdir()
        assert path.name.startswith("market-crawl-") and path.suffix == ".pkl"
        blob = path.read_bytes()
        path.write_bytes(DAMAGE[damage](blob))
        common.clear_caches()
        assert common.get_market()[1].table == built
        assert store.stats.evictions == 1
        assert path.read_bytes() == blob  # the rebuild was persisted
        common.clear_caches()
        loaded = common.get_market()[1]  # unpickled this time
        assert store.stats.hits == 1
        assert loaded.table == built
    finally:
        common.clear_caches()
        cache_mod.set_default_cache(previous)


# -- one-day listings: the Figure 17/18/19 and X5 aggregates -----------------

#: Feb 1, the vantage check, the Section 6 snapshot, and the last crawl day.
LISTING_DAYS = [0, VANTAGE_CHECK_DAY, 90, 119]


@pytest.mark.parametrize("day", LISTING_DAYS)
def test_listing_aggregates_equal_object_path(esimdb, day):
    listing = CrawlDataset(esimdb.offer_table([day]))
    offers = reference.snapshot(esimdb, day).offers

    medians = listing.provider_country_medians(day)
    expected_medians = reference.provider_country_medians(offers)
    assert medians == expected_medians
    assert list(medians) == list(expected_medians)

    counts = listing.offer_counts(day)
    assert list(counts.items()) == list(Counter(o.provider for o in offers).items())
    assert sum(counts.values()) == len(offers)

    for provider in ("Airalo", "Keepgo", "Nobody"):
        got = listing.median_usd_per_gb_by_country(day, provider=provider)
        expected = reference.median_usd_per_gb_by_country(offers, provider=provider)
        assert list(got.items()) == list(expected.items())  # first-seen order

    curves = listing.size_price_curves(day, AIRALO, max_gb=5.0)
    expected_curves = {
        country.iso3: reference.size_price_curve(offers, country.iso3, "Airalo", max_gb=5.0)
        for country in esimdb.footprint("Airalo")
    }
    # repr, not ==: 1 == 1.0, but the export must keep the ladder's ints.
    assert repr(curves) == repr(expected_curves)


@pytest.mark.parametrize("day", LISTING_DAYS)
def test_country_offers_equal_object_path(esimdb, countries, day):
    """The per-country reads of CLI ``market`` and the trip planner."""
    listing = CrawlDataset(esimdb.offer_table([day]))
    objects = reference.snapshot(esimdb, day)
    for iso3 in [country.iso3 for country in countries] + ["esp", "XYZ"]:
        assert _rows(listing.offers_on(day, iso3)) == _rows(objects.for_country(iso3))
    assert listing.offers_on(day, "XYZ") == []


def test_size_price_curves_keep_ladder_types(esimdb):
    curve = CrawlDataset(esimdb.offer_table([90])).size_price_curves(
        90, AIRALO, max_gb=5.0
    )["ESP"]
    assert [size for size, _ in curve] == [0.5, 1, 2, 3, 5]
    assert [type(size) for size, _ in curve] == [float, int, int, int, int]


def test_size_price_curves_reject_a_foreign_ladder(esimdb):
    listing = CrawlDataset(esimdb.offer_table([90]))
    other = dataclasses.replace(AIRALO, plan_sizes_gb=(1, 2, 3))
    with pytest.raises(ValueError, match="plan ladder"):
        listing.size_price_curves(90, other)


def test_listing_aggregates_need_a_listed_day(esimdb):
    listing = CrawlDataset(esimdb.offer_table([90]))
    with pytest.raises(KeyError):
        listing.provider_country_medians(91)


def test_listing_is_memoised_per_process():
    from repro.experiments import common

    listing = common.get_listing(90)
    assert common.get_listing(90) is listing
    assert listing.days() == [90]
    common.clear_caches()
    assert common.get_listing(90) is not listing
