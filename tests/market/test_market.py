"""Tests for the eSIM market substrate and pricing analysis."""

import statistics

import pytest

from repro.geo import default_country_registry
from repro.market import (
    AIRALO,
    CrawlDataset,
    ESIMOffer,
    EsimDB,
    EsimProvider,
    LocalSIMOffer,
    LocalSIMSurvey,
    MarketCrawler,
    DEFAULT_LOCAL_OFFERS,
    build_provider_universe,
    decile_bounds,
)
from repro.market.providers import ContinentPricing


@pytest.fixture(scope="module")
def countries():
    return default_country_registry()


@pytest.fixture(scope="module")
def esimdb(countries):
    return EsimDB(build_provider_universe(), countries)


@pytest.fixture(scope="module")
def may_listing(esimdb):
    return CrawlDataset(esimdb.offer_table([90]))  # ~2024-05-01


def test_universe_has_54_providers():
    assert len(build_provider_universe()) == 54


def test_offer_validation():
    with pytest.raises(ValueError):
        ESIMOffer("X", "ESP", 0.0, 5.0, 0)
    with pytest.raises(ValueError):
        ESIMOffer("X", "ESP", 1.0, 0.0, 0)
    offer = ESIMOffer("X", "ESP", 2.0, 9.0, 0)
    assert offer.usd_per_gb == 4.5


def test_provider_validation():
    with pytest.raises(ValueError):
        EsimProvider("bad", price_factor=0.0, plan_sizes_gb=(1,), coverage_count=10)
    with pytest.raises(ValueError):
        EsimProvider("bad", price_factor=1.0, plan_sizes_gb=(), coverage_count=10)
    with pytest.raises(ValueError):
        EsimProvider("bad", 1.0, (1,), 10, size_exponent=0.9)


def test_provider_rejects_a_repeated_plan_size():
    # 1 == 1.0: both would list as the same (provider, country, size).
    with pytest.raises(ValueError, match="repeats a size"):
        EsimProvider("bad", 1.0, (1, 2, 1.0), 10)


def test_esimdb_rejects_two_providers_with_one_name(countries):
    twin = EsimProvider("Airalo", 0.5, (1, 3), 10)
    with pytest.raises(ValueError, match="share a name"):
        EsimDB([AIRALO, twin], countries)


def test_continent_ramp():
    ramp = ContinentPricing(5.0, ramp_start_day=10, ramp_end_day=20, ramp_delta=2.0)
    assert ramp.rate_on(0) == 5.0
    assert ramp.rate_on(10) == 5.0
    assert ramp.rate_on(15) == pytest.approx(6.0)
    assert ramp.rate_on(30) == pytest.approx(7.0)
    flat = ContinentPricing(5.0)
    assert flat.rate_on(100) == 5.0


def test_prices_deterministic(esimdb):
    a = CrawlDataset(esimdb.offer_table([10])).offers_on(10)
    b = CrawlDataset(esimdb.offer_table([10])).offers_on(10)
    assert a == b


def test_superlinear_size_curve(esimdb):
    offers = CrawlDataset(esimdb.offer_table([0])).offers_on(0, "ESP")
    by_size = {o.data_gb: o.usd_per_gb for o in offers if o.provider == "Airalo"}
    # $/GB increases with plan size (the unjustified non-linearity).
    assert by_size[20] > by_size[5] > by_size[1]


def test_provider_medians_ordering(may_listing):
    medians = may_listing.provider_country_medians(90)
    med = {p: statistics.median(v) for p, v in medians.items() if p in
           ("Airalo", "MobiMatter", "Airhub", "Keepgo")}
    # Figure 17's ordering: Airhub < MobiMatter < Airalo < Keepgo.
    assert med["Airhub"] < med["MobiMatter"] < med["Airalo"] < med["Keepgo"]
    # MobiMatter undercuts Airalo by roughly 60%.
    assert 0.3 < med["MobiMatter"] / med["Airalo"] < 0.55


def test_europe_half_of_north_america(may_listing, countries):
    grouped = {}
    for iso3, value in may_listing.median_usd_per_gb_by_country(90, "Airalo").items():
        grouped.setdefault(countries.get(iso3).continent, []).append(value)
    europe = statistics.median(grouped["Europe"])
    north_america = statistics.median(grouped["North America"])
    assert 1.6 < north_america / europe < 2.6


def test_central_america_is_expensive(may_listing, countries):
    per_country = may_listing.median_usd_per_gb_by_country(90, provider="Airalo")
    central = [v for iso3, v in per_country.items()
               if countries.get(iso3).subregion == "Central America"]
    rest = [v for iso3, v in per_country.items()
            if countries.get(iso3).subregion != "Central America"]
    assert statistics.median(central) > 1.3 * statistics.median(rest)


def test_asia_price_drift(esimdb, countries):
    crawler = MarketCrawler(esimdb)
    dataset = crawler.crawl_daily(0, 120, step=10)
    timeline = dataset.price_timeline(countries)
    asia = dict(timeline["Asia"])
    assert asia[110] > asia[0] * 1.1  # upward drift
    europe = dict(timeline["Europe"])
    assert abs(europe[110] - europe[0]) / europe[0] < 0.1  # flat


def test_no_price_discrimination(esimdb):
    crawler = MarketCrawler(esimdb)
    crawl = crawler.crawl_daily(80, 81, vantage_day=80)
    assert not crawl.price_discrimination_detected()
    # A crawl without vantage listings has nothing to compare.
    with pytest.raises(ValueError, match="two vantage"):
        crawler.crawl_daily(0, 3).price_discrimination_detected()


def test_crawler_validation(esimdb):
    crawler = MarketCrawler(esimdb)
    with pytest.raises(ValueError):
        crawler.crawl_daily(10, 10)
    with pytest.raises(ValueError):
        crawler.crawl_daily(0, 10, step=0)


def test_crawl_dataset_accessors(esimdb):
    crawler = MarketCrawler(esimdb)
    dataset = crawler.crawl_daily(0, 3)
    assert dataset.days() == [0, 1, 2]
    assert dataset.offers_on(1)
    with pytest.raises(KeyError):
        dataset.offers_on(99)
    assert len(dataset.all_offers()) == 3 * esimdb.total_offers_per_day()


def test_decile_bounds():
    values = list(range(1, 101))
    bounds = decile_bounds(values)
    assert len(bounds) == 9
    assert bounds[0] == 10
    assert bounds[-1] == 90
    with pytest.raises(ValueError):
        decile_bounds([])


def test_size_price_curve(may_listing):
    curve = may_listing.size_price_curves(90, AIRALO, max_gb=5.0)["GEO"]
    assert curve
    sizes = [s for s, _ in curve]
    prices = [p for _, p in curve]
    assert sizes == sorted(sizes)
    assert prices == sorted(prices)
    assert max(sizes) <= 5.0


def test_play_countries_price_gap(may_listing):
    """Figure 19: Georgia's Play eSIM costs more than Spain's, and the
    gap grows with plan size."""
    curves = may_listing.size_price_curves(90, AIRALO, max_gb=20.0)
    geo, esp = dict(curves["GEO"]), dict(curves["ESP"])
    shared = sorted(set(geo) & set(esp))
    assert shared
    gaps = [geo[s] - esp[s] for s in shared]
    if geo[shared[0]] > esp[shared[0]]:
        assert gaps[-1] > gaps[0]
    else:
        assert gaps[-1] < gaps[0]


def test_local_sim_survey_cheapest_per_gb(may_listing):
    survey = LocalSIMSurvey(DEFAULT_LOCAL_OFFERS)
    airalo_medians = statistics.median(
        may_listing.provider_country_medians(90)["Airalo"]
    )
    assert survey.median_usd_per_gb() < airalo_medians


def test_local_sim_total_cost_often_higher(may_listing):
    survey = LocalSIMSurvey(DEFAULT_LOCAL_OFFERS)
    comparison = survey.total_cost_comparison(may_listing.offers_on(90), needed_gb=3.0)
    assert "ESP" in comparison
    spain = comparison["ESP"]
    # 40 GB for $22.59: best $/GB, but more up-front than a 3 GB plan.
    assert spain["local_usd_per_gb"] < 1.0
    assert spain["local_total_usd"] > spain["airalo_total_usd"] * 0.8
    with pytest.raises(ValueError):
        survey.total_cost_comparison(may_listing.offers_on(90), needed_gb=0)


def test_local_offer_validation():
    with pytest.raises(ValueError):
        LocalSIMOffer("ESP", "X", price_usd=0, data_gb=1)
    offer = LocalSIMOffer("ARE", "Etisalat", price_usd=27.0, data_gb=6.0, sim_fee_usd=15.72)
    assert offer.total_cost_usd == pytest.approx(42.72)
    survey = LocalSIMSurvey(DEFAULT_LOCAL_OFFERS)
    assert survey.for_country("are").sim_fee_usd == pytest.approx(15.72)
    with pytest.raises(KeyError):
        survey.for_country("JPN")
    with pytest.raises(ValueError):
        LocalSIMSurvey([])


def test_day_listing_has_one_row_per_offer(esimdb, may_listing):
    table = may_listing.table
    ((_, _, index),) = table.listings
    assert len(table.provider) == esimdb.total_offers_per_day()
    assert len(table.prices[index]) == esimdb.total_offers_per_day()


def test_footprints(esimdb):
    assert len(esimdb.footprint("Airalo")) == len(default_country_registry())
    with pytest.raises(KeyError):
        esimdb.footprint("Nope")
    # Airalo's 3% / MobiMatter's 5% share of listed offers (roughly).
    counts = CrawlDataset(esimdb.offer_table([0])).offer_counts(0)
    total = sum(counts.values())
    assert total == esimdb.total_offers_per_day()
    airalo_share = counts["Airalo"] / total
    mobimatter_share = counts["MobiMatter"] / total
    assert 0.02 < airalo_share < 0.09
    assert airalo_share < mobimatter_share < 0.12


def test_country_factor_overrides_enforce_fig19_example(may_listing):
    # Georgia's Play eSIM costs more than Spain's (Section 6 / Figure 19).
    curves = may_listing.size_price_curves(90, AIRALO, max_gb=1.0)
    assert dict(curves["GEO"])[1] > dict(curves["ESP"])[1]
