"""Tests for regional plans and the itinerary planner."""

import pytest

from repro.geo import default_country_registry
from repro.market import (
    CrawlDataset,
    EsimDB,
    ItineraryPlanner,
    RegionalCatalog,
    RegionalPlan,
    TripLeg,
    build_provider_universe,
    render_recommendation,
)


@pytest.fixture(scope="module")
def countries():
    return default_country_registry()


@pytest.fixture(scope="module")
def esimdb(countries):
    return EsimDB(build_provider_universe(), countries)


@pytest.fixture(scope="module")
def listing(esimdb):
    return CrawlDataset(esimdb.offer_table([90]))


@pytest.fixture(scope="module")
def catalog(listing, countries):
    return RegionalCatalog(listing, countries)


@pytest.fixture(scope="module")
def planner(listing, countries):
    return ItineraryPlanner(listing, countries)


def test_regional_plan_validation():
    with pytest.raises(ValueError):
        RegionalPlan("Airalo", "X", (), 1.0, 5.0, 0)
    with pytest.raises(ValueError):
        RegionalPlan("Airalo", "X", ("ESP",), 0.0, 5.0, 0)


def test_catalog_builds_all_regions(catalog):
    plans = catalog.plans_on(day=90)
    regions = {plan.region for plan in plans}
    assert "Eurolink" in regions
    assert "Discover Global" in regions
    # Six sizes per region.
    eurolink = [p for p in plans if p.region == "Eurolink"]
    assert len(eurolink) == 6


def test_eurolink_covers_europe_only(catalog, countries):
    plan = catalog.plans_covering(["ESP", "FRA", "DEU"], day=90)[0]
    assert plan.covers("ITA")
    assert not plan.covers("THA")
    assert all(countries.get(c).continent == "Europe" for c in plan.covered_iso3)


def test_global_plan_covers_everything(catalog):
    plans = catalog.plans_covering(["ESP", "THA", "KEN", "USA"], day=90)
    assert plans
    assert all(plan.region == "Discover Global" for plan in plans)


def test_regional_premium_over_country_median(catalog, listing):
    import statistics

    per_country = listing.median_usd_per_gb_by_country(90, provider="Airalo")
    eurolink_1gb = next(
        p for p in catalog.plans_on(90) if p.region == "Eurolink" and p.data_gb == 1.0
    )
    europe_median = statistics.median(
        v for iso3, v in per_country.items() if iso3 in eurolink_1gb.covered_iso3
    )
    assert eurolink_1gb.usd_per_gb > europe_median


def test_planner_single_continent_trip(planner):
    legs = [TripLeg("ESP", 2.0), TripLeg("FRA", 1.5), TripLeg("DEU", 1.0)]
    plans = planner.recommend(legs)
    assert {"per-country", "regional", "global", "best"} <= set(plans)
    assert plans["per-country"].purchases == 3
    assert plans["regional"].purchases == 1
    assert plans["global"].purchases == 1
    best = plans["best"]
    assert best.total_usd == min(
        plans[name].total_usd for name in ("per-country", "regional", "global")
    )


def test_planner_multi_continent_trip(planner):
    legs = [TripLeg("ESP", 1.0), TripLeg("THA", 2.0), TripLeg("KEN", 1.0)]
    plans = planner.recommend(legs)
    # One regional per continent.
    assert plans["regional"].purchases == 3
    assert plans["global"].purchases == 1
    # Coverage invariant: every leg is covered in every strategy.
    for name in ("per-country", "regional", "global"):
        covered = {c for choice in plans[name].choices for c in choice.covers}
        assert {"ESP", "THA", "KEN"} <= covered


def test_planner_validation(planner):
    with pytest.raises(ValueError):
        planner.recommend([])
    with pytest.raises(ValueError):
        TripLeg("ESP", 0.0)
    # The planner reads only the days its listing holds.
    with pytest.raises(KeyError):
        planner.recommend([TripLeg("ESP", 1.0)], day=91)


def test_planner_large_need_prefers_fewer_purchases(planner):
    # A data-hungry single country: local plan wins outright.
    plans = planner.recommend([TripLeg("ESP", 10.0)])
    assert plans["best"].strategy == "per-country"


def test_render_recommendation(planner):
    legs = [TripLeg("ESP", 1.0), TripLeg("FRA", 1.0)]
    text = render_recommendation(planner.recommend(legs))
    assert "recommended" in text
    assert "per-country" in text
    assert "$" in text


def test_catalog_validation(listing, countries):
    with pytest.raises(ValueError):
        RegionalCatalog(listing, countries, size_exponent=0.9)


def test_wholesale_market_and_economics():
    from repro.market import WholesaleMarket, margin_summary

    market = WholesaleMarket()
    share = market.cost_share("Play", "Magti")
    assert 0.45 <= share <= 0.70
    assert share == market.cost_share("Play", "Magti")  # stable
    assert share != market.cost_share("Play", "Movistar")
    rate = market.rate_for("Play", "Magti", retail_usd_per_gb=6.0)
    assert rate.usd_per_gb == pytest.approx(6.0 * share)
    rows = market.economics_for(
        [("GEO", "Play", "Magti"), ("ESP", "Play", "Movistar")],
        {"GEO": 6.0, "ESP": 4.0},
    )
    assert len(rows) == 2
    assert all(0 < r.margin_share < 1 for r in rows)
    summary = margin_summary(rows)
    assert summary["count"] == 2
    import pytest as _pytest
    with _pytest.raises(ValueError):
        margin_summary([])
    with _pytest.raises(ValueError):
        market.rate_for("a", "b", 0.0)
    with _pytest.raises(ValueError):
        WholesaleMarket(min_cost_share=0.8, max_cost_share=0.5)
