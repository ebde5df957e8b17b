"""Scenario: shopping for travel data like the paper's Section 6.

Crawls the simulated eSIM aggregator from three vantage points, compares
Airalo against its competitors and against buying a physical SIM on
arrival, and reports the continent-level price landscape.

Run:  python examples/esim_shopping.py [ISO3] [GB]    (default: ESP 3)
"""

import statistics
import sys

from repro.geo import default_country_registry
from repro.market import (
    DEFAULT_LOCAL_OFFERS,
    EsimDB,
    ItineraryPlanner,
    LocalSIMSurvey,
    MarketCrawler,
    TripLeg,
    build_provider_universe,
    render_recommendation,
)

#: Late April 2024, when the paper crawled from three vantage points.
DAY = 84


def main() -> None:
    destination = sys.argv[1].upper() if len(sys.argv) > 1 else "ESP"
    needed_gb = float(sys.argv[2]) if len(sys.argv) > 2 else 3.0

    countries = default_country_registry()
    crawler = MarketCrawler(EsimDB(build_provider_universe(), countries))

    # Price-discrimination check from Madrid / Abu Dhabi / New Jersey.
    crawl = crawler.crawl_daily(DAY, DAY + 1, vantage_day=DAY)
    print("price discrimination across vantage points:",
          crawl.price_discrimination_detected(), "\n")

    # Best plans for the trip.
    candidates = [
        offer for offer in crawl.offers_on(DAY, destination)
        if offer.data_gb >= needed_gb
    ]
    candidates.sort(key=lambda o: o.price_usd)
    print(f"cheapest plans with >= {needed_gb:g} GB for {destination}:")
    for offer in candidates[:5]:
        print(f"  {offer.provider:14} {offer.data_gb:5.1f} GB  "
              f"${offer.price_usd:7.2f}  (${offer.usd_per_gb:5.2f}/GB)")

    # How does the local physical SIM compare?
    survey = LocalSIMSurvey(DEFAULT_LOCAL_OFFERS)
    try:
        local = survey.for_country(destination)
        print(f"\nlocal SIM on arrival: {local.operator}, {local.data_gb:g} GB for "
              f"${local.price_usd:.2f}"
              + (f" + ${local.sim_fee_usd:.2f} SIM fee" if local.sim_fee_usd else "")
              + f" -> ${local.usd_per_gb:.2f}/GB marginal, "
              f"${local.total_cost_usd:.2f} up-front")
    except KeyError:
        print(f"\n(no local SIM surveyed for {destination})")

    # Market overview.
    print("\nprovider medians across their footprints ($/GB):")
    medians = crawl.provider_country_medians(DAY)
    for provider in ("Airhub", "MobiMatter", "Airalo", "Keepgo"):
        print(f"  {provider:12} ${statistics.median(medians[provider]):5.2f}")

    # Multi-country trip planning on May 1 (day 90): local vs regional
    # vs global plans.
    planner = ItineraryPlanner(crawler.crawl_daily(90, 91), countries)
    legs = [TripLeg(destination, needed_gb), TripLeg("FRA", 1.0), TripLeg("ITA", 1.0)]
    print(f"\ntrip planner ({' -> '.join(leg.country_iso3 for leg in legs)}):")
    print(render_recommendation(planner.recommend(legs, day=90)))

    print("\nAiralo median $/GB per continent:")
    grouped = {}
    for iso3, value in crawl.median_usd_per_gb_by_country(DAY, "Airalo").items():
        grouped.setdefault(countries.get(iso3).continent, []).append(value)
    for continent, values in sorted(grouped.items()):
        print(f"  {continent:14} ${statistics.median(values):5.2f} "
              f"({len(values)} countries)")


if __name__ == "__main__":
    main()
