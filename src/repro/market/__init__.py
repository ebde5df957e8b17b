"""eSIM market substrate and economics analysis.

Models the EsimDB-style aggregator the crawler-based campaign scrapes:
54 providers with country plan catalogues, daily price snapshots over
February-May 2024, multi-vantage crawls (price-discrimination check) and
the local physical-SIM survey — everything behind Figures 16-19.
"""

from repro.market.models import ESIMOffer, LocalSIMOffer
from repro.market.providers import (
    ContinentPricing,
    EsimProvider,
    build_provider_universe,
    AIRALO,
    MOBIMATTER,
    AIRHUB,
    KEEPGO,
)
from repro.market.esimdb import EsimDB
from repro.market.crawler import MarketCrawler, CrawlDataset
from repro.market.pricing import decile_bounds
from repro.market.regional import RegionalCatalog, RegionalPlan, REGIONAL_DEFINITIONS
from repro.market.itinerary import (
    ItineraryPlanner,
    TripLeg,
    TripPlan,
    PlanChoice,
    render_recommendation,
)
from repro.market.wholesale import (
    WholesaleMarket,
    WholesaleRate,
    UnitEconomics,
    margin_summary,
)
from repro.market.survey import LocalSIMSurvey, DEFAULT_LOCAL_OFFERS

__all__ = [
    "ESIMOffer",
    "LocalSIMOffer",
    "ContinentPricing",
    "EsimProvider",
    "build_provider_universe",
    "AIRALO",
    "MOBIMATTER",
    "AIRHUB",
    "KEEPGO",
    "EsimDB",
    "MarketCrawler",
    "CrawlDataset",
    "decile_bounds",
    "RegionalCatalog",
    "RegionalPlan",
    "REGIONAL_DEFINITIONS",
    "ItineraryPlanner",
    "TripLeg",
    "TripPlan",
    "PlanChoice",
    "render_recommendation",
    "WholesaleMarket",
    "WholesaleRate",
    "UnitEconomics",
    "margin_summary",
    "LocalSIMSurvey",
    "DEFAULT_LOCAL_OFFERS",
]
