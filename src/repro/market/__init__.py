"""eSIM market substrate and economics analysis.

Models the EsimDB-style aggregator the crawler-based campaign scrapes:
54 providers with country plan catalogues, daily price snapshots over
February-May 2024, multi-vantage crawls (price-discrimination check) and
the local physical-SIM survey — everything behind Figures 16-19.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ESIMOffer": "models",
    "LocalSIMOffer": "models",
    "ContinentPricing": "providers",
    "EsimProvider": "providers",
    "build_provider_universe": "providers",
    "AIRALO": "providers",
    "MOBIMATTER": "providers",
    "AIRHUB": "providers",
    "KEEPGO": "providers",
    "EsimDB": "esimdb",
    "MarketCrawler": "crawler",
    "CrawlDataset": "crawler",
    "decile_bounds": "pricing",
    "RegionalCatalog": "regional",
    "RegionalPlan": "regional",
    "REGIONAL_DEFINITIONS": "regional",
    "ItineraryPlanner": "itinerary",
    "TripLeg": "itinerary",
    "TripPlan": "itinerary",
    "PlanChoice": "itinerary",
    "render_recommendation": "itinerary",
    "WholesaleMarket": "wholesale",
    "WholesaleRate": "wholesale",
    "UnitEconomics": "wholesale",
    "margin_summary": "wholesale",
    "LocalSIMSurvey": "survey",
    "DEFAULT_LOCAL_OFFERS": "survey",
})
