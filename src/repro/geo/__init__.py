"""Geography substrate.

Provides WGS84 coordinates, great-circle distance, and the country/city
databases every other subsystem (cellular, IPX, services, market) builds on.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "GeoPoint": "coords",
    "haversine_km": "coords",
    "initial_bearing_deg": "coords",
    "midpoint": "coords",
    "Country": "countries",
    "CountryRegistry": "countries",
    "default_country_registry": "countries",
    "City": "cities",
    "CityRegistry": "cities",
    "default_city_registry": "cities",
})
