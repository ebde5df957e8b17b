"""Mobile Network Aggregator models.

The taxonomy of Figure 2 (light / thick / full MNAs) and the generic
aggregator operator: a sales front-end plus, for thick MNAs, the gateway
slice of the core network realised through IPX hub breakout.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "MNAKind": "aggregator",
    "CountryOffering": "aggregator",
    "MobileNetworkAggregator": "aggregator",
    "OfferingError": "aggregator",
})
