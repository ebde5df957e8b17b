"""IPX network substrate.

The private interconnection fabric between mobile operators: IPX
providers peer with each other and sell roaming-hub services (signalling,
GTP transport, and — for thick MNAs — hub-breakout PGWs) to operators.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "IPXProvider": "network",
    "IPXNetwork": "network",
    "IPXReachabilityError": "network",
    "DemandPoint": "placement",
    "greedy_k_median": "placement",
    "mean_weighted_distance_km": "placement",
    "assignment": "placement",
})
