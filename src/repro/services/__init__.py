"""Service-provider substrate.

The public-internet endpoints the measurement campaigns talk to: content
providers (Google, Facebook) with global edges, CDNs serving the jQuery
asset, Ookla-like and fast.com-like speedtest fleets, DNS services
(operator resolvers and public anycast with DoH), and the ABR video
backend behind the YouTube probe.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ServiceFabric": "fabric",
    "ServerSite": "providers",
    "ServiceProvider": "providers",
    "DNSService": "dns",
    "DNSAnswer": "dns",
    "DoHOverheadModel": "dns",
    "Asset": "cdn",
    "CDNProvider": "cdn",
    "CDNFetchResult": "cdn",
    "JQUERY_ASSET": "cdn",
    "SpeedtestFleet": "speedtest",
    "SpeedtestServer": "speedtest",
    "SpeedtestResult": "speedtest",
    "AdaptiveBitratePlayer": "video",
    "VideoLadderRung": "video",
    "PlaybackReport": "video",
    "YOUTUBE_LADDER": "video",
})
