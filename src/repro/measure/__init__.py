"""Measurement tooling.

The instruments of both campaigns: traceroute (mtr-like), ping, the
speedtest client, curl-style CDN fetches, the NextDNS-style resolver
probe, the stats-for-nerds video probe, the AmiGo control server with
its measurement endpoints, and the web-based campaign runner.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CampaignHealth": "records",
    "ConfigurationError": "amigo",
    "DatasetIndex": "query",
    "KindIndex": "query",
    "MeasurementContext": "records",
    "MeasurementDataset": "dataset",
    "RecordQuery": "query",
    "ProbeTimeout": "clients",
    "QuarantineEvent": "records",
    "ServiceOutage": "clients",
    "TestHealth": "records",
    "TransientNetworkError": "clients",
    "TracerouteRecord": "records",
    "SpeedtestRecord": "records",
    "CDNRecord": "records",
    "DNSRecord": "records",
    "VideoRecord": "records",
    "WebMeasurementRecord": "records",
    "Hop": "traceroute",
    "TracerouteEngine": "traceroute",
    "TracerouteResult": "traceroute",
    "ping_provider": "ping",
    "VoIPRecord": "voip",
    "probe_voip": "voip",
    "rfc3550_jitter": "voip",
    "e_model_r_factor": "voip",
    "mos_from_r": "voip",
    "run_speedtest": "clients",
    "fetch_from_cdn": "clients",
    "probe_dns": "clients",
    "probe_video": "clients",
    "AmigoControlServer": "amigo",
    "MeasurementEndpoint": "amigo",
    "DeviceStatus": "amigo",
    "WebCampaignRunner": "webcampaign",
    "ScreenshotValidator": "webcampaign",
    "UploadRejected": "webcampaign",
})


#: Table 1 of the paper: the instruments of the device-based campaign,
#: what they do, and what they make visible — as implemented here.
TOOL_CATALOGUE = (
    ("Speedtest", "Ookla-style test against the server nearest the "
     "session's public-IP geolocation", "latency, down/up bandwidth",
     "repro.measure.clients.run_speedtest"),
    ("Traceroute", "mtr-style run to Google/Facebook/YouTube with "
     "per-hop best RTTs", "latency, network path, ASNs",
     "repro.measure.traceroute.TracerouteEngine"),
    ("CDN", "download jquery.min.js (v3.6.0) from five CDN providers "
     "with curl-style phase timing", "download time, cache state",
     "repro.measure.clients.fetch_from_cdn"),
    ("DNS", "identify the serving resolver NextDNS-style and time a "
     "lookup", "resolver identity/geo, lookup time, DoH",
     "repro.measure.clients.probe_dns"),
    ("YouTube", "stats-for-nerds playback of a 4K-capable video",
     "playback resolution, buffer occupancy",
     "repro.measure.clients.probe_video"),
    ("VoIP", "RTP-style packet train scored with the G.107 E-model "
     "(the paper's future-work metrics)", "jitter, loss, MOS",
     "repro.measure.voip.probe_voip"),
)
