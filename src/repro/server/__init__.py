"""The always-on measurement service (``repro serve`` / ``repro loadgen``).

Turns the batch query/artefact/history machinery into a long-lived,
zero-dependency HTTP daemon — datasets, indexes and the artifact cache
load once at startup, then concurrent clients slice the corpus over
``GET /query``, fetch experiment results over ``GET /artefact/<id>``
and read the run history over ``GET /history`` / ``GET /regress``.
The live telemetry plane rides on the same daemon: ``GET /metrics``
(Prometheus text scrape), ``GET /stats`` (sampler window JSON),
``GET /events`` (Server-Sent-Events tick stream), ``GET /dashboard``
(auto-updating live view) and ``GET /profile`` (on-demand sampling
profiler). :mod:`repro.server.loadgen` stress-tests it;
:mod:`repro.server.slo` turns the measured latencies into CI-gated
SLO verdicts. See ``docs/SERVICE.md`` for the endpoint reference and
ops runbook.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "MeasurementServer": "app",
    "create_server": "app",
    "LoadGenerator": "loadgen",
    "LoadgenReport": "loadgen",
    "run_loadgen": "loadgen",
    "ROUTE_SLOS_P99_S": "slo",
    "check": "slo",
    "record_from_loadgen": "slo",
    "render_dashboard": "dashboard",
    "ServerState": "state",
})
