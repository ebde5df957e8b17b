"""Service-level objectives for the measurement service.

The budgets below are per-route p99 latency ceilings for the canonical
CI workload (``repro loadgen``'s open-loop schedule, default seed,
against a warm scale-0.15 server). They were set an order of magnitude
above the first reference measurement (~35-38 ms on every route), so
they catch real regressions (an index rebuild on the hot path, a lost
cache, a cold GIL-bound compute stalling the tail) without flaking on
slower CI hardware; the open-loop p99s sit well below that reference.
`docs/SERVICE.md` documents the methodology and the current numbers;
re-measure before tightening.

:func:`record_from_loadgen` is the bridge into the PR 5 history store:
one loadgen run becomes one :class:`~repro.obs.history.RunRecord` of
``kind="loadgen"`` whose "artefacts" are routes — ``wall_s`` holds the
route's p99 and ``slo_s`` its budget — so ``repro regress`` applies
both the absolute SLO gate and the rolling median/MAD
latency-regression gate to service latency with no new machinery.
"""

from __future__ import annotations

import platform
import time
from typing import Dict, Optional

from repro.obs.history import ArtefactStats, RunRecord, new_run_id
from repro.server.loadgen import LoadgenReport

#: Per-route p99 budgets (seconds) for the canonical CI workload.
#: The telemetry plane is part of the SLO surface: a scrape or stats
#: read that stalls under load is an observability outage exactly when
#: observability matters most.
ROUTE_SLOS_P99_S: Dict[str, float] = {
    "healthz": 0.50,
    "history": 0.60,
    "query": 1.00,
    "artefact": 4.00,
    "metrics": 0.60,
    "stats": 0.60,
}

#: Loadgen error-rate ceiling: above this the run is marked failed
#: outright (latency percentiles over failed requests mean nothing).
MAX_ERROR_RATE = 0.01


def check(report: LoadgenReport, slos: Optional[Dict[str, float]] = None) -> Dict[str, str]:
    """Route -> violation description for every route over budget."""
    slos = ROUTE_SLOS_P99_S if slos is None else slos
    violations: Dict[str, str] = {}
    for route, budget in sorted(slos.items()):
        stats = report.routes.get(route)
        if stats is None or not stats.latencies_s:
            continue
        p99 = stats.percentile(0.99)
        if p99 > budget:
            violations[route] = (
                f"p99 {p99 * 1000:.1f}ms > SLO {budget * 1000:.0f}ms"
            )
    return violations


def record_from_loadgen(
    report: LoadgenReport,
    slos: Optional[Dict[str, float]] = None,
    scale: Optional[float] = None,
    host: Optional[str] = None,
    now: Optional[float] = None,
) -> RunRecord:
    """Compact one loadgen run into a history record the regress engine
    can gate. Routes play the role artefacts play for batch runs.

    ``scale`` defaults to the served scale the report carries, so runs
    against different scales never share a baseline.
    """
    slos = ROUTE_SLOS_P99_S if slos is None else slos
    created = now if now is not None else time.time()
    error_rate = (
        report.total_errors / report.total_requests
        if report.total_requests else 1.0
    )
    artefacts: Dict[str, ArtefactStats] = {}
    for route, stats in sorted(report.routes.items()):
        artefacts[route] = ArtefactStats(
            status="ok" if stats.errors == 0 else "error",
            wall_s=stats.percentile(0.99),
            slo_s=slos.get(route, 0.0),
        )
    ok = error_rate <= MAX_ERROR_RATE
    return RunRecord(
        run_id=new_run_id(created),
        kind="loadgen",
        created_unix=created,
        seed=report.seed,
        scale=report.scale if scale is None else scale,
        jobs=report.senders,
        host=host if host is not None else platform.node(),
        ok=ok,
        status="ok" if ok else "failed",
        total_wall_s=report.wall_s,
        artefacts=artefacts,
        metrics={
            "loadgen.requests": float(report.total_requests),
            "loadgen.errors": float(report.total_errors),
            "loadgen.throughput_rps": report.throughput_rps,
            "loadgen.chaos_latency_s": report.chaos_latency_s,
        },
    )
