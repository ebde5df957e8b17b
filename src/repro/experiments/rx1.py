"""RX1: the campaign under fire — resilience of the headline results.

Runs the device campaign twice with the same seed: once clean and once
under paper-plausible fault rates (attach rejects with 3GPP causes,
SIM-flip wedges, transient service outages and probe timeouts, endpoint
churn). The chaotic run must (a) still complete >= 95% of the plan via
retries, quarantine recovery and make-up days, and (b) preserve the
paper's headline *shape*: native < IHBO < HR latency inflation (HX1)
and the Figure 13 speed-category split (roaming eSIMs slower than
physical SIMs).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import speed_categories
from repro.cellular import SIMKind
from repro.cellular.roaming import RoamingArchitecture
from repro.experiments import common
from repro.faults import ChaosConfig
from repro.measure.dataset import MeasurementDataset

#: The acceptance bar for plan completion under paper-plausible faults.
COMPLETION_TARGET = 0.95


def default_chaos(seed: int = common.DEFAULT_SEED) -> ChaosConfig:
    """Paper-plausible fault rates, keyed to the study seed."""
    return ChaosConfig.paper_plausible(seed=seed)


def _latencies_by_architecture(
    dataset: MeasurementDataset,
) -> Dict[RoamingArchitecture, List[float]]:
    """Every eSIM RTT observation, grouped by roaming architecture."""
    observations: List[Tuple] = [
        (r.context, r.latency_ms) for r in dataset.speedtests
    ]
    observations.extend(
        (r.context, r.final_rtt_ms)
        for r in dataset.traceroutes
        if r.final_rtt_ms is not None
    )
    by_arch: Dict[RoamingArchitecture, List[float]] = {}
    for ctx, latency in observations:
        if ctx.sim_kind is SIMKind.ESIM:
            by_arch.setdefault(ctx.architecture, []).append(latency)
    return by_arch


def _mean_by_architecture(
    dataset: MeasurementDataset,
) -> Dict[RoamingArchitecture, Optional[float]]:
    by_arch = _latencies_by_architecture(dataset)
    return {
        arch: (statistics.fmean(values) if values else None)
        for arch, values in by_arch.items()
    }


def _categories(dataset: MeasurementDataset, sim_kind: SIMKind) -> Dict[str, float]:
    records = (
        dataset.select("speedtest")
        .where(sim_kind=sim_kind)
        .filter(lambda r: r.passes_cqi_filter)
        .records()
    )
    if not records:
        return {"slow": 0.0, "medium": 0.0, "fast": 0.0}
    return speed_categories(records)


def run(
    scale: float = common.DEFAULT_SCALE,
    seed: int = common.DEFAULT_SEED,
    chaos: Optional[ChaosConfig] = None,
) -> Dict:
    chaos = chaos if chaos is not None and chaos.enabled else default_chaos(seed)
    clean = common.get_device_dataset(scale, seed)
    stressed = common.get_device_dataset(scale, seed, chaos=chaos)
    health = stressed.health

    means = _mean_by_architecture(stressed)
    native = means.get(RoamingArchitecture.NATIVE)
    ihbo = means.get(RoamingArchitecture.IHBO)
    hr = means.get(RoamingArchitecture.HR)
    ordering_holds = (
        native is not None and ihbo is not None and hr is not None
        and native < ihbo < hr
    )

    return {
        "chaos": chaos,
        "completion_rate": health.completion_rate(),
        "completion_target": COMPLETION_TARGET,
        "records_clean": clean.total_records(),
        "records_stressed": stressed.total_records(),
        "retried": health.retried_total,
        "dropped": health.dropped_total,
        "attach_retries": health.attach_retries,
        "attach_failures": health.attach_failures,
        "quarantines": len(health.quarantines),
        "offline_days": health.offline_days,
        "makeup_days": health.makeup_days,
        "mean_latency_ms": {
            "native": native, "ihbo": ihbo, "hr": hr,
        },
        "inflation_ordering_holds": ordering_holds,
        "esim_categories_clean": _categories(clean, SIMKind.ESIM),
        "esim_categories_stressed": _categories(stressed, SIMKind.ESIM),
        "sim_categories_clean": _categories(clean, SIMKind.PHYSICAL),
        "sim_categories_stressed": _categories(stressed, SIMKind.PHYSICAL),
        "health": health,
    }


def format_result(result: Dict) -> str:
    chaos: ChaosConfig = result["chaos"]
    means = result["mean_latency_ms"]

    def fmt_ms(value: Optional[float]) -> str:
        return f"{value:7.1f}" if value is not None else "    n/a"

    completion = result["completion_rate"]
    lines = [
        "-- campaign under fire (paper-plausible fault rates) --",
        f"attach rejects {chaos.attach_reject_rate:.0%}, SIM-flip wedges "
        f"{chaos.sim_flip_failure_rate:.0%}, outages "
        f"{chaos.service_outage_rate:.0%}, timeouts "
        f"{chaos.probe_timeout_rate:.0%}, churn "
        f"{chaos.churn_rate_per_day:.0%}/day",
        f"records: {result['records_clean']} clean -> "
        f"{result['records_stressed']} stressed",
        f"plan completion: "
        + (f"{completion:.1%}" if completion is not None else "n/a")
        + f" (target >= {result['completion_target']:.0%})",
        f"test retries: {result['retried']}; dropped runs: {result['dropped']}",
        f"attach retries: {result['attach_retries']}; attach give-ups: "
        f"{result['attach_failures']}",
        f"quarantines: {result['quarantines']}; offline days: "
        f"{result['offline_days']}; make-up days: {result['makeup_days']}",
        "-- HX1 ordering under faults --",
        f"native {fmt_ms(means['native'])} ms < IHBO {fmt_ms(means['ihbo'])} ms"
        f" < HR {fmt_ms(means['hr'])} ms : "
        + ("holds" if result["inflation_ordering_holds"] else "VIOLATED"),
        "-- F13 speed buckets (CQI>=7) --",
    ]
    for label, key in (
        ("roaming eSIM (clean)", "esim_categories_clean"),
        ("roaming eSIM (chaos)", "esim_categories_stressed"),
        ("physical SIM (clean)", "sim_categories_clean"),
        ("physical SIM (chaos)", "sim_categories_stressed"),
    ):
        cats = result[key]
        lines.append(
            f"{label:22} slow {cats['slow']:.1%}  medium {cats['medium']:.1%}  "
            f"fast {cats['fast']:.1%}"
        )
    lines.append("-- degradation accounting --")
    lines.append(result["health"].render())
    return "\n".join(lines)
