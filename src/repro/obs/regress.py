"""Performance-regression detection over the cross-run history store.

This module is the one place a recorded run is judged. :func:`judge`
takes the loaded records and a candidate, picks the candidate's rolling
baseline (same ``seed/scale/jobs`` key, recorded no later, not
interrupted, the last :data:`BASELINE_WINDOW`) and emits one
:class:`Verdict` per anomaly in the candidate run:

* ``slo-violation`` — a declared budget (``slo_s``, e.g. a loadgen
  route's p99) was exceeded; absolute, so it needs no baseline;
* ``latency-regression`` — an artefact's wall time exceeds the baseline
  median by both a relative factor and an absolute floor (and, when
  enough baseline runs exist, by a robust MAD band), so millisecond
  jitter on trivial artefacts never trips the gate;
* ``cache-hit-drop`` — an artefact's cache-hit rate fell by more than a
  fixed absolute amount (a silent collapse back to rebuilding);
* ``fingerprint-change`` — the exported result bytes changed for the
  same workload key: not slower, *wrong* (or at least different);
* ``new-failure`` — an artefact that succeeded in the baseline errored.

The thresholds are fixed module constants. Two identical runs produce
zero verdicts, and ``python -m repro regress --fail-on-regression``
turns any verdict into a non-zero exit for CI.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.obs.history import HistoryStore, RunRecord, find_run

#: Verdict kinds, in severity order (correctness before performance).
KIND_NEW_FAILURE = "new-failure"
KIND_FINGERPRINT = "fingerprint-change"
KIND_SLO = "slo-violation"
KIND_LATENCY = "latency-regression"
KIND_HIT_RATE = "cache-hit-drop"

_KIND_ORDER = {
    KIND_NEW_FAILURE: 0,
    KIND_FINGERPRINT: 1,
    KIND_SLO: 2,
    KIND_LATENCY: 3,
    KIND_HIT_RATE: 4,
}


#: Rolling window: at most this many earlier runs form the baseline.
BASELINE_WINDOW = 10
#: Relative wall-time excess over the baseline median to flag.
LATENCY_THRESHOLD = 0.5
#: Absolute wall-time excess floor (drowns scheduler jitter on
#: millisecond artefacts).
MIN_LATENCY_EXCESS_S = 0.1
#: MAD multiplier: with >= 3 baseline runs the excess must also clear
#: ``median + MAD_K * MAD``, which widens the gate on a noisy host.
MAD_K = 4.0
#: Absolute cache-hit-rate drop to flag.
HIT_RATE_DROP = 0.15


@dataclass
class Verdict:
    """One flagged anomaly in the candidate run."""

    artefact_id: str
    kind: str
    baseline: str
    observed: str
    detail: str

    def render(self) -> str:
        return (
            f"{self.artefact_id:9} {self.kind:20} "
            f"{self.baseline:>14} -> {self.observed:<14} {self.detail}"
        )


@dataclass
class RegressionReport:
    """Every verdict of one candidate-vs-baseline comparison."""

    run_id: str
    key: str
    baseline_ids: List[str] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.verdicts

    def render(self) -> str:
        if len(self.baseline_ids) == 1:
            versus = f"baseline run {self.baseline_ids[0]}"
        else:
            versus = f"{len(self.baseline_ids)} baseline run(s)"
        lines = [f"run {self.run_id} ({self.key}) vs {versus}"]
        if self.ok():
            lines.append("no regressions detected")
            return "\n".join(lines)
        lines.append(
            f"{'artefact':9} {'verdict':20} {'baseline':>14}    {'observed':<14}"
        )
        for verdict in self.verdicts:
            lines.append(verdict.render())
        lines.append(f"{len(self.verdicts)} regression verdict(s)")
        return "\n".join(lines)


def median_mad(values: Sequence[float]) -> "tuple[float, float]":
    """Rolling-baseline statistics: median and median absolute deviation."""
    med = statistics.median(values)
    mad = statistics.median([abs(value - med) for value in values])
    return med, mad


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def compare(
    candidate: RunRecord, baselines: Sequence[RunRecord]
) -> RegressionReport:
    """Judge ``candidate`` against exactly ``baselines`` (append order).

    :func:`judge` picks the rolling baseline; ``detect(against=...)``
    pins one run.
    """
    report = RegressionReport(
        run_id=candidate.run_id,
        key=candidate.group_key(),
        baseline_ids=[record.run_id for record in baselines],
    )
    for artefact_id, observed in sorted(candidate.artefacts.items()):
        # SLO gating is absolute: a declared budget needs no baseline, so
        # a service's very first recorded loadgen run is already gated. A
        # route that also had errors is over budget all the same.
        if observed.slo_s > 0 and observed.wall_s > observed.slo_s:
            report.verdicts.append(Verdict(
                artefact_id=artefact_id,
                kind=KIND_SLO,
                baseline=_fmt_s(observed.slo_s),
                observed=_fmt_s(observed.wall_s),
                detail=(
                    f"{observed.wall_s / observed.slo_s:.2f}x the declared "
                    f"SLO budget"
                ),
            ))
        history = [
            record.artefacts[artefact_id]
            for record in baselines
            if artefact_id in record.artefacts
        ]
        if not history:
            continue  # artefact is new to this group: nothing to compare

        baseline_ok = [stats for stats in history if stats.status == "ok"]
        if observed.status == "interrupted":
            # The artefact never ran (the run was stopped first): that is
            # not a failure and there is nothing to compare.
            continue
        if observed.status != "ok":
            if baseline_ok:
                report.verdicts.append(Verdict(
                    artefact_id=artefact_id,
                    kind=KIND_NEW_FAILURE,
                    baseline="ok",
                    observed=observed.status,
                    detail="artefact errored; baseline runs succeeded",
                ))
            continue  # no result: latency/fingerprint checks don't apply

        # Correctness: the exported bytes must match the most recent
        # successful baseline fingerprint for the same workload key.
        last_print = next(
            (s.fingerprint for s in reversed(baseline_ok) if s.fingerprint), ""
        )
        if last_print and observed.fingerprint and observed.fingerprint != last_print:
            report.verdicts.append(Verdict(
                artefact_id=artefact_id,
                kind=KIND_FINGERPRINT,
                baseline=last_print[-12:],
                observed=observed.fingerprint[-12:],
                detail="exported result bytes changed for an identical workload",
            ))

        # Latency: robust rolling baseline over the successful runs.
        walls = [stats.wall_s for stats in baseline_ok]
        if walls:
            med, mad = median_mad(walls)
            excess = observed.wall_s - med
            slow = (
                excess > MIN_LATENCY_EXCESS_S
                and observed.wall_s > med * (1.0 + LATENCY_THRESHOLD)
            )
            if slow and len(walls) >= 3:
                slow = excess > MAD_K * mad
            if slow:
                report.verdicts.append(Verdict(
                    artefact_id=artefact_id,
                    kind=KIND_LATENCY,
                    baseline=_fmt_s(med),
                    observed=_fmt_s(observed.wall_s),
                    detail=(
                        # A median of 0 s has no ratio; the verdict
                        # stands without one.
                        (f"{observed.wall_s / med:.2f}x the median"
                         if med > 0 else f"above the {_fmt_s(med)} median")
                        + f" of {len(walls)} baseline run(s)"
                        + (f" (MAD {_fmt_s(mad)})" if len(walls) >= 3 else "")
                    ),
                ))

        # Cache economics: a hit-rate collapse means the artefact went
        # back to rebuilding inputs it used to load.
        observed_rate = observed.cache_hit_rate()
        baseline_rates = [
            rate for rate in (s.cache_hit_rate() for s in baseline_ok)
            if rate is not None
        ]
        if observed_rate is not None and baseline_rates:
            med_rate, _ = median_mad(baseline_rates)
            if med_rate - observed_rate > HIT_RATE_DROP:
                report.verdicts.append(Verdict(
                    artefact_id=artefact_id,
                    kind=KIND_HIT_RATE,
                    baseline=f"{med_rate:.0%}",
                    observed=f"{observed_rate:.0%}",
                    detail="cache-hit rate dropped beyond threshold",
                ))
    report.verdicts.sort(
        key=lambda v: (_KIND_ORDER.get(v.kind, 9), v.artefact_id)
    )
    return report


def judge(
    records: Sequence[RunRecord], candidate: RunRecord
) -> Optional[RegressionReport]:
    """The verdicts on ``candidate``, or None when there is nothing to judge.

    The baseline is the last :data:`BASELINE_WINDOW` of ``records`` that
    share the candidate's group key, were recorded no later than it and
    were not interrupted. With no such run, a candidate that declares an
    SLO budget is still judged: the budget gates absolutely. ``repro
    regress``, ``GET /regress``, ``repro report`` and ``repro loadgen
    --fail-on-slo`` all judge through this function.
    """
    key = candidate.group_key()
    baselines = [
        record for record in records
        if record.group_key() == key and record.run_id != candidate.run_id
        and record.created_unix <= candidate.created_unix
        # Interrupted runs are partial by definition: baselining
        # against them turns every artefact they skipped into a
        # false new-failure/latency verdict on the next full run.
        and record.status != "interrupted"
    ][-BASELINE_WINDOW:]
    if not baselines and not any(
        stats.slo_s > 0 for stats in candidate.artefacts.values()
    ):
        return None
    return compare(candidate, baselines)


def detect(
    store: HistoryStore,
    run_id: Optional[str] = None,
    against: Optional[str] = None,
) -> RegressionReport:
    """Judge one stored run against its rolling (or pinned) baseline.

    ``run_id`` selects the candidate (default: the newest record);
    ``against`` pins the baseline to one specific run instead of the
    rolling window of :func:`judge`. The store is read once. Raises
    :class:`KeyError` for unknown ids and :class:`ValueError` when there
    is nothing to compare against.
    """
    records = store.load()
    if not records:
        raise ValueError(f"no runs recorded under {store.root}")
    candidate = records[-1] if run_id is None else find_run(records, run_id)
    if candidate is None:
        raise KeyError(f"unknown run id {run_id!r} in {store.root}")
    if against is not None:
        baseline = find_run(records, against)
        if baseline is None:
            raise KeyError(f"unknown baseline run id {against!r} in {store.root}")
        if baseline.group_key() != candidate.group_key():
            raise ValueError(
                f"run {candidate.run_id} ({candidate.group_key()}) is not "
                f"comparable to {baseline.run_id} ({baseline.group_key()})"
            )
        return compare(candidate, [baseline])
    report = judge(records, candidate)
    if report is None:
        raise ValueError(
            f"run {candidate.run_id} has no earlier baseline runs for "
            f"key {candidate.group_key()} — record at least two comparable "
            f"runs first"
        )
    return report
