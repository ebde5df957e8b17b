"""Suite-wide fixtures.

The persistent artifact cache is pointed at a per-session temp directory
so tests never read or write ``~/.cache/repro-airalo``: the suite stays
hermetic and immune to stale entries from other checkouts, while still
exercising the disk-cache code paths.
"""

import time
from dataclasses import dataclass

import pytest

from repro import obs
from repro.core import cache as cache_mod
from repro.core.runner import StudyRunner
from repro.experiments import common

#: The telemetry budgets' workload and bound: instrumentation may cost at
#: most this share of a warm serial ``run_all`` at this scale.
OVERHEAD_SCALE = 0.1
OVERHEAD_BUDGET = 0.02


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    cache_mod.configure(root=tmp_path_factory.mktemp("artifact-cache"))
    yield


@dataclass(frozen=True)
class WarmRuns:
    """One warm serial ``run_all`` at ``OVERHEAD_SCALE``, timed twice."""

    untraced_s: float
    traced_s: float
    trace: obs.TraceData


@pytest.fixture(scope="session")
def warm_runs(tmp_path_factory) -> WarmRuns:
    """Fill the disk cache, then time an untraced and a traced warm run.

    Both telemetry budgets price against these: the disabled path
    against the untraced wall time (touch points from the trace), the
    live plane against the traced run's wall time and metrics.
    """
    trace_dir = tmp_path_factory.mktemp("warm-run-trace")
    try:
        StudyRunner(seed=2024, jobs=1).run_all(scale=OVERHEAD_SCALE)
        common.clear_caches()
        started = time.perf_counter()
        untraced = StudyRunner(seed=2024, jobs=1).run_all(scale=OVERHEAD_SCALE)
        untraced_s = time.perf_counter() - started
        assert not untraced.failed(), untraced.summary_table()

        common.clear_caches()
        started = time.perf_counter()
        traced = StudyRunner(seed=2024, jobs=1, trace_dir=trace_dir).run_all(
            scale=OVERHEAD_SCALE
        )
        traced_s = time.perf_counter() - started
        assert not traced.failed(), traced.summary_table()
    finally:
        common.clear_caches()
    return WarmRuns(untraced_s, traced_s, obs.load_trace(traced.trace_path))
