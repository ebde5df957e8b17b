"""The live sampler: ring retention, delta/rate math, bounded soak, and
the always-on plane's overhead budget."""

import sys
import threading
import time

from repro.obs import exposition
from repro.obs.live import LiveSampler, _window_quantile
from repro.obs.metrics import MetricsRegistry
from tests.conftest import OVERHEAD_BUDGET

import pytest


def _sampler(interval_s=1.0, capacity=600):
    registry = MetricsRegistry()
    sampler = LiveSampler(
        registry, interval_s=interval_s, capacity=capacity,
        include_process=False,
    )
    return registry, sampler


class TestRingBuffer:
    """Each sampler series is a ring: the newest ``capacity`` samples,
    oldest first."""

    @staticmethod
    def _points(sampler, window_s=1e9, now=1e6):
        stats = sampler.stats(window_s=window_s, series=("depth",), now=now)
        return stats["series"].get("depth")

    def _ticks(self, capacity, values):
        registry, sampler = _sampler(capacity=capacity)
        for t, value in enumerate(values):
            registry.gauge("depth").set(value)
            sampler.tick(now=float(t))
        return sampler

    def test_capacity_is_pinned(self):
        sampler = self._ticks(4, [float(i) for i in range(100)])
        assert len(self._points(sampler)) == 4
        assert sampler.info()["capacity"] == 4

    def test_keeps_newest_in_order(self):
        sampler = self._ticks(3, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert self._points(sampler) == [[2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]

    def test_since_filters_by_time(self):
        sampler = self._ticks(10, [float(i) for i in range(6)])
        assert self._points(sampler, window_s=2.0, now=5.0) == [
            [3.0, 3.0], [4.0, 4.0], [5.0, 5.0],
        ]
        assert self._points(sampler, window_s=1.0, now=99.0) == []

    def test_partial_fill(self):
        registry, sampler = _sampler(capacity=8)
        registry.gauge("depth").set(1.0)
        assert self._points(sampler) is None  # no tick: no series yet
        sampler.tick(now=1.0)
        assert self._points(sampler) == [[1.0, 1.0]]

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            _sampler(capacity=1)


def test_window_quantile_clamps_overflow_to_finite():
    # All observations in the overflow bucket: quantile must stay a
    # JSON-encodable finite number (the last bound), not +Inf.
    assert _window_quantile((0.1, 1.0), [0, 0, 5], 0.99) == 1.0
    assert _window_quantile((0.1, 1.0), [3, 1, 0], 0.5) == 0.1
    assert _window_quantile((0.1, 1.0), [0, 0, 0], 0.5) is None


def test_tick_derives_counter_delta_and_rate():
    registry, sampler = _sampler()
    registry.counter("reqs").inc(5)
    first = sampler.tick(now=1000.0)
    assert first["counters"]["reqs"] == {"value": 5, "delta": 5}
    registry.counter("reqs").inc(10)
    second = sampler.tick(now=1002.0)
    entry = second["counters"]["reqs"]
    assert entry["value"] == 15
    assert entry["delta"] == 10
    assert entry["rate_per_s"] == pytest.approx(5.0)


def test_tick_derives_histogram_window_stats():
    registry, sampler = _sampler()
    histogram = registry.histogram("lat", buckets=(0.1, 1.0))
    histogram.observe(0.05)
    sampler.tick(now=1000.0)
    for value in (0.05, 0.05, 0.5):
        histogram.observe(value)
    event = sampler.tick(now=1001.0)
    entry = event["histograms"]["lat"]
    assert entry["count"] == 4
    assert entry["delta"] == 3  # only the window's observations
    assert entry["rate_per_s"] == pytest.approx(3.0)
    assert entry["mean_s"] == pytest.approx(0.2)
    assert entry["p50_s"] == 0.1
    assert entry["p99_s"] == 1.0


def test_stats_windows_the_retained_series():
    registry, sampler = _sampler()
    counter = registry.counter("reqs")
    for tick in range(10):
        counter.inc(2)
        sampler.tick(now=1000.0 + tick)
    # Full window: 9 intervals x 2/s... value went 2 -> 20.
    wide = sampler.stats(window_s=100.0, now=1009.0)
    assert wide["counters"]["reqs"]["value"] == 20
    assert wide["counters"]["reqs"]["delta"] == 18
    assert wide["counters"]["reqs"]["rate_per_s"] == pytest.approx(2.0)
    assert wide["counters"]["reqs"]["samples"] == 10
    # Narrow window: only the last ~4 samples participate.
    narrow = sampler.stats(window_s=3.0, now=1009.0)
    assert narrow["counters"]["reqs"]["samples"] == 4
    assert narrow["counters"]["reqs"]["delta"] == 6


def test_stats_series_points_for_sparklines():
    registry, sampler = _sampler()
    registry.gauge("depth").set(1.0)
    sampler.tick(now=1000.0)
    registry.gauge("depth").set(3.0)
    sampler.tick(now=1001.0)
    stats = sampler.stats(
        window_s=60.0, series=("depth", "missing"), now=1001.0
    )
    assert stats["series"]["depth"] == [[1000.0, 1.0], [1001.0, 3.0]]
    assert "missing" not in stats["series"]
    assert stats["gauges"]["depth"] == {
        "value": 3.0, "min": 1.0, "max": 3.0, "samples": 2,
    }


def test_soak_simulated_minutes_memory_is_bounded():
    """A 60s-equivalent soak (and beyond): no series buffer grows."""
    registry, sampler = _sampler(interval_s=1.0, capacity=60)
    counter = registry.counter("reqs")
    histogram = registry.histogram("lat", buckets=(0.1, 1.0))
    sizes = set()
    for tick in range(300):  # 5 simulated minutes at 1 Hz
        counter.inc(3)
        histogram.observe(0.05)
        sampler.tick(now=2000.0 + tick)
        if tick >= 60:
            sizes.add((
                len(sampler._series["reqs"]),
                len(sampler._hist["lat"]),
            ))
    # Once warm, every buffer is pinned at exactly `capacity`.
    assert sizes == {(60, 60)}
    assert sampler.ticks == 300
    # The retained window still answers correctly after wrap.
    stats = sampler.stats(window_s=10.0, now=2299.0)
    assert stats["counters"]["reqs"]["rate_per_s"] == pytest.approx(3.0)


def test_stats_reads_race_ticks_without_error():
    """Handler threads read the series while the sampler appends to them:
    no read may fail, and every read sees its samples in time order."""
    registry, sampler = _sampler(capacity=600)
    counter = registry.counter("reqs")
    stop = threading.Event()
    failures = []

    def read():
        while not stop.is_set():
            try:
                points = sampler.stats(window_s=1e9, series=("reqs",), now=1e9)
                times = [t for t, _ in points["series"].get("reqs", [])]
                assert times == sorted(times)
            except Exception as error:  # any failure fails the test
                failures.append(error)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        for tick in range(3000):
            counter.inc()
            sampler.tick(now=float(tick))
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not failures, failures[:1]


def test_info_reports_liveness_shape():
    registry, sampler = _sampler(interval_s=0.5, capacity=32)
    registry.counter("reqs").inc()
    sampler.tick()
    info = sampler.info()
    assert info["ticks"] == 1
    assert info["alive"] is False  # no background thread in this test
    assert info["interval_s"] == 0.5
    assert info["capacity"] == 32
    assert info["series"] == 1
    assert info["last_tick_age_s"] is not None
    assert info["tick_wall_s"] > 0


def test_wait_for_event_wakes_on_new_tick():
    registry, sampler = _sampler()
    registry.counter("reqs").inc()
    # No tick newer than 0 yet: times out quickly with None.
    assert sampler.wait_for_event(0, timeout_s=0.05) is None

    got = {}

    def waiter():
        got["event"] = sampler.wait_for_event(0, timeout_s=5.0)

    thread = threading.Thread(target=waiter)
    thread.start()
    event = sampler.tick(now=1000.0)
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert got["event"] == event
    # Caller has seen this tick: asking again times out, not busy-loops.
    assert sampler.wait_for_event(event["tick"], timeout_s=0.05) is None


def test_background_thread_ticks_and_stops():
    registry = MetricsRegistry()
    sampler = LiveSampler(
        registry, interval_s=0.05, capacity=16, include_process=False,
    )
    registry.counter("reqs").inc()
    sampler.start()
    try:
        event = sampler.wait_for_event(0, timeout_s=5.0)
        assert event is not None
        assert sampler.alive()
    finally:
        sampler.stop()
    assert not sampler.alive()
    # Stopped sampler: waiting returns immediately instead of blocking.
    assert sampler.wait_for_event(10**9, timeout_s=30.0) is None


#: The steady-state cadences: one sampler tick per second (the default)
#: and one Prometheus scrape every 15 s (a typical scrape_interval).
SAMPLE_INTERVAL_S = 1.0
SCRAPE_INTERVAL_S = 15.0
TICK_ROUNDS = 200
RENDER_ROUNDS = 50


def test_live_plane_costs_under_2_percent_of_a_warm_run(warm_runs):
    """Sampler ticks plus ``/metrics`` scrapes, priced against a registry
    shaped like a real traced ``run_all``'s and projected over that
    run's wall time at the steady-state cadences. A wall-time A/B at
    this scale measures the scheduler, not the sampler."""
    baseline_s = warm_runs.traced_s
    registry = MetricsRegistry()
    registry.merge_jsonable(warm_runs.trace.metrics)
    assert registry.snapshot()

    sampler = LiveSampler(registry, interval_s=SAMPLE_INTERVAL_S)
    started = time.perf_counter()
    for round_index in range(TICK_ROUNDS):
        sampler.tick(now=1000.0 + round_index)
    per_tick_s = (time.perf_counter() - started) / TICK_ROUNDS
    assert sampler.tick_wall_s > 0  # the self-meter agrees it ran

    started = time.perf_counter()
    for _ in range(RENDER_ROUNDS):
        body = exposition.render(registry=registry)
    per_render_s = (time.perf_counter() - started) / RENDER_ROUNDS
    assert body

    ticks = baseline_s / SAMPLE_INTERVAL_S
    scrapes = baseline_s / SCRAPE_INTERVAL_S
    projected_s = ticks * per_tick_s + scrapes * per_render_s
    assert projected_s < OVERHEAD_BUDGET * baseline_s, (
        f"live plane projected at {projected_s * 1e3:.3f} ms "
        f"({ticks:.0f} ticks x {per_tick_s * 1e6:.1f} us + "
        f"{scrapes:.1f} scrapes x {per_render_s * 1e6:.1f} us), "
        f"{projected_s / baseline_s:.3%} of the {baseline_s:.2f}s traced run "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
