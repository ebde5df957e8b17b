"""The live telemetry store: a ring-buffer time-series sampler.

A :class:`LiveSampler` thread snapshots a
:class:`~repro.obs.metrics.MetricsRegistry` every ``interval_s``
seconds into fixed-capacity series (``deque(maxlen=capacity)`` rings of
``(t, value)`` samples) — bounded memory no matter how long the daemon
runs. From the retained window it derives what a post-hoc trace cannot
show while the process lives: per-counter deltas and rates, windowed
histogram quantiles (bucket diffs between two snapshots), and process
gauges (RSS, FDs, threads).

Consumers:

* ``GET /stats?window=N`` — one JSON view over the retained window;
* ``GET /events`` — each tick's delta payload, streamed as
  Server-Sent Events (handlers block on :meth:`wait_for_event`);
* the live ``/dashboard`` page, which feeds sparklines from both.

``tick()`` is public and takes an explicit ``now`` so tests can soak
simulated minutes deterministically; the background thread just calls
it on a wall-clock cadence.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.exposition import process_samples
from repro.obs.metrics import quantile_bucket

#: Default sampler cadence (seconds) — also the SSE delta cadence.
DEFAULT_INTERVAL_S = 1.0

#: Default per-series retention (samples). 600 ticks x 1 s = 10 min.
DEFAULT_CAPACITY = 600

#: Process gauges the sampler tracks as series (subset of
#: :func:`repro.obs.exposition.process_samples` — gauges only).
PROCESS_SERIES = (
    "process_resident_memory_bytes",
    "process_open_fds",
    "process_threads",
)

#: One retained sample: ``(t, value)``.
Sample = Tuple[float, Any]


def _since(buffer: Deque[Sample], t_min: float) -> List[Sample]:
    """Samples with ``t >= t_min``, oldest first.

    ``list()`` copies the deque in one C call, so a tick appending from
    the sampler thread cannot break a reader mid-iteration.
    """
    return [sample for sample in list(buffer) if sample[0] >= t_min]


def _window_quantile(
    buckets: Sequence[float], delta_counts: Sequence[int], q: float
) -> Optional[float]:
    """Bucket-resolution quantile over a *window* of observations.

    ``delta_counts`` are per-bucket counts accumulated inside the
    window (cumulative snapshots differenced). Returns the matched
    bucket's upper bound; overflow observations clamp to the last
    finite bound (JSON has no ``+Inf``).
    """
    index = quantile_bucket(delta_counts, q)
    if index is None:
        return None
    return float(buckets[min(index, len(buckets) - 1)])


class LiveSampler:
    """Samples one registry into bounded time series on a fixed cadence."""

    def __init__(
        self,
        registry: Any,
        interval_s: float = DEFAULT_INTERVAL_S,
        capacity: int = DEFAULT_CAPACITY,
        include_process: bool = True,
    ) -> None:
        # Checked here, not in the thread: a bad value must stop the
        # caller, not kill the sampler after the server is up.
        if not 0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be a positive finite number, got {interval_s:g}"
            )
        if not capacity >= 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.registry = registry
        self.interval_s = interval_s
        self.capacity = capacity
        self.include_process = include_process
        self.started_unix = time.time()
        #: Ticks completed and the wall stamp of the newest one —
        #: what /healthz reports as sampler liveness.
        self.ticks = 0
        self.last_tick_unix = 0.0
        #: Cumulative wall seconds spent inside ``tick()`` (the
        #: overhead benchmark divides this by run wall time).
        self.tick_wall_s = 0.0
        self._series: Dict[str, Deque[Sample]] = {}
        self._kinds: Dict[str, str] = {}
        self._hist: Dict[str, Deque[Sample]] = {}
        self._hist_buckets: Dict[str, Tuple[float, ...]] = {}
        self._last_stamp: Optional[float] = None
        self._latest_event: Optional[Dict[str, Any]] = None
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "LiveSampler":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-live-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self.interval_s + 5.0)

    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.is_set():
            self.tick()
            elapsed = (
                time.time() - self.last_tick_unix
                if self.last_tick_unix else 0.0
            )
            self._stop.wait(max(0.05, self.interval_s - elapsed))

    # -- sampling -------------------------------------------------------------

    def _buffer(self, name: str, kind: str) -> Deque[Sample]:
        buffer = self._series.get(name)
        if buffer is None:
            buffer = self._series[name] = deque(maxlen=self.capacity)
            self._kinds[name] = kind
        return buffer

    def tick(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Take one sample; returns (and publishes) the delta payload."""
        t0 = time.perf_counter()
        stamp = time.time() if now is None else now
        dt = (
            stamp - self._last_stamp
            if self._last_stamp is not None and stamp > self._last_stamp
            else None
        )
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}

        for item in self.registry.snapshot():
            name, kind = item["name"], item["type"]
            if kind in ("counter", "gauge"):
                buffer = self._buffer(name, kind)
                previous = buffer[-1] if buffer else None
                buffer.append((stamp, item["value"]))
                if kind == "gauge":
                    gauges[name] = {"value": item["value"]}
                else:
                    delta = (
                        item["value"] - previous[1]
                        if previous is not None else item["value"]
                    )
                    entry: Dict[str, Any] = {
                        "value": item["value"], "delta": delta,
                    }
                    if dt:
                        entry["rate_per_s"] = round(delta / dt, 6)
                    counters[name] = entry
            elif kind == "histogram":
                buffer = self._hist.get(name)
                if buffer is None:
                    buffer = self._hist[name] = deque(maxlen=self.capacity)
                    self._hist_buckets[name] = tuple(item["buckets"])
                previous = buffer[-1] if buffer else None
                state = (item["count"], item["sum"], tuple(item["counts"]))
                buffer.append((stamp, state))
                histograms[name] = self._hist_delta(
                    name, previous[1] if previous else None, state, dt
                )
        if self.include_process:
            for sample in process_samples(now=stamp):
                if sample["name"] not in PROCESS_SERIES:
                    continue
                self._buffer(sample["name"], "gauge").append(
                    (stamp, sample["value"])
                )
                gauges[sample["name"]] = {"value": sample["value"]}

        event = {
            "tick": self.ticks + 1,
            "t": stamp,
            "interval_s": self.interval_s,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        self._last_stamp = stamp
        with self._cond:
            self.ticks += 1
            self.last_tick_unix = stamp
            self._latest_event = event
            self._cond.notify_all()
        self.tick_wall_s += time.perf_counter() - t0
        return event

    def _hist_delta(
        self,
        name: str,
        previous: Optional[Tuple[int, float, Tuple[int, ...]]],
        current: Tuple[int, float, Tuple[int, ...]],
        dt: Optional[float],
    ) -> Dict[str, Any]:
        count, total, cells = current
        if previous is None:
            previous = (0, 0.0, (0,) * len(cells))
        delta_count = count - previous[0]
        delta_sum = total - previous[1]
        delta_cells = [c - p for c, p in zip(cells, previous[2])]
        buckets = self._hist_buckets[name]
        entry: Dict[str, Any] = {"count": count, "delta": delta_count}
        if dt:
            entry["rate_per_s"] = round(delta_count / dt, 6)
        if delta_count > 0:
            entry["mean_s"] = round(delta_sum / delta_count, 9)
            entry["p50_s"] = _window_quantile(buckets, delta_cells, 0.50)
            entry["p99_s"] = _window_quantile(buckets, delta_cells, 0.99)
        return entry

    # -- queries --------------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """Sampler liveness for ``/healthz``: is the plane ticking?"""
        now = time.time()
        return {
            "alive": self.alive(),
            "ticks": self.ticks,
            "interval_s": self.interval_s,
            "capacity": self.capacity,
            "series": len(self._series) + len(self._hist),
            "last_tick_age_s": (
                round(now - self.last_tick_unix, 3)
                if self.last_tick_unix else None
            ),
            "tick_wall_s": round(self.tick_wall_s, 6),
        }

    def stats(
        self,
        window_s: float = 60.0,
        series: Sequence[str] = (),
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The ``GET /stats`` payload: the retained window, summarized.

        Counters report first->last deltas and rates over the window;
        gauges report last/min/max; histograms report windowed count,
        rate, mean and bucket-resolution p50/p99 — all derived from
        ring-buffer samples, never from re-reading the registry.
        ``series`` names get their raw ``[[t, value], ...]`` points
        included (sparkline feed).
        """
        stamp = time.time() if now is None else now
        cutoff = stamp - window_s
        payload: Dict[str, Any] = {
            "now": stamp,
            "window_s": window_s,
            "sampler": self.info(),
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, buffer in sorted(self._series.items()):
            points = _since(buffer, cutoff)
            if not points:
                continue
            first_t, first_v = points[0]
            last_t, last_v = points[-1]
            if self._kinds.get(name) == "counter":
                delta = last_v - first_v
                span = last_t - first_t
                payload["counters"][name] = {
                    "value": last_v,
                    "delta": delta,
                    "rate_per_s": (
                        round(delta / span, 6) if span > 0 else 0.0
                    ),
                    "samples": len(points),
                }
            else:
                values = [v for _, v in points]
                payload["gauges"][name] = {
                    "value": last_v,
                    "min": min(values),
                    "max": max(values),
                    "samples": len(points),
                }
        for name, buffer in sorted(self._hist.items()):
            points = _since(buffer, cutoff)
            if not points:
                continue
            first_t, first_state = points[0]
            last_t, last_state = points[-1]
            span = last_t - first_t
            entry = self._hist_delta(
                name, first_state, last_state, span if span > 0 else None
            )
            entry["samples"] = len(points)
            payload["histograms"][name] = entry
        if series:
            payload["series"] = {}
            for name in series:
                buffer = self._series.get(name)
                if buffer is not None:
                    payload["series"][name] = [
                        [round(t, 3), v] for t, v in _since(buffer, cutoff)
                    ]
        return payload

    # -- SSE feed -------------------------------------------------------------

    def wait_for_event(
        self, seen_tick: int, timeout_s: float
    ) -> Optional[Dict[str, Any]]:
        """Block until a tick newer than ``seen_tick`` exists (or timeout).

        Returns the newest delta payload, or ``None`` on timeout /
        sampler shutdown — the SSE handler's loop condition.
        """
        with self._cond:
            if self.ticks <= seen_tick and not self._stop.is_set():
                self._cond.wait(timeout=timeout_s)
            if self.ticks > seen_tick and self._latest_event is not None:
                return self._latest_event
            return None


__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL_S",
    "PROCESS_SERIES",
    "LiveSampler",
]
