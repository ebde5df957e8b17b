"""The metrics registry: counters, gauges, fixed-bucket histograms.

Metrics are cheap aggregates that survive where spans would drown — a
cache that answers thousands of lookups per run gets two counters and a
latency histogram, not a thousand spans. Instruments are owned by a
:class:`MetricsRegistry` (one per recorder), keyed by name, and merge
across processes so worker metrics fold into the parent's registry.

Histograms use fixed upper-bound buckets (Prometheus-style cumulative
counts are derivable; we store per-bucket counts plus a ``+Inf``
overflow slot) so merging is exact — no quantile sketches, no deps.

Counters and histograms are **scrape-safe**: writes and snapshots
synchronize on a per-instrument lock, so a ``/metrics`` scrape or the
live sampler reading a registry mid-``observe`` can never see a torn
``(count, sum, buckets)`` triple. The null instruments the disabled
path uses stay lock-free — the <2% overhead budget is unaffected.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): microsecond cache hits through
#: minute-scale campaign builds.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0,
)


def quantile_bucket(counts: Sequence[int], q: float) -> Optional[int]:
    """Index of the bucket that holds quantile ``q`` of ``counts``.

    ``counts`` are per-bucket counts whose last slot is the overflow
    (``len(counts) - 1`` means "above the last bound"). ``None`` when
    every count is zero. Each caller maps the index to its own value.
    """
    total = sum(counts)
    if not total:
        return None
    target = q * total
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= target and count:
            return index
    return len(counts) - 1


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        # ``+=`` is a read-modify-write across bytecodes: two handler
        # threads racing it can lose increments. The lock makes the
        # counter exact under the threaded server.
        with self._lock:
            self.value += amount

    def to_jsonable(self) -> Dict[str, Any]:
        with self._lock:
            return {"type": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_jsonable(self) -> Dict[str, Any]:
        return {"type": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Fixed-bucket distribution: per-bucket counts, sum and count.

    ``buckets`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow slot.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count", "_lock")

    def __init__(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S
    ) -> None:
        bounds = tuple(buckets)
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise ValueError("histogram buckets must be non-empty and ascending")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow (> last bound)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile (the bucket's upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        index = quantile_bucket(self.counts, q)
        if index is None:
            return None
        if index < len(self.buckets):
            return self.buckets[index]
        return float("inf")

    def to_jsonable(self) -> Dict[str, Any]:
        # The lock pairs with ``observe``: a snapshot taken mid-observe
        # always satisfies ``count == sum(counts)``.
        with self._lock:
            return {
                "type": "histogram",
                "name": self.name,
                "buckets": list(self.buckets),
                "counts": list(self.counts),
                "sum": self.sum,
                "count": self.count,
            }


class MetricsRegistry:
    """All instruments of one recorder, keyed by name.

    Lookup is lock-free on the hit path (dict reads are atomic);
    instrument *creation* double-checks under the registry lock so two
    handler threads racing the first touch of a name share one
    instrument instead of silently splitting its counts.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- instrument lookup (creating lazily) --------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(
                        name, buckets
                    )
        return instrument

    # -- introspection ------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def operation_count(self) -> int:
        """Total recorded metric operations (counter incs count as their
        accumulated value; one observe = one operation). Used by the
        overhead benchmark to size the disabled-path cost model."""
        return sum(c.value for c in self._counters.values()) + sum(
            h.count for h in self._histograms.values()
        ) + len(self._gauges)

    def to_jsonable(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for name in sorted(self._counters):
            out.append(self._counters[name].to_jsonable())
        for name in sorted(self._gauges):
            out.append(self._gauges[name].to_jsonable())
        for name in sorted(self._histograms):
            out.append(self._histograms[name].to_jsonable())
        return out

    def snapshot(self) -> List[Dict[str, Any]]:
        """A scrape-consistent copy of every instrument.

        Each instrument is copied under its own lock, so concurrent
        ``inc``/``observe`` calls can reorder *between* instruments but
        never tear one — every histogram in the snapshot satisfies
        ``count == sum(counts)``. This is what ``/metrics`` exposition
        and the live sampler read.
        """
        return self.to_jsonable()

    # -- cross-process merge -------------------------------------------------

    def merge_jsonable(self, exported: Sequence[Dict[str, Any]]) -> None:
        """Fold an exported registry (e.g. from a worker) into this one.

        Counters and histogram cells add; gauges take the incoming value
        (last writer wins, like a scrape). Histograms must agree on
        buckets — all call sites share the module-level defaults.
        """
        for item in exported:
            kind, name = item["type"], item["name"]
            if kind == "counter":
                self.counter(name).inc(item["value"])
            elif kind == "gauge":
                self.gauge(name).set(item["value"])
            elif kind == "histogram":
                histogram = self.histogram(name, tuple(item["buckets"]))
                if list(histogram.buckets) != list(item["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge"
                    )
                with histogram._lock:
                    for index, count in enumerate(item["counts"]):
                        histogram.counts[index] += count
                    histogram.sum += item["sum"]
                    histogram.count += item["count"]
            else:
                raise ValueError(f"unknown metric type {kind!r}")


class NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()
