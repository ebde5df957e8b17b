"""Recorders and the process-wide current-recorder slot.

Telemetry is a sidecar: the default recorder is a :class:`NullRecorder`
whose every operation is a no-op on a shared singleton, so instrumented
code pays one global read and one method call per touch point when
tracing is off (under the 2% budget ``tests/core/test_obs_runner.py``
enforces). Install a :class:`TraceRecorder` — usually via
``use_recorder`` or ``StudyRunner(trace_dir=...)`` — to collect.

Cross-process story: each :class:`~repro.core.runner.StudyRunner` worker
records into its own ``TraceRecorder``, ``export()``\\ s the result over
the pickle channel, and the parent ``adopt()``\\ s the spans — re-rooting
them under its own span — and merges the metrics. Span ids embed the
producing PID, so adopted ids never collide.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, SpanEvent


class NullRecorder:
    """The default recorder: records nothing, allocates nothing."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def counter(self, name: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S
    ) -> NullHistogram:
        return NULL_HISTOGRAM


class MetricsRecorder:
    """A metrics-only recorder for long-lived daemons.

    Counters, gauges and histograms collect into a real (lock-guarded)
    :class:`~repro.obs.metrics.MetricsRegistry`; spans and events stay
    no-ops. That is exactly the always-on shape a server needs: the
    instrument set is bounded by distinct metric names, so memory never
    grows with request count, while a :class:`TraceRecorder` would
    retain one span per request forever. ``enabled`` stays ``False``
    because it gates *span/event* collection — the hot-path check in
    :func:`event` keeps costing one attribute read.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        return self.metrics.histogram(name, buckets)


_recorder_seq = itertools.count(1)


class TraceRecorder:
    """Collects spans, span events and metrics for one process.

    Spans form a stack (campaigns and experiments are single-threaded
    per process): entering a span parents it under the previous top.
    Finished spans accumulate in :attr:`spans` in completion order.
    """

    enabled = True

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or f"trace-{os.getpid():x}"
        self.spans: List[Span] = []
        #: Events emitted with no span open (rare; kept trace-level).
        self.orphan_events: List[SpanEvent] = []
        self.metrics = MetricsRegistry()
        self._stack: List[Span] = []
        self._next_id = 0
        # PID plus a per-process recorder sequence: span ids stay unique
        # when several recorders from one process land in the same trace
        # (one per artefact, adopted by the parent's run_all recorder).
        self._id_prefix = f"{os.getpid():x}.{next(_recorder_seq)}"

    # -- span machinery ------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        self._next_id += 1
        return Span(self, name, f"{self._id_prefix}.{self._next_id}", attrs)

    def _push(self, span: Span) -> None:
        if self._stack:
            span.parent_id = self._stack[-1].span_id
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate a mispaired exit instead of corrupting the stack.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)
        self.spans.append(span)

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def event(self, name: str, **attrs: Any) -> None:
        current = self.current_span()
        if current is not None:
            current.add_event(name, **attrs)
        else:
            self.orphan_events.append(SpanEvent(name, attrs))

    # -- metrics -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(
        self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        return self.metrics.histogram(name, buckets)

    # -- events of interest ---------------------------------------------------

    def span_events(self, name: Optional[str] = None) -> List[SpanEvent]:
        """Every event on every finished span (optionally filtered by name)."""
        out: List[SpanEvent] = []
        for span in self.spans:
            out.extend(
                e for e in span.events if name is None or e.name == name
            )
        out.extend(
            e for e in self.orphan_events if name is None or e.name == name
        )
        return out

    # -- cross-process export / adoption --------------------------------------

    def export(self) -> Dict[str, Any]:
        """Everything this recorder collected, as pickle/JSON-safe data."""
        return {
            "trace_id": self.trace_id,
            "spans": [span.to_jsonable() for span in self.spans],
            "orphan_events": [e.to_jsonable() for e in self.orphan_events],
            "metrics": self.metrics.to_jsonable(),
        }

    def adopt(
        self, exported: Dict[str, Any], parent_id: Optional[str] = None
    ) -> None:
        """Fold a worker's export into this trace.

        Spans whose parent is not in the export (the worker's roots) are
        re-parented under ``parent_id``; everything else keeps its
        in-worker ancestry. Metrics merge additively.
        """
        known = {span["span_id"] for span in exported.get("spans", ())}
        for data in exported.get("spans", ()):
            span = Span.from_jsonable(data)
            if span.parent_id is None or span.parent_id not in known:
                span.parent_id = parent_id
            self.spans.append(span)
        for data in exported.get("orphan_events", ()):
            self.orphan_events.append(SpanEvent.from_jsonable(data))
        self.metrics.merge_jsonable(exported.get("metrics", ()))


Recorder = Union[NullRecorder, MetricsRecorder, TraceRecorder]

NULL_RECORDER = NullRecorder()

_current: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The recorder instrumentation points write to right now."""
    return _current


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install ``recorder`` (None = the null recorder); returns the previous."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Optional[Recorder]) -> Iterator[Recorder]:
    """Scoped :func:`set_recorder` — always restores the previous one."""
    previous = set_recorder(recorder)
    try:
        yield get_recorder()
    finally:
        set_recorder(previous)


def enabled() -> bool:
    """True when a collecting recorder is installed (hot-path fast check)."""
    return _current.enabled


# -- module-level instrumentation API (what call sites use) ------------------


def span(name: str, **attrs: Any) -> Union[Span, NullSpan]:
    """Open a span on the current recorder (use as a context manager)."""
    return _current.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Attach an event to the innermost open span of the current recorder."""
    if _current.enabled:
        _current.event(name, **attrs)


def counter(name: str) -> Union[Counter, NullCounter]:
    return _current.counter(name)


def gauge(name: str) -> Union[Gauge, NullGauge]:
    return _current.gauge(name)


def histogram(
    name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S
) -> Union[Histogram, NullHistogram]:
    return _current.histogram(name, buckets)
