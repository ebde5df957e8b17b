"""``repro.obs`` — the zero-dependency telemetry sidecar.

Hierarchical spans, a metrics registry (counters / gauges / fixed-bucket
histograms) and a per-run JSONL trace sink, instrumented through every
layer of the pipeline. Off by default: the :class:`NullRecorder`
answers every instrumentation point with shared no-op singletons, and a
traced run exports byte-identical artefacts to an untraced one —
timestamps live only in the trace file.

Typical use::

    from repro import obs
    from repro.core.runner import StudyRunner

    runner = StudyRunner(seed=2024, jobs=4, trace_dir="traces/")
    report = runner.run_all(scale=0.15)
    print(report.trace_path)          # traces/run_all-....jsonl

or, instrumenting by hand::

    with obs.use_recorder(obs.TraceRecorder()) as rec:
        with obs.span("my.stage", shard=3):
            obs.counter("my.items").inc()
            obs.event("my.retry", attempt=1)
    obs.write_trace(rec, "trace.jsonl")

See ``docs/OBSERVABILITY.md`` for naming conventions and the trace
schema, and ``python -m repro trace {summary,tree,slowest}`` for the
terminal views.
"""

from repro.obs.critical import (
    CriticalStep,
    Phase,
    critical_path,
    phase_attribution,
    render_critical,
)
from repro.obs.history import (
    ArtefactStats,
    HistoryStore,
    RunRecord,
    default_history_root,
    record_from_report,
)
from repro.obs.exposition import render as render_metrics
from repro.obs.live import LiveSampler
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import SamplingProfiler, profile_call
from repro.obs.recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    TraceRecorder,
    counter,
    enabled,
    event,
    gauge,
    get_recorder,
    histogram,
    set_recorder,
    span,
    use_recorder,
)
from repro.obs.regress import (
    RegressionConfig,
    RegressionReport,
    Verdict,
    compare,
    detect,
)
from repro.obs.render import coverage, metrics_view, slowest, summary, tree
from repro.obs.report import render_html, write_html
from repro.obs.sink import TraceData, load_trace, write_trace
from repro.obs.spans import Span, SpanEvent

__all__ = [
    "LATENCY_BUCKETS_S",
    "ArtefactStats",
    "Counter",
    "CriticalStep",
    "Gauge",
    "Histogram",
    "HistoryStore",
    "LiveSampler",
    "MetricsRecorder",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Phase",
    "SamplingProfiler",
    "Recorder",
    "RegressionConfig",
    "RegressionReport",
    "RunRecord",
    "TraceRecorder",
    "Span",
    "SpanEvent",
    "TraceData",
    "Verdict",
    "compare",
    "counter",
    "coverage",
    "critical_path",
    "default_history_root",
    "detect",
    "enabled",
    "event",
    "gauge",
    "get_recorder",
    "histogram",
    "load_trace",
    "metrics_view",
    "phase_attribution",
    "profile_call",
    "record_from_report",
    "render_critical",
    "render_html",
    "render_metrics",
    "set_recorder",
    "slowest",
    "span",
    "summary",
    "tree",
    "use_recorder",
    "write_html",
    "write_trace",
]
