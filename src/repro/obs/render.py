"""Render a trace file for the terminal (``python -m repro trace ...``).

Three views over one :class:`~repro.obs.sink.TraceData`:

* :func:`summary` — per-span-name aggregates, the attribution line
  (share of root wall time covered by named child spans) and the
  metrics tables;
* :func:`tree` — the span hierarchy with durations, children in
  start order;
* :func:`slowest` — the N longest spans with their ancestry paths.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import quantile_bucket
from repro.obs.sink import TraceData


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.2f}s"
    return f"{seconds * 1000:7.1f}ms"


def coverage(trace: TraceData) -> Optional[float]:
    """Fraction of root wall time attributed to named direct children.

    The acceptance bar of the telemetry layer: a traced ``run_all``
    must attribute >= 95% of its wall time to named child spans.
    ``None`` when the trace has no root span or zero-duration roots.
    """
    roots = trace.roots()
    total = sum(span["duration_s"] for span in roots)
    if total <= 0:
        return None
    attributed = sum(
        child["duration_s"]
        for root in roots
        for child in trace.children_of(root["span_id"])
    )
    return min(1.0, attributed / total)


def summary(trace: TraceData) -> str:
    """Aggregate table: spans by name, attribution, then metrics."""
    by_name: Dict[str, List[float]] = {}
    for span in trace.spans:
        by_name.setdefault(span["name"], []).append(span["duration_s"])
    roots = trace.roots()
    root_total = sum(span["duration_s"] for span in roots)

    lines = [f"trace {trace.trace_id}"]
    if trace.attrs:
        lines.append(
            "  " + "  ".join(f"{k}={v}" for k, v in sorted(trace.attrs.items()))
        )
    lines.append("")
    lines.append(
        f"{'span':28} {'count':>6} {'total':>9} {'mean':>9} {'max':>9} {'share':>7}"
    )
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durations = by_name[name]
        total = sum(durations)
        share = f"{total / root_total:6.1%}" if root_total > 0 else "     -"
        lines.append(
            f"{name:28} {len(durations):6d} {_fmt_s(total):>9} "
            f"{_fmt_s(total / len(durations)):>9} {_fmt_s(max(durations)):>9} {share:>7}"
        )
    events = sum(len(span.get("events", ())) for span in trace.spans)
    events += len(trace.events)
    lines.append("")
    lines.append(
        f"{len(trace.spans)} spans, {events} span events, "
        f"root wall {root_total:.2f}s"
    )
    share = coverage(trace)
    if share is not None:
        lines.append(f"attributed to named child spans: {share:.1%}")

    metric_lines = _metric_tables(trace)
    if metric_lines:
        lines.append("")
        lines.extend(metric_lines)
    return "\n".join(lines)


def _metric_tables(trace: TraceData) -> List[str]:
    """The counter/gauge and histogram tables (shared by two views)."""
    counters = [m for m in trace.metrics if m["type"] == "counter"]
    gauges = [m for m in trace.metrics if m["type"] == "gauge"]
    histograms = [m for m in trace.metrics if m["type"] == "histogram"]
    lines: List[str] = []
    if counters or gauges:
        lines.append(f"{'counter':36} {'value':>12}")
        for metric in sorted(counters + gauges, key=lambda m: m["name"]):
            lines.append(f"{metric['name']:36} {metric['value']:>12}")
    if histograms:
        if lines:
            lines.append("")
        lines.append(
            f"{'histogram':24} {'count':>8} {'mean':>9} {'p50':>9} {'p95':>9} {'max<=':>9}"
        )
        for metric in sorted(histograms, key=lambda m: m["name"]):
            lines.append(
                f"{metric['name']:24} {metric['count']:8d} "
                f"{_fmt_s(_hist_mean(metric)):>9} {_hist_quantile(metric, 0.5):>9} "
                f"{_hist_quantile(metric, 0.95):>9} {_hist_quantile(metric, 1.0):>9}"
            )
    return lines


def metrics_view(trace: TraceData) -> str:
    """Only the counters/gauges/histograms embedded in a trace file."""
    lines = _metric_tables(trace)
    if not lines:
        return "(no metrics recorded in this trace)"
    return "\n".join(lines)


def _hist_mean(metric: Dict[str, Any]) -> float:
    return metric["sum"] / metric["count"] if metric["count"] else 0.0


def _hist_quantile(metric: Dict[str, Any], q: float) -> str:
    """Bucket-resolution quantile bound, formatted (``q=1``: the highest
    occupied bucket's bound)."""
    index = quantile_bucket(metric["counts"], q)
    if index is None:
        return "-"
    if index < len(metric["buckets"]):
        return _fmt_s(metric["buckets"][index])
    return ">max"


def tree(trace: TraceData, max_depth: Optional[int] = None) -> str:
    """The span hierarchy, children in start order, one line per span."""
    children = trace.child_index()
    for bucket in children.values():
        bucket.sort(key=lambda span: (span["start_unix"], span["span_id"]))

    lines: List[str] = []

    def _walk(span: Dict[str, Any], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        label = span["name"]
        attrs = span.get("attrs", {})
        if attrs:
            label += " [" + " ".join(
                f"{k}={v}" for k, v in sorted(attrs.items())
            ) + "]"
        flag = "" if span.get("status", "ok") == "ok" else "  !ERROR"
        events = len(span.get("events", ()))
        suffix = f"  ({events} events)" if events else ""
        lines.append(
            f"{_fmt_s(span['duration_s'])}  {'  ' * depth}{label}{suffix}{flag}"
        )
        for child in children.get(span["span_id"], ()):
            _walk(child, depth + 1)

    for root in children.get(None, ()):
        _walk(root, 0)
    return "\n".join(lines) if lines else "(no spans)"


def slowest(trace: TraceData, top: int = 15) -> str:
    """The ``top`` longest spans, with each span's ancestry path."""
    by_id = {span["span_id"]: span for span in trace.spans}

    def _path(span: Dict[str, Any]) -> str:
        parts = [span["name"]]
        seen = {span["span_id"]}
        parent = span.get("parent_id")
        while parent in by_id and parent not in seen:
            seen.add(parent)
            parts.append(by_id[parent]["name"])
            parent = by_id[parent].get("parent_id")
        return " < ".join(parts)

    ranked = sorted(trace.spans, key=lambda span: -span["duration_s"])[:top]
    lines = [f"{'wall':>9}  span (ancestry)"]
    for span in ranked:
        attrs = span.get("attrs", {})
        detail = (
            " [" + " ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
            if attrs else ""
        )
        lines.append(f"{_fmt_s(span['duration_s'])}  {_path(span)}{detail}")
    return "\n".join(lines)
