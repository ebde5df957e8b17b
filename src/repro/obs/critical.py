"""Critical-path and phase attribution over a PR-4 trace file.

A trace tells you *what ran*; this module tells you *what to make
faster*. Two views over one :class:`~repro.obs.sink.TraceData`:

* :func:`critical_path` — the chain of spans that bounded the run's
  wall clock. Starting from the longest root, each step descends into
  the child that **finished last** (``start_unix + duration_s``), which
  under concurrency is the child the parent actually waited for; ties
  fall to the longer span. Each step carries its *self time* (duration
  minus the time covered by its own children) so the path reads as an
  attribution, not just a lineage.
* :func:`phase_attribution` — wall time grouped by the root's direct
  child span names (``warm_inputs``, ``artefact``, ...), plus the
  unattributed remainder, i.e. the per-phase budget the regression
  docs talk about.

Both power ``python -m repro report --html`` and are importable on
their own for ad-hoc analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.obs.render import _fmt_s
from repro.obs.sink import TraceData


@dataclass
class CriticalStep:
    """One span on the critical path."""

    name: str
    span_id: str
    depth: int
    duration_s: float
    self_s: float
    attrs: Dict[str, Any]

    def label(self) -> str:
        if not self.attrs:
            return self.name
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return f"{self.name} [{detail}]"


@dataclass
class Phase:
    """Aggregated direct children of the root span, by name."""

    name: str
    count: int
    total_s: float
    share: float  # of the root's wall time; can exceed 1 under concurrency


def _end_unix(span: Dict[str, Any]) -> float:
    return span.get("start_unix", 0.0) + span.get("duration_s", 0.0)


def critical_path(trace: TraceData) -> List[CriticalStep]:
    """The last-finishing chain from the longest root down to a leaf."""
    children = trace.child_index()
    roots = children.get(None, [])
    if not roots:
        return []
    span = max(roots, key=lambda s: s.get("duration_s", 0.0))
    path: List[CriticalStep] = []
    depth = 0
    seen = set()
    while span is not None and span["span_id"] not in seen:
        seen.add(span["span_id"])
        kids = children.get(span["span_id"], [])
        covered = sum(kid.get("duration_s", 0.0) for kid in kids)
        path.append(CriticalStep(
            name=span["name"],
            span_id=span["span_id"],
            depth=depth,
            duration_s=span.get("duration_s", 0.0),
            self_s=max(0.0, span.get("duration_s", 0.0) - covered),
            attrs=dict(span.get("attrs", {})),
        ))
        span = (
            max(kids, key=lambda s: (_end_unix(s), s.get("duration_s", 0.0)))
            if kids else None
        )
        depth += 1
    return path


def phase_attribution(trace: TraceData) -> List[Phase]:
    """Root wall time grouped by direct-child span name (+ unattributed)."""
    children = trace.child_index()
    roots = children.get(None, [])
    if not roots:
        return []
    root = max(roots, key=lambda s: s.get("duration_s", 0.0))
    root_wall = root.get("duration_s", 0.0)
    by_name: Dict[str, List[float]] = {}
    for child in children.get(root["span_id"], []):
        by_name.setdefault(child["name"], []).append(
            child.get("duration_s", 0.0)
        )
    phases = [
        Phase(
            name=name,
            count=len(durations),
            total_s=sum(durations),
            share=(sum(durations) / root_wall) if root_wall > 0 else 0.0,
        )
        for name, durations in by_name.items()
    ]
    phases.sort(key=lambda phase: -phase.total_s)
    attributed = sum(phase.total_s for phase in phases)
    remainder = root_wall - attributed
    if root_wall > 0 and remainder > 0:
        phases.append(Phase(
            name="(unattributed)",
            count=0,
            total_s=remainder,
            share=remainder / root_wall,
        ))
    return phases


def render_critical(trace: TraceData) -> str:
    """Terminal view: phase table then the indented critical path."""
    phases = phase_attribution(trace)
    path = critical_path(trace)
    if not path:
        return "(no spans)"
    lines = [f"{'phase':28} {'count':>6} {'total':>9} {'share':>7}"]
    for phase in phases:
        lines.append(
            f"{phase.name:28} {phase.count:6d} {_fmt_s(phase.total_s):>9} "
            f"{phase.share:6.1%}"
        )
    lines.append("")
    lines.append(f"critical path ({len(path)} spans):")
    lines.append(f"{'wall':>9} {'self':>9}  span")
    for step in path:
        lines.append(
            f"{_fmt_s(step.duration_s):>9} {_fmt_s(step.self_s):>9}  "
            f"{'  ' * step.depth}{step.label()}"
        )
    return "\n".join(lines)
