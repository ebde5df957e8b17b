"""The benchmark's own spans: one per timed call, kept in memory, written at the end.

The written file is JSON lines in the trace schema ``python -m repro
trace summary`` reads (a ``meta`` line, then one ``span`` line each), so
the program's trace tools render the benchmark's traces too. The
recorder is the benchmark's own, not the program's: what measures the
program does not change when the program does.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence


class Recorder:
    """Nested spans on one thread; spans timed elsewhere are added with :meth:`add`."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._unix0 = time.time()
        self._perf0 = time.perf_counter()

    def _unix(self, perf: float) -> float:
        return self._unix0 + (perf - self._perf0)

    def add(
        self,
        name: str,
        start_perf: float,
        duration_s: float,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Dict[str, Any]:
        """Record a span measured elsewhere; the parent defaults to the open span."""
        span = {
            "name": name,
            "span_id": f"b{len(self.spans) + 1}",
            "parent_id": parent_id if parent_id is not None else (self._stack[-1] if self._stack else None),
            "start_unix": self._unix(start_perf),
            "duration_s": duration_s,
            "status": "ok",
            "attrs": attrs,
            "events": [],
        }
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the block as a child of the open span; yields the span to annotate."""
        started = time.perf_counter()
        span = self.add(name, started, 0.0, **attrs)
        self._stack.append(span["span_id"])
        try:
            yield span
        except BaseException:
            span["status"] = "error"
            raise
        finally:
            span["duration_s"] = time.perf_counter() - started
            self._stack.pop()

    def adopt(self, spans: Sequence[Dict[str, Any]], parent_id: str, prefix: str) -> None:
        """Take in another recorder's spans: ids get ``prefix``, its roots go under ``parent_id``."""
        ids = {span["span_id"] for span in spans}
        for span in spans:
            parent = span["parent_id"]
            self.spans.append(dict(
                span,
                span_id=prefix + span["span_id"],
                parent_id=prefix + parent if parent in ids else parent_id,
            ))

    def children(self, span: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["parent_id"] == span["span_id"]]

    def self_time(self, span: Dict[str, Any]) -> float:
        return self_time(span, self.children(span))

    def write(self, path: pathlib.Path, attrs: Dict[str, Any]) -> pathlib.Path:
        meta = {"type": "meta", "trace_id": self.trace_id, "created_unix": self._unix0, "attrs": attrs}
        lines = [json.dumps(meta, sort_keys=True)]
        lines += [json.dumps({"type": "span", **span}, sort_keys=True) for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        return path


def self_time(span: Dict[str, Any], children: Sequence[Dict[str, Any]]) -> float:
    """The span's duration minus the part of its interval its children cover.

    Children may overlap (threads) or spill past the parent (clocks of
    other processes); only the union of their intervals clipped to the
    parent's counts.
    """
    start = span["start_unix"]
    end = start + span["duration_s"]
    intervals = sorted(
        (max(start, c["start_unix"]), min(end, c["start_unix"] + c["duration_s"]))
        for c in children
    )
    covered = 0.0
    reach = start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["duration_s"] - covered
