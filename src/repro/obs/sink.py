"""The per-run trace file: JSON-lines, written alongside artefacts.

Format — one JSON object per line, discriminated by ``type``:

* ``{"type": "meta", "trace_id": ..., "created_unix": ..., "attrs": {...}}``
  — exactly one, first;
* ``{"type": "span", "name": ..., "span_id": ..., "parent_id": ...,
  "start_unix": ..., "duration_s": ..., "status": ..., "attrs": {...},
  "events": [...]}`` — one per finished span, completion order;
* ``{"type": "event", ...}`` — trace-level events emitted outside any span;
* ``{"type": "metric", "metric": {...}}`` — one per instrument, sorted
  by kind then name.

Timestamps live *only* here — never in artefact bytes — so a traced
``run_all`` exports byte-identical results to an untraced one.

The module also holds the two helpers behind the package's append-only
JSONL log, the :mod:`repro.obs.history` store: :func:`append_jsonl`
(one line, one atomic ``O_APPEND`` write) and :func:`load_jsonl` (keep
every line that parses, skip what a crashed or newer writer left
behind).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.obs.recorder import TraceRecorder

PathLike = Union[str, "pathlib.Path"]


@dataclass
class TraceData:
    """A trace file, parsed back into its three record kinds."""

    trace_id: str = ""
    created_unix: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)

    def roots(self) -> List[Dict[str, Any]]:
        """Spans with no parent in the trace (normally exactly one)."""
        known = {span["span_id"] for span in self.spans}
        return [
            span for span in self.spans
            if span.get("parent_id") is None or span["parent_id"] not in known
        ]

    def children_of(self, span_id: Optional[str]) -> List[Dict[str, Any]]:
        return [span for span in self.spans if span.get("parent_id") == span_id]

    def child_index(self) -> Dict[Optional[str], List[Dict[str, Any]]]:
        """Parent span id -> child spans, in file order.

        Roots, and orphans whose parent is not in the trace, sit under
        ``None``.
        """
        children: Dict[Optional[str], List[Dict[str, Any]]] = {}
        known = {span["span_id"] for span in self.spans}
        for span in self.spans:
            parent = span.get("parent_id")
            if parent not in known:
                parent = None
            children.setdefault(parent, []).append(span)
        return children


def write_trace(
    recorder: TraceRecorder,
    path: PathLike,
    attrs: Optional[Dict[str, Any]] = None,
) -> pathlib.Path:
    """Serialize ``recorder`` to ``path`` as JSONL, atomically; returns the path."""
    from repro.core.cache import atomic_write

    lines = [
        json.dumps(
            {
                "type": "meta",
                "trace_id": recorder.trace_id,
                "created_unix": time.time(),
                "attrs": attrs or {},
            },
            sort_keys=True,
        )
    ]
    for span in recorder.spans:
        lines.append(
            json.dumps({"type": "span", **span.to_jsonable()}, sort_keys=True)
        )
    for event in recorder.orphan_events:
        lines.append(
            json.dumps({"type": "event", **event.to_jsonable()}, sort_keys=True)
        )
    for metric in recorder.metrics.to_jsonable():
        lines.append(json.dumps({"type": "metric", "metric": metric}, sort_keys=True))
    text = "\n".join(lines) + "\n"
    atomic_write(path, lambda handle: handle.write(text), mode="w")
    return pathlib.Path(path)


_NUMBER = (int, float)

#: The fields the views read from each record type (a metric: from its
#: instrument snapshot), with the types they must have (``[t]``: a list
#: of ``t``). ``attrs`` and ``events`` may be absent and read as empty.
_FIELDS: Dict[str, Dict[str, Any]] = {
    "meta": {"attrs": dict},
    "span": {
        "name": str, "span_id": str, "start_unix": _NUMBER, "duration_s": _NUMBER,
        "parent_id": (str, type(None)), "attrs": dict, "events": list,
    },
    "counter": {"name": str, "value": _NUMBER},
    "gauge": {"name": str, "value": _NUMBER},
    "histogram": {
        "name": str, "buckets": [_NUMBER], "counts": [int], "sum": _NUMBER,
        "count": int,
    },
}
_DEFAULTS = {"attrs": {}, "events": []}


def _malformed(record: Any) -> Optional[str]:
    """Why the views could not render one parsed trace line, if so."""
    if not isinstance(record, dict):
        return "not a JSON object"
    kind = record.get("type")
    if kind == "metric":
        record = record.get("metric")
        kind = record.get("type") if isinstance(record, dict) else None
        if kind not in ("counter", "gauge", "histogram"):
            return "metric is not a counter, gauge or histogram snapshot"
    elif kind not in ("meta", "span"):
        return None  # events and unknown types: the views read nothing
    for name, types in _FIELDS[kind].items():
        value = record.get(name, _DEFAULTS.get(name))
        if isinstance(types, list):
            valid = isinstance(value, list) and all(isinstance(v, types[0]) for v in value)
        else:
            valid = isinstance(value, types)
        if not valid:
            return f"{kind} has no valid {name}"
    return None


def load_trace(path: PathLike) -> TraceData:
    """Parse a trace file; unknown record types are ignored (forward compat).

    Raises ``ValueError("<path>:<line>: ...")`` on a line the views
    could not render: one that is not a JSON object, a meta line whose
    ``attrs`` is not an object, a span without a string ``name`` and
    ``span_id`` and a numeric ``start_unix`` and ``duration_s`` (or with
    a badly typed parent, ``attrs`` or ``events``), or a metric that is
    not a snapshot of a known instrument type.
    """
    trace = TraceData()
    text = pathlib.Path(path).read_text()
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{line_number}: not a JSONL trace line ({error})"
            ) from None
        problem = _malformed(record)
        if problem is not None:
            raise ValueError(f"{path}:{line_number}: {problem}")
        kind = record.get("type")
        if kind == "meta":
            trace.trace_id = record.get("trace_id", "")
            trace.created_unix = record.get("created_unix", 0.0)
            trace.attrs = record.get("attrs", {})
        elif kind == "span":
            trace.spans.append(record)
        elif kind == "event":
            trace.events.append(record)
        elif kind == "metric":
            trace.metrics.append(record["metric"])
    return trace


def append_jsonl(path: PathLike, obj: Mapping[str, Any]) -> None:
    """Append ``obj`` to a JSONL log as one line, in one ``os.write``.

    ``O_APPEND`` makes the write atomic against concurrent appenders, so
    two processes never interleave bytes within each other's lines.
    """
    line = json.dumps(obj, sort_keys=True) + "\n"
    if _needs_leading_newline(path):
        # A killed writer left an unterminated line: seal it off so this
        # entry starts fresh. Still one write either way.
        line = "\n" + line
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def _needs_leading_newline(path: PathLike) -> bool:
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except OSError:  # missing or empty file
        return False


def load_jsonl(path: PathLike, schema_version: int) -> Iterator[Dict[str, Any]]:
    """Every JSON object in a JSONL log a reader at ``schema_version`` can use.

    Skips what a crashed or newer writer can leave behind: blank lines,
    non-JSON (a truncated final line, garbage bytes), JSON that is not
    an object, and objects whose ``schema`` is not an int or is newer
    than ``schema_version``. An object without ``schema`` is taken as
    current. A missing or unreadable file yields nothing.
    """
    try:
        raw = pathlib.Path(path).read_bytes()
    except OSError:
        return
    for line in raw.splitlines():
        try:
            data = json.loads(line)
        except ValueError:  # bad JSON or bad UTF-8: keep the rest
            continue
        if not isinstance(data, dict):
            continue
        schema = data.get("schema", schema_version)
        if type(schema) is not int or schema > schema_version:
            continue  # newer or malformed writer: skip, don't guess
        yield data
