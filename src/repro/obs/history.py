"""The cross-run history store: one :class:`RunRecord` per ``run_all``.

PR 4 gave every run a trace; this module gives the traces (and the
runner's ledger) a memory. Each completed ``run_all`` appends one
compact JSON line — seed/scale/jobs/host, per-artefact wall and
cache-hit accounting, a metrics snapshot, result fingerprints and the
trace path — to ``history.jsonl`` inside a history directory. The
regression engine (:mod:`repro.obs.regress`) and the HTML report
(``python -m repro report``) read it back to turn isolated snapshots
into longitudinal trend data.

The file is the package's one append-only JSONL log, written and read
through the helpers in :mod:`repro.obs.sink`:

* **Atomic appends** (:func:`~repro.obs.sink.append_jsonl`). A
  record is serialized to one ``\\n``-terminated line and written with
  a single ``os.write`` on an ``O_APPEND`` file descriptor, so two
  concurrent ``run-all --history`` invocations can never interleave
  bytes within each other's records.
* **Corruption tolerance** (:func:`~repro.obs.sink.load_jsonl`).
  Loads skip anything they cannot use — a truncated final line from a
  killed writer, garbage bytes, records with an unknown (newer) or
  malformed schema version, fields of the wrong type — and keep every
  record that parses. The store can always be appended to; it never
  needs repair.
* **Versioned schema.** Every record carries ``schema``; readers accept
  records up to their own :data:`SCHEMA_VERSION` and skip newer ones
  instead of misinterpreting them.
"""

from __future__ import annotations

import os
import pathlib
import platform
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs import sink

#: Bump when a reader can no longer interpret older records.
SCHEMA_VERSION = 1

ENV_HISTORY_DIR = "REPRO_HISTORY_DIR"

_HISTORY_FILE = "history.jsonl"

PathLike = Union[str, "pathlib.Path"]


def default_history_root() -> pathlib.Path:
    """``$REPRO_HISTORY_DIR`` if set, else ``~/.cache/repro-airalo/history``."""
    override = os.environ.get(ENV_HISTORY_DIR)
    if override:
        return pathlib.Path(override).expanduser()
    from repro.core.cache import default_cache_root

    return default_cache_root() / "history"


@dataclass
class ArtefactStats:
    """Per-artefact slice of one run: what the ledger knew, plus the
    content fingerprint of the exported result."""

    status: str = "ok"
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_s: float = 0.0
    #: ``fingerprint("result", ...)`` of the exported JSON; empty when
    #: the artefact failed (there is no result to fingerprint).
    fingerprint: str = ""
    #: Declared latency budget for ``wall_s`` (0 = no SLO). Loadgen
    #: records store each route's p99 in ``wall_s`` and its budget here,
    #: so the regress engine can gate service latency absolutely.
    slo_s: float = 0.0

    def cache_hit_rate(self) -> Optional[float]:
        """Hit fraction of this artefact's cache lookups (None: no lookups)."""
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return None
        return self.cache_hits / lookups


@dataclass
class RunRecord:
    """One ``run_all``, compacted to a single history line."""

    run_id: str
    schema: int = SCHEMA_VERSION
    #: What produced this record: ``"run_all"`` (the batch runner) or
    #: ``"loadgen"`` (a service load-generation run). Different kinds
    #: never share a comparability key, so artefact walls and route p99s
    #: are baselined in separate populations.
    kind: str = "run_all"
    created_unix: float = 0.0
    seed: int = 0
    scale: float = 0.0
    jobs: int = 1
    host: str = ""
    ok: bool = True
    #: Run disposition: ``"ok"``, ``"failed"`` (some artefact not ok) or
    #: ``"interrupted"`` (SIGINT/SIGTERM stopped the run early). The
    #: regression engine skips interrupted runs when building baselines.
    status: str = "ok"
    total_wall_s: float = 0.0
    warm_wall_s: float = 0.0
    artefacts: Dict[str, ArtefactStats] = field(default_factory=dict)
    #: Counter snapshot (e.g. ``cache.hit``) when a recorder was live,
    #: plus the ledger-derived ``cache.*`` aggregates always.
    metrics: Dict[str, float] = field(default_factory=dict)
    trace_path: Optional[str] = None

    def group_key(self) -> str:
        """Comparability key: only runs of the same workload are baselined
        against each other. The historical ``run_all`` key shape is kept
        verbatim so pre-existing stores keep their baselines; other
        kinds prefix the key so they form their own populations."""
        key = f"seed{self.seed}-scale{self.scale:g}-jobs{self.jobs}"
        if self.kind != "run_all":
            return f"{self.kind}-{key}"
        return key

    def cache_hit_rate(self) -> Optional[float]:
        hits = sum(a.cache_hits for a in self.artefacts.values())
        misses = sum(a.cache_misses for a in self.artefacts.values())
        if not hits + misses:
            return None
        return hits / (hits + misses)

    def to_jsonable(self) -> Dict[str, Any]:
        data = asdict(self)
        return data

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "RunRecord":
        """Decode one history line, coercing numeric fields and checking
        the type of every other field.

        Raises ``KeyError``, ``TypeError``, ``ValueError``,
        ``AttributeError`` or ``OverflowError`` on a line that is not a
        usable record.
        """
        artefacts = {
            str(artefact_id): ArtefactStats(
                status=_typed(stats.get("status", "ok"), str),
                wall_s=float(stats.get("wall_s", 0.0)),
                cache_hits=int(stats.get("cache_hits", 0)),
                cache_misses=int(stats.get("cache_misses", 0)),
                cache_hit_s=float(stats.get("cache_hit_s", 0.0)),
                fingerprint=_typed(stats.get("fingerprint", ""), str),
                slo_s=float(stats.get("slo_s", 0.0)),
            )
            for artefact_id, stats in data.get("artefacts", {}).items()
        }
        ok = _typed(data.get("ok", True), bool)
        return cls(
            run_id=_typed(data["run_id"], str),
            schema=data.get("schema", SCHEMA_VERSION),
            kind=_typed(data.get("kind", "run_all"), str),
            created_unix=float(data.get("created_unix", 0.0)),
            seed=int(data.get("seed", 0)),
            scale=float(data.get("scale", 0.0)),
            jobs=int(data.get("jobs", 1)),
            host=_typed(data.get("host", ""), str),
            ok=ok,
            status=_typed(data.get("status"), (str, type(None)))
            or ("ok" if ok else "failed"),
            total_wall_s=float(data.get("total_wall_s", 0.0)),
            warm_wall_s=float(data.get("warm_wall_s", 0.0)),
            artefacts=artefacts,
            metrics={
                str(name): float(value)
                for name, value in data.get("metrics", {}).items()
            },
            trace_path=_typed(data.get("trace_path"), (str, type(None))),
        )


def _typed(value: Any, kinds: Any) -> Any:
    """``value`` if it is an instance of ``kinds``, else ``TypeError``."""
    if not isinstance(value, kinds):
        raise TypeError(f"expected {kinds}, got {type(value).__name__}")
    return value


def new_run_id(now: Optional[float] = None) -> str:
    """A unique, sortable run id: UTC stamp plus a random suffix."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now or time.time()))
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def find_run(records: Sequence[RunRecord], run_id: str) -> Optional[RunRecord]:
    """The record with ``run_id`` in ``records`` (unique-prefix match allowed)."""
    for record in records:
        if record.run_id == run_id:
            return record
    prefixed = [record for record in records if record.run_id.startswith(run_id)]
    return prefixed[0] if len(prefixed) == 1 else None


def record_from_report(
    report: Any,
    metrics: Optional[Dict[str, float]] = None,
    host: Optional[str] = None,
    now: Optional[float] = None,
) -> RunRecord:
    """Compact a :class:`~repro.core.runner.RunReport` into a RunRecord.

    The RunReport ledger is the single source: per-artefact wall and
    cache accounting come straight from its rows, and each successful
    result is fingerprinted through the same canonicalisation the
    artifact cache keys use (:func:`repro.core.cache.fingerprint` over
    the exported JSON), so a byte-level change in any exported series
    shows up as a fingerprint change in the history.

    A row that ran nowhere (``ok`` with no attempt: a result that
    ``--resume`` served from the cache) is left out, so no baseline
    holds a wall time its run did not measure.
    """
    from repro.core.cache import fingerprint
    from repro.experiments.export import jsonable

    created = now if now is not None else time.time()
    artefacts: Dict[str, ArtefactStats] = {}
    for run in report.runs:
        if run.status == "ok" and run.attempts == 0:
            continue
        digest = ""
        if run.artefact_id in report.results:
            digest = fingerprint(
                "result",
                artefact=run.artefact_id,
                data=jsonable(report.results[run.artefact_id]),
            )
        artefacts[run.artefact_id] = ArtefactStats(
            status=run.status,
            wall_s=run.wall_s,
            cache_hits=run.cache_hits,
            cache_misses=run.cache_misses,
            cache_hit_s=run.cache_hit_s,
            fingerprint=digest,
        )
    snapshot: Dict[str, float] = dict(metrics or {})
    snapshot.setdefault(
        "cache.ledger.hits", sum(run.cache_hits for run in report.runs)
    )
    snapshot.setdefault(
        "cache.ledger.misses", sum(run.cache_misses for run in report.runs)
    )
    return RunRecord(
        run_id=new_run_id(created),
        created_unix=created,
        seed=report.seed,
        scale=report.scale,
        jobs=report.jobs,
        host=host if host is not None else platform.node(),
        ok=not report.failed(),
        status=(
            "interrupted"
            if getattr(report, "interrupted", False)
            else ("ok" if not report.failed() else "failed")
        ),
        total_wall_s=report.total_wall_s,
        warm_wall_s=report.warm_wall_s,
        artefacts=artefacts,
        metrics=snapshot,
        trace_path=report.trace_path,
    )


class HistoryStore:
    """Append-only JSONL store of :class:`RunRecord`\\ s."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = (
            pathlib.Path(root) if root is not None else default_history_root()
        )
        self.path = self.root / _HISTORY_FILE

    # -- append --------------------------------------------------------------

    def append(self, record: RunRecord) -> RunRecord:
        """Persist ``record`` as one line; atomic against concurrent appends."""
        self.root.mkdir(parents=True, exist_ok=True)
        sink.append_jsonl(self.path, record.to_jsonable())
        return record

    # -- load ----------------------------------------------------------------

    def load(self) -> List[RunRecord]:
        """Every loadable record, in append order.

        Tolerates anything a crashed or newer writer can leave behind:
        the lines :func:`~repro.obs.sink.load_jsonl` skips, plus
        JSON objects that do not decode to a record. Skipped lines never
        hide the records around them.
        """
        records: List[RunRecord] = []
        for data in sink.load_jsonl(self.path, SCHEMA_VERSION):
            try:
                records.append(RunRecord.from_jsonable(data))
            except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
                continue
        return records
