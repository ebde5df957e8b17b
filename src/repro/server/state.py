"""Shared server state: datasets, indexes and caches loaded once.

A CLI invocation pays the input-acquisition cost (world build or disk
load, campaign datasets, index construction) on *every* run. The
measurement service pays it exactly once, at startup, inside
:meth:`ServerState.warm`, and then answers every request from warm
memory:

* the device and web :class:`~repro.measure.dataset.MeasurementDataset`
  objects, with every per-dimension query index pre-built so steady-state
  requests never mutate the index cache (index builds are the only
  writes the query layer performs — pre-building makes concurrent
  handler threads pure readers);
* one result per registered artefact, at the server's own scale,
  memoized by artefact id and backed by the persistent artifact cache
  under the same ``result_key`` the run journal uses, so a ``run-all
  --journal`` checkpoint and a served ``/artefact`` response share
  bytes;
* the cross-run :class:`~repro.obs.history.HistoryStore` for
  ``/history`` and ``/regress``.

Until ``warm()`` finishes, :attr:`ready` stays unset and the HTTP layer
answers everything but ``/healthz`` with 503 — the health probe reports
which warm phase is in progress (that is what ``/healthz`` "checks").
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro import obs
from repro.core import cache as cache_mod
from repro.core.runner import result_key
from repro.experiments import common, registry
from repro.experiments.export import jsonable
from repro.measure import query as query_mod

#: Record kinds served by each dataset (``/query?kind=`` routing).
KIND_DATASET: Dict[str, str] = {
    kind: ("web" if kind == "web" else "device")
    for kind in query_mod.KIND_FIELDS
}

#: Hard cap on ``records=`` expansion per response (keeps one greedy
#: client from serializing a full campaign on every request).
MAX_RECORDS = 1000

#: Artefacts warmed at startup (and the pool loadgen draws from).
#: Computing them during warmup instead of on first request matters
#: beyond first-hit latency: artefact computation is GIL-bound, so a
#: cold compute under load stalls *every* in-flight request's tail.
WARM_ARTEFACTS: Tuple[str, ...] = ("T2", "T4", "F7")


class RequestError(Exception):
    """A client error the HTTP layer maps to a 4xx response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServerState:
    """Everything the daemon loads once and every handler thread reads."""

    def __init__(
        self,
        seed: int = common.DEFAULT_SEED,
        scale: float = common.DEFAULT_SCALE,
        history_dir: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.history_dir = history_dir
        self.started_unix = time.time()
        self.ready = threading.Event()
        self.warm_phase = "pending"
        self.warm_error = ""
        self.warm_wall_s = 0.0
        self._datasets: Dict[str, Any] = {}
        self._artefact_lock = threading.Lock()
        #: Artefact id -> result: at most one entry per registered artefact.
        self._artefact_memo: Dict[str, Any] = {}
        #: Set by the HTTP layer: a zero-argument callable returning
        #: request totals + live-sampler liveness for ``/healthz``.
        self._telemetry_info: Optional[Any] = None

    def attach_telemetry(self, provider: Any) -> None:
        """Let ``/healthz`` report the server's telemetry plane.

        ``provider`` is a zero-argument callable (owned by
        :class:`~repro.server.app.MeasurementServer`) returning request
        totals and sampler liveness; the state stays transport-agnostic.
        """
        self._telemetry_info = provider

    # -- warmup ---------------------------------------------------------------

    def warm(self) -> None:
        """Load datasets and pre-build every query index (once, at startup).

        Then compute :data:`WARM_ARTEFACTS`. numpy loads here too, so no
        request pays for its import.
        """
        from repro.core.study import ThickMnaStudy

        started = time.perf_counter()
        study = ThickMnaStudy(seed=self.seed)
        try:
            import numpy  # noqa: F401

            self.warm_phase = "device_dataset"
            self._datasets["device"] = study.device_dataset(scale=self.scale)
            self.warm_phase = "web_dataset"
            self._datasets["web"] = study.web_dataset()
            self.warm_phase = "indexes"
            self._prebuild_indexes()
            self.warm_phase = "artefacts"
            for artefact_id in WARM_ARTEFACTS:
                self.artefact(artefact_id)
        except Exception:
            self.warm_phase = "failed"
            self.warm_error = traceback.format_exc()
            raise
        finally:
            self.warm_wall_s = time.perf_counter() - started
        self.warm_phase = "ready"
        self.ready.set()

    def _prebuild_indexes(self) -> None:
        """Build every per-dimension index so handlers are pure readers."""
        for kind, dataset_name in KIND_DATASET.items():
            index = self._datasets[dataset_name].index.kind(kind)
            for dimension in query_mod.dimensions_for(kind):
                index.groups(dimension)

    # -- introspection --------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """What ``/healthz`` actually checks: warm state, data, cache."""
        payload: Dict[str, Any] = {
            "status": "ok" if self.ready.is_set() else (
                "failed" if self.warm_phase == "failed" else "warming"
            ),
            "phase": self.warm_phase,
            "seed": self.seed,
            "scale": self.scale,
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "warm_wall_s": round(self.warm_wall_s, 3),
            "datasets": {
                name: dataset.total_records()
                for name, dataset in sorted(self._datasets.items())
            },
        }
        if self._telemetry_info is not None:
            # Request totals + sampler liveness: smoke jobs assert the
            # telemetry plane is actually ticking, not just warm.
            payload["telemetry"] = self._telemetry_info()
        if self.warm_error:
            payload["error"] = self.warm_error.strip().splitlines()[-1]
        if self.ready.is_set():
            payload["cache_entries"] = cache_mod.get_default_cache().info()[
                "entry_count"
            ]
            payload["artefacts"] = len(registry.artefact_ids())
        return payload

    # -- /query ---------------------------------------------------------------

    def dataset_for(self, kind: str) -> Any:
        if kind not in query_mod.KIND_FIELDS:
            raise RequestError(
                400,
                f"unknown record kind {kind!r}; "
                f"known: {', '.join(sorted(query_mod.KIND_FIELDS))}",
            )
        return self._datasets[KIND_DATASET[kind]]

    def _coerce(self, kind: str, dataset: Any, dimension: str, raw: str) -> Any:
        """Map a query-string value onto the dimension's real value type.

        String dimensions pass through; ``day`` becomes an int; enum
        dimensions (sim_kind, architecture, rat) are matched against the
        index's distinct values by ``str()``, ``.name``, ``.value`` or
        ``.label``, case-insensitively — so ``sim_kind=esim`` works from
        a URL without the client importing the enum. A value that
        matches nothing is a legitimate empty slice, not an error.
        """
        if dimension == "day":
            try:
                return int(raw)
            except ValueError:
                raise RequestError(400, f"day must be an integer, got {raw!r}")
        index = dataset.index.kind(kind)
        wanted = raw.lower()
        for value in index.values(dimension):
            if isinstance(value, str):
                if value.lower() == wanted:
                    return value
                continue
            names = (
                str(value),
                str(getattr(value, "name", "")),
                str(getattr(value, "value", "")),
                str(getattr(value, "label", "")),
            )
            if any(name.lower() == wanted for name in names if name):
                return value
        return raw

    def query(
        self,
        kind: str,
        where: Dict[str, str],
        group_by: Sequence[str] = (),
        count_by: Sequence[str] = (),
        records: int = 0,
    ) -> Dict[str, Any]:
        """Execute one ``/query`` request against the warm indexes."""
        dataset = self.dataset_for(kind)
        dims = query_mod.dimensions_for(kind)
        for dimension in list(where) + list(group_by) + list(count_by):
            if dimension not in dims:
                raise RequestError(
                    400,
                    f"unknown dimension {dimension!r} for kind {kind!r}; "
                    f"known: {', '.join(sorted(dims))}",
                )
        if group_by and count_by:
            raise RequestError(400, "pass group_by or count_by, not both")
        if records < 0:
            raise RequestError(400, "records must be >= 0")
        records = min(records, MAX_RECORDS)

        q = dataset.select(kind)
        coerced = {
            dimension: self._coerce(kind, dataset, dimension, raw)
            for dimension, raw in where.items()
        }
        q = q.where(**coerced)
        payload: Dict[str, Any] = {
            "kind": kind,
            "where": {k: str(v) for k, v in sorted(coerced.items())},
            "count": q.count(),
        }
        if count_by:
            payload["count_by"] = list(count_by)
            payload["counts"] = jsonable(q.count_by(*count_by))
        elif group_by:
            payload["group_by"] = list(group_by)
            groups = q.group_by(*group_by)
            payload["groups"] = jsonable(
                {key: len(bucket) for key, bucket in groups.items()}
            )
            if records:
                payload["records"] = jsonable(
                    {key: bucket[:records] for key, bucket in groups.items()}
                )
        elif records:
            payload["records"] = jsonable(q.records()[:records])
        return payload

    # -- /artefact ------------------------------------------------------------

    def artefact(self, artefact_id: str, render: bool = False) -> Dict[str, Any]:
        """Serve one artefact's result, computing (and caching) on miss.

        A scale-aware artefact runs at the server's scale and a
        scale-free one at ``None``, so each is loaded or computed once.
        """
        from repro.core.study import ThickMnaStudy

        artefact_id = artefact_id.upper()
        try:
            spec = registry.get_spec(artefact_id)
        except KeyError:
            raise RequestError(
                404,
                f"unknown artefact {artefact_id!r}; "
                f"known: {', '.join(registry.artefact_ids())}",
            )
        scale = self.scale if spec.supports_scale else None
        source = "memo"
        result = self._artefact_memo.get(artefact_id)
        if result is None:
            # One artefact computes at a time: results are memoized and
            # experiments share the process-local input caches, so the
            # lock trades a burst of duplicate work for correctness.
            with self._artefact_lock:
                result = self._artefact_memo.get(artefact_id)
                if result is None:
                    key = result_key(artefact_id, self.seed, scale)
                    result = cache_mod.get_default_cache().load(key)
                    source = "cache"
                    if result is None:
                        source = "computed"
                        result = ThickMnaStudy(seed=self.seed).run(
                            artefact_id, scale=scale
                        )
                        cache_mod.get_default_cache().store(key, result)
                    self._artefact_memo[artefact_id] = result
                    obs.gauge("server.artefact_memo").set(
                        float(len(self._artefact_memo))
                    )
        payload: Dict[str, Any] = {
            "artefact": artefact_id,
            "title": spec.title,
            "scale": scale,
            "source": source,
            "result": jsonable(result),
        }
        if render:
            payload["rendered"] = spec.render(result)
        return payload

    # -- /history and /regress ------------------------------------------------

    def _history_store(self):
        from repro.obs.history import HistoryStore

        return HistoryStore(self.history_dir)

    def history(self, limit: int = 50) -> Dict[str, Any]:
        if limit < 1:
            raise RequestError(400, f"limit must be at least 1, got {limit}")
        store = self._history_store()
        records = store.load()
        return {
            "history_root": str(store.root),
            "total": len(records),
            "runs": [
                {
                    "run_id": record.run_id,
                    "created_unix": record.created_unix,
                    "kind": record.kind,
                    "key": record.group_key(),
                    "status": record.status,
                    "ok": record.ok,
                    "artefacts": len(record.artefacts),
                    "total_wall_s": record.total_wall_s,
                }
                for record in records[-limit:]
            ],
        }

    def regress(
        self, run_id: Optional[str] = None, against: Optional[str] = None
    ) -> Dict[str, Any]:
        from repro.obs.regress import detect

        try:
            report = detect(
                self._history_store(), run_id=run_id, against=against
            )
        except KeyError as error:
            raise RequestError(404, str(error.args[0]))
        except ValueError as error:
            raise RequestError(409, str(error.args[0] if error.args else error))
        return {
            "run_id": report.run_id,
            "key": report.key,
            "baseline_ids": report.baseline_ids,
            "ok": report.ok(),
            "verdicts": [jsonable(verdict) for verdict in report.verdicts],
            "rendered": report.render(),
        }

    # -- endpoint index -------------------------------------------------------

    def endpoints(self) -> List[Dict[str, str]]:
        return [
            {"path": "/healthz", "doc": "liveness + warm state (200 ready, 503 warming)"},
            {"path": "/query", "doc": "indexed dataset queries: kind, where dims, group_by/count_by, records=N"},
            {"path": "/artefact/<id>", "doc": "one experiment's result (render=1 for the paper-style text)"},
            {"path": "/history", "doc": "recorded runs in the cross-run history store"},
            {"path": "/regress", "doc": "regression verdicts for a recorded run (run=, against=)"},
            {"path": "/metrics", "doc": "Prometheus text-format scrape: request counters, latency histograms, process gauges"},
            {"path": "/stats", "doc": "live sampler window as JSON (window=N seconds, series=name,... for raw points)"},
            {"path": "/events", "doc": "Server-Sent Events stream of per-tick registry deltas (max_events=N to bound)"},
            {"path": "/dashboard", "doc": "auto-updating live dashboard (QPS/p99 sparklines over /events)"},
            {"path": "/profile", "doc": "on-demand sampling profiler, collapsed stacks (seconds=N, interval_ms=M)"},
        ]
