"""Layer stages timed in a fresh child process: ``python -m bench.stages STAGE SEED OUT``.

A user's ``run-all`` pays first-call costs (lazy imports, first
unpickling of each class, a cold allocator), so the layers are timed in
a process as fresh as the one they are set against, through public
functions only:

* ``cold``, on an empty cache: build each input ``run-all`` warms, plus
  RX1's chaotic campaign (the ``common`` getters; cache stores timed by
  an ``ArtifactCache`` subclass), then run every artefact
  (``ThickMnaStudy.run``);
* ``warm``, on the cache ``cold`` filled: one ``StudyRunner.run_all``
  and its JSON export (``RunReport.save``), each input loaded back, the
  query engine on a freshly loaded dataset, then ``ServerState``.

The stage writes one JSON object to OUT: its metrics, the digest of
every artefact result it produced, the layer time a ``run-all`` would
spend (``layers_s``), its operation count and its spans. Its last act
is to print the wall-clock time, from which the parent times the
interpreter's exit.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Sequence

from bench.harness import JOBS, SCALE
from bench.load import ARTEFACTS, QUERY_COUNTRIES, QUERY_DIMENSIONS, QUERY_KINDS, query_shapes
from bench.oracle import digest
from bench.spans import Recorder
from bench.stats import percentile

#: (input, layer span): the inputs ``run-all`` warms, plus RX1's chaotic campaign.
INPUT_LAYERS = (
    ("world", "worlds.build"),
    ("device", "measure.device_campaign"),
    ("device_chaos", "measure.device_campaign_chaos"),
    ("web", "measure.web_campaign"),
    ("market", "market.crawl"),
)

#: Timed calls per query operation and per ``ServerState`` route.
CALL_REPS = 200

#: ``ServerState.query`` calls: enough for a p99 with ten samples beyond it.
STATE_QUERY_CALLS = 1000


def cycle(items: Sequence[Any], n: int) -> List[Any]:
    return [items[i % len(items)] for i in range(n)]


def timed_calls(rec: Recorder, name: str, calls: Sequence[Callable[[], Any]]) -> List[float]:
    """Run each call under its own span; returns the durations."""
    durations = []
    for call in calls:
        with rec.span(name) as span:
            call()
        durations.append(span["duration_s"])
    return durations


def exported_digest(result: Any) -> str:
    """The digest of ``result`` as ``run-all --json`` would export it."""
    from repro.experiments.export import jsonable

    return digest(json.loads(json.dumps(jsonable(result))))


class Stage:
    """What both stages share: the recorder, the timed cache, the input getters."""

    def __init__(self, rec: Recorder, seed: int, workdir: pathlib.Path) -> None:
        from repro.core import cache as cache_mod
        from repro.experiments import common
        from repro.faults import ChaosConfig

        class TimedCache(cache_mod.ArtifactCache):
            def load(self, key: str) -> Any:
                with rec.span("cache.load", key=key) as span:
                    value = super().load(key)
                    span["attrs"]["hit"] = value is not None
                return value

            def store(self, key: str, value: Any) -> Any:
                with rec.span("cache.store", key=key) as span:
                    path = super().store(key, value)
                    span["attrs"]["bytes"] = path.stat().st_size if path is not None else 0
                return path

        self.rec = rec
        self.seed = seed
        self.workdir = workdir
        self.cache = cache_mod.set_default_cache(TimedCache())
        chaos = ChaosConfig.paper_plausible(seed=seed)
        self.getters: Dict[str, Callable[[], Any]] = {
            "world": lambda: common.get_world(seed),
            "device": lambda: common.get_device_dataset(SCALE, seed),
            "device_chaos": lambda: common.get_device_dataset(SCALE, seed, chaos=chaos),
            "web": lambda: common.get_web_dataset(seed),
            "market": lambda: common.get_market(),
        }
        self.metrics: Dict[str, float] = {}
        self.digests: Dict[str, str] = {}
        self.layers_s = 0.0
        self.attempted = 0
        self.errors: List[str] = []

    def children_sum(self, span: Dict[str, Any], name: str, attr: str = "") -> float:
        found = [c for c in self.rec.children(span) if c["name"] == name]
        return sum(c["attrs"][attr] if attr else c["duration_s"] for c in found)


def cold(stage: Stage) -> None:
    from repro.core.study import ThickMnaStudy
    from repro.experiments import registry

    rec, m = stage.rec, stage.metrics
    built = {}
    for name, layer in INPUT_LAYERS:
        with rec.span(layer, input=name) as span:
            built[name] = stage.getters[name]()
        stage.layers_s += span["duration_s"]
        m[f"{layer}_s"] = rec.self_time(span)
        m[f"cache.store_s.{name}"] = stage.children_sum(span, "cache.store")
        m[f"cache.bytes.{name}"] = stage.children_sum(span, "cache.store", "bytes")
    m["measure.device_records"] = built["device"].total_records()
    m["measure.web_records"] = built["web"].total_records()
    m["market.offers"] = len(built["market"][1].all_offers())

    study = ThickMnaStudy(seed=stage.seed)
    for artefact in registry.artefact_ids():
        with rec.span(f"artefact.{artefact}") as span:
            result = study.run(artefact)
        m[f"artefact.{artefact}_s"] = span["duration_s"]
        stage.digests[artefact] = exported_digest(result)
        stage.attempted += 1
    m["artefact.total_s"] = sum(m[f"artefact.{a}_s"] for a in registry.artefact_ids())
    stage.layers_s += m["artefact.total_s"]


def warm(stage: Stage) -> None:
    from repro.core.runner import StudyRunner
    from repro.experiments import common
    from repro.measure import query as query_mod
    from repro.server.state import ServerState

    rec, m, cache = stage.rec, stage.metrics, stage.cache
    with rec.span("runner.run_all"):
        report = StudyRunner(seed=stage.seed, jobs=JOBS, handle_signals=False).run_all(scale=SCALE)
    stage.attempted += 1
    if report.failed():
        stage.errors.append(f"StudyRunner.run_all: {[run.artefact_id for run in report.failed()]} failed")
    stage.digests = {artefact: exported_digest(result) for artefact, result in report.results.items()}
    lookups = cache.stats.hits + cache.stats.misses
    m["cache.hit_ratio"] = cache.stats.hits / lookups if lookups else 0.0
    m["runner.warm_inputs_s"] = report.warm_wall_s
    m["runner.overhead_s"] = report.total_wall_s - report.warm_wall_s - sum(r.wall_s for r in report.runs)
    with rec.span("runner.export") as span:
        report.save(stage.workdir / "warm-report.json")
    m["runner.export_s"] = span["duration_s"]
    stage.layers_s = report.total_wall_s

    common.clear_caches()
    for name, _ in INPUT_LAYERS:
        with rec.span("inputs.load", input=name) as span:
            stage.getters[name]()
        m[f"cache.load_s.{name}"] = stage.children_sum(span, "cache.load")

    common.clear_caches()
    loaded = {"device": stage.getters["device"](), "web": stage.getters["web"]()}
    kinds = {kind: loaded["web" if kind == "web" else "device"] for kind in query_mod.KIND_FIELDS}
    with rec.span("query.index_build") as span:
        for kind, dataset in kinds.items():
            index = dataset.index.kind(kind)
            for dimension in query_mod.dimensions_for(kind):
                index.groups(dimension)
    m["query.index_build_s"] = span["duration_s"]
    dims = [(kind, dim) for kind in QUERY_KINDS for dim in QUERY_DIMENSIONS]
    filters = [(kind, iso3) for kind in QUERY_KINDS for iso3 in QUERY_COUNTRIES]
    ops = {
        "count_by": [lambda k=k, d=d: kinds[k].select(k).count_by(d) for k, d in dims],
        "group_by": [lambda k=k, d=d: kinds[k].select(k).group_by(d) for k, d in dims],
        "where": [lambda k=k, c=c: kinds[k].select(k).where(country=c).count() for k, c in filters],
        "records": [lambda k=k, c=c: kinds[k].select(k).where(country=c).records() for k, c in filters],
    }
    for op, calls in ops.items():
        m[f"query.{op}_p50_s"] = percentile(timed_calls(rec, f"query.{op}", cycle(calls, CALL_REPS)), 0.5)

    common.clear_caches()
    state = ServerState(seed=stage.seed, scale=SCALE)
    with rec.span("state.warm") as span:
        state.warm()
    m["state.warm_s"] = span["duration_s"]

    def state_query(kind: str, param: str, value: str) -> Any:
        if param == "country":
            return state.query(kind, where={"country": value})
        return state.query(kind, where={}, **{param: (value,)})

    durations = timed_calls(rec, "state.query", cycle([lambda s=s: state_query(*s) for s in query_shapes()], STATE_QUERY_CALLS))
    m["state.query_p50_s"] = percentile(durations, 0.5)
    m["state.query_p99_s"] = percentile(durations, 0.99)
    durations = timed_calls(rec, "state.artefact", cycle([lambda a=a: state.artefact(a) for a in ARTEFACTS], CALL_REPS))
    m["state.artefact_hit_p50_s"] = percentile(durations, 0.5)
    with rec.span("state.artefact_miss", artefact="F16") as span:
        state.artefact("F16")  # not among the warmed artefacts: computed on first request
    m["state.artefact_miss_s"] = span["duration_s"]
    m["state.healthz_p50_s"] = percentile(timed_calls(rec, "state.healthz", [state.healthz] * CALL_REPS), 0.5)
    stage.attempted += 4 * CALL_REPS + STATE_QUERY_CALLS + 2 * CALL_REPS + 1


STAGES = {"cold": cold, "warm": warm}


def main(argv: List[str]) -> int:
    name, seed, out = argv[0], int(argv[1]), pathlib.Path(argv[2])
    rec = Recorder(f"bench-stage-{name}")
    with rec.span(f"stage.{name}.process"):
        with rec.span("stage.import"):
            for module in ("repro.core.runner", "repro.server.state"):
                importlib.import_module(module)
        stage = Stage(rec, seed, out.parent)
        STAGES[name](stage)
    out.write_text(json.dumps({
        "metrics": stage.metrics, "digests": stage.digests, "layers_s": stage.layers_s,
        "attempted": stage.attempted, "errors": stage.errors, "spans": rec.spans,
    }))
    print(time.time(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
