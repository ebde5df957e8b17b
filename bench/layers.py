"""The traced run: every layer once, one span per timed call.

The pass is the same whichever workload asked for it, so every traced
run reports every per-layer metric. In order:

1. ``cli``: ``python -X importtime -c "import repro.cli"``, three times;
2. a cold ``repro run-all`` then the ``cold`` stage (:mod:`bench.stages`),
   and a warm ``run-all`` then the ``warm`` stage: each stage is a fresh
   process that decomposes the ``run-all`` before it, whose wall the
   layers are set against;
3. ``serve``: ``repro serve`` under the ``serve-mix`` schedule with every
   other request sending ``traceparent``, so the server reports its own
   span; then the capacity ladder.

The program's own tracing stays off; spans come from the benchmark.
"""

from __future__ import annotations

import json
import pathlib
import re
import statistics
import sys
import time
from typing import Any, Dict, Tuple

from bench.contract import Result
from bench.harness import SCALE, HarnessError, Server, run_timed
from bench.load import DRAIN_GRACE_S, LADDER_STEP_S, max_rate_ok, meets_limit, run_phase, schedule
from bench.spans import Recorder
from bench.stats import percentile
from bench.workloads import SERVE_RATE_RPS, Context, check_responses, run_all, stop_server

IMPORT_REPS = 3

#: Packages whose import time ``cli.import_<package>_s`` reports: the sum of their modules' self time.
IMPORT_PACKAGES = ("scipy", "networkx", "numpy", "repro")

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| \s*(\S+)")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``-X importtime`` output in seconds: ``total``, the cumulative time of
    ``repro.cli``, and per package of :data:`IMPORT_PACKAGES` its self time."""
    parsed = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cumulative_us, module = match.groups()
        if module == "repro.cli":
            parsed["total"] = int(cumulative_us) / 1e6
        package = module.split(".", 1)[0]
        if package in IMPORT_PACKAGES:
            parsed[package] += int(self_us) / 1e6
    return parsed


def _cli(ctx: Context, rec: Recorder, m: Dict[str, float]) -> None:
    runs = []
    for _ in range(IMPORT_REPS):
        with rec.span("cli.import"):
            proc = run_timed(
                [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
                ctx.ws.env(ctx.ws.path("cache")), ctx.ws,
            )
        parsed = parse_importtime(proc.stderr)
        if ctx.count(proc.code == 0 and "total" in parsed, "import repro.cli", proc.tail()):
            runs.append(parsed)
    if not runs:
        raise HarnessError("import repro.cli never succeeded")
    m["cli.import_s"] = statistics.median(run["total"] for run in runs)
    for package in IMPORT_PACKAGES:
        m[f"cli.import_{package}_s"] = statistics.median(run[package] for run in runs)


def _stage(
    ctx: Context, rec: Recorder, m: Dict[str, float], name: str, cache: pathlib.Path
) -> Tuple[float, float]:
    """Run one :mod:`bench.stages` stage; ``(layer time it found, seconds its interpreter took to exit)``."""
    out = ctx.ws.path(f"{name}.json")
    with rec.span(f"stage.{name}") as span:
        proc = run_timed(
            [sys.executable, "-m", "bench.stages", name, str(ctx.seed), str(out)],
            ctx.ws.env(cache), ctx.ws,
        )
        exited = time.time()
    if proc.code != 0:
        raise HarnessError(f"the {name} stage failed:\n{proc.tail()}")
    data: Dict[str, Any] = json.loads(out.read_text())
    rec.adopt(data["spans"], parent_id=span["span_id"], prefix=f"{name}.")
    m.update(data["metrics"])
    ctx.attempted += data["attempted"]
    for error in data["errors"]:
        ctx.count(False, f"{name} stage", error)
    for artefact, value in data["digests"].items():
        ctx.oracle.check_artefact(f"{name} stage", artefact, value)
    return data["layers_s"], exited - float(proc.stdout.split()[-1])


def _serve(ctx: Context, rec: Recorder, m: Dict[str, float], cache: pathlib.Path) -> None:
    server = Server(ctx.ws, ctx.seed, cache)
    try:
        with rec.span("serve.spawn"):
            server.wait_ready()
        ctx.attempted += 1
        requests = schedule(ctx.seed, SERVE_RATE_RPS, ctx.seconds, trace_every=2)
        with rec.span("serve.load", rate_rps=SERVE_RATE_RPS) as phase:
            started = time.perf_counter()
            outcomes = run_phase(server.port, requests, ctx.seconds + DRAIN_GRACE_S)
        sent = check_responses(ctx, outcomes)
        for o in sent:
            # The server span is placed at the client's send time: only its
            # length, not its position, enters the client span's self time.
            client = rec.add(
                "http.request", started + o.sent_s, o.done_s - o.sent_s, parent_id=phase["span_id"],
                route=o.request.route, path=o.request.path, status=o.status,
            )
            if o.server_s is not None:
                rec.add("server.request", started + o.sent_s, o.server_s,
                        parent_id=client["span_id"], route=o.request.route)
        traced = [o for o in sent if o.server_s is not None]
        server_s = [o.server_s for o in traced]
        wait_s = [o.done_s - o.sent_s - o.server_s for o in traced]
        m["http.server_p50_s"] = percentile(server_s, 0.5)
        m["http.server_p90_s"] = percentile(server_s, 0.9)
        m["http.wait_p50_s"] = percentile(wait_s, 0.5)
        m["http.wait_p90_s"] = percentile(wait_s, 0.9)
        for route, metric in (("metrics", "obs.metrics_render_p50_s"), ("stats", "obs.stats_p50_s")):
            m[metric] = percentile([o.server_s for o in traced if o.request.route == route], 0.5)
        m["trace.http_overhead_p50_s"] = (
            percentile([o.latency_s for o in traced], 0.5)
            - percentile([o.latency_s for o in sent if o.server_s is None], 0.5)
        )
        m["loadgen.sent"] = len(sent)
        m["loadgen.unsent"] = len(outcomes) - len(sent)
        m["loadgen.send_lag_p90_s"] = percentile([o.sent_s - o.request.due_s for o in sent], 0.9)
        ctx.detail["http_client_p50_s"] = percentile([o.done_s - o.sent_s for o in traced], 0.5)

        def step_ok(rate: float) -> bool:
            with rec.span("serve.ladder", rate_rps=rate) as span:
                step = run_phase(server.port, schedule(ctx.seed, rate, LADDER_STEP_S), LADDER_STEP_S)
                span["attrs"]["ok"] = ok = meets_limit(step)
            return ok

        m["loadgen.max_rate_ok_rps"] = max_rate_ok(SERVE_RATE_RPS, meets_limit(outcomes), step_ok)
    finally:
        with rec.span("http.shutdown"):
            m["http.shutdown_s"] = stop_server(ctx, server)


def probe(ctx: Context, rec: Recorder) -> Result:
    """Every layer once, recorded into ``rec``; the per-layer metrics."""
    m: Dict[str, float] = {}
    with rec.span("bench.trace", seed=ctx.seed, scale=SCALE):
        with rec.span("phase.cli"):
            _cli(ctx, rec, m)
        # Each stage runs right after the run-all it decomposes, so the host's
        # speed drifts as little as possible between the two.
        primed = ctx.ws.path("cache")  # filled by the run-alls, then served
        stage_cache = ctx.ws.path("cache")
        with rec.span("phase.cold"):
            with rec.span("runall.cold"):
                cold, _ = run_all(ctx, primed, "cold run-all")
            cold_layers_s, m["cli.exit_s"] = _stage(ctx, rec, m, "cold", stage_cache)
        with rec.span("phase.warm"):
            with rec.span("runall.warm"):
                warm, warm_report = run_all(ctx, primed, "warm run-all")
            if warm_report is None:
                raise HarnessError("the warm run-all failed")
            warm_layers_s, _ = _stage(ctx, rec, m, "warm", stage_cache)
        with rec.span("phase.serve"):
            _serve(ctx, rec, m, primed)
    m["cli.residual_s"] = warm.wall_s - m["cli.import_s"] - warm_report["total_wall_s"]
    m["trace.runall_overhead_s"] = warm_layers_s - warm_report["total_wall_s"]
    # Both run-alls export the same results (timed by the warm stage) and
    # exit holding the same inputs and results (the cold stage's exit).
    named = m["cli.import_s"] + m["runner.export_s"] + m["cli.exit_s"]
    m["trace.cover_runall_cold"] = (named + cold_layers_s) / cold.wall_s
    m["trace.cover_runall_warm"] = (named + warm_layers_s) / warm.wall_s
    ctx.detail.update(runall_cold_wall_s=cold.wall_s, runall_warm_wall_s=warm.wall_s)
    return ctx.result(m)
