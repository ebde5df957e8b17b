"""The four untraced workloads, each measured the way a user meets the program.

Every workload reports the same four end-to-end metrics:

* ``setup_s``: the one-time cost before measuring, median of its set-ups;
* ``latency_p50_s``: the median time of one operation, a whole process
  for the batch workloads (``os.wait4`` wall) and one HTTP request timed
  from its due time for ``serve-mix``;
* ``latency_tail_s``: the 90th percentile of the same times where at
  least ten samples lie beyond it (``serve-mix``); a batch workload runs
  too few processes for any tail, so there it is the median;
* ``peak_rss_mb``: the measured process's peak resident set.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.contract import Result
from bench.harness import (
    JOBS, SCALE, SRC, HarnessError, Proc, Server, Workspace, repro_argv, run_timed,
)
from bench.load import DRAIN_GRACE_S, Outcome, run_phase, schedule
from bench.oracle import Oracle, digest, list_ids
from bench.stats import MIN_BEYOND, beyond, percentile, quartiles

#: The end-to-end metrics, in ``BENCHMARK.json`` order.
E2E_METRICS = ("setup_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb")

#: The tail percentile, where the sample supports it.
TAIL_Q = 0.9

#: Batch workloads repeat until ``--seconds`` have passed, but at least this often.
MIN_REPS = 4

#: Fresh-bytecode first starts that make up ``cli-startup``'s set-up.
CLI_SETUPS = 3

#: Server spawns that make up ``serve-mix``'s set-up; the last one is measured.
SERVE_SPAWNS = 3

#: Offered load for ``serve-mix``. At 25 req/s about half the requests
#: wait out a 40 ms delayed-ACK stall, so the median flips between the
#: fast and the stalled mode from seed to seed; at 20 req/s about 27% do,
#: and both the median and the 90th percentile sit inside one mode.
SERVE_RATE_RPS = 20.0


@dataclass
class Context:
    """What one workload run needs, plus its operation counts."""

    ws: Workspace
    seed: int
    seconds: float
    oracle: Oracle
    attempted: int = 0
    failed: int = 0
    detail: Dict[str, Any] = field(default_factory=dict)

    def count(self, ok: bool, label: str, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.oracle.fail(f"{label} failed{': ' + why if why else ''}")
        return ok

    def result(self, metrics: Dict[str, float]) -> Result:
        return Result(
            correct=self.oracle.ok, attempted=self.attempted, failed=self.failed,
            metrics=metrics, detail=self.detail, errors=self.oracle.errors,
        )


def repeat(seconds: float, run_one: Callable[[], Any]) -> List[Any]:
    """Call ``run_one`` until ``seconds`` have passed, at least :data:`MIN_REPS` times."""
    started = time.perf_counter()
    done: List[Any] = []
    while len(done) < MIN_REPS or time.perf_counter() - started < seconds:
        done.append(run_one())
    return done


def run_all(
    ctx: Context, cache: pathlib.Path, label: str, src: pathlib.Path = SRC
) -> Tuple[Proc, Optional[Dict[str, Any]]]:
    """One ``repro run-all --json``, its results checked; ``(process, report)``."""
    path = ctx.ws.path("report.json")
    argv = repro_argv(
        ctx.seed, "run-all", "--scale", f"{SCALE:g}", "--jobs", str(JOBS), "--json", str(path)
    )
    proc = run_timed(argv, ctx.ws.env(cache, src), ctx.ws)
    report = json.loads(path.read_text()) if proc.code == 0 and path.is_file() else None
    if ctx.count(report is not None and report["ok"], label, f"exit {proc.code} {proc.tail()}"):
        ctx.oracle.check_results(label, report["results"])
    return proc, report


def e2e_metrics(setup_s: float, latencies: List[float], peak_rss_mb: float) -> Dict[str, float]:
    tail_q = TAIL_Q if beyond(len(latencies), TAIL_Q) >= MIN_BEYOND else 0.5
    return dict(zip(E2E_METRICS, (
        setup_s, percentile(latencies, 0.5), percentile(latencies, tail_q), peak_rss_mb,
    )))


def _batch_metrics(ctx: Context, setup_s: float, procs: List[Proc]) -> Dict[str, float]:
    walls = [proc.wall_s for proc in procs]
    q1, _, q3 = quartiles(walls)
    ctx.detail.update(reps=len(walls), wall_q1_s=q1, wall_q3_s=q3)
    return e2e_metrics(setup_s, walls, statistics.median(proc.rss_mb for proc in procs))


def cli_startup(ctx: Context) -> Result:
    """``repro list`` end to end: the import graph is nearly all of the work.

    Set-up is the first start after install: ``repro list`` from a copy
    of the sources with no bytecode, three times.
    """
    def invoke(src: pathlib.Path = SRC) -> Proc:
        proc = run_timed(repro_argv(ctx.seed, "list"), ctx.ws.env(ctx.ws.path("cache"), src), ctx.ws)
        if ctx.count(proc.code == 0, "repro list", proc.tail()):
            ctx.oracle.check_ids("repro list", list_ids(proc.stdout))
        return proc

    setups = [invoke(ctx.ws.fresh_source()).wall_s for _ in range(CLI_SETUPS)]
    return ctx.result(_batch_metrics(ctx, statistics.median(setups), repeat(ctx.seconds, invoke)))


def runall_cold(ctx: Context) -> Result:
    """``repro run-all`` on an empty cache: world build, campaigns, crawl, stores, 31 artefacts.

    Set-up is the discarded first run, from a copy of the sources with no bytecode.
    """
    def cold(src: pathlib.Path = SRC) -> Proc:
        cache = ctx.ws.path("cache")
        proc, _ = run_all(ctx, cache, "cold run-all", src)
        shutil.rmtree(cache, ignore_errors=True)
        return proc

    setup_s = cold(ctx.ws.fresh_source()).wall_s
    return ctx.result(_batch_metrics(ctx, setup_s, repeat(ctx.seconds, cold)))


def runall_warm(ctx: Context) -> Result:
    """``repro run-all`` on a cache a priming run filled: pickle loads, analysis, imports.

    Set-up is the priming run.
    """
    cache = ctx.ws.path("cache")
    prime, _ = run_all(ctx, cache, "priming run-all")
    procs = repeat(ctx.seconds, lambda: run_all(ctx, cache, "warm run-all")[0])
    return ctx.result(_batch_metrics(ctx, prime.wall_s, procs))


def stop_server(ctx: Context, server: Server) -> float:
    seconds, clean = server.stop()
    if not clean:
        ctx.failed += 1
        ctx.oracle.fail("repro serve did not exit 0 within 10 s of SIGTERM")
    return seconds


def spawn_primed(ctx: Context, primed: pathlib.Path) -> Tuple[Server, float]:
    """A server on a fresh copy of ``primed``; ``(server, seconds until /healthz is 200)``."""
    cache = ctx.ws.path("cache")
    shutil.copytree(primed, cache)
    server = Server(ctx.ws, ctx.seed, cache)
    ctx.attempted += 1
    return server, server.wait_ready()


def check_responses(ctx: Context, outcomes: List[Outcome]) -> List[Outcome]:
    """Count and check every request; returns the ones that were sent.

    A served artefact must equal the batch result (the oracle has seen
    the priming run's digests); a query path must answer with the same
    bytes every time.
    """
    sent = []
    for outcome in outcomes:
        request = outcome.request
        if outcome.sent_s is None:
            ctx.count(False, request.path, "never sent")
            continue
        sent.append(outcome)
        if not ctx.count(outcome.ok, request.path, f"status {outcome.status}"):
            continue
        if request.route == "artefact":
            served = json.loads(outcome.body)["result"]
            ctx.oracle.check_artefact(f"GET {request.path}", request.path.rsplit("/", 1)[1], digest(served))
        elif request.route == "query":
            ctx.oracle.check_same(f"GET {request.path}", request.path, hashlib.sha256(outcome.body).hexdigest())
    return sent


def serve_mix(ctx: Context) -> Result:
    """Open-loop traffic against ``repro serve``: HTTP, the query engine, the artefact memo.

    Set-up is spawn-to-ready (``/healthz`` 200) on a fresh copy of a
    cache one ``run-all`` primed, three times; the third server is measured.
    """
    primed = ctx.ws.path("cache")
    run_all(ctx, primed, "priming run-all")
    spawns = []
    server: Optional[Server] = None
    try:
        for _ in range(SERVE_SPAWNS):
            if server is not None:
                stop_server(ctx, server)
                server = None
            server, ready_s = spawn_primed(ctx, primed)
            spawns.append(ready_s)
        requests = schedule(ctx.seed, SERVE_RATE_RPS, ctx.seconds)
        outcomes = run_phase(server.port, requests, ctx.seconds + DRAIN_GRACE_S)
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            ctx.detail["shutdown_s"] = stop_server(ctx, server)
    sent = check_responses(ctx, outcomes)
    if not sent:
        raise HarnessError("serve-mix sent no requests")
    latencies = [o.latency_s for o in sent]
    ctx.detail.update(
        requests=len(sent), unsent=len(outcomes) - len(sent), rate_rps=SERVE_RATE_RPS,
        spawn_s=spawns, send_lag_p90_s=percentile([o.sent_s - o.request.due_s for o in sent], 0.9),
        **{
            f"{route}_p50_s": percentile([o.latency_s for o in sent if o.request.route == route], 0.5)
            for route in ("query", "artefact")
        },
    )
    return ctx.result(e2e_metrics(statistics.median(spawns), latencies, rss_mb))


WORKLOADS: Dict[str, Callable[[Context], Result]] = {
    "cli-startup": cli_startup,
    "runall-cold": runall_cold,
    "runall-warm": runall_warm,
    "serve-mix": serve_mix,
}
