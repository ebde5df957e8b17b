"""Open-loop load generation against the measurement service.

After a ``/healthz`` bootstrap, :class:`LoadGenerator` draws the whole
run from one ``random.Random(seed)``: Poisson arrivals at
:data:`RATE_RPS`, each with a route and path from :data:`MIX`.
:data:`SENDERS` threads, each owning one keep-alive connection, send it
in due order and time every request from its due time, so waiting for
a busy sender counts as latency and a slow server still gets the same
load. A request unsent :data:`DRAIN_GRACE_S` after the duration counts
as an error. The workload is fixed by seed and duration; the latencies
are wall-clock.

The mix mirrors how the corpus is consumed interactively: heavy
slicing, some artefact lookups, occasional ops endpoints — including
the telemetry plane, which is part of the SLO surface and therefore
part of the load.

Every request carries a traceparent-style header
(``00-<trace_id>-<span_id>-01``). The server answers with an
``X-Repro-Span`` header — its ``server.request`` span exported as
JSON, parented under the client span id — and a traced run
(``trace=True``) ``adopt()``\\ s those exports into per-sender
:class:`~repro.obs.recorder.TraceRecorder`\\ s, merged into one trace
at the end: a single tree showing the client *and* server side of
every request.

The report carries exact (not interpolated) per-route p50/p95/p99 —
computed from the full sorted latency list, no reservoir — plus
throughput and error counts, and converts to a history
:class:`~repro.obs.history.RunRecord` via
:func:`repro.server.slo.record_from_loadgen` so `repro regress` gates
service latency like artefact latency.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.server.state import WARM_ARTEFACTS

#: Offered load: a quarter of the 800 req/s a warm scale-0.15 server
#: held within the bench's 250 ms tail limit on a 2-vCPU host.
RATE_RPS = 200.0

#: Sender threads, one connection each; four held 800 req/s there.
SENDERS = 4

#: How long past the duration a backlog may still be sent.
DRAIN_GRACE_S = 5.0

#: The longest run: the schedule is built whole before the first send,
#: and an hour of it is ~720k requests.
MAX_DURATION_S = 3600.0

#: Socket timeout of every connection the load generator opens.
TIMEOUT_S = 30.0

#: Artefacts the load mix requests: exactly the set the server warms at
#: startup, so steady-state artefact traffic is memo hits.
ARTEFACT_POOL: Tuple[str, ...] = WARM_ARTEFACTS

#: (route, weight) pairs the schedule's RNG samples from.
MIX: Tuple[Tuple[str, int], ...] = (
    ("query", 57),  # count/count_by/group_by over random dimensions
    ("artefact", 15),  # lookups from the warmed artefact pool
    ("history", 8),  # history listing
    ("healthz", 8),  # liveness probe
    ("metrics", 7),  # Prometheus text scrape
    ("stats", 5),  # live sampler window JSON
)

#: The routes whose path never varies.
FIXED_PATHS: Dict[str, str] = {
    "history": "/history?limit=20",
    "healthz": "/healthz",
    "metrics": "/metrics",
    "stats": "/stats?window=30",
}

#: Dimensions the query traffic slices by (all kinds share these).
QUERY_DIMENSIONS: Tuple[str, ...] = (
    "country", "sim_kind", "architecture", "b_mno", "pgw_country", "rat",
)

QUERY_KINDS: Tuple[str, ...] = ("traceroute", "speedtest", "cdn", "dns", "web")


@dataclass
class RouteStats:
    """Latency accounting for one route across all senders."""

    count: int = 0  # scheduled on this route, sent or not
    errors: int = 0  # failed or unsent
    latencies_s: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        """Exact percentile over the observed latencies (0 when empty)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def to_jsonable(self) -> Dict[str, Any]:
        lat = self.latencies_s
        return {
            "count": self.count,
            "errors": self.errors,
            "p50_s": round(self.percentile(0.50), 6),
            "p95_s": round(self.percentile(0.95), 6),
            "p99_s": round(self.percentile(0.99), 6),
            "mean_s": round(sum(lat) / len(lat), 6) if lat else 0.0,
            "max_s": round(max(lat), 6) if lat else 0.0,
        }


@dataclass
class LoadgenReport:
    """One load run: configuration, per-route stats, throughput."""

    url: str
    senders: int
    duration_s: float
    seed: int
    scale: float = 0.0  # the served scale, as ``/healthz`` reported it
    wall_s: float = 0.0
    total_requests: int = 0  # every scheduled request, sent or not
    total_errors: int = 0  # failed or unsent
    unsent: int = 0
    chaos_latency_s: float = 0.0
    routes: Dict[str, RouteStats] = field(default_factory=dict)
    #: The merged client+server trace when the run recorded one
    #: (``LoadGenerator(trace=True)``); not serialized — the CLI
    #: writes it with :func:`repro.obs.sink.write_trace`.
    trace_recorder: Optional[Any] = field(default=None, repr=False)

    @property
    def throughput_rps(self) -> float:
        """Requests sent per second of wall time."""
        if self.wall_s <= 0:
            return 0.0
        return (self.total_requests - self.unsent) / self.wall_s

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "senders": self.senders,
            "rate_rps": RATE_RPS,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "scale": self.scale,
            "wall_s": round(self.wall_s, 3),
            "total_requests": self.total_requests,
            "total_errors": self.total_errors,
            "unsent": self.unsent,
            "throughput_rps": round(self.throughput_rps, 1),
            "chaos_latency_s": self.chaos_latency_s,
            "routes": {
                route: stats.to_jsonable()
                for route, stats in sorted(self.routes.items())
            },
        }

    def render(self) -> str:
        lines = [
            f"loadgen vs {self.url} (scale {self.scale:g}): "
            f"{RATE_RPS:g} req/s x {self.duration_s:g}s from "
            f"{self.senders} senders (seed {self.seed})",
            f"{self.total_requests} requests, {self.total_errors} errors "
            f"({self.unsent} unsent), {self.throughput_rps:.0f} req/s sent",
            f"{'route':10} {'count':>7} {'errors':>7} {'p50':>9} "
            f"{'p95':>9} {'p99':>9} {'max':>9}",
        ]
        for route, stats in sorted(self.routes.items()):
            view = stats.to_jsonable()
            lines.append(
                f"{route:10} {view['count']:>7} {view['errors']:>7} "
                f"{view['p50_s'] * 1000:>7.1f}ms {view['p95_s'] * 1000:>7.1f}ms "
                f"{view['p99_s'] * 1000:>7.1f}ms {view['max_s'] * 1000:>7.1f}ms"
            )
        if self.chaos_latency_s:
            lines.append(
                f"chaos: +{self.chaos_latency_s * 1000:.0f}ms injected into "
                f"every recorded latency"
            )
        return "\n".join(lines)


class _Sender(threading.Thread):
    """One keep-alive connection sending due requests off the schedule."""

    def __init__(
        self,
        generator: "LoadGenerator",
        index: int,
        pending: Deque[Tuple[float, str, str]],
        started: float,
    ) -> None:
        super().__init__(name=f"loadgen-sender-{index}", daemon=True)
        self.generator = generator
        self.index = index
        self.pending = pending
        self.started = started
        self.stats: Dict[str, RouteStats] = {}
        self.sent = 0
        # No "-" in the id: it is a field of the traceparent header.
        self.trace_id = f"loadgen{generator.seed:x}s{index:x}"
        #: Per-sender recorder when tracing: TraceRecorder's span stack
        #: is single-threaded by design, so senders never share one.
        self.recorder: Optional[obs.TraceRecorder] = (
            obs.TraceRecorder(trace_id=self.trace_id)
            if generator.trace else None
        )

    def run(self) -> None:
        gen = self.generator
        deadline_s = gen.duration_s + DRAIN_GRACE_S
        connection = http.client.HTTPConnection(
            gen.host, gen.port, timeout=TIMEOUT_S
        )
        try:
            while self.pending:
                try:
                    due_s, route, path = self.pending.popleft()  # atomic
                except IndexError:
                    return  # another sender took the last one
                stats = self.stats.setdefault(route, RouteStats())
                stats.count += 1
                wait = due_s - (time.perf_counter() - self.started)
                if wait > 0:
                    time.sleep(wait)
                if time.perf_counter() - self.started > deadline_s:
                    stats.errors += 1  # unsent
                    continue
                self.sent += 1
                ok = self._request(connection, route, path)
                done_s = time.perf_counter() - self.started
                stats.latencies_s.append(done_s - due_s + gen.chaos_latency_s)
                if not ok:
                    stats.errors += 1
        finally:
            connection.close()

    def _request(
        self, connection: http.client.HTTPConnection, route: str, path: str
    ) -> bool:
        """One request, traced when the run records a trace.

        The client span's id rides in the ``traceparent`` header; the
        server's ``X-Repro-Span`` export (its side of the same
        request) is adopted back under that span, so the merged trace
        interleaves client wall time with server handler time.
        """
        if self.recorder is None:
            span_id = f"s{self.index}.{self.sent}"
            return self._fetch(connection, path, span_id)[0]
        with self.recorder.span(
            "loadgen.request", route=route, path=path
        ) as span:
            ok, export = self._fetch(connection, path, span.span_id)
            span.set(ok=ok)
        if export:
            try:
                self.recorder.adopt(
                    {"spans": [json.loads(export)]}, parent_id=span.span_id
                )
            except (ValueError, KeyError, TypeError):
                pass  # a malformed export must never fail the fetch
        return ok

    def _fetch(
        self,
        connection: http.client.HTTPConnection,
        path: str,
        span_id: str,
    ) -> Tuple[bool, Optional[str]]:
        headers = {"traceparent": f"00-{self.trace_id}-{span_id}-01"}
        # Two tries: the server may have closed an idle keep-alive
        # socket, and a closed connection reconnects on its next request.
        for _ in range(2):
            try:
                connection.request("GET", path, headers=headers)
                response = connection.getresponse()
                body = response.read()
                export = response.getheader("X-Repro-Span")
                return response.status == 200 and bool(body), export
            except (http.client.HTTPException, OSError):
                connection.close()
        return False, None


class LoadGenerator:
    """Send one seeded open-loop schedule for ``duration_s`` seconds."""

    def __init__(
        self,
        host: str,
        port: int,
        duration_s: float = 10.0,
        seed: int = 2024,
        chaos_latency_s: float = 0.0,
        trace: bool = False,
    ) -> None:
        # ``not x > 0``-style checks, so NaN is refused too: a NaN
        # duration would run no request and pass the SLO gate.
        if not 0 < duration_s <= MAX_DURATION_S:
            raise ValueError(
                f"duration_s must be a positive finite number "
                f"<= {MAX_DURATION_S:g}, got {duration_s:g}"
            )
        if not 0 <= chaos_latency_s < math.inf:
            raise ValueError(
                "chaos_latency_s must be a non-negative finite number, "
                f"got {chaos_latency_s:g}"
            )
        self.host = host
        self.port = port
        self.duration_s = duration_s
        self.seed = seed
        #: Injected into every recorded latency *after* the fetch — the
        #: seeded-regression lever for testing the SLO gate end to end
        #: without actually slowing the server down.
        self.chaos_latency_s = chaos_latency_s
        #: Record a client-side trace and adopt the server's span
        #: exports into it (one ``loadgen.request`` span per request).
        self.trace = trace
        #: What the bootstrap learns of the server.
        self.scale = 0.0
        self.countries: Tuple[str, ...] = ()

    # -- bootstrap ------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Learn the server's scale and country pool."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=TIMEOUT_S
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            health = json.loads(response.read().decode("utf-8"))
            self.scale = float(health.get("scale", 0.0))
            connection.request(
                "GET", f"/query?kind={QUERY_KINDS[0]}&count_by=country"
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            if response.status == 200:
                self.countries = tuple(sorted(payload.get("counts", {})))
        except (http.client.HTTPException, OSError, ValueError, TypeError):
            self.countries = ()
        finally:
            connection.close()

    def wait_ready(self, timeout_s: float = 120.0) -> bool:
        """Poll ``/healthz`` until the server reports ready."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=5.0
            )
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return True
            except (http.client.HTTPException, OSError):
                pass
            finally:
                connection.close()
            time.sleep(0.25)
        return False

    def schedule(self) -> List[Tuple[float, str, str]]:
        """The run's ``(due_s, route, path)``, in due order, from one RNG."""
        rng = random.Random(self.seed)
        # Arrivals first, so their count ignores the bootstrap's pools.
        dues: List[float] = []
        due_s = rng.expovariate(RATE_RPS)
        while due_s < self.duration_s:
            dues.append(due_s)
            due_s += rng.expovariate(RATE_RPS)
        return [(due_s, *self._pick(rng)) for due_s in dues]

    def _pick(self, rng: random.Random) -> Tuple[str, str]:
        route = rng.choices([r for r, _ in MIX], [w for _, w in MIX])[0]
        if route == "query":
            return route, self._query_path(rng)
        if route == "artefact":
            return route, f"/artefact/{rng.choice(ARTEFACT_POOL)}"
        return route, FIXED_PATHS[route]

    def _query_path(self, rng: random.Random) -> str:
        kind = rng.choice(QUERY_KINDS)
        dimension = rng.choice(QUERY_DIMENSIONS)
        shape = rng.randrange(3)
        if shape == 0:
            return f"/query?kind={kind}&count_by={dimension}"
        if shape == 1:
            other = rng.choice(QUERY_DIMENSIONS)
            return f"/query?kind={kind}&group_by={other}"
        country = rng.choice(self.countries or ("US",))
        return f"/query?kind={kind}&country={country}"

    # -- run ------------------------------------------------------------------

    def run(self) -> LoadgenReport:
        self._bootstrap()
        requests = self.schedule()
        pending = deque(requests)
        started_unix = time.time()
        started = time.perf_counter()
        senders = [_Sender(self, i, pending, started) for i in range(SENDERS)]
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join()
        wall = time.perf_counter() - started

        report = LoadgenReport(
            url=f"http://{self.host}:{self.port}",
            senders=SENDERS,
            duration_s=self.duration_s,
            seed=self.seed,
            scale=self.scale,
            wall_s=wall,
            total_requests=len(requests),
            unsent=len(requests) - sum(sender.sent for sender in senders),
            chaos_latency_s=self.chaos_latency_s,
        )
        for sender in senders:
            for route, stats in sender.stats.items():
                merged = report.routes.setdefault(route, RouteStats())
                merged.count += stats.count
                merged.errors += stats.errors
                merged.latencies_s.extend(stats.latencies_s)
                report.total_errors += stats.errors
        if self.trace:
            # Fold every sender's recorder into one trace. Client root
            # spans (loadgen.request) stay roots; their adopted
            # server.request children keep their parent links.
            root = obs.TraceRecorder(trace_id=f"loadgen-{self.seed}")
            with root.span(
                "loadgen.run", senders=SENDERS, rate_rps=RATE_RPS,
                duration_s=self.duration_s, seed=self.seed,
            ) as run_span:
                pass
            # The span object is recorded by reference, so backdate it
            # to cover the run it describes: the senders already ran.
            run_span.start_unix = started_unix
            run_span.duration_s = wall
            for sender in senders:
                if sender.recorder is not None:
                    root.adopt(
                        sender.recorder.export(),
                        parent_id=run_span.span_id,
                    )
            report.trace_recorder = root
        return report


def run_loadgen(
    host: str,
    port: int,
    duration_s: float = 10.0,
    seed: int = 2024,
    chaos_latency_s: float = 0.0,
    wait_ready_s: Optional[float] = 120.0,
    trace: bool = False,
) -> LoadgenReport:
    """Convenience wrapper: wait for readiness, then run one load pass."""
    generator = LoadGenerator(
        host, port, duration_s=duration_s, seed=seed,
        chaos_latency_s=chaos_latency_s, trace=trace,
    )
    if wait_ready_s and not generator.wait_ready(wait_ready_s):
        raise RuntimeError(
            f"server at {host}:{port} never became ready "
            f"(waited {wait_ready_s:g}s)"
        )
    return generator.run()
