"""Open-loop HTTP load: a seeded arrival schedule, two senders, due-time accounting.

Arrivals are Poisson at a fixed rate, stratified: the inter-arrival
gaps are the exponential distribution's quantiles at ``(i + 0.5) / n``,
and the route mix is apportioned exactly. ``--seed`` only shuffles their
order (and the query paths), so every seed offers the same amount and
kind of work and seed-to-seed spread measures the system, not the draw.

Each request is timed from when it was *due*: while both connections are
busy, a due request waits, and that wait is latency. The benchmark owns
its route mix rather than importing the program's.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench.stats import percentile, tail_quantile

#: (route, weight): the share of requests each route gets.
ROUTE_MIX: Tuple[Tuple[str, int], ...] = (
    ("query", 57), ("artefact", 15), ("history", 8),
    ("healthz", 8), ("metrics", 7), ("stats", 5),
)
QUERY_KINDS = ("traceroute", "speedtest", "cdn", "dns", "web")
QUERY_DIMENSIONS = ("country", "sim_kind", "architecture", "b_mno", "pgw_country", "rat")
QUERY_COUNTRIES = ("ESP", "DEU", "GBR", "KOR", "PAK", "THA")
ARTEFACTS = ("T2", "T4", "F7")
FIXED_PATHS = {
    "history": "/history?limit=20",
    "healthz": "/healthz",
    "metrics": "/metrics",
    "stats": "/stats?window=30",
}

#: One sender thread per keep-alive connection.
SENDERS = 2

#: A measured phase keeps sending a backlog this long past its last due time.
DRAIN_GRACE_S = 10.0

#: Length of one capacity-ladder step.
LADDER_STEP_S = 4.0

#: Capacity ladder: offered rates, in order; the ladder stops at the first miss.
LADDER_RPS = (50, 100, 200, 400, 800)

#: The latency limit a rate must meet: tail latency, failure share.
LIMIT_TAIL_S = 0.25
LIMIT_FAILED_FRAC = 0.01


@dataclass(frozen=True)
class Request:
    due_s: float  # seconds after the phase starts
    route: str
    path: str
    traced: bool = False


@dataclass
class Outcome:
    request: Request
    sent_s: Optional[float] = None  # None: never sent before the deadline
    done_s: float = 0.0
    status: int = 0  # 0: transport error
    body: bytes = b""
    server_s: Optional[float] = None  # the server's own span, when traced

    @property
    def latency_s(self) -> float:
        """Completion minus due time: queueing for a connection counts."""
        return self.done_s - self.request.due_s

    @property
    def ok(self) -> bool:
        return self.status == 200


def _apportion(n: int) -> List[str]:
    """Exactly ``n`` routes in :data:`ROUTE_MIX` proportions (largest remainder)."""
    total = sum(weight for _, weight in ROUTE_MIX)
    shares = [(route, n * weight / total) for route, weight in ROUTE_MIX]
    counts = {route: math.floor(share) for route, share in shares}
    leftover = n - sum(counts.values())
    for route, share in sorted(shares, key=lambda rs: rs[1] - math.floor(rs[1]), reverse=True)[:leftover]:
        counts[route] += 1
    return [route for route, _ in ROUTE_MIX for _ in range(counts[route])]


def query_shapes() -> List[Tuple[str, str, str]]:
    """Every query of the mix as ``(kind, parameter, value)``: count_by and
    group_by each dimension, and filter on each country, for each kind."""
    params = (("count_by", QUERY_DIMENSIONS), ("group_by", QUERY_DIMENSIONS), ("country", QUERY_COUNTRIES))
    return [
        (kind, param, value)
        for kind in QUERY_KINDS for param, values in params for value in values
    ]


def schedule(
    seed: int, rate_rps: float, duration_s: float, trace_every: int = 0
) -> List[Request]:
    """The requests of one phase; ``trace_every=k`` marks every k-th as traced."""
    rng = random.Random(f"bench-load:{seed}:{rate_rps:g}:{duration_s:g}")
    n = max(1, round(rate_rps * duration_s))
    gaps = [-math.log(1.0 - (i + 0.5) / n) / rate_rps for i in range(n)]
    rng.shuffle(gaps)
    routes = _apportion(n)
    rng.shuffle(routes)
    pools: Dict[str, List[str]] = {
        "query": [f"/query?kind={kind}&{param}={value}" for kind, param, value in query_shapes()],
        "artefact": [f"/artefact/{artefact}" for artefact in ARTEFACTS],
    }
    decks: Dict[str, List[str]] = {}
    requests = []
    due = 0.0
    for index, (gap, route) in enumerate(zip(gaps, routes)):
        due += gap
        if route in pools:
            # Deal each pool in shuffled rounds so every path gets an equal share.
            deck = decks.setdefault(route, [])
            if not deck:
                deck.extend(pools[route])
                rng.shuffle(deck)
            path = deck.pop()
        else:
            path = FIXED_PATHS[route]
        traced = trace_every > 0 and index % trace_every == 0
        requests.append(Request(due, route, path, traced))
    return requests


Fetch = Callable[[Request], Tuple[int, bytes, Optional[float]]]


def drive(
    requests: Sequence[Request],
    fetchers: Sequence[Fetch],
    deadline_s: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Outcome]:
    """Send ``requests`` on schedule, one thread per fetcher.

    A free sender takes the next request in due order and sends it at
    its due time, or at once if it is late. A request not yet sent when
    ``deadline_s`` has passed stays unsent.
    """
    outcomes = [Outcome(request) for request in sorted(requests, key=lambda r: r.due_s)]
    lock = threading.Lock()
    cursor = iter(outcomes)
    start = clock()

    def sender(fetch: Fetch) -> None:
        while True:
            with lock:
                outcome = next(cursor, None)
            if outcome is None:
                return
            wait = outcome.request.due_s - (clock() - start)
            if wait > 0:
                sleep(wait)
            sent = clock() - start
            if sent > deadline_s:
                continue
            outcome.sent_s = sent
            outcome.status, outcome.body, outcome.server_s = fetch(outcome.request)
            outcome.done_s = clock() - start

    threads = [threading.Thread(target=sender, args=(f,), daemon=True) for f in fetchers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


class Connection:
    """One keep-alive connection, reconnecting once after a transport error."""

    def __init__(self, port: int, timeout_s: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        self._span = 0

    def fetch(self, request: Request) -> Tuple[int, bytes, Optional[float]]:
        headers = {}
        if request.traced:
            self._span += 1
            headers["traceparent"] = f"00-bench-c{id(self):x}.{self._span}-01"
        try:
            return self._send(request.path, headers)
        except (http.client.HTTPException, OSError):
            self._conn.close()  # the server may have dropped an idle connection
        try:
            return self._send(request.path, headers)
        except (http.client.HTTPException, OSError):
            self._conn.close()
            return 0, b"", None

    def _send(self, path: str, headers: Dict[str, str]) -> Tuple[int, bytes, Optional[float]]:
        self._conn.request("GET", path, headers=headers)
        response = self._conn.getresponse()
        body = response.read()
        export = response.getheader("X-Repro-Span")
        server_s = json.loads(export)["duration_s"] if export else None
        return response.status, body, server_s

    def close(self) -> None:
        self._conn.close()


def run_phase(port: int, requests: Sequence[Request], deadline_s: float) -> List[Outcome]:
    """:func:`drive` over :data:`SENDERS` real connections, all closed afterwards."""
    connections = [Connection(port) for _ in range(SENDERS)]
    try:
        return drive(requests, [c.fetch for c in connections], deadline_s)
    finally:
        for connection in connections:
            connection.close()


def meets_limit(outcomes: Sequence[Outcome]) -> bool:
    """A phase meets the limit: all sent, <=1% failed, tail latency <= 250 ms.

    The tail is the highest percentile with ten samples beyond it. An
    unsent request means the backlog grew, so it misses the limit.
    """
    if not outcomes or any(o.sent_s is None for o in outcomes):
        return False
    failed = sum(not o.ok for o in outcomes)
    if failed > LIMIT_FAILED_FRAC * len(outcomes):
        return False
    q = tail_quantile(len(outcomes)) or 0.5
    return percentile([o.latency_s for o in outcomes], q) <= LIMIT_TAIL_S


def max_rate_ok(base_rps: float, base_ok: bool, step_ok: Callable[[float], bool]) -> float:
    """The highest rate meeting the limit: ``base_rps``, then up the ladder to the first miss."""
    if not base_ok:
        return 0.0
    best = base_rps
    for rate in LADDER_RPS:
        if not step_ok(rate):
            break
        best = rate
    return best
