import collections

import pytest

from bench.load import (
    LADDER_RPS, ROUTE_MIX, Outcome, Request, drive, max_rate_ok, meets_limit, schedule,
)


def test_schedule_is_a_function_of_the_seed():
    assert schedule(7, 20.0, 12.0) == schedule(7, 20.0, 12.0)
    assert schedule(7, 20.0, 12.0) != schedule(8, 20.0, 12.0)


def _gaps(requests):
    dues = [0.0] + [r.due_s for r in requests]
    return sorted(round(b - a, 9) for a, b in zip(dues, dues[1:]))


def test_seeds_reorder_but_offer_the_same_work():
    one, other = schedule(1, 20.0, 12.0), schedule(2, 20.0, 12.0)
    assert len(one) == len(other) == 240
    assert collections.Counter(r.route for r in one) == collections.Counter(r.route for r in other)
    assert _gaps(one) == _gaps(other)
    queries = collections.Counter(r.path for r in one if r.route == "query")
    assert len(queries) == 90 and max(queries.values()) - min(queries.values()) == 1  # dealt in rounds
    total = sum(weight for _, weight in ROUTE_MIX)
    routes = collections.Counter(r.route for r in one)
    for route, weight in ROUTE_MIX:
        assert abs(routes[route] - 240 * weight / total) < 1


def test_schedule_offers_the_rate_over_the_duration():
    requests = schedule(3, 20.0, 12.0)
    assert requests == sorted(requests, key=lambda r: r.due_s)
    assert 11.0 < requests[-1].due_s < 13.0


def test_every_kth_request_is_traced():
    requests = schedule(3, 20.0, 12.0, trace_every=2)
    assert [r.traced for r in requests[:4]] == [True, False, True, False]
    assert not any(r.traced for r in schedule(3, 20.0, 12.0))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _drive(dues, service_s, deadline_s=10.0):
    clock = FakeClock()

    def fetch(request):
        clock.now += service_s
        return 200, b"{}", None

    requests = [Request(due, "healthz", "/healthz") for due in dues]
    return drive(requests, [fetch], deadline_s, clock=clock, sleep=clock.sleep)


def test_latency_counts_from_the_due_time():
    outcomes = _drive([0.0, 0.01, 0.02, 0.5], service_s=0.05)
    # The second and third requests wait for the busy connection; that wait is latency.
    assert [round(o.latency_s, 6) for o in outcomes] == [0.05, 0.09, 0.13, 0.05]
    assert [round(o.sent_s - o.request.due_s, 6) for o in outcomes] == [0.0, 0.04, 0.08, 0.0]


def test_requests_still_queued_at_the_deadline_stay_unsent():
    outcomes = _drive([0.0, 0.01, 0.02], service_s=0.05, deadline_s=0.06)
    assert [o.sent_s is not None for o in outcomes] == [True, True, False]


def _outcomes(latencies, status=200, unsent=0):
    done = [Outcome(Request(0.0, "q", "/q"), sent_s=0.0, done_s=lat, status=status) for lat in latencies]
    return done + [Outcome(Request(0.0, "q", "/q")) for _ in range(unsent)]


def test_limit_uses_the_tail_failures_and_backlog():
    assert meets_limit(_outcomes([0.01] * 300))
    assert not meets_limit(_outcomes([0.01] * 280 + [0.3] * 20))  # p95 over 250 ms
    assert meets_limit(_outcomes([0.01] * 290 + [0.3] * 10))  # only beyond p95
    assert not meets_limit(_outcomes([0.01] * 296) + _outcomes([0.01] * 4, status=500))
    assert not meets_limit(_outcomes([0.01] * 299, unsent=1))  # unsent is a miss
    assert not meets_limit([])


def test_ladder_stops_at_the_first_miss():
    asked = []

    def step_ok(rate):
        asked.append(rate)
        return rate < 200

    assert max_rate_ok(20.0, True, step_ok) == 100
    assert asked == [50, 100, 200]


@pytest.mark.parametrize("base_ok, expected, steps", [(False, 0.0, []), (True, 20.0, [50])])
def test_ladder_floor(base_ok, expected, steps):
    asked = []
    assert max_rate_ok(20.0, base_ok, lambda rate: asked.append(rate) and False) == expected
    assert asked == steps


def test_ladder_tops_out():
    assert max_rate_ok(20.0, True, lambda rate: True) == LADDER_RPS[-1]
