"""Micro-benchmarks of the library's hot primitives.

Unlike the per-figure benches (single-round experiment replays), these
measure the simulator's building blocks with proper multi-round timing:
world construction, attach throughput, traceroute generation, one
day's market listing and the classifier.
"""

import random

import pytest

from repro.cellular import UserEquipment
from repro.cellular.radio import RadioAccessTechnology, RadioConditions
from repro.experiments import common
from repro.measure.records import MeasurementContext
from repro.worlds import build_airalo_world

CONDITIONS = RadioConditions(RadioAccessTechnology.NR, 11, -84.0, 13.0)


def test_bench_world_build(benchmark):
    world = benchmark(build_airalo_world, 1234)
    assert len(world.airalo.served_countries()) == 24


@pytest.fixture(scope="module")
def world():
    return common.get_world()


@pytest.fixture(scope="module")
def esp_device(world):
    rng = random.Random("micro")
    ue = UserEquipment.provision(
        "bench", world.cities.get("Madrid", "ESP"), rng
    )
    ue.install_sim(world.sell_esim("ESP", rng))
    return ue, rng


def test_bench_attach(benchmark, world, esp_device):
    ue, rng = esp_device

    def attach_once():
        session = ue.switch_to(0, "Movistar", world.factory, rng)
        return session

    session = benchmark(attach_once)
    assert session.is_roaming


def test_bench_traceroute(benchmark, world, esp_device):
    ue, rng = esp_device
    session = ue.switch_to(0, "Movistar", world.factory, rng)
    google = world.resources.sp_targets["Google"]
    engine = world.resources.traceroute_engine

    result = benchmark(engine.trace, session, google, CONDITIONS, rng)
    assert result.hops


def test_bench_classifier(benchmark, world, esp_device):
    from repro.analysis import classify_session_context

    ue, rng = esp_device
    session = ue.switch_to(0, "Movistar", world.factory, rng)
    esim = ue.active_sim
    context = MeasurementContext.from_session(session, esim, CONDITIONS)

    architecture = benchmark(
        classify_session_context, context, world.geoip, world.operators
    )
    assert architecture.label == "IHBO"


def test_bench_market_snapshot(benchmark):
    esimdb, _ = common.get_market()
    listing = benchmark(esimdb.offer_table, [90])
    assert len(listing.column("price_usd")) == esimdb.total_offers_per_day()


def test_bench_geoip_lookup(benchmark, world):
    lookup = world.geoip.lookup
    record = benchmark(lookup, "202.166.126.1")
    assert record.asn == 45143


def test_bench_abr_playback(benchmark):
    from repro.services import AdaptiveBitratePlayer

    player = AdaptiveBitratePlayer()

    def play_once():
        return player.play(12.0, random.Random(3), duration_s=120)

    report = benchmark(play_once)
    assert report.segment_resolutions
