"""Tests for the jitter/loss/VoIP probe (extension X1)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.measure.ping import ping_provider
from repro.measure.voip import (
    e_model_r_factor,
    mos_from_r,
    probe_voip,
    rfc3550_jitter,
)
from tests.measure import reference
from tests.measure.conftest import make_session


@pytest.fixture()
def hr(world, airalo_esim_are, rng):
    _, session = make_session(world, airalo_esim_are, "Abu Dhabi", "ARE", "Etisalat", rng)
    return airalo_esim_are, session


@pytest.fixture()
def native(world, airalo_esim_tha, rng):
    _, session = make_session(world, airalo_esim_tha, "Bangkok", "THA", "dtac", rng)
    return airalo_esim_tha, session


def test_jitter_estimator_basics():
    assert rfc3550_jitter([]) == 0.0
    assert rfc3550_jitter([50.0]) == 0.0
    assert rfc3550_jitter([50.0, 50.0, 50.0]) == 0.0
    noisy = rfc3550_jitter([50, 80, 45, 90, 40])
    assert noisy > 0


@given(st.lists(st.floats(min_value=1, max_value=1000), min_size=2, max_size=60))
def test_jitter_nonnegative_and_bounded(rtts):
    jitter = rfc3550_jitter(rtts)
    assert 0.0 <= jitter <= max(rtts)


def test_e_model_known_points():
    # Short delay, no loss: near-toll quality.
    assert e_model_r_factor(50, 0.0) == pytest.approx(92.0, abs=0.5)
    # The 177.3 ms knee makes delay sharply more expensive.
    below = e_model_r_factor(170, 0.0)
    above = e_model_r_factor(185, 0.0)
    assert below - e_model_r_factor(160, 0.0) < above - e_model_r_factor(175, 0.0) + 1
    # Loss alone can wreck the call.
    assert e_model_r_factor(50, 0.05) < e_model_r_factor(50, 0.0) - 10


def test_e_model_validation():
    with pytest.raises(ValueError):
        e_model_r_factor(-1, 0.0)
    with pytest.raises(ValueError):
        e_model_r_factor(10, 1.5)


def test_mos_mapping_monotone_and_bounded():
    values = [mos_from_r(r) for r in range(0, 101, 5)]
    assert values == sorted(values)
    assert values[0] == 1.0
    assert values[-1] == 4.5
    assert mos_from_r(-5) == 1.0
    assert mos_from_r(150) == 4.5


def test_probe_hr_worse_than_native(resources, hr, native, conditions):
    rng = random.Random(5)
    sim_h, session_h = hr
    sim_n, session_n = native
    google = resources.sp_targets["Google"]
    hr_record = probe_voip(session_h, sim_h, google, resources.fabric, conditions, rng)
    native_record = probe_voip(session_n, sim_n, google, resources.fabric, conditions, rng)
    assert hr_record.mos < native_record.mos
    assert hr_record.mean_rtt_ms > native_record.mean_rtt_ms
    assert native_record.usable_for_calls


def test_probe_records_context(resources, hr, conditions, rng):
    sim, session = hr
    record = probe_voip(session, sim, resources.sp_targets["Google"],
                        resources.fabric, conditions, rng)
    assert record.context.country_iso3 == "ARE"
    assert record.target == "Google"
    assert 0.0 <= record.loss_rate <= 1.0
    assert record.jitter_ms >= 0


def test_probe_validation(resources, hr, conditions, rng):
    sim, session = hr
    with pytest.raises(ValueError):
        probe_voip(session, sim, resources.sp_targets["Google"],
                   resources.fabric, conditions, rng, packets=1)


def test_loss_rate_grows_with_tunnel(resources, hr, native):
    _, session_h = hr
    _, session_n = native
    assert resources.fabric.loss_rate(session_h) > resources.fabric.loss_rate(session_n)
    assert resources.fabric.loss_rate(session_h) <= 0.03


@pytest.mark.parametrize("seed", range(20))
def test_trains_equal_the_per_packet_reference(seed, resources, hr, native, conditions):
    """Computing the base RTT once per train moves no draw and no bit."""
    google = resources.sp_targets["Google"]
    fabric = resources.fabric
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for sim, session in (hr, native):
        assert probe_voip(
            session, sim, google, fabric, conditions, rng, packets=80
        ) == reference.probe_voip(
            session, sim, google, fabric, conditions, reference_rng, packets=80
        )
        assert ping_provider(
            session, google, fabric, conditions, rng, count=6
        ) == reference.ping_provider(
            session, google, fabric, conditions, reference_rng, count=6
        )
        server = google.nearest_edge(session.pgw_site.location).location
        for radio in (None, conditions):
            for draw in (None, rng):
                expected = reference.session_rtt_ms(
                    fabric, session, server, radio,
                    None if draw is None else reference_rng,
                )
                assert fabric.session_rtt_ms(session, server, radio, draw) == expected
    assert rng.getstate() == reference_rng.getstate()
