"""Tests for the control-plane signalling model."""

import math
import random
import statistics

import pytest

from repro.cellular.signalling import (
    AIRALO_PROFILE,
    EVENT_SIZE_KB,
    NATIVE_PROFILE,
    ROAMER_PROFILE,
    SignallingEvent,
    SignallingProfile,
    _poisson,
)
from repro.cellular import CoreTelemetryGenerator, IMSIRange, SubscriberPopulation
from tests.cellular import reference

#: Seeds for the differential tests against ``tests/cellular/reference.py``.
SEEDS = range(24)

#: A profile with zero rates: those events draw nothing.
QUIET_PROFILE = SignallingProfile(
    "quiet",
    {
        SignallingEvent.ATTACH: 0.0,
        SignallingEvent.PAGING: 3.0,
        SignallingEvent.HANDOVER: 0.0,
        SignallingEvent.SERVICE_REQUEST: 0.5,
    },
)


def test_every_event_has_a_size():
    assert set(EVENT_SIZE_KB) == set(SignallingEvent)
    assert all(size > 0 for size in EVENT_SIZE_KB.values())


def test_profile_validation():
    with pytest.raises(ValueError):
        SignallingProfile("empty", {})
    with pytest.raises(ValueError):
        SignallingProfile("neg", {SignallingEvent.ATTACH: -1.0})


def test_expected_daily_kb_matches_rates():
    profile = SignallingProfile(
        "tiny", {SignallingEvent.ATTACH: 2.0, SignallingEvent.PAGING: 10.0}
    )
    expected = 2.0 * EVENT_SIZE_KB[SignallingEvent.ATTACH] + 10.0 * EVENT_SIZE_KB[
        SignallingEvent.PAGING
    ]
    assert profile.expected_daily_kb() == pytest.approx(expected)


def test_sampling_converges_to_expectation():
    rng = random.Random(3)
    samples = [NATIVE_PROFILE.sample_daily_kb(rng) for _ in range(3000)]
    assert statistics.fmean(samples) == pytest.approx(
        NATIVE_PROFILE.expected_daily_kb(), rel=0.05
    )


def test_airalo_signals_more_than_native_more_than_roamer():
    # The Figure 5b ordering, now mechanistic.
    assert (
        AIRALO_PROFILE.expected_daily_kb()
        > NATIVE_PROFILE.expected_daily_kb()
        > ROAMER_PROFILE.expected_daily_kb()
    )
    # The gap is mostly mobility + IPX authentication.
    tau = SignallingEvent.TRACKING_AREA_UPDATE
    auth = SignallingEvent.AUTHENTICATION
    assert AIRALO_PROFILE.daily_rates[tau] > NATIVE_PROFILE.daily_rates[tau]
    assert AIRALO_PROFILE.daily_rates[auth] > NATIVE_PROFILE.daily_rates[auth]


def test_event_counts_sampling():
    rng = random.Random(9)
    counts = AIRALO_PROFILE.sample_event_counts(rng)
    assert set(counts) == set(AIRALO_PROFILE.daily_rates)
    assert all(count >= 0 for count in counts.values())


def test_poisson_sampler_properties():
    rng = random.Random(11)
    state = rng.getstate()
    assert _poisson(None, rng.random) == 0  # a zero rate draws nothing
    assert rng.getstate() == state
    samples = [_poisson(math.exp(-4.0), rng.random) for _ in range(5000)]
    assert statistics.fmean(samples) == pytest.approx(4.0, rel=0.05)
    assert statistics.pvariance(samples) == pytest.approx(4.0, rel=0.15)


def test_telemetry_generator_uses_profile():
    gen = CoreTelemetryGenerator(random.Random(5))
    gen.add_population(
        SubscriberPopulation(
            "ev", 40, data_mu=5.0, data_sigma=0.5,
            signalling_mu=0.0, signalling_sigma=0.0,
            signalling_profile=NATIVE_PROFILE,
        ),
        [IMSIRange(prefix="23410999")],
    )
    records = gen.generate(days=20)
    mean_kb = statistics.fmean(r.signalling_kb for r in records)
    # Near the profile expectation (user bias widens it slightly).
    assert mean_kb == pytest.approx(NATIVE_PROFILE.expected_daily_kb(), rel=0.25)


@pytest.mark.parametrize("seed", SEEDS)
def test_sampling_equals_the_per_draw_reference(seed):
    """Hoisting ``exp(-rate)`` and the sizes moves no draw and no bit."""
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for profile in (NATIVE_PROFILE, AIRALO_PROFILE, ROAMER_PROFILE, QUIET_PROFILE):
        for _ in range(40):
            assert profile.sample_daily_kb(rng) == reference.sample_daily_kb(
                profile, reference_rng
            )
            assert profile.sample_event_counts(rng) == reference.sample_event_counts(
                profile, reference_rng
            )
    assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_generate_equals_the_per_record_reference(seed):
    """Same records, field for field, from a profile-driven population and
    a lognormal one, and the generator's RNG ends in the same state."""

    def generator(cls, rng):
        built = cls(rng)
        built.add_population(
            SubscriberPopulation(
                "profiled", 9, data_mu=5.7, data_sigma=0.8,
                signalling_mu=0.0, signalling_sigma=0.0,
                signalling_profile=AIRALO_PROFILE,
            ),
            [IMSIRange(prefix="2600612")],
        )
        built.add_population(
            SubscriberPopulation(
                "lognormal", 6, data_mu=4.5, data_sigma=1.0,
                signalling_mu=6.0, signalling_sigma=0.5,
            ),
            [IMSIRange(prefix="23410")],
        )
        return built

    rng, reference_rng = random.Random(seed), random.Random(seed)
    records = generator(CoreTelemetryGenerator, rng).generate(days=6)
    expected = generator(reference.ReferenceTelemetryGenerator, reference_rng).generate(
        days=6
    )
    assert records == expected
    assert rng.getstate() == reference_rng.getstate()
