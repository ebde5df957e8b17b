"""Tests for steering of roaming and network selection."""

import random

import pytest

from repro.cellular import NetworkSelector, SteeringPolicy, VisitedNetworkOption
from tests.cellular.reference import ReferenceSelector

UK = (
    VisitedNetworkOption("O2 UK", 0.35),
    VisitedNetworkOption("EE", 0.40),
    VisitedNetworkOption("Vodafone UK", 0.25),
)

#: Regime -> (policy, pinned operator, options registered after the
#: policy). The last regime leaves a policy none of whose preferences
#: operates: it still costs its compliance draw.
REGIMES = {
    "unsteered": (None, None, None),
    "steered": (SteeringPolicy("Play", preferred=("EE",), compliance=0.75), None, None),
    "pinned": (SteeringPolicy("Play", preferred=("EE",), compliance=0.75), "O2 UK", None),
    "first-preference-absent": (
        SteeringPolicy("Play", preferred=("Three", "Vodafone UK"), compliance=0.6),
        None, None,
    ),
    "no-preference-present": (
        SteeringPolicy("Play", preferred=("EE",), compliance=0.9),
        None, (VisitedNetworkOption("Three", 0.55), VisitedNetworkOption("O2 UK", 0.45)),
    ),
}


def _selector():
    selector = NetworkSelector()
    selector.register_country(
        "GBR",
        [
            VisitedNetworkOption("O2 UK", 0.35),
            VisitedNetworkOption("EE", 0.40),
            VisitedNetworkOption("Vodafone UK", 0.25),
        ],
    )
    return selector


def test_option_and_policy_validation():
    with pytest.raises(ValueError):
        VisitedNetworkOption("X", 0.0)
    with pytest.raises(ValueError):
        VisitedNetworkOption("X", 1.5)
    with pytest.raises(ValueError):
        SteeringPolicy("Play", preferred=())
    with pytest.raises(ValueError):
        SteeringPolicy("Play", preferred=("EE",), compliance=1.2)


def test_register_validation():
    selector = NetworkSelector()
    with pytest.raises(ValueError):
        selector.register_country("GBR", [])
    with pytest.raises(ValueError):
        selector.register_country(
            "GBR", [VisitedNetworkOption("A", 0.5), VisitedNetworkOption("B", 0.2)]
        )
    with pytest.raises(ValueError):
        selector.register_country(
            "GBR", [VisitedNetworkOption("A", 0.5), VisitedNetworkOption("A", 0.5)]
        )
    with pytest.raises(KeyError):
        selector.set_policy("GBR", SteeringPolicy("Play", preferred=("EE",)))


def test_policy_must_name_a_present_operator():
    selector = _selector()
    with pytest.raises(ValueError):
        selector.set_policy("GBR", SteeringPolicy("Play", preferred=("T-Mobile",)))


def test_unsteered_follows_coverage_shares():
    selector = _selector()
    shares = selector.attach_distribution("Play", "GBR", random.Random(3), 20_000)
    assert shares["EE"] == pytest.approx(0.40, abs=0.02)
    assert shares["O2 UK"] == pytest.approx(0.35, abs=0.02)
    assert shares["Vodafone UK"] == pytest.approx(0.25, abs=0.02)


def test_steering_concentrates_on_preference():
    selector = _selector()
    selector.set_policy("GBR", SteeringPolicy("Play", preferred=("EE",), compliance=0.8))
    shares = selector.attach_distribution("Play", "GBR", random.Random(5), 20_000)
    # 80% steered + 40% of the unsteered 20%.
    assert shares["EE"] == pytest.approx(0.8 + 0.2 * 0.4, abs=0.02)


def test_steering_only_applies_to_the_policy_owner():
    selector = _selector()
    selector.set_policy("GBR", SteeringPolicy("Play", preferred=("EE",), compliance=1.0))
    other = selector.attach_distribution("Singtel", "GBR", random.Random(7), 10_000)
    assert other["EE"] == pytest.approx(0.40, abs=0.02)


def test_pinned_operator_always_wins():
    selector = _selector()
    selector.set_policy("GBR", SteeringPolicy("Play", preferred=("EE",), compliance=1.0))
    rng = random.Random(9)
    for _ in range(50):
        assert selector.select("Play", "GBR", rng, pinned_operator="O2 UK") == "O2 UK"
    with pytest.raises(ValueError):
        selector.select("Play", "GBR", rng, pinned_operator="T-Mobile")


def test_fallback_preference_when_top_absent():
    selector = _selector()
    selector.set_policy(
        "GBR",
        SteeringPolicy("Play", preferred=("Three", "EE"), compliance=1.0),
    )
    shares = selector.attach_distribution("Play", "GBR", random.Random(11), 5_000)
    assert shares["EE"] == pytest.approx(1.0)


def test_unknown_country_raises():
    selector = _selector()
    with pytest.raises(KeyError):
        selector.options_in("FRA")
    with pytest.raises(ValueError):
        selector.attach_distribution("Play", "GBR", random.Random(1), samples=0)


def _configured(cls, regime):
    policy, _pinned, later_options = REGIMES[regime]
    selector = cls()
    selector.register_country("GBR", UK)
    if policy is not None:
        selector.set_policy("GBR", policy)
    if later_options is not None:
        selector.register_country("GBR", later_options)
    return selector


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("seed", range(20))
def test_selection_equals_the_per_draw_reference(seed, regime):
    """Resolving once per call instead of once per draw moves no draw:
    the same networks and shares, and the RNG ends in the same state."""
    pinned = REGIMES[regime][1]
    selector = _configured(NetworkSelector, regime)
    reference = _configured(ReferenceSelector, regime)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    for _ in range(200):
        assert selector.select("Play", "gbr", rng, pinned) == reference.select(
            "Play", "gbr", reference_rng, pinned
        )
    assert selector.attach_distribution(
        "Play", "GBR", rng, 3_000, pinned
    ) == reference.attach_distribution("Play", "GBR", reference_rng, 3_000, pinned)
    assert rng.getstate() == reference_rng.getstate()

