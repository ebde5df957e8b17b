"""Tests for operators, bandwidth policies, and SIM provisioning."""

import random

import pytest

from repro.cellular import (
    BandwidthPolicy,
    IMSIRange,
    MobileOperator,
    OperatorKind,
    OperatorRegistry,
    PLMN,
    ProvisioningError,
    RSPServer,
    SIMKind,
    issue_physical_sim,
)


def _play() -> MobileOperator:
    return MobileOperator(
        name="Play",
        country_iso3="POL",
        plmn=PLMN("260", "06"),
        asn=12912,
    )


def test_operator_default_dns_is_own_resolver():
    play = _play()
    assert play.dns is not None
    assert play.dns.operator_name == "Play"
    assert not play.dns.supports_doh


def test_mvno_requires_parent():
    with pytest.raises(ValueError):
        MobileOperator(
            name="U+ UMobile",
            country_iso3="KOR",
            plmn=PLMN("450", "06"),
            asn=9999,
            kind=OperatorKind.MVNO,
        )


def test_parent_resolution():
    registry = OperatorRegistry()
    lg = MobileOperator(name="LG U+", country_iso3="KOR", plmn=PLMN("450", "06"), asn=17858)
    umobile = MobileOperator(
        name="U+ UMobile",
        country_iso3="KOR",
        plmn=PLMN("450", "06"),
        asn=17858,
        kind=OperatorKind.MVNO,
        parent_name="LG U+",
    )
    registry.add(lg)
    registry.add(umobile)
    assert registry.parent_of(umobile) is lg
    assert registry.parent_of(lg) is lg
    assert umobile.is_mvno and not lg.is_mvno


def test_registry_lookup_and_country_filter():
    registry = OperatorRegistry([_play()])
    assert registry.get("Play").asn == 12912
    assert "Play" in registry
    assert registry.in_country("pol")[0].name == "Play"
    with pytest.raises(KeyError):
        registry.get("Nonexistent")
    with pytest.raises(ValueError):
        registry.add(_play())


def test_rented_range_must_match_plmn():
    play = _play()
    good = IMSIRange(prefix="2600677", label="airalo")
    play.rent_range("Airalo", good)
    assert play.ranges_for("Airalo") == [good]
    assert play.ranges_for("OtherMNA") == []
    with pytest.raises(ValueError):
        play.rent_range("Airalo", IMSIRange(prefix="3101504"))


def test_bandwidth_policy_selection():
    policy = BandwidthPolicy(
        native_downlink_mbps=100.0,
        native_uplink_mbps=30.0,
        roaming_downlink_mbps=15.0,
        roaming_uplink_mbps=8.0,
    )
    assert policy.downlink_for(roaming=False) == 100.0
    assert policy.downlink_for(roaming=True) == 15.0
    assert policy.uplink_for(roaming=True) == 8.0


def test_bandwidth_policy_validation():
    with pytest.raises(ValueError):
        BandwidthPolicy(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BandwidthPolicy(1.0, 1.0, 1.0, 1.0, youtube_cap_mbps=0.0)


def test_rsp_issues_from_rented_range():
    play = _play()
    play.rent_range("Airalo", IMSIRange(prefix="26006771234567"))  # 10 IMSIs
    rsp = RSPServer("Airalo")
    rng = random.Random(1)
    profile = rsp.issue(play, "esp", rng)
    assert profile.kind is SIMKind.ESIM
    assert profile.issuer_mno_name == "Play"
    assert profile.provider == "Airalo"
    assert profile.plan_country_iso3 == "ESP"
    assert profile.imsi.value.startswith("26006771234567")
    assert profile.is_esim


def test_rsp_issues_unique_imsis_until_exhaustion():
    play = _play()
    play.rent_range("Airalo", IMSIRange(prefix="26006771234567"))  # capacity 10
    rsp = RSPServer("Airalo")
    rng = random.Random(2)
    imsis = {rsp.issue(play, "ESP", rng).imsi.value for _ in range(10)}
    assert len(imsis) == 10
    with pytest.raises(ProvisioningError):
        rsp.issue(play, "ESP", rng)


def test_rsp_spills_into_second_range():
    play = _play()
    play.rent_range("Airalo", IMSIRange(prefix="26006771234567"))
    play.rent_range("Airalo", IMSIRange(prefix="26006779876543"))
    rsp = RSPServer("Airalo")
    rng = random.Random(3)
    profiles = [rsp.issue(play, "ESP", rng) for _ in range(15)]
    prefixes = {p.imsi.value[:14] for p in profiles}
    assert prefixes == {"26006771234567", "26006779876543"}
    assert len(rsp.issued_profiles()) == 15


def test_rsp_requires_rented_range():
    rsp = RSPServer("Airalo")
    with pytest.raises(ProvisioningError):
        rsp.register_operator(_play())


def test_physical_sim_from_operator():
    play = _play()
    sim = issue_physical_sim(play, random.Random(4))
    assert sim.kind is SIMKind.PHYSICAL
    assert sim.provider == "Play"
    assert sim.plan_country_iso3 == "POL"
    assert sim.imsi.value.startswith("26006")
    assert not sim.is_esim


def test_physical_sim_deterministic_index():
    play = _play()
    sim = issue_physical_sim(play, random.Random(5), subscriber_index=7)
    assert sim.imsi.value == "26006" + "7".zfill(10)
