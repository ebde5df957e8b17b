"""Integration tests for the calibrated Airalo world."""

import random
import statistics

import pytest

from repro.analysis import classify_session_context
from repro.cellular import SIMKind, UserEquipment
from repro.cellular.roaming import RoamingArchitecture
from repro.worlds import build_airalo_world, paperdata as pd
from repro.worlds.airalo import scaled_count


@pytest.fixture(scope="module")
def world():
    return build_airalo_world(seed=7)


@pytest.fixture(scope="module")
def device_dataset(world):
    return world.run_device_campaign(scale=0.12)


def _attach(world, country, rng):
    spec = world.offering(country)
    esim = world.sell_esim(country, rng)
    ue = UserEquipment.provision(
        "Samsung S21+ 5G", world.cities.get(spec.user_city, country), rng
    )
    ue.install_sim(esim)
    session = ue.switch_to(0, spec.v_mno, world.factory, rng)
    return esim, session


def test_world_serves_24_countries(world):
    assert len(world.airalo.served_countries()) == 24
    assert world.airalo.roaming_share() == pytest.approx(21 / 24)


def test_six_b_mnos_provision_roaming_esims(world):
    grouped = world.airalo.offerings_by_b_mno()
    roaming_issuers = {
        b for b, offers in grouped.items()
        if any(o.expected_architecture is not RoamingArchitecture.NATIVE for o in offers)
    }
    assert roaming_issuers == {
        "Singtel", "Play", "Telna Mobile", "Telecom Italia", "Orange", "Polkomtel"
    }


@pytest.mark.parametrize("country,expected", [
    ("PAK", RoamingArchitecture.HR),
    ("ARE", RoamingArchitecture.HR),
    ("ESP", RoamingArchitecture.IHBO),
    ("GEO", RoamingArchitecture.IHBO),
    ("FRA", RoamingArchitecture.IHBO),
    ("MDA", RoamingArchitecture.IHBO),
    ("ITA", RoamingArchitecture.IHBO),
    ("KOR", RoamingArchitecture.NATIVE),
    ("THA", RoamingArchitecture.NATIVE),
    ("MDV", RoamingArchitecture.NATIVE),
])
def test_classifier_recovers_table2_architecture(world, country, expected):
    """The methodology (public IP ASN matching) must recover ground truth."""
    rng = random.Random(f"cls:{country}")
    esim, session = _attach(world, country, rng)
    from repro.cellular.radio import RadioAccessTechnology, RadioConditions
    from repro.measure.records import MeasurementContext

    conditions = RadioConditions(RadioAccessTechnology.NR, 10, -85.0, 12.0)
    context = MeasurementContext.from_session(session, esim, conditions)
    inferred = classify_session_context(context, world.geoip, world.operators)
    assert inferred is expected
    assert session.architecture is expected


def test_no_lbo_anywhere(world):
    for country in world.airalo.served_countries():
        rng = random.Random(f"lbo:{country}")
        _, session = _attach(world, country, rng)
        assert session.architecture is not RoamingArchitecture.LBO


def test_polkomtel_breaks_out_in_virginia(world):
    """France/Uzbekistan eSIMs cross the Atlantic (Figure 4's headline)."""
    for country in ("FRA", "UZB"):
        rng = random.Random(f"pol:{country}")
        _, session = _attach(world, country, rng)
        assert session.pgw_site.site_id == "packet-host-ash"
        assert session.breakout_country == "USA"
        # Farther than the b-MNO's home (Warsaw) — the suboptimality.
        warsaw = world.cities.get("Warsaw", "POL").location
        assert session.tunnel.distance_km > session.sgw.location.distance_km(warsaw)


def test_play_esims_alternate_pgw_providers(world):
    rng = random.Random("alt")
    providers = set()
    for _ in range(30):
        _, session = _attach(world, "ESP", rng)
        providers.add(session.pgw_site.provider_org)
    assert providers == {"Packet Host", "OVH SAS"}


def test_saudi_uses_packet_host_only(world):
    rng = random.Random("sau")
    for _ in range(15):
        _, session = _attach(world, "SAU", rng)
        assert session.pgw_site.provider_org == "Packet Host"


def test_ovh_partitions_by_b_mno(world):
    """Qatar (Telna) pins one OVH PGW IP; Play spreads over the rest."""
    rng = random.Random("ovh")
    telna_ips, play_ips = set(), set()
    for _ in range(60):
        _, session = _attach(world, "QAT", rng)
        if session.pgw_site.site_id == "ovh-lille":
            telna_ips.add(str(session.public_ip))
        _, session = _attach(world, "DEU", rng)
        if session.pgw_site.site_id == "ovh-lille":
            play_ips.add(str(session.public_ip))
    assert len(telna_ips) == 1
    assert len(play_ips) > 1
    assert not telna_ips & play_ips


def test_singtel_hr_uses_named_prefix(world):
    rng = random.Random("sg")
    _, session = _attach(world, "PAK", rng)
    assert str(session.public_ip).startswith("202.166.126.")
    record = world.geoip.lookup(session.public_ip)
    assert record.asn == pd.ASN_SINGTEL
    assert record.country_iso3 == "SGP"


def test_half_of_ihbo_breaks_out_farther_than_b_mno(world):
    """Conclusion: 50% of IHBO eSIMs break out farther than the b-MNO."""
    farther = 0
    total = 0
    for spec in pd.ESIM_OFFERINGS:
        if spec.architecture != "IHBO":
            continue
        rng = random.Random(f"far:{spec.country_iso3}")
        _, session = _attach(world, spec.country_iso3, rng)
        b_home = world.operators.get(spec.b_mno).home_city
        assert b_home is not None
        total += 1
        if session.tunnel.distance_km > session.sgw.location.distance_km(b_home.location):
            farther += 1
    assert total == 16
    # The paper reports 8/16; geometry gives the same order.
    assert 5 <= farther <= 11


def test_device_campaign_covers_10_countries(device_dataset):
    assert device_dataset.countries() == sorted(
        ["GEO", "DEU", "KOR", "PAK", "QAT", "SAU", "ESP", "THA", "ARE", "GBR"]
    )


def test_device_campaign_has_all_record_types(device_dataset):
    assert device_dataset.speedtests
    assert device_dataset.traceroutes
    assert device_dataset.cdn_fetches
    assert device_dataset.dns_probes
    assert device_dataset.video_probes


def test_web_campaign_matches_table3(world):
    dataset = world.run_web_campaign()
    per_country = {}
    for record in dataset.web_measurements:
        per_country.setdefault(record.context.country_iso3, 0)
        per_country[record.context.country_iso3] += 1
    expected = {e.country_iso3: e.measurements for e in pd.WEB_CAMPAIGN}
    assert per_country == expected


def test_campaigns_deterministic(world):
    a = world.run_device_campaign(scale=0.03)
    b = world.run_device_campaign(scale=0.03)
    assert a.total_records() == b.total_records()
    assert [r.latency_ms for r in a.speedtests] == [r.latency_ms for r in b.speedtests]


def test_hr_latency_dominates(device_dataset):
    speedtests = device_dataset.select("speedtest").where(country="PAK")
    pak_esim = speedtests.where(sim_kind=SIMKind.ESIM).records()
    pak_sim = speedtests.where(sim_kind=SIMKind.PHYSICAL).records()
    assert statistics.median(r.latency_ms for r in pak_esim) > 4 * statistics.median(
        r.latency_ms for r in pak_sim
    )


def test_korea_esim_faster_than_mvno_sim(device_dataset):
    speedtests = device_dataset.select("speedtest").where(country="KOR").filter(
        lambda r: r.passes_cqi_filter
    )
    esim = speedtests.where(sim_kind=SIMKind.ESIM).records()
    sim = speedtests.where(sim_kind=SIMKind.PHYSICAL).records()
    assert statistics.fmean(r.download_mbps for r in esim) > statistics.fmean(
        r.download_mbps for r in sim
    )


def test_ipx_reachability_validated(world):
    # Every IHBO site is reachable from its b-MNO through the mesh.
    assert world.ipx.can_reach("Play", "packet-host-ams")
    assert world.ipx.can_reach("Telna Mobile", "ovh-lille")
    assert world.ipx.can_reach("Polkomtel", "packet-host-ash")


def test_scale_validation(world):
    with pytest.raises(ValueError):
        world.run_device_campaign(scale=0.0)


class TestScaledCount:
    def test_shrink_keeps_historic_semantics(self):
        assert scaled_count(100, 0.15) == 15
        assert scaled_count(3, 0.15) == 1  # floor of one survivor
        assert scaled_count(0, 0.15) == 0  # nothing to sample from

    def test_growth_is_proportional(self):
        assert scaled_count(750, 50) == 37500
        assert scaled_count(500, 100) == 50000
        assert scaled_count(1, 2.5) == 2  # banker's rounding, frozen by golden

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_count(10, 0)
        with pytest.raises(ValueError):
            scaled_count(10, -1.0)
