"""Tests for the AmiGo testbed and the web campaign runner."""

import random

import pytest

from repro.cellular import SIMKind
from repro.measure.amigo import (
    AmigoControlServer,
    CountryDeployment,
    MeasurementEndpoint,
    _share,
)
from repro.measure.dataset import MeasurementDataset
from repro.measure.webcampaign import (
    ScreenshotUpload,
    ScreenshotValidator,
    UploadRejected,
    WebCampaignRunner,
    WebVolunteer,
)
from repro.cellular.esim import issue_physical_sim


def _deployment(world, rng, country="ESP", days=2):
    cities = world["cities"]
    operators = world["operators"]
    from repro.cellular import RSPServer

    esim = RSPServer("Airalo").issue(operators.get("Play"), country, rng)
    physical = issue_physical_sim(operators.get("Movistar"), rng)
    return CountryDeployment(
        country_iso3=country,
        city=cities.get("Madrid", "ESP"),
        physical_sim=physical,
        esim=esim,
        v_mno_physical="Movistar",
        v_mno_esim="Movistar",
        duration_days=days,
    )


def test_share_splits_evenly():
    assert [_share(10, d, 4) for d in range(4)] == [3, 3, 2, 2]
    assert sum(_share(7, d, 3) for d in range(3)) == 7
    assert [_share(1, d, 5) for d in range(5)] == [1, 0, 0, 0, 0]


def test_deployment_validation(world, rng):
    with pytest.raises(ValueError):
        _deployment(world, rng, days=0)


def test_endpoint_runs_battery_on_both_sims(world, resources, rng):
    endpoint = MeasurementEndpoint(_deployment(world, rng), resources, world["factory"], rng)
    plan = {"speedtest": (2, 3), "mtr:Google": (1, 1), "dns": (1, 1)}
    dataset = endpoint.run_battery(plan, day=0)
    assert len(dataset.speedtests) == 5
    sim_runs = [r for r in dataset.speedtests if r.context.sim_kind is SIMKind.PHYSICAL]
    esim_runs = [r for r in dataset.speedtests if r.context.sim_kind is SIMKind.ESIM]
    assert len(sim_runs) == 2 and len(esim_runs) == 3
    assert len(dataset.traceroutes) == 2
    assert len(dataset.dns_probes) == 2
    # Physical SIM is native; eSIM roams via IHBO.
    assert {r.context.config_label for r in dataset.speedtests} == {"SIM", "eSIM/IHBO"}


def test_endpoint_rejects_unknown_test(world, resources, rng):
    endpoint = MeasurementEndpoint(_deployment(world, rng), resources, world["factory"], rng)
    with pytest.raises(ValueError):
        endpoint.run_battery({"bogus": (1, 0)}, day=0)


def test_endpoint_status_reports(world, resources, rng):
    endpoint = MeasurementEndpoint(_deployment(world, rng), resources, world["factory"], rng)
    status = endpoint.report_status(day=0)
    assert status.imei == endpoint.device.imei
    assert 0 < status.battery_pct <= 100
    assert 1 <= status.conditions.cqi <= 15


def test_control_server_campaign(world, resources, rng):
    server = AmigoControlServer(resources, world["factory"])
    server.register_endpoint(_deployment(world, rng, days=3), random.Random(1))
    plans = {"ESP": {"speedtest": (6, 6), "cdn:Cloudflare": (3, 3), "video": (2, 2)}}
    dataset = server.run_campaign(plans)
    assert len(dataset.speedtests) == 12
    assert len(dataset.cdn_fetches) == 6
    assert len(dataset.video_probes) == 4
    # One status ping per day.
    assert len(server.status_log) == 3


def test_control_server_skips_unplanned_country(world, resources, rng):
    server = AmigoControlServer(resources, world["factory"])
    server.register_endpoint(_deployment(world, rng), random.Random(2))
    dataset = server.run_campaign({"THA": {"speedtest": (1, 1)}})
    assert dataset.total_records() == 0


def test_dataset_merge_and_slices(world, resources, rng):
    endpoint = MeasurementEndpoint(_deployment(world, rng), resources, world["factory"], rng)
    ds = endpoint.run_battery({"speedtest": (2, 2), "mtr:Google": (2, 2)}, day=0)
    assert ds.countries() == ["ESP"]
    assert len(ds.traceroutes_to("Google", country="esp")) == 4
    assert len(ds.traceroutes_to("Google", sim_kind=SIMKind.ESIM)) == 2
    assert ds.select("speedtest").where(
        country="ESP", sim_kind=SIMKind.PHYSICAL
    ).count() == 2
    other = MeasurementDataset()
    other.merge(ds)
    assert other.total_records() == ds.total_records()


def test_validator_rules():
    validator = ScreenshotValidator()
    validator.validate(ScreenshotUpload(True, "Movistar"), "Movistar")
    with pytest.raises(UploadRejected):
        validator.validate(ScreenshotUpload(False, "Movistar"), "Movistar")
    with pytest.raises(UploadRejected):
        validator.validate(ScreenshotUpload(True, "Vodafone"), "Movistar")
    with pytest.raises(UploadRejected):
        validator.validate(ScreenshotUpload(True, "Movistar", readable=False), "Movistar")


def _web_runner(world, resources):
    return WebCampaignRunner(
        fabric=resources.fabric,
        fastcom=resources.ookla,  # stands in for the Netflix fleet here
        dns_services=resources.dns_services,
        operators=world["operators"],
        factory=world["factory"],
    )


def test_web_campaign_produces_planned_measurements(world, resources, rng):
    from repro.cellular import RSPServer

    esim = RSPServer("Airalo").issue(world["operators"].get("Play"), "ESP", rng)
    volunteer = WebVolunteer(
        name="v1", country_iso3="ESP", city=world["cities"].get("Madrid", "ESP"),
        esim=esim, v_mno_name="Movistar", duration_days=5, planned_measurements=8,
        upload_reliability=0.8,
    )
    runner = _web_runner(world, resources)
    dataset = runner.run([volunteer], random.Random(3))
    assert len(dataset.web_measurements) == 8
    record = dataset.web_measurements[0]
    assert record.volunteer == "v1"
    assert record.resolver_service == "Google DNS"
    assert record.download_mbps > 0
    assert record.context.architecture.label == "IHBO"


def test_web_campaign_counts_rejections(world, resources):
    from repro.cellular import RSPServer

    rng = random.Random(9)
    esim = RSPServer("Airalo").issue(world["operators"].get("Play"), "ESP", rng)
    volunteer = WebVolunteer(
        name="clumsy", country_iso3="ESP", city=world["cities"].get("Madrid", "ESP"),
        esim=esim, v_mno_name="Movistar", duration_days=3, planned_measurements=5,
        upload_reliability=0.5,
    )
    runner = _web_runner(world, resources)
    runner.run([volunteer], rng)
    assert runner.rejected_uploads > 0


def test_web_volunteer_validation(world, rng):
    from repro.cellular import RSPServer

    esim = RSPServer("Airalo").issue(world["operators"].get("Play"), "ESP", rng)
    city = world["cities"].get("Madrid", "ESP")
    with pytest.raises(ValueError):
        WebVolunteer("x", "ESP", city, esim, "Movistar", 0, 5)
    with pytest.raises(ValueError):
        WebVolunteer("x", "ESP", city, esim, "Movistar", 3, 5, upload_reliability=0.0)
