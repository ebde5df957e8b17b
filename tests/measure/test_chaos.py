"""Behavioural tests for the fault-injection substrate (marked ``chaos``)."""

import hashlib
import json
import logging
import random

import pytest

from repro.experiments.export import jsonable
from repro.faults import (
    ATTACH_REJECT_CAUSES,
    ChaosConfig,
    CircuitBreaker,
    FaultKind,
    FaultPlan,
)
from repro.measure.amigo import AmigoControlServer
from repro.measure.webcampaign import WebCampaignRunner, WebVolunteer
from tests.worldkit import build_mini_testbed, run_mini_campaign

pytestmark = pytest.mark.chaos


# ---------------------------------------------------------------------------
# The substrate itself
# ---------------------------------------------------------------------------

def test_fault_plan_rates_zero_and_one():
    never = FaultPlan(ChaosConfig(seed=1), scope="x")
    assert never.attach_fault(0) is None
    assert never.test_fault("speedtest", 0) is None
    assert never.churn_days(0) == 0
    assert not never.upload_malformed(0)

    always = FaultPlan(
        ChaosConfig(
            seed=1, attach_reject_rate=1.0, service_outage_rate=1.0,
            churn_rate_per_day=1.0, malformed_upload_rate=1.0,
        ),
        scope="x",
    )
    fault = always.attach_fault(0)
    assert fault is not None and fault.kind in (
        FaultKind.ATTACH_REJECT, FaultKind.SIM_FLIP
    )
    assert always.test_fault("speedtest", 0) is not None
    assert always.churn_days(1) >= 1
    assert always.upload_malformed(0)


def test_attach_reject_carries_3gpp_cause():
    plan = FaultPlan(
        ChaosConfig(seed=5, attach_reject_rate=1.0, sim_flip_failure_rate=0.0),
        scope="x",
    )
    fault = plan.attach_fault(0)
    assert fault.kind is FaultKind.ATTACH_REJECT
    assert any(f"cause #{code}" in fault.detail for code in ATTACH_REJECT_CAUSES)


def test_circuit_breaker_trips_and_recovers():
    breaker = CircuitBreaker(threshold=3, quarantine_days=2)
    assert not breaker.record_failure(0)
    assert not breaker.record_failure(0)
    breaker.record_success()  # resets the count
    assert not breaker.record_failure(1)
    assert not breaker.record_failure(1)
    assert breaker.record_failure(1)  # third consecutive: trips
    assert breaker.is_quarantined(2)
    assert breaker.is_quarantined(3)
    assert not breaker.is_quarantined(4)
    assert breaker.trip_days == [1]


# ---------------------------------------------------------------------------
# Resilient orchestration end to end
# ---------------------------------------------------------------------------

def test_retries_recover_the_full_plan():
    chaos = ChaosConfig(
        seed=11, attach_reject_rate=0.2, service_outage_rate=0.15,
        probe_timeout_rate=0.15,
    )
    stressed = run_mini_campaign(chaos=chaos)
    clean = run_mini_campaign(chaos=None)
    health = stressed.health
    assert health.retried_total > 0
    assert health.completion_rate() == 1.0
    assert stressed.total_records() == clean.total_records()


def test_unrecoverable_endpoint_is_quarantined_and_runs_dropped():
    chaos = ChaosConfig(seed=2, attach_reject_rate=1.0)
    dataset = run_mini_campaign(chaos=chaos)
    health = dataset.health
    assert dataset.total_records() == 0
    assert health.quarantines
    assert health.offline_days > 0  # quarantine took days out of rotation
    assert health.dropped_total == health.planned_total
    assert health.completion_rate() == 0.0


def test_churn_rolls_runs_onto_makeup_days():
    chaos = ChaosConfig(seed=6, churn_rate_per_day=0.5)
    dataset = run_mini_campaign(chaos=chaos)
    health = dataset.health
    assert health.offline_days > 0
    assert health.makeup_days > 0
    made_up = sum(cell.made_up for cell in health.tests.values())
    assert made_up > 0
    # The make-up window was wide enough to drain the whole backlog.
    assert health.completion_rate() == 1.0


def test_makeup_window_bounds_recovery():
    chaos = ChaosConfig(seed=6, churn_rate_per_day=0.5, max_makeup_days=0)
    dataset = run_mini_campaign(chaos=chaos)
    health = dataset.health
    assert health.makeup_days == 0
    assert health.dropped_total > 0  # no window: missed days stay missed


def test_skipped_endpoint_is_logged_and_surfaced(caplog):
    testbed = build_mini_testbed()
    server = AmigoControlServer(testbed["resources"], testbed["factory"])
    for deployment in testbed["deployments"]:
        server.register_endpoint(
            deployment, random.Random(deployment.country_iso3)
        )
    plans = {k: v for k, v in testbed["plans"].items() if k != "THA"}
    with caplog.at_level(logging.WARNING, logger="repro.measure.amigo"):
        dataset = server.run_campaign(plans)
    assert len(dataset.health.skipped_endpoints) == 1
    assert dataset.health.skipped_endpoints[0].startswith("THA:")
    assert any("no plan" in record.message for record in caplog.records)


def test_health_render_mentions_every_country():
    chaos = ChaosConfig(seed=11, service_outage_rate=0.2)
    health = run_mini_campaign(chaos=chaos).health
    rendered = health.render()
    for country in ("ESP", "ARE", "THA"):
        assert country in rendered


# ---------------------------------------------------------------------------
# Web campaign under chaos
# ---------------------------------------------------------------------------

def _volunteer(world, rng, reliability=1.0):
    from repro.cellular import RSPServer

    esim = RSPServer("Airalo").issue(world["operators"].get("Play"), "ESP", rng)
    return WebVolunteer(
        name="v1", country_iso3="ESP", city=world["cities"].get("Madrid", "ESP"),
        esim=esim, v_mno_name="Movistar", duration_days=5,
        planned_measurements=8, upload_reliability=reliability,
    )


def _web_runner(testbed, chaos=None):
    resources = testbed["resources"]
    return WebCampaignRunner(
        fabric=resources.fabric,
        fastcom=resources.ookla,
        dns_services=resources.dns_services,
        operators=testbed["operators"],
        factory=testbed["factory"],
        chaos=chaos,
    )


def test_web_campaign_weathers_malformed_uploads():
    testbed = build_mini_testbed()
    chaos = ChaosConfig(seed=4, malformed_upload_rate=0.4)
    runner = _web_runner(testbed, chaos=chaos)
    rng = random.Random(3)
    dataset = runner.run([_volunteer(testbed, rng)], rng)
    assert runner.rejected_uploads > 0
    assert len(dataset.web_measurements) == 8  # retries made up the difference
    assert dataset.health.completion_rate() == 1.0


#: sha256 of each clean web campaign below (one volunteer at upload
#: reliability 0.6, keyed by RNG seed): its records, health ledger and
#: rejected-upload count as sorted-key JSON. Pinned so that a change to
#: the one volunteer loop that moves a clean campaign fails here.
CLEAN_WEB_SHA256 = {
    3: "09f5cc1b17a2f1454b8decea4796f8061f2a083a119c24c8df5df9784bf99166",
    5: "8b58b815eac0c98c21dd30afe8ac9ffcc7019dd4534f26970c883347e40ee2c9",
    8: "8bab5cd0403300ed6d71f025edeec579937a9e8321004232b05227ce7e391869",
    13: "48e114a2333ba547c6841b1346bf92cb23ec7a50946d68ff48337381d9b22462",
    21: "46fbfe4d11dd4fd26de1d0ae854ddc03f4c4641f1b2cfaf1b1799a456932e417",
}


def _web_state(chaos, seed):
    """Records, health ledger and rejected uploads of one web campaign."""
    testbed = build_mini_testbed()
    rng = random.Random(seed)
    runner = _web_runner(testbed, chaos=chaos)
    dataset = runner.run([_volunteer(testbed, rng, reliability=0.6)], rng)
    return dataset.web_measurements, dataset.health, runner.rejected_uploads


def test_web_campaign_chaos_off_matches_clean():
    for seed, digest in sorted(CLEAN_WEB_SHA256.items()):
        clean = _web_state(None, seed)
        assert clean[2] > 0, seed  # upload_reliability 0.6: clean retries happened
        text = json.dumps(jsonable(clean), sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, seed
        off = _web_state(ChaosConfig.disabled(), seed)
        assert off[0] == clean[0], seed  # records
        assert off[1] == clean[1], seed  # health ledger
        assert off[2] == clean[2], seed  # rejected uploads
