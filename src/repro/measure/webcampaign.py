"""The web-based measurement campaign (Section 3.1).

Volunteers visit a measurement webpage while travelling: they upload a
screenshot of their network settings (validated — in the paper by a
vision model — to prove the Airalo eSIM is active and Wi-Fi is off), the
page retrieves their DNS configuration, then runs a fast.com-style
speedtest in an iframe and parses the uploaded result.

Every volunteer runs one loop with a :class:`~repro.faults.FaultPlan`.
With an enabled :class:`~repro.faults.ChaosConfig` supplied, it weathers
injected faults: unreadable uploads, attach rejects and probe timeouts
all burn attempts from the volunteer's (enlarged) retry budget, and the
dataset's health report accounts for what survived. Without one, the
plan's config is ``ChaosConfig()``, whose rates are all zero: it draws
and injects nothing, and the budget stays the clean one.

Logger: ``repro.measure.webcampaign`` (per-attempt retry chatter at
DEBUG, one WARNING per volunteer that exhausts their retry budget).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.cellular.attach import SessionFactory
from repro.cellular.esim import SIMProfile
from repro.cellular.mno import OperatorRegistry
from repro.cellular.ue import UserEquipment
from repro.faults import ChaosConfig, FaultPlan
from repro.geo.cities import City
from repro.measure.dataset import MeasurementDataset
from repro.measure.records import MeasurementContext, WebMeasurementRecord
from repro.services.dns import DNSService
from repro.services.fabric import ServiceFabric
from repro.services.speedtest import SpeedtestFleet

logger = logging.getLogger("repro.measure.webcampaign")

#: Attempts a volunteer makes per planned measurement (clean / chaotic).
_ATTEMPT_BUDGET = 3
_CHAOS_ATTEMPT_BUDGET = 6


class UploadRejected(Exception):
    """The screenshot failed validation (Wi-Fi on, wrong SIM, unreadable)."""


@dataclass(frozen=True)
class ScreenshotUpload:
    """What the vision model extracts from a settings screenshot."""

    shows_cellular: bool
    operator_shown: str
    readable: bool = True


class ScreenshotValidator:
    """Stand-in for the ChatGPT-vision screenshot check.

    Validates the extracted claims against the session that produced the
    upload: the device must be on cellular (not Wi-Fi) and camped on the
    expected visited operator.
    """

    def validate(self, upload: ScreenshotUpload, expected_operator: str) -> None:
        if not upload.readable:
            raise UploadRejected("screenshot unreadable")
        if not upload.shows_cellular:
            raise UploadRejected("device is on Wi-Fi, not the eSIM")
        if upload.operator_shown != expected_operator:
            raise UploadRejected(
                f"screenshot shows {upload.operator_shown!r}, "
                f"expected {expected_operator!r}"
            )


@dataclass(frozen=True)
class WebVolunteer:
    """One traveller with a complimentary Airalo eSIM."""

    name: str
    country_iso3: str
    city: City
    esim: SIMProfile
    v_mno_name: str
    duration_days: int
    planned_measurements: int
    # Probability a given upload attempt is valid (volunteers sometimes
    # forget to disable Wi-Fi; such attempts are rejected and retried).
    upload_reliability: float = 0.9

    def __post_init__(self) -> None:
        if self.duration_days < 1 or self.planned_measurements < 1:
            raise ValueError("volunteer needs at least one day and one measurement")
        if not 0.0 < self.upload_reliability <= 1.0:
            raise ValueError("upload_reliability must be in (0, 1]")


class WebCampaignRunner:
    """Runs the full web campaign for a set of volunteers."""

    def __init__(
        self,
        fabric: ServiceFabric,
        fastcom: SpeedtestFleet,
        dns_services: Dict[str, DNSService],
        operators: OperatorRegistry,
        factory: SessionFactory,
        validator: Optional[ScreenshotValidator] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.fabric = fabric
        self.fastcom = fastcom
        self.dns_services = dns_services
        self.operators = operators
        self.factory = factory
        self.validator = validator or ScreenshotValidator()
        self.chaos = chaos
        self.rejected_uploads = 0

    def run(self, volunteers: List[WebVolunteer], rng: random.Random) -> MeasurementDataset:
        dataset = MeasurementDataset()
        # Volunteers retry failed uploads, but give up eventually; a
        # chaotic campaign grants a larger budget (more retries needed).
        chaotic = self.chaos is not None and self.chaos.enabled
        config = self.chaos if chaotic else ChaosConfig()
        budget = _CHAOS_ATTEMPT_BUDGET if chaotic else _ATTEMPT_BUDGET
        for volunteer in volunteers:
            with obs.span(
                "campaign.volunteer",
                country=volunteer.country_iso3, volunteer=volunteer.name,
            ):
                plan = FaultPlan(config, volunteer.name)
                dataset.merge(self._run_volunteer(volunteer, rng, plan, budget))
        return dataset

    def _run_volunteer(
        self,
        volunteer: WebVolunteer,
        rng: random.Random,
        plan: FaultPlan,
        budget: int,
    ) -> MeasurementDataset:
        dataset = MeasurementDataset()
        cell = dataset.health.cell(volunteer.country_iso3, "web")
        cell.planned += volunteer.planned_measurements
        device = UserEquipment.provision("volunteer phone", volunteer.city, rng)
        slot = device.install_sim(volunteer.esim)

        completed = 0
        attempts = 0
        max_attempts = volunteer.planned_measurements * budget
        while completed < volunteer.planned_measurements and attempts < max_attempts:
            attempts += 1
            day = (attempts - 1) * volunteer.duration_days // max_attempts
            if plan.attach_fault(day) is not None:
                # The eSIM would not attach; the volunteer tries later.
                cell.retried += 1
                plan.backoff_delay_s(0)
                continue
            session = device.switch_to(slot, volunteer.v_mno_name, self.factory, rng)
            cell.attempted += 1

            upload = self._simulate_upload(volunteer, session.v_mno_name, rng)
            if plan.upload_malformed(day):
                upload = ScreenshotUpload(
                    shows_cellular=upload.shows_cellular,
                    operator_shown=upload.operator_shown,
                    readable=False,
                )
            try:
                self.validator.validate(upload, session.v_mno_name)
            except UploadRejected as error:
                self.rejected_uploads += 1
                cell.retried += 1
                obs.counter("web.upload.rejected").inc()
                logger.debug("%s day %d: upload rejected (%s)",
                             volunteer.name, day, error)
                continue

            if plan.test_fault("web", day) is not None:
                # fast.com iframe timed out; burn an attempt and retry.
                cell.retried += 1
                plan.backoff_delay_s(0)
                continue

            record = self._measure(volunteer, device, session, day, rng)
            dataset.web_measurements.append(record)
            cell.succeeded += 1
            completed += 1
        if completed < volunteer.planned_measurements:
            missing = volunteer.planned_measurements - completed
            cell.dropped += missing
            logger.warning(
                "%s completed %d/%d measurements before exhausting retries",
                volunteer.name, completed, volunteer.planned_measurements,
            )
        device.detach()
        return dataset

    def _simulate_upload(
        self, volunteer: WebVolunteer, operator: str, rng: random.Random
    ) -> ScreenshotUpload:
        if rng.random() < volunteer.upload_reliability:
            return ScreenshotUpload(shows_cellular=True, operator_shown=operator)
        # Most failures: Wi-Fi left on.
        return ScreenshotUpload(shows_cellular=False, operator_shown=operator)

    def _measure(
        self,
        volunteer: WebVolunteer,
        device: UserEquipment,
        session,
        day: int,
        rng: random.Random,
    ) -> WebMeasurementRecord:
        conditions = self.fabric.radio.sample_conditions(device.preferred_rat(rng), rng)
        # Step 1: DNS configuration retrieval (NextDNS-style).
        dns = self.dns_services[session.dns_operator]
        answer = dns.resolve(session, self.fabric, rng)
        # Step 2: fast.com iframe speedtest.
        policy = self._policy_for(session)
        result = self.fastcom.run(session, self.fabric, policy, conditions, rng)
        context = MeasurementContext.from_session(
            session, volunteer.esim, conditions, day=day
        )
        return WebMeasurementRecord(
            context=context,
            volunteer=volunteer.name,
            download_mbps=result.download_mbps,
            latency_ms=result.latency_ms,
            resolver_service=answer.service_name,
            resolver_country=answer.resolver_country,
        )

    def _policy_for(self, session):
        operator = self.operators.get(session.v_mno_name)
        if operator.bandwidth is not None:
            return operator.bandwidth
        return self.operators.parent_of(operator).bandwidth
