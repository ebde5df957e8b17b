"""AmiGo-style testbed: control server and measurement endpoints.

Mirrors the architecture of the real AmiGo system the paper extends: a
control server that endpoints poll over REST-like calls to (1) report
device vitals and radio metrics and (2) receive instrumentation (which
tests to run). Endpoints are rooted phones carrying a local physical SIM
and an Airalo eSIM, flipping between them per battery of tests.

Orchestration is resilient the way a real cron-driven fleet is: attaches
and test runs retry with exponential backoff, a per-endpoint circuit
breaker quarantines devices that keep failing, and missed runs roll onto
later deployment days (make-up scheduling). There is one driver. Without
a :class:`~repro.faults.ChaosConfig` it runs with ``ChaosConfig()``,
whose rates are all zero: no fault is drawn, the breaker never trips,
no run is deferred, and the measurement RNG sees exactly the draws of a
fault-free campaign.

Loggers: ``repro.measure.amigo`` (retries at DEBUG, churn/quarantine and
skipped endpoints at WARNING).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cellular.attach import AttachReject, SessionFactory
from repro.cellular.core import PDNSession
from repro.cellular.esim import SIMProfile
from repro.cellular.mno import BandwidthPolicy, OperatorRegistry
from repro.cellular.radio import RadioConditions
from repro.cellular.ue import SimFlipError, UserEquipment
from repro.faults import ChaosConfig, CircuitBreaker, FaultKind, FaultPlan
from repro.geo.cities import City
from repro.measure.clients import (
    ProbeTimeout,
    ServiceOutage,
    TransientNetworkError,
    fetch_from_cdn,
    probe_dns,
    probe_video,
    run_speedtest,
)
from repro.measure.dataset import MeasurementDataset
from repro.measure.records import CampaignHealth, QuarantineEvent
from repro.measure.traceroute import TracerouteEngine, postprocess
from repro.net.geoip import GeoIPDatabase
from repro.services.cdn import CDNProvider
from repro.services.dns import DNSService
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServiceProvider
from repro.services.speedtest import SpeedtestFleet
from repro.services.video import AdaptiveBitratePlayer

logger = logging.getLogger("repro.measure.amigo")


class ConfigurationError(RuntimeError):
    """A session references services the testbed was not provisioned with."""


@dataclass
class TestbedResources:
    """Everything an endpoint needs to execute its instrumentation."""

    fabric: ServiceFabric
    geoip: GeoIPDatabase
    traceroute_engine: TracerouteEngine
    operators: OperatorRegistry
    ookla: SpeedtestFleet
    cdns: Dict[str, CDNProvider]
    dns_services: Dict[str, DNSService]
    sp_targets: Dict[str, ServiceProvider]
    player: AdaptiveBitratePlayer = field(default_factory=AdaptiveBitratePlayer)

    def dns_for(self, session: PDNSession) -> DNSService:
        """The resolver service a session's DNS configuration points at."""
        if session.dns_operator not in self.dns_services:
            raise ConfigurationError(
                f"no DNS service registered for {session.dns_operator!r} "
                f"(session {getattr(session, 'session_id', '?')}, "
                f"v-MNO {getattr(session, 'v_mno_name', '?')})"
            )
        return self.dns_services[session.dns_operator]

    def policy_for(self, session: PDNSession) -> BandwidthPolicy:
        """The v-MNO shaper applied to this session's traffic class."""
        operator = self.operators.get(session.v_mno_name)
        if operator.bandwidth is not None:
            return operator.bandwidth
        parent = self.operators.parent_of(operator)
        if parent.bandwidth is None:
            raise ConfigurationError(
                f"{operator.name} has no bandwidth policy configured "
                f"(nor has its host {parent.name}; session "
                f"{getattr(session, 'session_id', '?')})"
            )
        return parent.bandwidth

    def youtube_cap_for(self, session: PDNSession) -> Optional[float]:
        """Per-service throttling on this session's path.

        Either endpoint operator can shape YouTube: the b-MNO (it carries
        HR traffic through its core) or the v-MNO (it owns the radio leg
        every session crosses). The tightest configured cap applies.
        """
        caps = []
        for name in (session.b_mno_name, session.v_mno_name):
            operator = self.operators.get(name)
            if operator.bandwidth is not None and operator.bandwidth.youtube_cap_mbps:
                caps.append(operator.bandwidth.youtube_cap_mbps)
        return min(caps) if caps else None


@dataclass(frozen=True)
class CountryDeployment:
    """One volunteer's kit: device location, both SIMs, corridor quirks."""

    country_iso3: str
    city: City
    physical_sim: SIMProfile
    esim: SIMProfile
    v_mno_physical: str
    v_mno_esim: str
    esim_uplink_asymmetry: float = 1.0
    duration_days: int = 1

    def __post_init__(self) -> None:
        if self.esim_uplink_asymmetry <= 0:
            raise ValueError("uplink asymmetry must be positive")
        if self.duration_days < 1:
            raise ValueError("deployment needs at least one day")


@dataclass(frozen=True)
class DeviceStatus:
    """A status ping an endpoint posts to the control server."""

    imei: str
    day: int
    battery_pct: float
    connectivity: str
    conditions: RadioConditions


#: Test plan entry: (physical-SIM runs, eSIM runs), keyed by test name.
TestPlan = Dict[str, Tuple[int, int]]

#: Mutable per-endpoint backlog: test name -> [physical runs, eSIM runs].
Backlog = Dict[str, List[int]]


@dataclass
class _EndpointChaos:
    """Per-endpoint resilience state: its fault stream and breaker."""

    plan: FaultPlan
    breaker: CircuitBreaker

    @classmethod
    def build(cls, config: ChaosConfig, endpoint: "MeasurementEndpoint") -> "_EndpointChaos":
        scope = f"{endpoint.deployment.country_iso3}:{endpoint.device.imei}"
        return cls(
            plan=FaultPlan(config, scope),
            breaker=CircuitBreaker(config.breaker_threshold, config.quarantine_days),
        )


class MeasurementEndpoint:
    """A rooted phone executing instrumentation under server control."""

    def __init__(
        self,
        deployment: CountryDeployment,
        resources: TestbedResources,
        factory: SessionFactory,
        rng: random.Random,
    ) -> None:
        self.deployment = deployment
        self.resources = resources
        self.factory = factory
        self.rng = rng
        self.device = UserEquipment.provision("Samsung S21+ 5G", deployment.city, rng)
        self._physical_slot = self.device.install_sim(deployment.physical_sim)
        self._esim_slot = self.device.install_sim(deployment.esim)
        self._battery = 100.0

    # -- control-plane calls ---------------------------------------------------

    def report_status(self, day: int) -> DeviceStatus:
        """Device vitals + radio metrics (the first AmiGo API)."""
        conditions = self._sample_conditions()
        self._battery = max(5.0, self._battery - self.rng.uniform(1.0, 6.0))
        if self._battery < 25.0 and self.rng.random() < 0.7:
            self._battery = 100.0  # volunteer recharges
        return DeviceStatus(
            imei=self.device.imei,
            day=day,
            battery_pct=self._battery,
            connectivity="cellular" if self.device.attached else "idle",
            conditions=conditions,
        )

    # -- data-plane execution ---------------------------------------------------

    def run_battery(
        self,
        plan: TestPlan,
        day: int,
        chaos: Optional[_EndpointChaos] = None,
        health: Optional[CampaignHealth] = None,
        backlog: Optional[Backlog] = None,
        makeup: bool = False,
    ) -> MeasurementDataset:
        """Execute one day's share of the plan on both SIMs.

        Each test script reattaches before running (the SIM flip tears the
        PDP context down anyway), so PGW selection is re-rolled per test
        type — which is how the paper observed Play/Telna eSIMs
        alternating between Packet Host and OVH within a deployment.

        Attaches and runs are retried with backoff; runs that still fail
        are pushed onto ``backlog`` for make-up scheduling, and final
        failures feed the circuit breaker. A direct call may leave out
        the campaign's state: it then runs with no faults, a fresh
        ledger and an empty backlog.
        """
        if chaos is None:
            chaos = _EndpointChaos.build(ChaosConfig(), self)
        if health is None:
            health = CampaignHealth()
        if backlog is None:
            backlog = {}
        dataset = MeasurementDataset()
        for use_esim in (False, True):
            for test_name, (sim_count, esim_count) in sorted(plan.items()):
                count = esim_count if use_esim else sim_count
                if count == 0:
                    continue
                if not self._attach_with_retry(use_esim, day, chaos, health):
                    _push_backlog(backlog, test_name, use_esim, count)
                    continue
                sim = self.device.active_sim
                session = self.device.session
                assert session is not None
                for _ in range(count):
                    done = self._run_with_retry(
                        test_name, session, sim, day, dataset, chaos, health, makeup
                    )
                    if not done:
                        _push_backlog(backlog, test_name, use_esim, 1)
        self.device.detach()
        return dataset

    def _attach(self, use_esim: bool) -> None:
        slot = self._esim_slot if use_esim else self._physical_slot
        v_mno = (
            self.deployment.v_mno_esim if use_esim else self.deployment.v_mno_physical
        )
        self.device.switch_to(slot, v_mno, self.factory, self.rng)

    def _attach_with_retry(
        self,
        use_esim: bool,
        day: int,
        chaos: _EndpointChaos,
        health: CampaignHealth,
    ) -> bool:
        """Attach, retrying injected rejects/SIM-flip wedges with backoff."""
        country = self.deployment.country_iso3
        for attempt in range(chaos.plan.config.max_attach_attempts):
            health.attach_attempts += 1
            if attempt:
                health.attach_retries += 1
            try:
                fault = chaos.plan.attach_fault(day)
                if fault is not None:
                    if fault.kind is FaultKind.SIM_FLIP:
                        raise SimFlipError(fault.detail)
                    raise AttachReject(fault.detail)
                self._attach(use_esim)
                chaos.breaker.record_success()
                return True
            except (AttachReject, SimFlipError) as error:
                obs.counter("campaign.attach.retry").inc()
                delay = chaos.plan.backoff_delay_s(attempt)
                logger.debug(
                    "%s day %d: attach attempt %d failed (%s); backing off %.1fs",
                    country, day, attempt + 1, error, delay,
                )
        health.attach_failures += 1
        self._note_failure(day, chaos, health)
        logger.info(
            "%s day %d: attach gave up after %d attempts",
            country, day, chaos.plan.config.max_attach_attempts,
        )
        return False

    def _run_with_retry(
        self,
        test_name: str,
        session: PDNSession,
        sim: SIMProfile,
        day: int,
        dataset: MeasurementDataset,
        chaos: _EndpointChaos,
        health: CampaignHealth,
        makeup: bool,
    ) -> bool:
        """One planned run, retried through injected outages/timeouts."""
        country = self.deployment.country_iso3
        cell = health.cell(country, test_name)
        cell.attempted += 1
        for attempt in range(chaos.plan.config.max_test_attempts):
            try:
                fault = chaos.plan.test_fault(test_name, day)
                if fault is not None:
                    if fault.kind is FaultKind.SERVICE_OUTAGE:
                        raise ServiceOutage(f"{test_name}: service outage")
                    raise ProbeTimeout(f"{test_name}: probe timed out")
                self._run_one(test_name, session, sim, day, dataset)
                cell.succeeded += 1
                if makeup:
                    cell.made_up += 1
                chaos.breaker.record_success()
                return True
            except TransientNetworkError as error:
                cell.retried += 1
                obs.counter("campaign.test.retry").inc()
                delay = chaos.plan.backoff_delay_s(attempt)
                logger.debug(
                    "%s day %d: %s attempt %d failed (%s); backing off %.1fs",
                    country, day, test_name, attempt + 1, error, delay,
                )
        self._note_failure(day, chaos, health)
        logger.info(
            "%s day %d: %s gave up after %d attempts; rescheduling",
            country, day, test_name, chaos.plan.config.max_test_attempts,
        )
        return False

    def _note_failure(
        self,
        day: int,
        chaos: _EndpointChaos,
        health: CampaignHealth,
    ) -> None:
        """Feed a final (post-retry) failure to the circuit breaker."""
        if chaos.breaker.record_failure(day):
            obs.counter("campaign.quarantine").inc()
            health.quarantines.append(
                QuarantineEvent(
                    country_iso3=self.deployment.country_iso3,
                    imei=self.device.imei,
                    day=day,
                    consecutive_failures=chaos.breaker.threshold,
                )
            )
            logger.info(
                "%s day %d: circuit breaker tripped; quarantined for %d days",
                self.deployment.country_iso3, day, chaos.breaker.quarantine_days,
            )

    def _sample_conditions(self) -> RadioConditions:
        rat = self.device.preferred_rat(self.rng)
        return self.resources.fabric.radio.sample_conditions(rat, self.rng)

    def _run_one(
        self,
        test_name: str,
        session: PDNSession,
        sim: SIMProfile,
        day: int,
        dataset: MeasurementDataset,
    ) -> None:
        resources = self.resources
        conditions = self._sample_conditions()
        policy = resources.policy_for(session)

        if test_name == "speedtest":
            asymmetry = (
                self.deployment.esim_uplink_asymmetry if sim.is_esim else 1.0
            )
            dataset.speedtests.append(
                run_speedtest(
                    session, sim, resources.ookla, resources.fabric, policy,
                    conditions, self.rng, uplink_asymmetry=asymmetry, day=day,
                )
            )
        elif test_name.startswith("mtr:"):
            target = test_name.split(":", 1)[1]
            provider = resources.sp_targets[target]
            result = resources.traceroute_engine.trace(
                session, provider, conditions, self.rng
            )
            dataset.traceroutes.append(
                postprocess(result, session, sim, conditions, resources.geoip, day=day)
            )
        elif test_name.startswith("cdn:"):
            provider_name = test_name.split(":", 1)[1]
            cdn = resources.cdns[provider_name]
            dns = resources.dns_for(session)
            dataset.cdn_fetches.append(
                fetch_from_cdn(
                    session, sim, cdn, dns, resources.fabric, policy,
                    conditions, self.rng, day=day,
                )
            )
        elif test_name == "dns":
            dns = resources.dns_for(session)
            dataset.dns_probes.append(
                probe_dns(session, sim, dns, resources.fabric, conditions, self.rng, day=day)
            )
        elif test_name == "video":
            dataset.video_probes.append(
                probe_video(
                    session, sim, resources.player, resources.fabric, policy,
                    conditions, self.rng,
                    youtube_cap_mbps=resources.youtube_cap_for(session), day=day,
                )
            )
        else:
            raise ValueError(f"unknown test: {test_name}")


class AmigoControlServer:
    """Coordinates endpoints: collects status pings, distributes plans."""

    def __init__(
        self,
        resources: TestbedResources,
        factory: SessionFactory,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.resources = resources
        self.factory = factory
        self.chaos = chaos
        self._endpoints: List[MeasurementEndpoint] = []
        self.status_log: List[DeviceStatus] = []

    def register_endpoint(
        self, deployment: CountryDeployment, rng: random.Random
    ) -> MeasurementEndpoint:
        endpoint = MeasurementEndpoint(deployment, self.resources, self.factory, rng)
        self._endpoints.append(endpoint)
        return endpoint

    @property
    def endpoints(self) -> List[MeasurementEndpoint]:
        return list(self._endpoints)

    def run_campaign(self, plans: Dict[str, TestPlan]) -> MeasurementDataset:
        """Run every endpoint's plan, spread over its deployment days.

        ``plans`` maps country ISO3 to the total per-test counts; counts
        are split evenly across the deployment's days (remainder lands on
        the earliest days, like a cron-driven battery does). The result's
        ``health`` carries the degradation accounting — full completion
        and no incidents unless the server was built with a chaos config.
        """
        dataset = MeasurementDataset()
        health = dataset.health
        config = self.chaos if self.chaos is not None else ChaosConfig()
        for endpoint in self._endpoints:
            country = endpoint.deployment.country_iso3
            if country not in plans:
                label = f"{country}:{endpoint.device.imei}"
                logger.warning(
                    "endpoint %s registered but its country has no plan; skipping",
                    label,
                )
                health.skipped_endpoints.append(label)
                continue
            plan = plans[country]
            for test, (sim_count, esim_count) in plan.items():
                health.cell(country, test).planned += sim_count + esim_count
            with obs.span(
                "campaign.endpoint", country=country, imei=endpoint.device.imei,
            ):
                self._run_endpoint(endpoint, plan, config, dataset, health)
        return dataset

    def _run_endpoint(
        self,
        endpoint: MeasurementEndpoint,
        plan: TestPlan,
        config: ChaosConfig,
        dataset: MeasurementDataset,
        health: CampaignHealth,
    ) -> None:
        """One endpoint's deployment: churn/quarantine skip days, failures
        roll forward onto later days, and make-up days drain the backlog
        at the end."""
        country = endpoint.deployment.country_iso3
        chaos = _EndpointChaos.build(config, endpoint)
        days = endpoint.deployment.duration_days
        backlog: Backlog = {}
        offline_until = -1
        for day in range(days + config.max_makeup_days):
            makeup = day >= days
            if makeup and not _backlog_total(backlog):
                break
            if day <= offline_until or chaos.breaker.is_quarantined(day):
                health.offline_days += 1
                if not makeup:
                    _defer_day(plan, day, days, backlog)
                continue
            churn = chaos.plan.churn_days(day)
            if churn:
                offline_until = day + churn - 1
                health.offline_days += 1
                logger.info(
                    "%s day %d: endpoint went dark for %d day(s)",
                    country, day, churn,
                )
                if not makeup:
                    _defer_day(plan, day, days, backlog)
                continue
            self.status_log.append(endpoint.report_status(day))
            todays = _daily_share(plan, day, days) if not makeup else {}
            todays = _merge_backlog(todays, backlog)
            if makeup:
                health.makeup_days += 1
            if todays:
                dataset.merge(
                    endpoint.run_battery(
                        todays, day, chaos=chaos, health=health,
                        backlog=backlog, makeup=makeup,
                    )
                )
        for test, (sim_count, esim_count) in sorted(
            (t, tuple(c)) for t, c in backlog.items()
        ):
            dropped = sim_count + esim_count
            if dropped:
                health.cell(country, test).dropped += dropped
                logger.info(
                    "%s: dropping %d %s run(s) after the make-up window",
                    country, dropped, test,
                )


def _share(total: int, day: int, days: int) -> int:
    """Even split of ``total`` runs across ``days``, remainder first."""
    base, remainder = divmod(total, days)
    return base + (1 if day < remainder else 0)


def _daily_share(plan: TestPlan, day: int, days: int) -> TestPlan:
    """One day's slice of the plan, dropping empty entries."""
    daily = {
        test: (_share(sim_count, day, days), _share(esim_count, day, days))
        for test, (sim_count, esim_count) in plan.items()
    }
    return {t: c for t, c in daily.items() if c != (0, 0)}


def _backlog_total(backlog: Backlog) -> int:
    return sum(sim_count + esim_count for sim_count, esim_count in backlog.values())


def _push_backlog(backlog: Backlog, test: str, use_esim: bool, count: int) -> None:
    entry = backlog.setdefault(test, [0, 0])
    entry[1 if use_esim else 0] += count


def _defer_day(plan: TestPlan, day: int, days: int, backlog: Backlog) -> None:
    """Roll a missed day's share forward onto the backlog."""
    for test, (sim_count, esim_count) in _daily_share(plan, day, days).items():
        entry = backlog.setdefault(test, [0, 0])
        entry[0] += sim_count
        entry[1] += esim_count


def _merge_backlog(todays: TestPlan, backlog: Backlog) -> TestPlan:
    """Today's share plus everything owed; consumes the backlog."""
    merged = {test: list(counts) for test, counts in todays.items()}
    for test, (sim_count, esim_count) in backlog.items():
        entry = merged.setdefault(test, [0, 0])
        entry[0] += sim_count
        entry[1] += esim_count
    backlog.clear()
    return {
        test: (sim_count, esim_count)
        for test, (sim_count, esim_count) in merged.items()
        if (sim_count, esim_count) != (0, 0)
    }
