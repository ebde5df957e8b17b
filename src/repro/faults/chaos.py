"""Seeded, deterministic fault injection for the measurement campaigns.

The paper's campaigns ran on volunteers' pockets, not in a lab: rooted
phones lost attach with 3GPP cause codes, SIM flips wedged PDP contexts,
PGWs and speedtest servers had transient outages, batteries died,
volunteers went dark for days, and web uploads arrived unreadable. This
module reproduces that weather deterministically: a :class:`ChaosConfig`
fixes per-kind rates and a seed, and each campaign builds one
:class:`FaultPlan` per scope (one endpoint, one volunteer), each with a
dedicated ``random.Random`` stream — separate from the measurement RNG,
so enabling chaos perturbs *what happens*, not *what a successful
measurement reads*. A campaign without chaos runs the same resilient
driver with ``ChaosConfig()``, whose rates are all zero: its plans draw
nothing and inject nothing.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.faults.retry import BackoffPolicy

#: 3GPP TS 24.301 EMM cause codes for the injected attach rejects.
ATTACH_REJECT_CAUSES: Dict[int, str] = {
    11: "PLMN not allowed",
    15: "No suitable cells in tracking area",
    17: "Network failure",
    19: "ESM failure",
    22: "Congestion",
    111: "Protocol error, unspecified",
}


class FaultKind(enum.Enum):
    """Everything that went wrong in the field (§3.1-3.2)."""

    ATTACH_REJECT = "attach-reject"
    SIM_FLIP = "sim-flip"
    SERVICE_OUTAGE = "service-outage"
    PROBE_TIMEOUT = "probe-timeout"
    ENDPOINT_CHURN = "endpoint-churn"
    MALFORMED_UPLOAD = "malformed-upload"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for observability and post-mortems."""

    kind: FaultKind
    scope: str
    day: int
    detail: str = ""


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates and resilience knobs for one campaign run.

    Immutable and hashable so it can key the experiment-layer dataset
    cache. ``enabled=False``, like all-zero rates, short-circuits every
    injection point: the campaign is byte-identical to a clean run.
    """

    enabled: bool = True
    seed: int = 0
    # -- fault rates (per attempt / per day) --------------------------------
    attach_reject_rate: float = 0.0
    sim_flip_failure_rate: float = 0.0
    service_outage_rate: float = 0.0
    probe_timeout_rate: float = 0.0
    churn_rate_per_day: float = 0.0
    churn_offline_days: Tuple[int, int] = (1, 3)
    malformed_upload_rate: float = 0.0
    # -- resilience knobs ---------------------------------------------------
    max_attach_attempts: int = 4
    max_test_attempts: int = 3
    breaker_threshold: int = 5
    quarantine_days: int = 2
    max_makeup_days: int = 7
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 60.0
    backoff_jitter: float = 0.1

    def __post_init__(self) -> None:
        for name in (
            "attach_reject_rate", "sim_flip_failure_rate", "service_outage_rate",
            "probe_timeout_rate", "churn_rate_per_day", "malformed_upload_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_attach_attempts < 1 or self.max_test_attempts < 1:
            raise ValueError("retry budgets must allow at least one attempt")
        if self.max_makeup_days < 0:
            raise ValueError(
                f"max_makeup_days must be >= 0, got {self.max_makeup_days}"
            )
        lo, hi = self.churn_offline_days
        if not 1 <= lo <= hi:
            raise ValueError("churn_offline_days must be an increasing pair >= 1")
        # Validate the backoff knobs eagerly (BackoffPolicy raises on bad ones).
        self.backoff  # noqa: B018

    @property
    def backoff(self) -> BackoffPolicy:
        return BackoffPolicy(
            base_s=self.backoff_base_s,
            factor=self.backoff_factor,
            cap_s=self.backoff_cap_s,
            jitter=self.backoff_jitter,
        )

    @classmethod
    def disabled(cls) -> "ChaosConfig":
        """The default: a fairy-tale world where nothing ever fails."""
        return cls(enabled=False)

    @classmethod
    def paper_plausible(cls, seed: int = 0) -> "ChaosConfig":
        """Fault rates at the magnitude the field campaigns experienced:
        ~5% attach rejects, ~2%/day endpoint churn, a few percent of
        transient service faults, and a visible share of bad uploads."""
        return cls(
            enabled=True,
            seed=seed,
            attach_reject_rate=0.05,
            sim_flip_failure_rate=0.02,
            service_outage_rate=0.02,
            probe_timeout_rate=0.03,
            churn_rate_per_day=0.02,
            malformed_upload_rate=0.08,
        )


class FaultPlan:
    """The deterministic fault stream for one scope (endpoint/volunteer).

    All draws come from a private ``random.Random`` seeded from the
    config seed and the scope name, so the same (config, scope) pair
    always yields the same weather regardless of what the measurements
    themselves draw.
    """

    def __init__(self, config: ChaosConfig, scope: str) -> None:
        self.config = config
        self.scope = scope
        self._rng = random.Random(f"chaos:{config.seed}:{scope}")

    def _roll(self, rate: float) -> bool:
        return rate > 0.0 and self._rng.random() < rate

    def _note(self, kind: FaultKind, day: int, detail: str = "") -> FaultEvent:
        event = FaultEvent(kind=kind, scope=self.scope, day=day, detail=detail)
        obs.event(f"fault.{kind.value}", scope=self.scope, day=day, detail=detail)
        return event

    # -- injection points ---------------------------------------------------

    def attach_fault(self, day: int) -> Optional[FaultEvent]:
        """A fault for one attach attempt, or None if it goes through."""
        if not self.config.enabled:
            return None
        if self._roll(self.config.attach_reject_rate):
            code = self._rng.choice(sorted(ATTACH_REJECT_CAUSES))
            return self._note(
                FaultKind.ATTACH_REJECT, day,
                f"EMM cause #{code} ({ATTACH_REJECT_CAUSES[code]})",
            )
        if self._roll(self.config.sim_flip_failure_rate):
            return self._note(FaultKind.SIM_FLIP, day, "PDP context wedged by SIM flip")
        return None

    def test_fault(self, test_name: str, day: int) -> Optional[FaultEvent]:
        """A fault for one test-run attempt, or None if it executes."""
        if not self.config.enabled:
            return None
        if self._roll(self.config.service_outage_rate):
            return self._note(FaultKind.SERVICE_OUTAGE, day, test_name)
        if self._roll(self.config.probe_timeout_rate):
            return self._note(FaultKind.PROBE_TIMEOUT, day, test_name)
        return None

    def churn_days(self, day: int) -> int:
        """Days the endpoint goes dark starting today (0 = stays up)."""
        if not self.config.enabled or not self._roll(self.config.churn_rate_per_day):
            return 0
        lo, hi = self.config.churn_offline_days
        offline = self._rng.randint(lo, hi)
        self._note(FaultKind.ENDPOINT_CHURN, day, f"offline {offline}d")
        return offline

    def upload_malformed(self, day: int) -> bool:
        """Whether this web upload arrives unreadable."""
        if not self.config.enabled or not self._roll(self.config.malformed_upload_rate):
            return False
        self._note(FaultKind.MALFORMED_UPLOAD, day)
        return True

    def backoff_delay_s(self, attempt: int) -> float:
        """Simulated backoff before retry ``attempt`` (accounted, not slept)."""
        delay = self.config.backoff.delay_s(attempt, self._rng)
        obs.event(
            "retry.backoff", scope=self.scope, attempt=attempt,
            delay_s=round(delay, 6),
        )
        return delay

