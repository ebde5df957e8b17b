"""Fault-injection substrate.

Deterministic chaos for the measurement campaigns: a seeded
:class:`FaultPlan` per endpoint or volunteer, driven by a
:class:`ChaosConfig`, plus the resilience primitives
(:class:`BackoffPolicy`, :class:`CircuitBreaker`) the campaign drivers
wrap around it. The drivers always run resilient; without chaos their
config is ``ChaosConfig()``, whose rates are all zero.
:class:`ExecChaos` extends the same discipline to the execution layer
itself — seeded worker crashes, hangs and cache corruption for the
study runner's supervision loop (see :mod:`repro.faults.execchaos`).
"""

from repro.faults.chaos import (
    ATTACH_REJECT_CAUSES,
    ChaosConfig,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.faults.execchaos import ExecChaos, InjectedWorkerCrash
from repro.faults.retry import BackoffPolicy, CircuitBreaker

__all__ = [
    "ATTACH_REJECT_CAUSES",
    "BackoffPolicy",
    "ChaosConfig",
    "CircuitBreaker",
    "ExecChaos",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "InjectedWorkerCrash",
]
