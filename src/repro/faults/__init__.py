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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ATTACH_REJECT_CAUSES": "chaos",
    "BackoffPolicy": "retry",
    "ChaosConfig": "chaos",
    "CircuitBreaker": "retry",
    "ExecChaos": "execchaos",
    "FaultEvent": "chaos",
    "FaultKind": "chaos",
    "FaultPlan": "chaos",
    "InjectedWorkerCrash": "execchaos",
})
