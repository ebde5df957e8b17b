"""Execution-layer chaos: seeded faults for the runner itself.

:mod:`repro.faults.chaos` injects weather *inside* the simulated
campaigns; this module injects it *around* them — the failure modes a
four-month crawler deployment actually dies of: worker processes
killed by the OOM-killer or a signal, artefacts that hang forever on a
wedged resource, and cache entries half-written by a crashed peer.

An :class:`ExecChaos` config drives deterministic injection hooks
inside the runner's worker entry point
(``repro.core.runner._run_artefact``; the runner's default,
``None``, injects nothing): every decision is a pure
function of ``(seed, artefact id, attempt index)``, so a chaotic run is
exactly replayable and — because injection stops once an artefact has
burned :attr:`ExecChaos.max_faulty_attempts` attempts — a supervised
runner with a retry budget always converges. The artefact *bytes* are
never touched: chaos perturbs how often work must be redone, not what
the work computes.
"""

from __future__ import annotations

import os
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro import obs

#: Exit status an injected worker crash dies with (visible in logs;
#: anything non-zero breaks the pool the same way).
CRASH_EXIT_CODE = 87


class InjectedWorkerCrash(RuntimeError):
    """A simulated worker death on the in-process (``jobs=1``) path.

    Pool workers die for real (``os._exit``); at ``jobs=1`` the attempt
    runs in the parent, which cannot, so the injection hook raises this
    instead. The runner's inline pool hands it back as the attempt's
    failed future, and the supervision loop treats it exactly like a
    lost worker: charge an attempt, back off, retry.
    """


@dataclass(frozen=True)
class ExecChaos:
    """Seeded fault rates for the execution layer.

    Immutable and picklable so it ships through the process-pool
    initializer unchanged. No config (``None``) is off; ``ExecChaos()``
    has every rate at zero and no hang artefacts, so it never fires
    either.
    """

    seed: int = 0
    #: Probability a worker dies mid-artefact (per faulty attempt).
    worker_crash_rate: float = 0.0
    #: Artefact ids that hang on their faulty attempts (watchdog bait).
    hang_artefacts: Tuple[str, ...] = ()
    #: How long an injected hang sleeps before giving up on its own.
    hang_s: float = 3600.0
    #: Probability one persistent cache entry is scribbled over before
    #: the artefact runs (exercises corruption-tolerant loads).
    cache_corrupt_rate: float = 0.0
    #: Injection fires only on attempt indexes below this bound, so a
    #: bounded retry budget always converges to a clean attempt.
    max_faulty_attempts: int = 1

    def __post_init__(self) -> None:
        for name in ("worker_crash_rate", "cache_corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not self.hang_s > 0:  # also refuses NaN
            raise ValueError(f"hang_s must be positive, got {self.hang_s:g}")
        if self.max_faulty_attempts < 1:
            raise ValueError("max_faulty_attempts must be >= 1")

    # -- deterministic decisions --------------------------------------------

    def _roll(self, what: str, artefact_id: str, attempt: int, rate: float) -> bool:
        if rate <= 0.0 or attempt >= self.max_faulty_attempts:
            return False
        rng = random.Random(f"execchaos:{self.seed}:{what}:{artefact_id}:{attempt}")
        return rng.random() < rate

    def should_crash(self, artefact_id: str, attempt: int) -> bool:
        """Whether the worker running this attempt dies."""
        return self._roll("crash", artefact_id, attempt, self.worker_crash_rate)

    def should_hang(self, artefact_id: str, attempt: int) -> bool:
        """Whether this attempt wedges until the watchdog kills it."""
        return attempt < self.max_faulty_attempts and artefact_id in self.hang_artefacts

    def should_corrupt_cache(self, artefact_id: str, attempt: int) -> bool:
        """Whether one cache entry is corrupted before this attempt."""
        return self._roll("corrupt", artefact_id, attempt, self.cache_corrupt_rate)

    def cache_victim_rng(self, artefact_id: str, attempt: int) -> random.Random:
        """The stream that picks which cache entry gets scribbled over."""
        return random.Random(f"execchaos:{self.seed}:victim:{artefact_id}:{attempt}")


def corrupt_one_cache_entry(
    root: Union[str, pathlib.Path], rng: random.Random
) -> Optional[pathlib.Path]:
    """Scribble garbage over one ``.pkl`` entry under ``root``.

    Returns the victim path (None when the cache is empty). The next
    load of that entry is a corrupt-tolerant miss: the worker rebuilds
    the input deterministically, so results never change — only the
    wall clock does.
    """
    root = pathlib.Path(root)
    entries = sorted(root.glob("*.pkl")) if root.is_dir() else []
    if not entries:
        return None
    victim = entries[rng.randrange(len(entries))]
    try:
        with victim.open("r+b") as handle:
            handle.write(b"\x00execchaos\x00")
    except OSError:
        return None
    return victim


def inject(
    chaos: Optional[ExecChaos],
    artefact_id: str,
    attempt: int,
    cache_root: Union[str, pathlib.Path],
    in_subprocess: bool,
) -> None:
    """The runner's pre-artefact hook: corrupt, hang, then maybe die.

    Called at the top of ``_run_artefact`` with the worker's view of
    the world. A crash is a real ``os._exit`` in a pool worker (the
    parent sees ``BrokenProcessPool``) and an :class:`InjectedWorkerCrash`
    at ``jobs=1`` (the inline pool hands it to the supervision loop).
    """
    if chaos is None:
        return
    if chaos.should_corrupt_cache(artefact_id, attempt):
        victim = corrupt_one_cache_entry(
            cache_root, chaos.cache_victim_rng(artefact_id, attempt)
        )
        obs.event(
            "execchaos.cache_corrupt", artefact=artefact_id, attempt=attempt,
            victim=victim.name if victim is not None else "",
        )
    if chaos.should_hang(artefact_id, attempt):
        obs.event(
            "execchaos.hang", artefact=artefact_id, attempt=attempt,
            hang_s=chaos.hang_s,
        )
        time.sleep(chaos.hang_s)
    if chaos.should_crash(artefact_id, attempt):
        obs.event("execchaos.crash", artefact=artefact_id, attempt=attempt)
        if in_subprocess:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedWorkerCrash(
            f"injected worker crash for {artefact_id} (attempt {attempt})"
        )
