"""Signalling-plane model.

Figure 5b shows Airalo users generating *more* signalling than native
subscribers — problematic for the v-MNO because roaming signalling is
not charged. This module models the control-plane events behind that
observation mechanistically: attaches, tracking-area updates, service
requests, paging, and the authentication round-trips a roamer's visited
MME performs against the home HSS over the IPX.

Airalo devices are travellers' phones: they move more (more TAUs), they
camp on an unfamiliar network (more reselections and registration
retries), and every authentication crosses the IPX to the b-MNO — which
is exactly why their signalling volume ends up *above* the native
baseline even though their data usage looks native.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple


class SignallingEvent(enum.Enum):
    """Control-plane transaction types a core network logs."""

    ATTACH = "attach"
    DETACH = "detach"
    TRACKING_AREA_UPDATE = "tau"
    SERVICE_REQUEST = "service-request"
    PAGING = "paging"
    AUTHENTICATION = "authentication"
    HANDOVER = "handover"


#: Approximate control-plane bytes per transaction (both directions,
#: NAS + S1AP + home-network legs where applicable), in KB.
EVENT_SIZE_KB: Dict[SignallingEvent, float] = {
    SignallingEvent.ATTACH: 3.2,
    SignallingEvent.DETACH: 0.8,
    SignallingEvent.TRACKING_AREA_UPDATE: 1.4,
    SignallingEvent.SERVICE_REQUEST: 0.6,
    SignallingEvent.PAGING: 0.4,
    SignallingEvent.AUTHENTICATION: 1.8,
    SignallingEvent.HANDOVER: 1.1,
}


@dataclass(frozen=True)
class SignallingProfile:
    """Mean daily event rates for one subscriber class."""

    name: str
    daily_rates: Mapping[SignallingEvent, float]
    #: ``(event, exp(-rate), size in KB)`` per event, in ``daily_rates``
    #: order, computed once: the samplers run once per subscriber-day.
    #: A zero rate has no threshold (``None``) and draws nothing.
    _draws: Tuple[Tuple[SignallingEvent, Optional[float], float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.daily_rates:
            raise ValueError("profile needs at least one event rate")
        if any(rate < 0 for rate in self.daily_rates.values()):
            raise ValueError("event rates cannot be negative")
        object.__setattr__(self, "_draws", tuple(
            (event, math.exp(-rate) if rate > 0 else None, EVENT_SIZE_KB[event])
            for event, rate in self.daily_rates.items()
        ))

    def expected_daily_kb(self) -> float:
        """Mean signalling volume per subscriber-day."""
        return sum(
            rate * EVENT_SIZE_KB[event] for event, rate in self.daily_rates.items()
        )

    def sample_daily_kb(self, rng: random.Random) -> float:
        """One subscriber-day: Poisson event counts times sizes."""
        draw = rng.random
        total = 0.0
        for _event, threshold, size in self._draws:
            total += _poisson(threshold, draw) * size
        return total

    def sample_event_counts(self, rng: random.Random) -> Dict[SignallingEvent, int]:
        draw = rng.random
        return {
            event: _poisson(threshold, draw) for event, threshold, _size in self._draws
        }


def _poisson(threshold: Optional[float], draw: Callable[[], float]) -> int:
    """Knuth's Poisson sampler (rates here are small).

    ``threshold`` is ``exp(-rate)``, or ``None`` for a zero rate, which
    draws nothing; ``draw`` is a bound ``random.Random.random``.
    """
    if threshold is None:
        return 0
    count = 0
    product = draw()
    while product > threshold:
        count += 1
        product *= draw()
    return count


#: A stationary native subscriber: few attaches, moderate mobility.
NATIVE_PROFILE = SignallingProfile(
    "native",
    {
        SignallingEvent.ATTACH: 2.0,
        SignallingEvent.DETACH: 2.0,
        SignallingEvent.TRACKING_AREA_UPDATE: 8.0,
        SignallingEvent.SERVICE_REQUEST: 60.0,
        SignallingEvent.PAGING: 40.0,
        SignallingEvent.AUTHENTICATION: 3.0,
        SignallingEvent.HANDOVER: 6.0,
    },
)

#: An Airalo traveller on the same v-MNO: more mobility (sightseeing),
#: every authentication crossing the IPX to the b-MNO, periodic-TAU
#: timers tuned for roamers, and registration retries on reselection.
AIRALO_PROFILE = SignallingProfile(
    "airalo",
    {
        SignallingEvent.ATTACH: 3.5,
        SignallingEvent.DETACH: 3.5,
        SignallingEvent.TRACKING_AREA_UPDATE: 16.0,
        SignallingEvent.SERVICE_REQUEST: 62.0,
        SignallingEvent.PAGING: 38.0,
        SignallingEvent.AUTHENTICATION: 8.0,
        SignallingEvent.HANDOVER: 10.0,
    },
)

#: A generic Play-Poland roamer observed by ONE of several v-MNOs: their
#: activity is split across networks, so this network sees less of it.
ROAMER_PROFILE = SignallingProfile(
    "play-roamer",
    {
        SignallingEvent.ATTACH: 1.5,
        SignallingEvent.DETACH: 1.5,
        SignallingEvent.TRACKING_AREA_UPDATE: 5.0,
        SignallingEvent.SERVICE_REQUEST: 22.0,
        SignallingEvent.PAGING: 14.0,
        SignallingEvent.AUTHENTICATION: 3.0,
        SignallingEvent.HANDOVER: 4.0,
    },
)
