"""v-MNO core-network telemetry.

Reproduces the collaboration with the UK operator (Section 4.2, Figure 5):
the v-MNO core logs per-IMSI data and signalling volumes, Airalo users are
indistinguishable from Play-Poland inbound roamers at the subscription
level, and only IMSI-range pattern matching separates them. This module
generates the three subscriber populations and implements the detector.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.cellular.identifiers import IMSI, IMSIRange, PLMN, infer_imsi_prefixes
from repro.cellular.signalling import SignallingProfile


@dataclass(frozen=True)
class SubscriberPopulation:
    """A group of subscribers with daily usage behaviour.

    ``data_mu``/``data_sigma`` parameterise daily data volume (log of MB).
    Signalling is either lognormal (``signalling_mu``/``signalling_sigma``)
    or, when a ``signalling_profile`` is supplied, generated
    mechanistically from control-plane event rates
    (:mod:`repro.cellular.signalling`). Figure 5 compares exactly these
    two dimensions.
    """

    name: str
    subscriber_count: int
    data_mu: float
    data_sigma: float
    signalling_mu: float
    signalling_sigma: float
    signalling_profile: Optional[SignallingProfile] = None

    def __post_init__(self) -> None:
        if self.subscriber_count < 1:
            raise ValueError("population needs at least one subscriber")
        if self.data_sigma < 0 or self.signalling_sigma < 0:
            raise ValueError("sigmas cannot be negative")


@dataclass(frozen=True)
class UsageRecord:
    """One subscriber-day as logged by the v-MNO core."""

    imsi: IMSI
    population: str
    day: int
    data_mb: float
    signalling_kb: float


class CoreTelemetryGenerator:
    """Generates per-IMSI daily usage for configured populations.

    Each population draws its IMSIs from a dedicated range (native users
    from the v-MNO's PLMN, roamers from the b-MNO's, Airalo users from
    the narrow rented sub-ranges) so the detector has a realistic target.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._populations: List[Tuple[SubscriberPopulation, List[IMSIRange]]] = []

    def add_population(
        self,
        population: SubscriberPopulation,
        imsi_ranges: Sequence[IMSIRange],
    ) -> None:
        if not imsi_ranges:
            raise ValueError("population needs at least one IMSI range")
        self._populations.append((population, list(imsi_ranges)))

    def generate(self, days: int) -> List[UsageRecord]:
        """All subscriber-day records for ``days`` days of observation."""
        if days < 1:
            raise ValueError("need at least one day")
        records: List[UsageRecord] = []
        append = records.append
        rng = self._rng
        gauss = rng.gauss
        exp = math.exp
        for population, ranges in self._populations:
            imsis = self._draw_imsis(population.subscriber_count, ranges)
            name = population.name
            profile = population.signalling_profile
            data_sigma = population.data_sigma
            signalling_sigma = population.signalling_sigma
            for imsi in imsis:
                # Per-subscriber offset: heavy users are heavy every day.
                user_bias = gauss(0.0, 0.3)
                data_mu = population.data_mu + user_bias
                signalling_mu = population.signalling_mu + 0.5 * user_bias
                signalling_scale = exp(0.3 * user_bias)
                for day in range(days):
                    data = exp(gauss(data_mu, data_sigma))
                    if profile is not None:
                        signalling = profile.sample_daily_kb(rng) * signalling_scale
                    else:
                        signalling = exp(gauss(signalling_mu, signalling_sigma))
                    append(UsageRecord(imsi, name, day, data, signalling))
        return records

    def _draw_imsis(self, count: int, ranges: Sequence[IMSIRange]) -> List[IMSI]:
        imsis: Set[IMSI] = set()
        attempts = 0
        while len(imsis) < count:
            imsi_range = self._rng.choice(list(ranges))
            imsis.add(imsi_range.sample(self._rng))
            attempts += 1
            if attempts > count * 100:
                raise RuntimeError("IMSI ranges too small for requested population")
        return sorted(imsis, key=lambda i: i.value)


def detect_airalo_imsis(
    observed_roamers: Iterable[IMSI],
    deployed_device_imsis: Sequence[IMSI],
    b_mno_plmn: PLMN,
    min_support: int = 2,
    prefix_floor: int = 8,
) -> Set[IMSI]:
    """The paper's detector: flag inbound roamers in Airalo's rented ranges.

    Starting from the IMSIs of the ten deployed devices (ground truth),
    mine their common prefixes, keep prefixes at least ``prefix_floor``
    digits long (a bare MCC/MNC match would flag *all* roamers of that
    b-MNO), and mark every observed roamer whose IMSI matches one.
    """
    mined = infer_imsi_prefixes(
        deployed_device_imsis, b_mno_plmn, min_support=min_support
    )
    prefixes = [prefix for prefix, _support in mined if len(prefix) >= prefix_floor]
    if not prefixes:
        return set()
    return {
        imsi
        for imsi in observed_roamers
        if any(imsi.value.startswith(prefix) for prefix in prefixes)
    }
