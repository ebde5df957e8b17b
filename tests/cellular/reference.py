"""The per-draw samplers: the reference the hoisted ones are checked against.

``SignallingProfile`` computes each event's ``exp(-rate)`` and size once,
``CoreTelemetryGenerator.generate`` looks its population attributes up
once per population, and ``NetworkSelector`` resolves a ``(b-MNO,
country, pinned)`` once. This module keeps the straightforward loops
they replaced, which redo that work for every draw.
``test_signalling.py`` and ``test_steering.py`` require equal values,
equal records and an equal RNG state afterwards.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from repro.cellular.signalling import EVENT_SIZE_KB, SignallingEvent, SignallingProfile
from repro.cellular.steering import NetworkSelector
from repro.cellular.telemetry import CoreTelemetryGenerator, UsageRecord


def poisson(rate: float, rng: random.Random) -> int:
    """Knuth's Poisson sampler, with its threshold computed per call."""
    if rate <= 0:
        return 0
    threshold = math.exp(-rate)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def sample_daily_kb(profile: SignallingProfile, rng: random.Random) -> float:
    total = 0.0
    for event, rate in profile.daily_rates.items():
        total += poisson(rate, rng) * EVENT_SIZE_KB[event]
    return total


def sample_event_counts(
    profile: SignallingProfile, rng: random.Random
) -> Dict[SignallingEvent, int]:
    return {event: poisson(rate, rng) for event, rate in profile.daily_rates.items()}


class ReferenceTelemetryGenerator(CoreTelemetryGenerator):
    """``generate`` with every population attribute read per record."""

    def generate(self, days: int) -> List[UsageRecord]:
        if days < 1:
            raise ValueError("need at least one day")
        records: List[UsageRecord] = []
        for population, ranges in self._populations:
            imsis = self._draw_imsis(population.subscriber_count, ranges)
            for imsi in imsis:
                user_bias = self._rng.gauss(0.0, 0.3)
                for day in range(days):
                    data = self._lognormal(
                        population.data_mu + user_bias, population.data_sigma
                    )
                    if population.signalling_profile is not None:
                        signalling = sample_daily_kb(
                            population.signalling_profile, self._rng
                        ) * math.exp(0.3 * user_bias)
                    else:
                        signalling = self._lognormal(
                            population.signalling_mu + 0.5 * user_bias,
                            population.signalling_sigma,
                        )
                    records.append(
                        UsageRecord(
                            imsi=imsi,
                            population=population.name,
                            day=day,
                            data_mb=data,
                            signalling_kb=signalling,
                        )
                    )
        return records

    def _lognormal(self, mu: float, sigma: float) -> float:
        return math.exp(self._rng.gauss(mu, sigma))


class ReferenceSelector(NetworkSelector):
    """``select`` resolving options, names and policy on every attach."""

    def select(
        self,
        b_mno_name: str,
        country_iso3: str,
        rng: random.Random,
        pinned_operator: Optional[str] = None,
    ) -> str:
        country = country_iso3.upper()
        options = self.options_in(country)
        names = [option.operator_name for option in options]
        if pinned_operator is not None:
            if pinned_operator in names:
                return pinned_operator
            raise ValueError(f"{pinned_operator} does not operate in {country}")

        policy = self._policies.get((b_mno_name, country))
        if policy is not None and rng.random() < policy.compliance:
            for preference in policy.preferred:
                if preference in names:
                    return preference
        threshold = rng.random()
        cumulative = 0.0
        for option in options:
            cumulative += option.coverage_share
            if threshold < cumulative:
                return option.operator_name
        return options[-1].operator_name

    def attach_distribution(
        self,
        b_mno_name: str,
        country_iso3: str,
        rng: random.Random,
        samples: int = 10_000,
        pinned_operator: Optional[str] = None,
    ) -> Dict[str, float]:
        if samples < 1:
            raise ValueError("need at least one sample")
        counts: Dict[str, int] = {}
        for _ in range(samples):
            name = self.select(b_mno_name, country_iso3, rng, pinned_operator)
            counts[name] = counts.get(name, 0) + 1
        return {name: count / samples for name, count in sorted(counts.items())}
