"""Campaign dataset: the typed store all probes append to.

One object holds every record of a campaign; the analysis layer slices it
by country / SIM kind / architecture / target, which is how each figure
of the paper selects its series. Slicing goes through the indexed query
layer (:mod:`repro.measure.query`)::

    dataset.select("speedtest").where(country="JPN").group_by("architecture")

Every call site shares one set of per-dimension hash tables, built
lazily per dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cellular.esim import SIMKind
from repro.measure import query as query_mod
from repro.measure.records import (
    CampaignHealth,
    CDNRecord,
    DNSRecord,
    SpeedtestRecord,
    TracerouteRecord,
    VideoRecord,
    WebMeasurementRecord,
)


@dataclass
class MeasurementDataset:
    """All records collected by a campaign."""

    traceroutes: List[TracerouteRecord] = field(default_factory=list)
    speedtests: List[SpeedtestRecord] = field(default_factory=list)
    cdn_fetches: List[CDNRecord] = field(default_factory=list)
    dns_probes: List[DNSRecord] = field(default_factory=list)
    video_probes: List[VideoRecord] = field(default_factory=list)
    web_measurements: List[WebMeasurementRecord] = field(default_factory=list)
    #: Degradation accounting: attempted/succeeded/retried/dropped per
    #: (country, test kind), quarantines, skipped endpoints.
    health: CampaignHealth = field(default_factory=CampaignHealth)

    # -- the query layer ------------------------------------------------------

    @property
    def index(self) -> query_mod.DatasetIndex:
        """The lazily-built per-dimension index cache (one per dataset)."""
        cache = self.__dict__.get("_index_cache")
        if cache is None:
            cache = query_mod.DatasetIndex(self)
            self.__dict__["_index_cache"] = cache
        return cache

    def select(self, kind: str) -> query_mod.RecordQuery:
        """Start an indexed query over one record kind.

        ``kind`` is one of ``traceroute``, ``speedtest``, ``cdn``,
        ``dns``, ``video``, ``web`` (see :data:`repro.measure.query.KIND_FIELDS`).
        """
        return query_mod.select(self, kind)

    def invalidate_indexes(self) -> None:
        """Drop every cached index (after mutating record lists in place)."""
        cache = self.__dict__.get("_index_cache")
        if cache is not None:
            cache.invalidate()

    def __getstate__(self) -> Dict[str, Any]:
        # Indexes are derived data: dropping them keeps pickled campaign
        # bytes identical whether or not the dataset was ever queried,
        # which the content-addressed artifact cache relies on.
        state = dict(self.__dict__)
        state.pop("_index_cache", None)
        return state

    def merge(self, other: "MeasurementDataset") -> None:
        """Append every record of ``other`` into this dataset."""
        self.traceroutes.extend(other.traceroutes)
        self.speedtests.extend(other.speedtests)
        self.cdn_fetches.extend(other.cdn_fetches)
        self.dns_probes.extend(other.dns_probes)
        self.video_probes.extend(other.video_probes)
        self.web_measurements.extend(other.web_measurements)
        self.health.merge(other.health)
        self.invalidate_indexes()

    def total_records(self) -> int:
        return (
            len(self.traceroutes)
            + len(self.speedtests)
            + len(self.cdn_fetches)
            + len(self.dns_probes)
            + len(self.video_probes)
            + len(self.web_measurements)
        )

    # -- common slices --------------------------------------------------------

    def countries(self) -> List[str]:
        """Countries present in the dataset, sorted."""
        seen = set()
        for kind in query_mod.KIND_FIELDS:
            seen.update(self.select(kind).values("country"))
        return sorted(seen)

    def traceroutes_to(
        self,
        target: str,
        country: Optional[str] = None,
        sim_kind: Optional[SIMKind] = None,
    ) -> List[TracerouteRecord]:
        return self.select("traceroute").where(
            target=target, country=country, sim_kind=sim_kind
        ).records()
