"""Speedtest server fleets (Ookla-like, fast.com-like).

Ookla picks a server near the client's *IP geolocation* — which for
roaming eSIMs is the PGW's location, not the user's. Figure 11c plots
exactly that: latency from the device to the Ookla server nearest the
PGW. Bandwidth results reflect the v-MNO policy shaped by radio quality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.cellular.core import PDNSession
from repro.cellular.mno import BandwidthPolicy
from repro.cellular.radio import RadioConditions
from repro.geo.coords import GeoPoint
from repro.net.ipv4 import IPAddress
from repro.services.fabric import ServiceFabric
from repro.services.providers import ServerSite, SiteFleet


@dataclass(frozen=True)
class SpeedtestServer:
    """One test server of a fleet."""

    site: ServerSite
    sponsor: str = ""

    @property
    def location(self) -> GeoPoint:
        return self.site.location

    @property
    def ip(self) -> IPAddress:
        return self.site.ip


@dataclass(frozen=True)
class SpeedtestResult:
    """What the CLI / web client reports after a run."""

    fleet: str
    server: SpeedtestServer
    latency_ms: float
    download_mbps: float
    upload_mbps: float


@dataclass
class SpeedtestFleet(SiteFleet):
    """A speedtest service with geographically spread servers."""

    name: str
    servers: Sequence[SpeedtestServer]

    def __post_init__(self) -> None:
        self.servers = tuple(self.servers)
        if not self.servers:
            raise ValueError(f"fleet {self.name} needs at least one server")

    def nearest_server(self, client_ip_location: GeoPoint) -> SpeedtestServer:
        """Server selection by the client's IP geolocation."""
        return self._ranked(self.servers, client_ip_location)[0]

    def run(
        self,
        session: PDNSession,
        fabric: ServiceFabric,
        policy: BandwidthPolicy,
        conditions: RadioConditions,
        rng: random.Random,
        uplink_asymmetry: float = 1.0,
    ) -> SpeedtestResult:
        """One full test: latency + down/up against the nearest server.

        ``policy`` is the v-MNO's shaper for this traffic class;
        ``uplink_asymmetry`` scales the upload result for corridors where
        v-MNOs throttle roamers' uplink specifically (Pakistan, Georgia).
        """
        if uplink_asymmetry <= 0:
            raise ValueError("uplink_asymmetry must be positive")
        server = self.nearest_server(session.pgw_site.location)
        latency = fabric.session_rtt_ms(session, server.location, conditions, rng)

        roaming = session.is_roaming
        down = fabric.radio.throughput_mbps(policy.downlink_for(roaming), conditions, rng)
        up = fabric.radio.throughput_mbps(policy.uplink_for(roaming), conditions, rng)
        up *= uplink_asymmetry

        return SpeedtestResult(
            fleet=self.name,
            server=server,
            latency_ms=latency,
            download_mbps=down,
            upload_mbps=up,
        )
