"""Session establishment.

The :class:`SessionFactory` wires a SIM, a visited network and the
roaming-agreement fabric into a concrete PDN session: architecture
resolution (native / HR / LBO / IHBO), PGW-site selection policy,
GTP-tunnel cost, private-path depth and the CG-NAT public IP binding.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.cellular.core import SGW, GTPTunnel, PDNSession, PGWSite, build_private_path
from repro.cellular.esim import SIMProfile
from repro.cellular.mno import MobileOperator, OperatorRegistry
from repro.cellular.roaming import (
    AgreementRegistry,
    PGWSelection,
    RoamingAgreement,
    RoamingArchitecture,
)
from repro.geo.cities import City
from repro.geo.coords import haversine_km
from repro.net.latency import LatencyModel

#: Stretch applied to in-country native paths (short, well-engineered).
_NATIVE_STRETCH = 1.4

GOOGLE_DNS_NAME = "Google DNS"


class AttachError(Exception):
    """Raised when a session cannot be established."""


class AttachReject(AttachError):
    """The network refused the attach with a 3GPP EMM cause code.

    The field campaign saw these regularly (congested cells, transient
    core failures); the fault injector replays them so the orchestration
    layer's retry path is exercised.
    """

    def __init__(self, message: str, cause_code: Optional[int] = None) -> None:
        super().__init__(message)
        self.cause_code = cause_code


class SessionFactory:
    """Builds PDN sessions against a world's operators and agreements."""

    def __init__(
        self,
        operators: OperatorRegistry,
        agreements: AgreementRegistry,
        pgw_sites: Dict[str, PGWSite],
        latency: LatencyModel,
        native_site_ids: Optional[Dict[str, str]] = None,
    ) -> None:
        """``native_site_ids`` maps operator name -> its own PGW site id
        (used for native attaches and as the HR target of its roamers)."""
        self.operators = operators
        self.agreements = agreements
        self.pgw_sites = pgw_sites
        self.latency = latency
        self.native_site_ids = dict(native_site_ids or {})
        self._session_counter = 0

    # -- public API ---------------------------------------------------------

    def attach(
        self,
        imei: str,
        sim: SIMProfile,
        v_mno_name: str,
        user_city: City,
        rng: random.Random,
        data_roaming_enabled: bool = True,
        doh_enabled: bool = True,
    ) -> PDNSession:
        """Establish a data session for ``sim`` camping on ``v_mno_name``.

        ``doh_enabled`` mirrors the Android default the paper *forgot* to
        disable: it only matters for sessions whose resolver supports DoH
        (the public anycast resolver used by IHBO breakouts).
        """
        v_mno = self.operators.get(v_mno_name)
        b_mno = self.operators.get(sim.issuer_mno_name)
        architecture, agreement = self._resolve_architecture(b_mno, v_mno)

        if architecture is not RoamingArchitecture.NATIVE and not data_roaming_enabled:
            raise AttachError(
                f"{sim.iccid} roams via {b_mno.name} but data roaming is disabled"
            )

        self._session_counter += 1
        session_id = f"pdn-{self._session_counter:06d}"
        sgw = SGW(operator_name=self._ran_operator(v_mno).name, city=user_city)
        pgw_site = self._select_pgw_site(architecture, agreement, b_mno, sgw, rng)

        stretch = agreement.tunnel_stretch if agreement else _NATIVE_STRETCH
        extra = agreement.extra_rtt_ms if agreement else 0.0
        base_rtt = self.latency.rtt_between(
            sgw.location, pgw_site.location, stretch=stretch
        ) + extra
        tunnel = GTPTunnel(
            sgw=sgw,
            pgw_site=pgw_site,
            base_rtt_ms=base_rtt,
            stretch=stretch,
            extra_rtt_ms=extra,
        )

        # Each site knows its own traceroute depth distribution —
        # operator cores and hub-breakout cores alike.
        hop_depth = pgw_site.sample_hop_depth(rng)
        private_path = build_private_path(
            hop_depth, subnet_seed=rng.randrange(1 << 16)
        )
        public_ip = pgw_site.cgnat.bind(session_id, rng, sticky_key=b_mno.name)

        dns_operator, dns_doh, dns_anycast = self._dns_config(
            architecture, b_mno, doh_enabled
        )

        return PDNSession(
            session_id=session_id,
            ue_imei=imei,
            sim_iccid=sim.iccid,
            v_mno_name=v_mno.name,
            b_mno_name=b_mno.name,
            architecture=architecture,
            sgw=sgw,
            pgw_site=pgw_site,
            tunnel=tunnel,
            public_ip=public_ip,
            private_path=private_path,
            dns_operator=dns_operator,
            dns_uses_doh=dns_doh,
            dns_anycast=dns_anycast,
        )

    # -- internals -----------------------------------------------------------

    def _ran_operator(self, v_mno: MobileOperator) -> MobileOperator:
        """The operator actually running the radio (MVNOs ride their parent)."""
        return self.operators.parent_of(v_mno)

    def _resolve_architecture(
        self, b_mno: MobileOperator, v_mno: MobileOperator
    ):
        """Decide NATIVE vs a roaming agreement's architecture."""
        b_host = self.operators.parent_of(b_mno)
        v_host = self.operators.parent_of(v_mno)
        if b_host.name == v_host.name:
            return RoamingArchitecture.NATIVE, None
        if not self.agreements.has(b_mno.name, v_mno.name):
            raise AttachError(
                f"no roaming agreement between {b_mno.name} and {v_mno.name}"
            )
        agreement = self.agreements.get(b_mno.name, v_mno.name)
        return agreement.architecture, agreement

    def _select_pgw_site(
        self,
        architecture: RoamingArchitecture,
        agreement: Optional[RoamingAgreement],
        b_mno: MobileOperator,
        sgw: SGW,
        rng: random.Random,
    ) -> PGWSite:
        if architecture is RoamingArchitecture.NATIVE:
            # The issuer's own site when it has one (MVNOs can run their
            # own gateway policy, as the Korean physical SIM shows),
            # otherwise the host MNO's.
            parent = self.operators.parent_of(b_mno)
            for owner in (b_mno.name, parent.name):
                site_id = self.native_site_ids.get(owner)
                if site_id is not None:
                    return self.pgw_sites[site_id]
            raise AttachError(f"{b_mno.name} has no native PGW site configured")

        assert agreement is not None
        candidates = [self.pgw_sites[sid] for sid in agreement.pgw_site_ids]
        if agreement.selection is PGWSelection.STATIC_BMNO:
            # Pre-arranged: the b-MNO pins the first configured site.
            return candidates[0]
        if agreement.selection is PGWSelection.NEAREST:
            return min(
                candidates,
                key=lambda site: (haversine_km(sgw.location, site.location), site.site_id),
            )
        # UNIFORM: sessions spread evenly across the candidate sites.
        return rng.choice(candidates)

    def _dns_config(
        self,
        architecture: RoamingArchitecture,
        b_mno: MobileOperator,
        doh_enabled: bool,
    ):
        """Resolver assignment per Section 5.1 (DNS Lookup Time).

        Breakouts inside an operator's network (native, HR, LBO) resolve
        at the b-MNO; IHBO breakouts sit in third-party space and fall
        back to Google's public anycast resolvers, where Android's
        default DoH kicks in.
        """
        if architecture is RoamingArchitecture.IHBO:
            return GOOGLE_DNS_NAME, doh_enabled, True
        dns = b_mno.dns
        assert dns is not None
        return dns.operator_name, doh_enabled and dns.supports_doh, dns.anycast
