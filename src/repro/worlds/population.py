"""Columnar subscriber populations: million-user worlds without objects.

The campaigns of Tables 3-4 touch a few hundred SIM profiles, so the
object-graph world is fine for them. The "millions of users" north
star is a different regime: a *population* of subscribers per visited
country — eSIM roamers provisioned out of the b-MNO ranges Airalo
rents, plus the local physical-SIM base of the visited operator — each
with an IMSI, an ICCID, an attach state, a CGNAT address allocation
and telemetry volumes. This module stores those populations in typed
:class:`~repro.core.columns.ColumnStore` columns and exposes them
through lightweight views that speak the existing ``cellular`` entity
APIs (:class:`SIMProfileView` mirrors
:class:`~repro.cellular.esim.SIMProfile` attribute-for-attribute).

Determinism is anchored the same way as everything else in the repo:

* one row generator (:func:`iter_subscriber_blocks`) is the single
  source of truth, consumed by **both** the columnar builder
  (:func:`build_population`) and the legacy object-graph builder
  (:func:`build_population_objects`) — the property tests assert the
  two are attribute-identical at ``scale=1.0``;
* per-country ``random.Random(f"{seed}:population:{iso3}")`` streams
  (string seeding, hash-randomization safe), fully disjoint from the
  campaign streams — building a population never perturbs a campaign
  draw or an :class:`~repro.cellular.esim.RSPServer` cursor;
* eSIM IMSIs are issued arithmetically from the *top* of each rented
  range (``capacity - 1 - k``) while campaign provisioning fills from
  the bottom, so the two can never collide;
* ICCIDs are stored as their 14-digit numeric body (one int64 per
  subscriber); the "8901" issuer prefix and Luhn check digit are
  materialized lazily by the views, which keeps the scale=50 build in
  seconds without giving up syntactic validity.

Scaling uses the same :func:`~repro.worlds.airalo.scaled_count`
contract as the campaigns: ``scale=1.0`` is ~30k subscribers across
the 24 offerings, ``scale=50`` is 1.5M, ``scale=100`` is 3M.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro
from repro import obs
from repro.cellular.esim import SIMKind, SIMProfile
from repro.cellular.identifiers import IMSI, luhn_check_digit
from repro.core import columns as columns_mod
from repro.core.columns import ColumnStore
from repro.worlds import paperdata as pd
from repro.worlds.airalo import scaled_count

#: Base subscriber counts per offering at ``scale=1.0``.
BASE_ESIM_SUBSCRIBERS = 750
BASE_LOCAL_SUBSCRIBERS = 500

#: The population's CGNAT pool: 100.64.0.0/10 (RFC 6598 shared space),
#: deliberately disjoint from the campaign world's 198.18.0.0/16 pools.
CGNAT_BASE = (100 << 24) | (64 << 16)
CGNAT_CAPACITY = 1 << 22  # the /10 holds 4,194,304 addresses

#: Lognormal monthly-volume parameters (MB): roamers buy short-trip
#: bundles (median ~350 MB), locals run full monthly plans (~4 GB).
_ESIM_VOLUME_MU = math.log(350.0)
_ESIM_VOLUME_SIGMA = 0.9
_LOCAL_VOLUME_MU = math.log(4000.0)
_LOCAL_VOLUME_SIGMA = 1.0
_MB_PER_SESSION = 150.0

_PROVIDER_MNA = "Airalo"

#: Snapshot meta tag (rejects attaching an unrelated ColumnStore).
POPULATION_KIND = "subscriber-population"


def _plmn_codes() -> Dict[str, str]:
    """Operator name -> concatenated MCC+MNC, from the paper tables."""
    codes = {spec.name: spec.mcc + spec.mnc for spec in pd.B_MNO_SPECS}
    codes.update({spec.name: spec.mcc + spec.mnc for spec in pd.V_MNO_SPECS})
    codes["U+ UMobile"] = "45011"  # the Korean MVNO (paper Section 5.1)
    return codes


def _iccid_from_body(body: int) -> str:
    """The canonical 19-digit ICCID for a stored 14-digit body."""
    payload = "8901" + str(body).zfill(14)
    return payload + str(luhn_check_digit(payload))


@dataclass(frozen=True)
class SubscriberBlock:
    """Constants shared by every subscriber of one (offering, kind)."""

    country_iso3: str
    kind: SIMKind
    issuer_mno_name: str
    provider: str
    v_mno_name: str
    architecture: str
    #: Candidate PGW sites; each row indexes into this tuple.
    pgw_site_ids: Tuple[str, ...]
    count: int


#: One subscriber's varying fields, in block order:
#: (imsi, iccid_body, site_index, address, attached,
#:  monthly_mb, sessions, uplink_share)
SubscriberRow = Tuple[int, int, int, int, int, float, int, float]


def iter_subscriber_blocks(
    seed: int, scale: float
) -> Iterator[Tuple[SubscriberBlock, List[SubscriberRow]]]:
    """The deterministic subscriber stream, one block per (country, kind).

    This is the single source of truth both builders consume: the
    columnar store and the legacy object graph see exactly the same
    draws in exactly the same order, which is what makes the
    view-vs-object property tests meaningful.
    """
    plmn = _plmn_codes()
    airalo_prefix = {spec.name: spec.airalo_imsi_prefix for spec in pd.B_MNO_SPECS}
    esim_issued: Dict[str, int] = {}
    local_issued: Dict[str, int] = {}
    address = CGNAT_BASE
    exp = math.exp

    for offering in pd.ESIM_OFFERINGS:
        iso3 = offering.country_iso3
        rng = random.Random(f"{seed}:population:{iso3}")
        randrange = rng.randrange
        gauss = rng.gauss

        # -- eSIM roamers (Airalo plans on the b-MNO's rented range) --------
        n_esim = scaled_count(BASE_ESIM_SUBSCRIBERS, scale)
        prefix = airalo_prefix[offering.b_mno]
        capacity = 10 ** (15 - len(prefix))
        prefix_base = int(prefix) * capacity
        start = esim_issued.get(offering.b_mno, 0)
        esim_issued[offering.b_mno] = start + n_esim
        if esim_issued[offering.b_mno] > capacity:
            raise ValueError(
                f"rented IMSI range of {offering.b_mno} exhausted at "
                f"scale={scale:g} ({esim_issued[offering.b_mno]} > {capacity})"
            )
        sites = offering.pgw_site_ids
        n_sites = len(sites)
        static = offering.selection == "static"
        asymmetry = pd.ESIM_UPLINK_ASYMMETRY.get(iso3, 1.0)
        rows: List[SubscriberRow] = []
        for k in range(n_esim):
            if address - CGNAT_BASE >= CGNAT_CAPACITY:
                raise ValueError(
                    f"population CGNAT pool (100.64.0.0/10) exhausted at "
                    f"scale={scale:g}"
                )
            imsi = prefix_base + (capacity - 1 - (start + k))
            body = randrange(100000000000000)
            monthly_mb = exp(gauss(_ESIM_VOLUME_MU, _ESIM_VOLUME_SIGMA))
            uplink = (0.22 + ((imsi % 997) / 997.0 - 0.5) * 0.06) * asymmetry
            rows.append((
                imsi, body,
                0 if static else k % n_sites,
                address,
                1 if k % 4 else 0,
                monthly_mb,
                1 + int(monthly_mb / _MB_PER_SESSION),
                min(0.95, max(0.01, uplink)),
            ))
            address += 1
        yield SubscriberBlock(
            country_iso3=iso3, kind=SIMKind.ESIM,
            issuer_mno_name=offering.b_mno, provider=_PROVIDER_MNA,
            v_mno_name=offering.v_mno, architecture=offering.architecture,
            pgw_site_ids=sites, count=n_esim,
        ), rows

        # -- local physical-SIM base of the visited operator ----------------
        operator = pd.PHYSICAL_SIM_OPERATORS.get(iso3, offering.v_mno)
        n_local = scaled_count(BASE_LOCAL_SUBSCRIBERS, scale)
        op_plmn = plmn[operator]
        op_capacity = 10 ** (15 - len(op_plmn))
        op_base = int(op_plmn) * op_capacity
        op_start = local_issued.get(operator, 0)
        local_issued[operator] = op_start + n_local
        if local_issued[operator] > op_capacity:
            raise ValueError(
                f"retail IMSI block of {operator} exhausted at scale={scale:g}"
            )
        local_site = (f"local:{operator}",)
        rows = []
        for k in range(n_local):
            if address - CGNAT_BASE >= CGNAT_CAPACITY:
                raise ValueError(
                    f"population CGNAT pool (100.64.0.0/10) exhausted at "
                    f"scale={scale:g}"
                )
            imsi = op_base + (op_capacity - 1 - (op_start + k))
            body = randrange(100000000000000)
            monthly_mb = exp(gauss(_LOCAL_VOLUME_MU, _LOCAL_VOLUME_SIGMA))
            uplink = 0.18 + ((imsi % 997) / 997.0 - 0.5) * 0.06
            rows.append((
                imsi, body, 0, address,
                1 if k % 16 else 0,
                monthly_mb,
                1 + int(monthly_mb / _MB_PER_SESSION),
                min(0.95, max(0.01, uplink)),
            ))
            address += 1
        yield SubscriberBlock(
            country_iso3=iso3, kind=SIMKind.PHYSICAL,
            issuer_mno_name=operator, provider=operator,
            v_mno_name=operator, architecture="NATIVE",
            pgw_site_ids=local_site, count=n_local,
        ), rows


# -- columnar build -----------------------------------------------------------


def build_population(seed: int, scale: float) -> "Population":
    """Build the columnar population for ``(seed, scale)``."""
    with obs.span("population.build", seed=seed, scale=scale) as span:
        store = ColumnStore(meta={
            "kind": POPULATION_KIND, "seed": seed, "scale": scale,
            "version": repro.__version__,
        })
        col_country = store.new_column("country", "H", strings="country")
        col_kind = store.new_column("kind", "B")
        col_issuer = store.new_column("issuer", "H", strings="operator")
        col_provider = store.new_column("provider", "H", strings="provider")
        col_vmno = store.new_column("v_mno", "H", strings="operator")
        col_arch = store.new_column("architecture", "B", strings="architecture")
        col_imsi = store.new_column("imsi", "q")
        col_body = store.new_column("iccid_body", "q")
        col_site = store.new_column("pgw_site", "H", strings="site")
        col_addr = store.new_column("address", "q")
        col_att = store.new_column("attached", "B")
        col_mb = store.new_column("monthly_mb", "d")
        col_sessions = store.new_column("sessions", "q")
        col_uplink = store.new_column("uplink_share", "d")

        country_code = store.strings("country").code
        operator_code = store.strings("operator").code
        provider_code = store.strings("provider").code
        arch_code = store.strings("architecture").code
        site_code = store.strings("site").code

        for block, rows in iter_subscriber_blocks(seed, scale):
            c_country = country_code(block.country_iso3)
            c_kind = 1 if block.kind is SIMKind.ESIM else 0
            c_issuer = operator_code(block.issuer_mno_name)
            c_provider = provider_code(block.provider)
            c_vmno = operator_code(block.v_mno_name)
            c_arch = arch_code(block.architecture)
            c_sites = [site_code(site) for site in block.pgw_site_ids]
            append_country = col_country.append
            append_kind = col_kind.append
            append_issuer = col_issuer.append
            append_provider = col_provider.append
            append_vmno = col_vmno.append
            append_arch = col_arch.append
            for imsi, body, site_idx, address, attached, mb, sess, up in rows:
                append_country(c_country)
                append_kind(c_kind)
                append_issuer(c_issuer)
                append_provider(c_provider)
                append_vmno(c_vmno)
                append_arch(c_arch)
                col_imsi.append(imsi)
                col_body.append(body)
                col_site.append(c_sites[site_idx])
                col_addr.append(address)
                col_att.append(attached)
                col_mb.append(mb)
                col_sessions.append(sess)
                col_uplink.append(up)
        store.meta["count"] = len(col_imsi)
        span.set(subscribers=len(col_imsi), nbytes=store.nbytes)
        return Population(store)


# -- legacy object graph ------------------------------------------------------


@dataclass(frozen=True)
class Subscriber:
    """One subscriber as a plain entity graph (the pre-columnar shape)."""

    index: int
    country_iso3: str
    profile: SIMProfile
    v_mno_name: str
    architecture: str
    pgw_site_id: str
    address: str
    attached: bool
    monthly_mb: float
    sessions: int
    uplink_share: float


def build_population_objects(seed: int, scale: float) -> List[Subscriber]:
    """The same population as real entity objects (tests, small scales).

    Consumes the same row stream as :func:`build_population`, so every
    attribute the columnar views expose must match these objects
    exactly — that equivalence is pinned by the property tests.
    """
    subscribers: List[Subscriber] = []
    index = 0
    for block, rows in iter_subscriber_blocks(seed, scale):
        for imsi, body, site_idx, address, attached, mb, sess, up in rows:
            profile = SIMProfile(
                kind=block.kind,
                iccid=_iccid_from_body(body),
                imsi=IMSI(str(imsi).zfill(15)),
                issuer_mno_name=block.issuer_mno_name,
                provider=block.provider,
                plan_country_iso3=block.country_iso3,
            )
            subscribers.append(Subscriber(
                index=index,
                country_iso3=block.country_iso3,
                profile=profile,
                v_mno_name=block.v_mno_name,
                architecture=block.architecture,
                pgw_site_id=block.pgw_site_ids[site_idx],
                address=_dotted(address),
                attached=bool(attached),
                monthly_mb=mb,
                sessions=sess,
                uplink_share=up,
            ))
            index += 1
    return subscribers


def _dotted(address: int) -> str:
    return (
        f"{(address >> 24) & 0xFF}.{(address >> 16) & 0xFF}."
        f"{(address >> 8) & 0xFF}.{address & 0xFF}"
    )


# -- views --------------------------------------------------------------------


class SIMProfileView:
    """Zero-copy stand-in for :class:`~repro.cellular.esim.SIMProfile`.

    Exposes the same attributes, computed from the columns on access;
    :meth:`materialize` returns the real frozen dataclass for code that
    needs one (equality, pickling into an artefact result).
    """

    __slots__ = ("_pop", "_i")

    def __init__(self, population: "Population", index: int) -> None:
        self._pop = population
        self._i = index

    @property
    def kind(self) -> SIMKind:
        return SIMKind.ESIM if self._pop.col_kind[self._i] else SIMKind.PHYSICAL

    @property
    def iccid(self) -> str:
        return _iccid_from_body(self._pop.col_body[self._i])

    @property
    def imsi(self) -> IMSI:
        return IMSI(str(self._pop.col_imsi[self._i]).zfill(15))

    @property
    def issuer_mno_name(self) -> str:
        return self._pop.operator_values[self._pop.col_issuer[self._i]]

    @property
    def provider(self) -> str:
        return self._pop.provider_values[self._pop.col_provider[self._i]]

    @property
    def plan_country_iso3(self) -> str:
        return self._pop.country_values[self._pop.col_country[self._i]]

    @property
    def is_esim(self) -> bool:
        return bool(self._pop.col_kind[self._i])

    def materialize(self) -> SIMProfile:
        return SIMProfile(
            kind=self.kind, iccid=self.iccid, imsi=self.imsi,
            issuer_mno_name=self.issuer_mno_name, provider=self.provider,
            plan_country_iso3=self.plan_country_iso3,
        )


class SubscriberView:
    """Zero-copy stand-in for :class:`Subscriber` over the columns."""

    __slots__ = ("_pop", "index")

    def __init__(self, population: "Population", index: int) -> None:
        self._pop = population
        self.index = index

    @property
    def country_iso3(self) -> str:
        return self._pop.country_values[self._pop.col_country[self.index]]

    @property
    def profile(self) -> SIMProfileView:
        return SIMProfileView(self._pop, self.index)

    @property
    def v_mno_name(self) -> str:
        return self._pop.operator_values[self._pop.col_vmno[self.index]]

    @property
    def architecture(self) -> str:
        return self._pop.architecture_values[self._pop.col_arch[self.index]]

    @property
    def pgw_site_id(self) -> str:
        return self._pop.site_values[self._pop.col_site[self.index]]

    @property
    def address(self) -> str:
        return _dotted(self._pop.col_addr[self.index])

    @property
    def attached(self) -> bool:
        return bool(self._pop.col_att[self.index])

    @property
    def monthly_mb(self) -> float:
        return self._pop.col_mb[self.index]

    @property
    def sessions(self) -> int:
        return self._pop.col_sessions[self.index]

    @property
    def uplink_share(self) -> float:
        return self._pop.col_uplink[self.index]

    def materialize(self) -> Subscriber:
        return Subscriber(
            index=self.index, country_iso3=self.country_iso3,
            profile=self.profile.materialize(), v_mno_name=self.v_mno_name,
            architecture=self.architecture, pgw_site_id=self.pgw_site_id,
            address=self.address, attached=self.attached,
            monthly_mb=self.monthly_mb, sessions=self.sessions,
            uplink_share=self.uplink_share,
        )


# -- the population -----------------------------------------------------------


class Population:
    """A subscriber population over a :class:`ColumnStore`.

    Works identically whether the store was just built (live arrays),
    memory-mapped from a snapshot file, or attached zero-copy to a
    shared-memory segment published by another process.
    """

    def __init__(self, store: ColumnStore) -> None:
        if store.meta.get("kind") != POPULATION_KIND:
            raise ValueError(
                f"not a population snapshot: meta kind "
                f"{store.meta.get('kind')!r}"
            )
        self.store = store
        # Hot lookups are bound once: views index plain memoryviews and
        # tuples instead of going through dict lookups per attribute.
        self.col_country = store.column("country")
        self.col_kind = store.column("kind")
        self.col_issuer = store.column("issuer")
        self.col_provider = store.column("provider")
        self.col_vmno = store.column("v_mno")
        self.col_arch = store.column("architecture")
        self.col_imsi = store.column("imsi")
        self.col_body = store.column("iccid_body")
        self.col_site = store.column("pgw_site")
        self.col_addr = store.column("address")
        self.col_att = store.column("attached")
        self.col_mb = store.column("monthly_mb")
        self.col_sessions = store.column("sessions")
        self.col_uplink = store.column("uplink_share")
        self.country_values = store.strings("country").values()
        self.operator_values = store.strings("operator").values()
        self.provider_values = store.strings("provider").values()
        self.architecture_values = store.strings("architecture").values()
        self.site_values = store.strings("site").values()
        self._attachment: Optional[columns_mod.AttachedSnapshot] = None

    _COLUMN_SLOTS = (
        "col_country", "col_kind", "col_issuer", "col_provider", "col_vmno",
        "col_arch", "col_imsi", "col_body", "col_site", "col_addr",
        "col_att", "col_mb", "col_sessions", "col_uplink",
    )

    def close(self) -> None:
        """Release the underlying mapping (idempotent, attach-side only).

        The bound column memoryviews pin the shared buffer, so they are
        dropped before the attachment closes its mapping — otherwise
        ``mmap.close()``/``shm.close()`` would raise ``BufferError``.
        Populations over live arrays just drop their views.
        """
        empty = memoryview(b"")
        for name in self._COLUMN_SLOTS:
            setattr(self, name, empty)
        if self._attachment is not None:
            attachment, self._attachment = self._attachment, None
            attachment.close()

    # -- identity -------------------------------------------------------------

    @property
    def seed(self) -> int:
        return self.store.meta["seed"]

    @property
    def scale(self) -> float:
        return self.store.meta["scale"]

    def __len__(self) -> int:
        return len(self.col_imsi)

    # -- entity access --------------------------------------------------------

    def subscriber(self, index: int) -> SubscriberView:
        if not 0 <= index < len(self):
            raise IndexError(f"subscriber index {index} out of range")
        return SubscriberView(self, index)

    def __iter__(self) -> Iterator[SubscriberView]:
        for index in range(len(self)):
            yield SubscriberView(self, index)

    def profiles(self) -> Iterator[SIMProfileView]:
        for index in range(len(self)):
            yield SIMProfileView(self, index)

    # -- aggregate reporting --------------------------------------------------

    def query(self) -> "Any":
        """A :class:`~repro.measure.query.ColumnQuery` over the columns."""
        from repro.measure.query import ColumnQuery

        return ColumnQuery(self.store)

    def stats(self) -> Dict[str, Any]:
        """Entity counts, column sizes and estimated memory footprint."""
        query = self.query()
        per_country = query.count_by("country")
        attached = query.where(attached=1).count()
        esims = query.where(kind=1).count()
        column_bytes = self.store.column_nbytes()
        return {
            "seed": self.seed,
            "scale": self.scale,
            "subscribers": len(self),
            "esims": esims,
            "physical_sims": len(self) - esims,
            "attached": attached,
            "countries": per_country,
            "operators": len(self.operator_values),
            "pgw_sites": len(self.site_values),
            "monthly_traffic_gb": round(query.sum("monthly_mb") / 1024.0, 3),
            "sessions": int(query.sum("sessions")),
            "column_bytes": column_bytes,
            "total_bytes": self.store.nbytes,
            "bytes_per_subscriber": (
                round(self.store.nbytes / len(self), 1) if len(self) else 0.0
            ),
        }

    # -- snapshots ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        return self.store.to_bytes()

    @classmethod
    def from_buffer(cls, buffer, backing: Any = None) -> "Population":
        return cls(ColumnStore.from_buffer(buffer, backing=backing))


def attach_population(
    descriptor: columns_mod.SnapshotDescriptor,
) -> Tuple[Population, columns_mod.AttachedSnapshot]:
    """Attach a published population snapshot zero-copy.

    The returned population owns the attachment: ``population.close()``
    drops its column views and releases the mapping in the right order.
    """
    attachment = columns_mod.attach(descriptor)
    population = Population(attachment.store)
    population._attachment = attachment
    return population, attachment


def estimate_snapshot_bytes(scale: float) -> int:
    """Rough snapshot size for ``scale`` (used by CLI stats, docs)."""
    per_offering = (
        scaled_count(BASE_ESIM_SUBSCRIBERS, scale)
        + scaled_count(BASE_LOCAL_SUBSCRIBERS, scale)
    )
    rows = per_offering * len(pd.ESIM_OFFERINGS)
    return rows * _ROW_BYTES


#: Payload bytes per subscriber row across all 14 columns.
_ROW_BYTES = 2 + 1 + 2 + 2 + 2 + 1 + 8 + 8 + 2 + 8 + 1 + 8 + 8 + 8
