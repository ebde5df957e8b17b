"""The emnify validation world (Section 4.3.1).

A second, independently-confirmed thick operator used to validate the
breakout-geolocation methodology: an emnify eSIM measured in London on
O2 UK breaks out at PGWs hosted in AS16509 (Amazon) in Dublin. Running
the same traceroute pipeline here must identify exactly that — the
repository's equivalent of the paper's ground-truth check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.cellular import (
    AgreementRegistry,
    IMSIRange,
    MobileOperator,
    OperatorRegistry,
    PGWSelection,
    PGWSite,
    PLMN,
    RoamingAgreement,
    RoamingArchitecture,
    SessionFactory,
)
from repro.geo import default_city_registry
from repro.measure.traceroute import TracerouteEngine
from repro.mna import CountryOffering, MNAKind, MobileNetworkAggregator
from repro.net import (
    ASTopology,
    CarrierGradeNAT,
    GeoIPDatabase,
    LatencyModel,
)
from repro.net.addressbook import ASAddressBook
from repro.net.ipv4 import AddressAllocator
from repro.services import ServerSite, ServiceFabric, ServiceProvider
from repro.worlds import paperdata as pd

EMNIFY_BMNO = "emnify-core"


@dataclass
class EmnifyWorld:
    """Minimal world for the methodology-validation experiment."""

    operators: OperatorRegistry
    factory: SessionFactory
    fabric: ServiceFabric
    geoip: GeoIPDatabase
    engine: TracerouteEngine
    emnify: MobileNetworkAggregator
    sp_targets: Dict[str, ServiceProvider]
    cities: object

    def provision_session(self, rng: random.Random):
        """An emnify eSIM attached in London via O2 UK."""
        from repro.cellular import UserEquipment

        esim = self.emnify.sell_esim("GBR", self.operators, rng)
        ue = UserEquipment.provision(
            "Samsung S21+ 5G", self.cities.get("London", "GBR"), rng
        )
        ue.install_sim(esim)
        session = ue.switch_to(0, "O2 UK", self.factory, rng)
        return esim, session


def build_emnify_world() -> EmnifyWorld:
    cities = default_city_registry()
    geoip = GeoIPDatabase()
    addressbook = ASAddressBook(geoip)

    operators = OperatorRegistry()
    emnify_core = MobileOperator(
        name=EMNIFY_BMNO,
        country_iso3="DEU",
        plmn=PLMN("901", "43"),
        asn=64900,
        home_city=cities.get("Berlin", "DEU"),
    )
    emnify_core.rent_range("emnify", IMSIRange(prefix="9014377", label="emnify"))
    o2_uk = MobileOperator(
        name="O2 UK",
        country_iso3="GBR",
        plmn=PLMN("234", "10"),
        asn=pd.OPERATOR_ASNS["O2 UK"],
        home_city=cities.get("London", "GBR"),
    )
    operators.add(emnify_core)
    operators.add(o2_uk)

    # The confirmed ground truth: PGWs on Amazon infrastructure in Dublin.
    dublin = cities.get("Dublin", "IRL")
    geoip.register("198.18.100.0/24", pd.ASN_AMAZON, "IRL", "Dublin", dublin.location)
    allocator = AddressAllocator("198.18.100.0/24")
    pgw_sites = {
        "emnify-aws-dub": PGWSite(
            site_id="emnify-aws-dub",
            provider_org="Amazon.com, Inc.",
            provider_asn=pd.ASN_AMAZON,
            city=dublin,
            cgnat=CarrierGradeNAT(
                [str(allocator.allocate(f"pgw-{i}")) for i in range(4)],
                name="emnify-aws",
            ),
            private_hop_depths=(5, 6),
        )
    }

    agreements = AgreementRegistry(
        [
            RoamingAgreement(
                b_mno_name=EMNIFY_BMNO,
                v_mno_name="O2 UK",
                architecture=RoamingArchitecture.IHBO,
                pgw_site_ids=("emnify-aws-dub",),
                selection=PGWSelection.STATIC_BMNO,
                tunnel_stretch=2.2,
            )
        ]
    )

    topology = ASTopology()
    for asn in (pd.ASN_AMAZON, pd.ASN_GOOGLE, pd.ASN_YOUTUBE, pd.ASN_FACEBOOK,
                pd.ASN_LEVEL3, o2_uk.asn, emnify_core.asn):
        topology.add_as(asn)
    for asn in (pd.ASN_AMAZON, pd.ASN_GOOGLE, pd.ASN_YOUTUBE, pd.ASN_FACEBOOK):
        topology.add_transit(customer=asn, provider=pd.ASN_LEVEL3)
    for sp in (pd.ASN_GOOGLE, pd.ASN_YOUTUBE, pd.ASN_FACEBOOK):
        topology.add_peering(pd.ASN_AMAZON, sp)

    latency = LatencyModel()
    fabric = ServiceFabric(latency=latency, topology=topology)
    factory = SessionFactory(
        operators=operators,
        agreements=agreements,
        pgw_sites=pgw_sites,
        latency=latency,
        native_site_ids={},
    )

    # SP fleets with a Dublin/London presence.
    def sp(name, asn, prefix):
        geoip.register(prefix, asn, "USA", "San Jose",
                       cities.get("San Jose", "USA").location)
        alloc = AddressAllocator(prefix)
        return ServiceProvider(
            name=name,
            asn=asn,
            edges=[
                ServerSite(city=dublin, ip=alloc.allocate("dub")),
                ServerSite(city=cities.get("London", "GBR"), ip=alloc.allocate("lon")),
                ServerSite(city=cities.get("Frankfurt", "DEU"), ip=alloc.allocate("fra")),
            ],
        )

    sp_targets = {
        "Google": sp("Google", pd.ASN_GOOGLE, "198.18.101.0/24"),
        "YouTube": sp("YouTube", pd.ASN_YOUTUBE, "198.18.102.0/24"),
        "Facebook": sp("Facebook", pd.ASN_FACEBOOK, "198.18.103.0/24"),
    }

    emnify = MobileNetworkAggregator("emnify", MNAKind.THICK)
    emnify.add_offering(
        CountryOffering("GBR", EMNIFY_BMNO, "O2 UK", RoamingArchitecture.IHBO)
    )

    engine = TracerouteEngine(fabric, addressbook)
    return EmnifyWorld(
        operators=operators,
        factory=factory,
        fabric=fabric,
        geoip=geoip,
        engine=engine,
        emnify=emnify,
        sp_targets=sp_targets,
        cities=cities,
    )
