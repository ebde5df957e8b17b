"""The calibrated Airalo world.

Assembles every substrate into the ecosystem the paper measured: 9
b-MNOs, 21 visited operators, the PGW fleet of Table 2 (Packet Host,
OVH, Wireless Logic, Webbing, Singtel, plus operator cores), the IPX
mesh behind the hub breakouts, a public internet with transit and
SP peering, the service fleets (Google/Facebook/YouTube, five CDNs,
Ookla, fast.com, Google DNS), and Airalo itself with 24 offerings.

Also drives both campaigns end-to-end (``run_device_campaign`` /
``run_web_campaign``), which is what the experiments consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cellular import (
    AgreementRegistry,
    BandwidthPolicy,
    DNSResolverSpec,
    IMSIRange,
    MobileOperator,
    OperatorKind,
    OperatorRegistry,
    PGWSelection,
    PGWSite,
    PLMN,
    RoamingAgreement,
    RoamingArchitecture,
    SessionFactory,
    issue_physical_sim,
)
from repro.faults import ChaosConfig
from repro.geo import CityRegistry, CountryRegistry, default_city_registry, default_country_registry
from repro.ipx import IPXNetwork, IPXProvider
from repro.measure.amigo import (
    AmigoControlServer,
    CountryDeployment,
    TestbedResources,
)
from repro.measure.dataset import MeasurementDataset
from repro.measure.traceroute import TracerouteEngine
from repro.measure.webcampaign import WebCampaignRunner, WebVolunteer
from repro.mna import CountryOffering, MNAKind, MobileNetworkAggregator
from repro.net import (
    ASKind,
    ASRegistry,
    ASTopology,
    AutonomousSystem,
    CarrierGradeNAT,
    GeoIPDatabase,
    LatencyModel,
    PrefixPool,
)
from repro.net.addressbook import ASAddressBook
from repro.net.ipv4 import AddressAllocator
from repro.services import (
    AdaptiveBitratePlayer,
    CDNProvider,
    DNSService,
    ServerSite,
    ServiceFabric,
    ServiceProvider,
    SpeedtestFleet,
    SpeedtestServer,
)
from repro.worlds import paperdata as pd

#: Cities hosting SP edges, CDN edges, DNS resolvers and test servers.
_HUB_CITIES: List[Tuple[str, str]] = [
    ("Amsterdam", "NLD"), ("London", "GBR"), ("Frankfurt", "DEU"),
    ("Paris", "FRA"), ("Madrid", "ESP"), ("Marseille", "FRA"),
    ("Warsaw", "POL"), ("Stockholm", "SWE"), ("Vienna", "AUT"),
    ("Milan", "ITA"), ("Helsinki", "FIN"), ("Istanbul", "TUR"),
    ("Singapore", "SGP"), ("Tokyo", "JPN"), ("Seoul", "KOR"),
    ("Bangkok", "THA"), ("Hong Kong", "HKG"), ("Mumbai", "IND"),
    ("Dubai", "ARE"), ("Kuala Lumpur", "MYS"), ("Jakarta", "IDN"),
    ("Ashburn", "USA"), ("Dallas", "USA"), ("Chicago", "USA"),
    ("Los Angeles", "USA"), ("Miami", "USA"), ("San Jose", "USA"),
    ("Sao Paulo", "BRA"), ("Johannesburg", "ZAF"), ("Nairobi", "KEN"),
    ("Lagos", "NGA"), ("Cairo", "EGY"), ("Sydney", "AUS"),
]

#: Sparser footprints for the less-deployed services.
_SPARSE_HUBS = [
    ("Amsterdam", "NLD"), ("London", "GBR"), ("Frankfurt", "DEU"),
    ("Singapore", "SGP"), ("Tokyo", "JPN"), ("Ashburn", "USA"),
    ("Dallas", "USA"), ("San Jose", "USA"), ("Sao Paulo", "BRA"),
    ("Sydney", "AUS"), ("Dubai", "ARE"), ("Mumbai", "IND"),
]

_CDN_FOOTPRINTS: Dict[str, List[Tuple[str, str]]] = {
    "Cloudflare": _HUB_CITIES,
    "Google CDN": _HUB_CITIES,
    "jsDelivr": _HUB_CITIES,
    "jQuery": _SPARSE_HUBS,
    "Microsoft Ajax": _SPARSE_HUBS,
}

_ARCH = {
    "HR": RoamingArchitecture.HR,
    "IHBO": RoamingArchitecture.IHBO,
    "NATIVE": RoamingArchitecture.NATIVE,
}
_SELECTION = {
    "uniform": PGWSelection.UNIFORM,
    "static": PGWSelection.STATIC_BMNO,
}


@dataclass
class AiraloWorld:
    """The fully wired ecosystem plus campaign drivers."""

    seed: int
    countries: CountryRegistry
    cities: CityRegistry
    as_registry: ASRegistry
    geoip: GeoIPDatabase
    addressbook: ASAddressBook
    topology: ASTopology
    operators: OperatorRegistry
    pgw_sites: Dict[str, PGWSite]
    agreements: AgreementRegistry
    ipx: IPXNetwork
    factory: SessionFactory
    fabric: ServiceFabric
    resources: TestbedResources
    airalo: MobileNetworkAggregator
    fastcom: SpeedtestFleet

    # -- provisioning ----------------------------------------------------------

    def rng(self, salt: int = 0) -> random.Random:
        # String seeding is deterministic across processes (unlike
        # hash()-based tuple seeding under hash randomisation).
        return random.Random(f"{self.seed}:{salt}")

    def sell_esim(self, country_iso3: str, rng: random.Random):
        return self.airalo.sell_esim(country_iso3, self.operators, rng)

    def offering(self, country_iso3: str) -> pd.ESIMOfferingSpec:
        for spec in pd.ESIM_OFFERINGS:
            if spec.country_iso3 == country_iso3.upper():
                return spec
        raise KeyError(f"no offering spec for {country_iso3}")

    # -- device campaign ---------------------------------------------------------

    def device_deployment(
        self, entry: pd.DeviceCampaignEntry, rng: random.Random
    ) -> CountryDeployment:
        spec = self.offering(entry.country_iso3)
        physical_operator = self.operators.get(
            pd.PHYSICAL_SIM_OPERATORS[entry.country_iso3]
        )
        city_obj = self.cities.get(spec.user_city, entry.country_iso3)
        return CountryDeployment(
            country_iso3=entry.country_iso3,
            city=city_obj,
            physical_sim=issue_physical_sim(physical_operator, rng),
            esim=self.sell_esim(entry.country_iso3, rng),
            v_mno_physical=physical_operator.name,
            v_mno_esim=spec.v_mno,
            esim_uplink_asymmetry=pd.ESIM_UPLINK_ASYMMETRY.get(
                entry.country_iso3, 1.0
            ),
            duration_days=entry.duration_days,
        )

    def run_device_campaign(
        self, scale: float = 1.0, chaos: Optional[ChaosConfig] = None
    ) -> MeasurementDataset:
        """The full Table 4 campaign, every test count scaled by ``scale``.

        ``scale < 1`` shrinks the campaign (each non-zero count floors
        at 1 so every country/test series survives); ``scale > 1``
        grows it deterministically — see :func:`scaled_count` for the
        exact rounding contract.

        The campaign always runs the resilient orchestration. ``chaos``
        (default off) injects faults into it; the result's ``health``
        then reports retries, quarantines and make-up scheduling.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        with obs.span(
            "campaign.device", scale=scale, seed=self.seed,
            chaos=chaos is not None and chaos.enabled,
        ):
            # The device campaign's streams are salted 1, the web campaign's 2.
            rng = self.rng(1)
            server = AmigoControlServer(self.resources, self.factory, chaos=chaos)
            plans: Dict[str, Dict[str, Tuple[int, int]]] = {}
            for entry in pd.DEVICE_CAMPAIGN:
                server.register_endpoint(
                    self.device_deployment(entry, rng),
                    random.Random(f"{self.seed}:1:{entry.country_iso3}"),
                )
                plan = entry.as_test_plan()
                plans[entry.country_iso3] = {
                    test: (scaled_count(a, scale), scaled_count(b, scale))
                    for test, (a, b) in plan.items()
                }
            return server.run_campaign(plans)

    # -- web campaign --------------------------------------------------------------

    def web_volunteers(self, rng: random.Random) -> List[WebVolunteer]:
        volunteers: List[WebVolunteer] = []
        for entry in pd.WEB_CAMPAIGN:
            spec = self.offering(entry.country_iso3)
            per_volunteer = max(1, entry.measurements // entry.volunteers)
            remainder = entry.measurements - per_volunteer * (entry.volunteers - 1)
            for index in range(entry.volunteers):
                planned = remainder if index == entry.volunteers - 1 else per_volunteer
                volunteers.append(
                    WebVolunteer(
                        name=f"{entry.country_iso3.lower()}-v{index + 1}",
                        country_iso3=entry.country_iso3,
                        city=self.cities.get(spec.user_city, entry.country_iso3),
                        esim=self.sell_esim(entry.country_iso3, rng),
                        v_mno_name=spec.v_mno,
                        duration_days=entry.duration_days,
                        planned_measurements=planned,
                    )
                )
        return volunteers

    def run_web_campaign(self, chaos: Optional[ChaosConfig] = None) -> MeasurementDataset:
        with obs.span(
            "campaign.web", seed=self.seed,
            chaos=chaos is not None and chaos.enabled,
        ):
            rng = self.rng(2)
            runner = WebCampaignRunner(
                fabric=self.fabric,
                fastcom=self.fastcom,
                dns_services=self.resources.dns_services,
                operators=self.operators,
                factory=self.factory,
                chaos=chaos,
            )
            return runner.run(self.web_volunteers(rng), rng)


def scaled_count(count: int, scale: float) -> int:
    """Scale a campaign test count by ``scale``, shrinking **or growing**.

    Both directions are deterministic:

    * ``scale < 1`` shrinks a campaign for fast runs, but never below 1
      — every non-empty series stays represented (``count=0`` stays 0:
      a test a country never ran is not invented by scaling).
    * ``scale > 1`` grows the count: 20 tests at ``scale=2.5`` become 50.
    * Rounding is Python's ``round`` (banker's rounding on exact .5
      ties). This is frozen behavior: the committed golden run-all
      export pins the ``scale=0.05`` campaign counts byte-for-byte, so
      changing the rounding rule is a breaking change by definition.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    if count == 0:
        return 0
    return max(1, round(count * scale))


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def build_airalo_world(seed: int = 2024) -> AiraloWorld:
    """Construct the fully calibrated world (deterministic per seed)."""
    with obs.span("world.build", seed=seed):
        return _build_world(seed)


def _build_world(seed: int) -> AiraloWorld:
    countries = default_country_registry()
    cities = default_city_registry()
    geoip = GeoIPDatabase()
    addressbook = ASAddressBook(geoip)
    as_registry = ASRegistry()
    topology = ASTopology()
    operators = OperatorRegistry()

    cgnat_pool = PrefixPool("198.18.0.0/16", new_prefix=24)
    router_pool = PrefixPool("198.19.0.0/16", new_prefix=24)

    # --- operators -----------------------------------------------------------
    for spec in pd.B_MNO_SPECS:
        operators.add(_build_operator(spec.name, spec.country_iso3, spec.mcc,
                                      spec.mnc, spec.home_city, cities))
        operators.get(spec.name).rent_range(
            "Airalo", IMSIRange(prefix=spec.airalo_imsi_prefix, label="Airalo")
        )
    for vspec in pd.V_MNO_SPECS:
        if vspec.name in operators:
            continue
        operators.add(_build_operator(vspec.name, vspec.country_iso3, vspec.mcc,
                                      vspec.mnc, vspec.home_city, cities))
    # The Korean MVNO carrying the physical SIM.
    umobile = MobileOperator(
        name="U+ UMobile",
        country_iso3="KOR",
        plmn=PLMN("450", "11"),
        asn=pd.OPERATOR_ASNS["U+ UMobile"],
        kind=OperatorKind.MVNO,
        parent_name="LG U+",
        home_city=cities.get("Seoul", "KOR"),
        dns=DNSResolverSpec(operator_name="LG U+"),
        bandwidth=_policy("U+ UMobile"),
    )
    operators.add(umobile)

    # --- AS registry + router prefixes ----------------------------------------
    with obs.span("world.as_registry"):
        _register_ases(as_registry, operators, addressbook, router_pool, cities)

    # --- PGW sites --------------------------------------------------------------
    with obs.span("world.pgw_sites"):
        pgw_sites, native_site_ids = _build_pgw_sites(
            cities, geoip, cgnat_pool, operators
        )

    # --- roaming agreements -------------------------------------------------------
    agreements = AgreementRegistry()
    for spec in pd.ESIM_OFFERINGS:
        if spec.architecture == "NATIVE":
            continue
        agreements.add(
            RoamingAgreement(
                b_mno_name=spec.b_mno,
                v_mno_name=spec.v_mno,
                architecture=_ARCH[spec.architecture],
                pgw_site_ids=spec.pgw_site_ids,
                selection=_SELECTION[spec.selection],
                tunnel_stretch=spec.tunnel_stretch,
                extra_rtt_ms=spec.extra_rtt_ms,
            )
        )

    # --- IPX mesh ---------------------------------------------------------------
    ipx = _build_ipx(agreements)

    # --- inter-domain topology -----------------------------------------------------
    with obs.span("world.topology"):
        _build_topology(topology, operators)

    # --- latency fabric ---------------------------------------------------------
    latency = LatencyModel()
    fabric = ServiceFabric(latency=latency, topology=topology)

    factory = SessionFactory(
        operators=operators,
        agreements=agreements,
        pgw_sites=pgw_sites,
        latency=latency,
        native_site_ids=native_site_ids,
    )

    # --- services -----------------------------------------------------------------
    with obs.span("world.services"):
        sp_targets = _build_sps(cities, router_pool, geoip)
        cdns = _build_cdns(cities, router_pool, geoip)
        dns_services = _build_dns(cities, operators, router_pool, geoip)
        ookla, fastcom = _build_speedtests(cities, router_pool, geoip)

    resources = TestbedResources(
        fabric=fabric,
        geoip=geoip,
        traceroute_engine=TracerouteEngine(
            fabric, addressbook,
            cgnat_response_overrides=pd.CGNAT_RESPONSE_OVERRIDES,
        ),
        operators=operators,
        ookla=ookla,
        cdns=cdns,
        dns_services=dns_services,
        sp_targets=sp_targets,
        player=AdaptiveBitratePlayer(),
    )

    # --- Airalo -----------------------------------------------------------------
    airalo = MobileNetworkAggregator("Airalo", MNAKind.THICK)
    for spec in pd.ESIM_OFFERINGS:
        airalo.add_offering(
            CountryOffering(
                country_iso3=spec.country_iso3,
                b_mno_name=spec.b_mno,
                v_mno_name=spec.v_mno,
                expected_architecture=_ARCH[spec.architecture],
            )
        )

    return AiraloWorld(
        seed=seed,
        countries=countries,
        cities=cities,
        as_registry=as_registry,
        geoip=geoip,
        addressbook=addressbook,
        topology=topology,
        operators=operators,
        pgw_sites=pgw_sites,
        agreements=agreements,
        ipx=ipx,
        factory=factory,
        fabric=fabric,
        resources=resources,
        airalo=airalo,
        fastcom=fastcom,
    )


# -- builder internals ---------------------------------------------------------


def _policy(name: str) -> Optional[BandwidthPolicy]:
    entry = pd.BANDWIDTH_POLICIES.get(name)
    if entry is None:
        return None
    nd, nu, rd, ru, yt = entry
    comp = pd.POLICY_RADIO_COMPENSATION
    return BandwidthPolicy(
        native_downlink_mbps=nd * comp,
        native_uplink_mbps=nu * comp,
        roaming_downlink_mbps=rd * comp,
        roaming_uplink_mbps=ru * comp,
        youtube_cap_mbps=yt,
    )


def _build_operator(name, iso3, mcc, mnc, home_city, cities) -> MobileOperator:
    return MobileOperator(
        name=name,
        country_iso3=iso3,
        plmn=PLMN(mcc, mnc),
        asn=pd.OPERATOR_ASNS[name],
        home_city=cities.get(home_city, iso3),
        dns=DNSResolverSpec(operator_name=name),
        bandwidth=_policy(name),
    )


def _register_ases(as_registry, operators, addressbook, router_pool, cities):
    """Publish every AS in WHOIS and give it a router prefix."""
    hosting = {
        "Packet Host": pd.ASN_PACKET_HOST,
        "OVH SAS": pd.ASN_OVH,
        "Wireless Logic": pd.ASN_WIRELESS_LOGIC,
        "Webbing USA": pd.ASN_WEBBING,
    }
    content = {
        "Google": pd.ASN_GOOGLE,
        "Facebook": pd.ASN_FACEBOOK,
        "YouTube": pd.ASN_YOUTUBE,
    }
    transit = {
        "Level3": pd.ASN_LEVEL3,
        "Arelion": pd.ASN_ARELION,
        "LINKdotNET": pd.ASN_LINKDOTNET,
        "Transworld": pd.ASN_TRANSWORLD,
        "Telefonica Global": pd.ASN_TELEFONICA_GLOBAL,
    }
    ams = cities.get("Amsterdam", "NLD")
    for org, asn in hosting.items():
        as_registry.add(AutonomousSystem(asn, org, ASKind.HOSTING, "NLD"))
        addressbook.register(asn, str(router_pool.allocate()), "NLD", ams.name, ams.location)
    sj = cities.get("San Jose", "USA")
    for org, asn in content.items():
        as_registry.add(AutonomousSystem(asn, org, ASKind.CONTENT, "USA"))
        addressbook.register(asn, str(router_pool.allocate()), "USA", sj.name, sj.location)
    for org, asn in transit.items():
        as_registry.add(AutonomousSystem(asn, org, ASKind.TRANSIT, "USA"))
        addressbook.register(asn, str(router_pool.allocate()), "USA", sj.name, sj.location)
    for operator in operators:
        if operator.asn in as_registry:
            continue
        kind = ASKind.MVNO if operator.is_mvno else ASKind.MNO
        as_registry.add(
            AutonomousSystem(operator.asn, operator.name, kind, operator.country_iso3)
        )
        home = operator.home_city
        if home is not None:
            addressbook.register(
                operator.asn, str(router_pool.allocate()),
                operator.country_iso3, home.name, home.location,
            )


def _build_pgw_sites(cities, geoip, cgnat_pool, operators):
    """Hub-breakout and operator-core PGW sites with registered pools."""
    pgw_sites: Dict[str, PGWSite] = {}
    native_site_ids: Dict[str, str] = {}

    for spec in pd.PGW_SITE_SPECS:
        city = cities.get(spec.city, spec.country_iso3)
        if spec.site_id == "singtel-sgp":
            # The paper names Singtel's actual roaming range.
            prefix = "202.166.126.0/24"
        else:
            prefix = str(cgnat_pool.allocate())
        geoip.register(prefix, spec.provider_asn, spec.country_iso3,
                       spec.city, city.location)
        allocator = AddressAllocator(prefix)
        pool = [str(allocator.allocate(f"pgw-{i}")) for i in range(spec.pool_size)]
        site = PGWSite(
            site_id=spec.site_id,
            provider_org=spec.provider_org,
            provider_asn=spec.provider_asn,
            city=city,
            cgnat=CarrierGradeNAT(pool, name=spec.site_id),
            private_hop_depths=spec.private_hop_depths,
        )
        pgw_sites[spec.site_id] = site
        if spec.provider_org in operators:
            native_site_ids[spec.provider_org] = spec.site_id

    # OVH assigns PGWs per b-MNO: Telna gets one dedicated address, Play
    # rotates over the remaining five (Section 4.3.2).
    ovh = pgw_sites["ovh-lille"]
    ovh_pool = [str(ip) for ip in ovh.cgnat.pool]
    ovh.cgnat.partition("Telna Mobile", ovh_pool[:1])
    ovh.cgnat.partition("Play", ovh_pool[1:])

    # Every visited operator gets its own core PGW for physical SIMs.
    for vspec in pd.V_MNO_SPECS:
        operator = operators.get(vspec.name)
        if operator.name in native_site_ids:
            continue
        site_id = f"{operator.name.lower().replace(' ', '-')}-core"
        city = operator.home_city
        assert city is not None
        prefix = str(cgnat_pool.allocate())
        geoip.register(prefix, operator.asn, operator.country_iso3,
                       city.name, city.location)
        allocator = AddressAllocator(prefix)
        pool = [str(allocator.allocate(f"pgw-{i}")) for i in range(8)]
        pgw_sites[site_id] = PGWSite(
            site_id=site_id,
            provider_org=operator.name,
            provider_asn=operator.asn,
            city=city,
            cgnat=CarrierGradeNAT(pool, name=site_id),
            private_hop_depths=pd.VMNO_PGW_DEPTHS.get(operator.name, (5, 6)),
        )
        native_site_ids[operator.name] = site_id

    # Native-issuer sites double as their native site.
    native_site_ids.setdefault("LG U+", "lgu-seoul")
    native_site_ids.setdefault("U+ UMobile", "umobile-seoul")
    native_site_ids.setdefault("dtac", "dtac-bkk")
    native_site_ids.setdefault("Ooredoo Maldives", "ooredoo-mdv")
    native_site_ids.setdefault("Singtel", "singtel-sgp")
    return pgw_sites, native_site_ids


def _build_ipx(agreements) -> IPXNetwork:
    """A small provider mesh fronting the hub-breakout PGW fleets."""
    ipx = IPXNetwork()
    ipx.add_provider(IPXProvider(
        "IPX-Comfone", asn=64601,
        hub_pgw_site_ids=("packet-host-ams", "packet-host-ash"),
    ))
    ipx.add_provider(IPXProvider(
        "IPX-BICS", asn=64602, hub_pgw_site_ids=("ovh-lille", "ovh-wattrelos"),
    ))
    ipx.add_provider(IPXProvider(
        "IPX-iBasis", asn=64603,
        hub_pgw_site_ids=("wlogic-lon", "webbing-ams", "webbing-dal"),
    ))
    ipx.add_provider(IPXProvider("IPX-Syniverse", asn=64604))
    ipx.peer("IPX-Comfone", "IPX-BICS")
    ipx.peer("IPX-BICS", "IPX-iBasis")
    ipx.peer("IPX-Comfone", "IPX-Syniverse")
    ipx.peer("IPX-iBasis", "IPX-Syniverse")
    # Every b-MNO with an IHBO agreement contracts an entry provider.
    entry = {
        "Play": "IPX-Comfone",
        "Telna Mobile": "IPX-BICS",
        "Telecom Italia": "IPX-iBasis",
        "Orange": "IPX-iBasis",
        "Polkomtel": "IPX-Comfone",
        "Singtel": "IPX-Syniverse",
    }
    for operator, provider in entry.items():
        ipx.contract(operator, provider)
    # Consistency: every IHBO agreement's sites must be reachable.
    for agreement in agreements:
        if agreement.architecture is RoamingArchitecture.IHBO:
            for site_id in agreement.pgw_site_ids:
                if not ipx.can_reach(agreement.b_mno_name, site_id):
                    raise RuntimeError(
                        f"IPX mesh cannot carry {agreement.b_mno_name} "
                        f"to {site_id}"
                    )
    return ipx


def _build_topology(topology: ASTopology, operators) -> None:
    """Transit backbone plus the peering edges the paper infers."""
    backbone = (pd.ASN_LEVEL3, pd.ASN_ARELION)
    pgw_providers = (pd.ASN_PACKET_HOST, pd.ASN_OVH, pd.ASN_WIRELESS_LOGIC,
                     pd.ASN_WEBBING)
    sps = (pd.ASN_GOOGLE, pd.ASN_FACEBOOK, pd.ASN_YOUTUBE)
    extra = (pd.ASN_LINKDOTNET, pd.ASN_TRANSWORLD, pd.ASN_TELEFONICA_GLOBAL)

    for asn in backbone + pgw_providers + sps + extra:
        topology.add_as(asn)
    for operator in operators:
        if operator.asn not in topology:
            topology.add_as(operator.asn)

    topology.add_peering(pd.ASN_LEVEL3, pd.ASN_ARELION)
    for asn in pgw_providers + sps:
        topology.add_transit(customer=asn, provider=pd.ASN_LEVEL3)
    # PGW providers peer directly with the big SPs (Figure 6's norm).
    for provider in pgw_providers:
        for sp in sps:
            topology.add_peering(provider, sp)

    special = {pd.OPERATOR_ASNS["Jazz"], pd.ASN_TELEFONICA}
    for operator in operators:
        if operator.is_mvno or operator.asn in special:
            continue
        if any(topology.has_direct_peering(operator.asn, sp) for sp in sps):
            continue
        # Default: operators reach SPs by direct peering plus backbone
        # transit for everything else.
        topology.add_transit(customer=operator.asn, provider=pd.ASN_ARELION)
        for sp in sps:
            if operator.asn not in pgw_providers:
                topology.add_peering(operator.asn, sp)

    # Pakistan: Jazz -> LINKdotNET -> Transworld -> SPs (Section 4.3.3).
    jazz = pd.OPERATOR_ASNS["Jazz"]
    topology.add_transit(customer=jazz, provider=pd.ASN_LINKDOTNET)
    topology.add_transit(customer=pd.ASN_LINKDOTNET, provider=pd.ASN_TRANSWORLD)
    topology.add_transit(customer=pd.ASN_TRANSWORLD, provider=pd.ASN_LEVEL3)
    for sp in sps:
        topology.add_peering(pd.ASN_TRANSWORLD, sp)

    # Spain: Movistar routes via Telefonica Global Solution (3 ASNs).
    topology.add_transit(customer=pd.ASN_TELEFONICA, provider=pd.ASN_TELEFONICA_GLOBAL)
    topology.add_transit(customer=pd.ASN_TELEFONICA_GLOBAL, provider=pd.ASN_ARELION)
    for sp in sps:
        topology.add_peering(pd.ASN_TELEFONICA_GLOBAL, sp)


def _sites_from(cities, footprint, allocator, label) -> List[ServerSite]:
    sites = []
    for index, (name, iso3) in enumerate(footprint):
        city = cities.get(name, iso3)
        sites.append(ServerSite(city=city, ip=allocator.allocate(f"{label}-{index}")))
    return sites


def _service_prefix(router_pool, geoip, asn, cities, city=("San Jose", "USA")):
    """Allocate and register a /24 for a service fleet."""
    prefix = str(router_pool.allocate())
    anchor = cities.get(*city)
    geoip.register(prefix, asn, anchor.country_iso3, anchor.name, anchor.location)
    return AddressAllocator(prefix)


def _build_sps(cities, router_pool, geoip):
    google_alloc = _service_prefix(router_pool, geoip, pd.ASN_GOOGLE, cities)
    facebook_alloc = _service_prefix(router_pool, geoip, pd.ASN_FACEBOOK, cities)
    youtube_alloc = _service_prefix(router_pool, geoip, pd.ASN_YOUTUBE, cities)
    return {
        "Google": ServiceProvider(
            name="Google", asn=pd.ASN_GOOGLE,
            edges=_sites_from(cities, _HUB_CITIES, google_alloc, "ggl"),
            internal_hop_range=(2, 9),
        ),
        "Facebook": ServiceProvider(
            name="Facebook", asn=pd.ASN_FACEBOOK,
            edges=_sites_from(cities, _HUB_CITIES, facebook_alloc, "fb"),
            internal_hop_range=(2, 7),
        ),
        "YouTube": ServiceProvider(
            name="YouTube", asn=pd.ASN_YOUTUBE,
            edges=_sites_from(cities, _HUB_CITIES, youtube_alloc, "yt"),
            internal_hop_range=(2, 9),
        ),
    }


def _build_cdns(cities, router_pool, geoip):
    cdns: Dict[str, CDNProvider] = {}
    base_asn = 64800
    for offset, name in enumerate(pd.CDN_PROVIDERS):
        allocator = _service_prefix(router_pool, geoip, base_asn + offset, cities)
        footprint = _CDN_FOOTPRINTS[name]
        country_rates = {}
        if name == "Cloudflare":
            # Thailand's colder cache path (Section 5.1).
            country_rates = {"THA": 1.0 - pd.CLOUDFLARE_THAI_SIM_MISS_RATE}
        cdns[name] = CDNProvider(
            name=name,
            edges=_sites_from(cities, footprint, allocator, name.lower()[:4]),
            origin=ServerSite(
                city=cities.get("San Jose", "USA"),
                ip=allocator.allocate(f"{name}-origin"),
            ),
            cache_hit_rate=0.96,
            country_cache_hit_rate=country_rates,
        )
    return cdns


def _build_dns(cities, operators, router_pool, geoip):
    google_alloc = _service_prefix(router_pool, geoip, 64850, cities)
    services: Dict[str, DNSService] = {
        "Google DNS": DNSService(
            name="Google DNS",
            anycast=True,
            supports_doh=True,
            sites=_sites_from(cities, _HUB_CITIES, google_alloc, "gdns"),
        ),
    }
    operator_alloc = _service_prefix(router_pool, geoip, 64851, cities)
    for operator in operators:
        if operator.home_city is None or operator.name in services:
            continue
        services[operator.name] = DNSService(
            name=operator.name,
            anycast=False,
            supports_doh=False,
            sites=[
                ServerSite(
                    city=operator.home_city,
                    ip=operator_alloc.allocate(f"dns-{operator.name}"),
                )
            ],
        )
    return services


def _build_speedtests(cities, router_pool, geoip):
    ookla_alloc = _service_prefix(router_pool, geoip, 64860, cities)
    fast_alloc = _service_prefix(router_pool, geoip, 64861, cities)
    # Ookla has servers everywhere users and PGWs are.
    ookla_cities = _HUB_CITIES + [
        ("Karachi", "PAK"), ("Tbilisi", "GEO"), ("Riyadh", "SAU"),
        ("Doha", "QAT"), ("Abu Dhabi", "ARE"), ("Berlin", "DEU"),
        ("Chisinau", "MDA"), ("Baku", "AZE"), ("Tashkent", "UZB"),
        ("Male", "MDV"), ("Beijing", "CHN"), ("Rome", "ITA"),
        ("New York", "USA"), ("Lille", "FRA"),
    ]
    ookla = SpeedtestFleet(
        name="Ookla",
        servers=[SpeedtestServer(site) for site in
                 _sites_from(cities, ookla_cities, ookla_alloc, "ookla")],
    )
    fastcom = SpeedtestFleet(
        name="fast.com",
        servers=[SpeedtestServer(site) for site in
                 _sites_from(cities, _HUB_CITIES, fast_alloc, "fast")],
    )
    return ookla, fastcom
