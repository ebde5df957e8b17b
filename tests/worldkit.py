"""Reusable mini-world builder for unit tests.

A reduced ecosystem with one IHBO corridor (Play Poland -> Spain via
Packet Host Amsterdam), one HR corridor (Singtel -> UAE), and one native
operator (dtac Thailand). Unit tests across packages share it; the full
calibrated world lives in ``repro.worlds``.

``build_mini_testbed`` layers a complete AmiGo testbed on top — servers,
resolvers, CDNs and three country deployments — so chaos/property tests
can run whole (tiny) campaigns without the calibrated world's cost.
"""

import random

from repro.cellular import (
    AgreementRegistry,
    IMSIRange,
    MobileOperator,
    OperatorRegistry,
    PGWSite,
    PLMN,
    PGWSelection,
    RoamingAgreement,
    RoamingArchitecture,
    SessionFactory,
)
from repro.geo import default_city_registry
from repro.net import CarrierGradeNAT, LatencyModel


def build_mini_world():
    """Construct the shared mini world; returns a dict of its parts."""
    cities = default_city_registry()
    operators = OperatorRegistry()
    play = MobileOperator(name="Play", country_iso3="POL", plmn=PLMN("260", "06"), asn=12912,
                          home_city=cities.get("Warsaw", "POL"))
    play.rent_range("Airalo", IMSIRange(prefix="2600677", label="airalo"))
    singtel = MobileOperator(
        name="Singtel", country_iso3="SGP", plmn=PLMN("525", "01"), asn=45143,
        home_city=cities.get("Singapore", "SGP"),
    )
    singtel.rent_range("Airalo", IMSIRange(prefix="5250144", label="airalo"))
    movistar = MobileOperator(
        name="Movistar", country_iso3="ESP", plmn=PLMN("214", "07"), asn=3352
    )
    etisalat = MobileOperator(
        name="Etisalat", country_iso3="ARE", plmn=PLMN("424", "02"), asn=5384
    )
    dtac = MobileOperator(
        name="dtac", country_iso3="THA", plmn=PLMN("520", "05"), asn=9587,
        home_city=cities.get("Bangkok", "THA"),
    )
    dtac.rent_range("Airalo", IMSIRange(prefix="5200533", label="airalo"))
    for op in (play, singtel, movistar, etisalat, dtac):
        operators.add(op)

    pgw_sites = {
        "packet-host-ams": PGWSite(
            site_id="packet-host-ams",
            provider_org="Packet Host",
            provider_asn=54825,
            city=cities.get("Amsterdam", "NLD"),
            cgnat=CarrierGradeNAT(
                [f"198.18.0.{i}" for i in range(1, 5)], name="ph-ams"
            ),
            private_hop_depths=(6, 7),
        ),
        "singtel-sgp": PGWSite(
            site_id="singtel-sgp",
            provider_org="Singtel",
            provider_asn=45143,
            city=cities.get("Singapore", "SGP"),
            cgnat=CarrierGradeNAT(
                [f"198.18.1.{i}" for i in range(1, 5)], name="singtel"
            ),
            private_hop_depths=(8,),
        ),
        "dtac-tha": PGWSite(
            site_id="dtac-tha",
            provider_org="dtac",
            provider_asn=9587,
            city=cities.get("Bangkok", "THA"),
            cgnat=CarrierGradeNAT(
                [f"198.18.2.{i}" for i in range(1, 16)], name="dtac"
            ),
            private_hop_depths=(4, 5, 6, 7, 8, 9, 10),
        ),
        "movistar-esp": PGWSite(
            site_id="movistar-esp",
            provider_org="Movistar",
            provider_asn=3352,
            city=cities.get("Madrid", "ESP"),
            cgnat=CarrierGradeNAT(
                [f"198.18.3.{i}" for i in range(1, 9)], name="movistar"
            ),
            private_hop_depths=(4, 5),
        ),
        "etisalat-are": PGWSite(
            site_id="etisalat-are",
            provider_org="Etisalat",
            provider_asn=5384,
            city=cities.get("Abu Dhabi", "ARE"),
            cgnat=CarrierGradeNAT(
                [f"198.18.4.{i}" for i in range(1, 9)], name="etisalat"
            ),
            private_hop_depths=(4, 5),
        ),
    }

    agreements = AgreementRegistry(
        [
            RoamingAgreement(
                b_mno_name="Play",
                v_mno_name="Movistar",
                architecture=RoamingArchitecture.IHBO,
                pgw_site_ids=("packet-host-ams",),
                selection=PGWSelection.UNIFORM,
            ),
            RoamingAgreement(
                b_mno_name="Singtel",
                v_mno_name="Etisalat",
                architecture=RoamingArchitecture.HR,
                pgw_site_ids=("singtel-sgp",),
                tunnel_stretch=3.0,
                extra_rtt_ms=40.0,
            ),
        ]
    )

    factory = SessionFactory(
        operators=operators,
        agreements=agreements,
        pgw_sites=pgw_sites,
        latency=LatencyModel(),
        native_site_ids={
            "dtac": "dtac-tha",
            "Movistar": "movistar-esp",
            "Etisalat": "etisalat-are",
            "Singtel": "singtel-sgp",
        },
    )
    return {
        "operators": operators,
        "agreements": agreements,
        "pgw_sites": pgw_sites,
        "factory": factory,
        "cities": cities,
    }


def build_mini_testbed():
    """A full AmiGo testbed over the mini world; returns a dict of parts.

    Mirrors the fixture stack in ``tests/measure/conftest.py`` but as a
    plain function, so hypothesis-driven tests can build testbeds inside
    a property without touching pytest fixtures.
    """
    from repro.cellular import BandwidthPolicy, RSPServer, issue_physical_sim
    from repro.geo import GeoPoint
    from repro.measure.amigo import CountryDeployment, TestbedResources
    from repro.measure.traceroute import TracerouteEngine
    from repro.net import ASTopology, GeoIPDatabase
    from repro.net.addressbook import ASAddressBook
    from repro.net.ipv4 import parse_ip
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

    world = build_mini_world()
    cities = world["cities"]

    def site(name, iso3, ip):
        return ServerSite(city=cities.get(name, iso3), ip=parse_ip(ip))

    geoip = GeoIPDatabase()
    for prefix, (asn, iso3, city) in {
        "198.18.0.0/24": (54825, "NLD", "Amsterdam"),
        "198.18.1.0/24": (45143, "SGP", "Singapore"),
        "198.18.2.0/24": (9587, "THA", "Bangkok"),
        "198.18.3.0/24": (3352, "ESP", "Madrid"),
        "198.18.4.0/24": (5384, "ARE", "Abu Dhabi"),
    }.items():
        geoip.register(prefix, asn, iso3, city, cities.get(city, iso3).location)
    geoip.register("192.0.2.0/24", 15169, "USA", "Mountain View",
                   GeoPoint(37.39, -122.08))

    addressbook = ASAddressBook(geoip)
    addressbook.register(3356, "198.19.0.0/24", "USA", "Denver",
                         GeoPoint(39.74, -104.99))
    addressbook.register(15169, "198.19.1.0/24", "USA", "Mountain View",
                         GeoPoint(37.39, -122.08))

    topology = ASTopology()
    for asn in (54825, 45143, 9587, 3352, 5384, 15169, 3356):
        topology.add_as(asn)
    for customer in (54825, 45143, 9587, 3352, 5384, 15169):
        topology.add_transit(customer=customer, provider=3356)
    topology.add_peering(54825, 15169)
    fabric = ServiceFabric(latency=LatencyModel(), topology=topology)

    for name, (nd, nu, rd, ru) in {
        "Movistar": (60.0, 20.0, 11.0, 6.0),
        "Etisalat": (90.0, 30.0, 8.0, 5.0),
        "dtac": (35.0, 15.0, 20.0, 10.0),
        "Play": (50.0, 20.0, 12.0, 6.0),
        "Singtel": (120.0, 40.0, 10.0, 6.0),
    }.items():
        world["operators"].get(name).bandwidth = BandwidthPolicy(nd, nu, rd, ru)

    google = ServiceProvider(
        name="Google", asn=15169,
        edges=[site("Amsterdam", "NLD", "192.0.2.1"),
               site("Singapore", "SGP", "192.0.2.2"),
               site("Madrid", "ESP", "192.0.2.3"),
               site("Bangkok", "THA", "192.0.2.4")],
    )
    dns_services = {
        "Google DNS": DNSService(
            name="Google DNS", anycast=True, supports_doh=True,
            anycast_miss_rate=0.0,
            sites=[site("Amsterdam", "NLD", "192.0.2.10"),
                   site("Singapore", "SGP", "192.0.2.11")],
        ),
        "Singtel": DNSService(name="Singtel",
                              sites=[site("Singapore", "SGP", "192.0.2.12")]),
        "dtac": DNSService(name="dtac",
                           sites=[site("Bangkok", "THA", "192.0.2.13")]),
        "Movistar": DNSService(name="Movistar",
                               sites=[site("Madrid", "ESP", "192.0.2.14")]),
        "Etisalat": DNSService(name="Etisalat",
                               sites=[site("Abu Dhabi", "ARE", "192.0.2.15")]),
    }
    cdns = {
        "Cloudflare": CDNProvider(
            name="Cloudflare",
            edges=[site("Amsterdam", "NLD", "192.0.2.20"),
                   site("Singapore", "SGP", "192.0.2.21"),
                   site("Bangkok", "THA", "192.0.2.22"),
                   site("Madrid", "ESP", "192.0.2.23")],
            origin=site("San Jose", "USA", "192.0.2.24"),
        ),
    }
    ookla = SpeedtestFleet(
        name="Ookla",
        servers=[SpeedtestServer(site("Amsterdam", "NLD", "192.0.2.30")),
                 SpeedtestServer(site("Singapore", "SGP", "192.0.2.31")),
                 SpeedtestServer(site("Bangkok", "THA", "192.0.2.32")),
                 SpeedtestServer(site("Madrid", "ESP", "192.0.2.33")),
                 SpeedtestServer(site("Abu Dhabi", "ARE", "192.0.2.34"))],
    )
    resources = TestbedResources(
        fabric=fabric,
        geoip=geoip,
        traceroute_engine=TracerouteEngine(fabric=fabric, addressbook=addressbook),
        operators=world["operators"],
        ookla=ookla,
        cdns=cdns,
        dns_services=dns_services,
        sp_targets={"Google": google},
        player=AdaptiveBitratePlayer(),
    )

    rsp = RSPServer("Airalo")
    sim_rng = random.Random("worldkit:testbed-sims")
    deployments = [
        CountryDeployment(
            country_iso3="ESP", city=cities.get("Madrid", "ESP"),
            physical_sim=issue_physical_sim(world["operators"].get("Movistar"), sim_rng),
            esim=rsp.issue(world["operators"].get("Play"), "ESP", sim_rng),
            v_mno_physical="Movistar", v_mno_esim="Movistar", duration_days=4,
        ),
        CountryDeployment(
            country_iso3="ARE", city=cities.get("Abu Dhabi", "ARE"),
            physical_sim=issue_physical_sim(world["operators"].get("Etisalat"), sim_rng),
            esim=rsp.issue(world["operators"].get("Singtel"), "ARE", sim_rng),
            v_mno_physical="Etisalat", v_mno_esim="Etisalat", duration_days=3,
        ),
        CountryDeployment(
            country_iso3="THA", city=cities.get("Bangkok", "THA"),
            physical_sim=issue_physical_sim(world["operators"].get("dtac"), sim_rng),
            esim=rsp.issue(world["operators"].get("dtac"), "THA", sim_rng),
            v_mno_physical="dtac", v_mno_esim="dtac", duration_days=3,
        ),
    ]
    plans = {
        "ESP": {"speedtest": (4, 4), "mtr:Google": (2, 2), "dns": (2, 2),
                "cdn:Cloudflare": (2, 2), "video": (1, 1)},
        "ARE": {"speedtest": (3, 3), "mtr:Google": (2, 2), "dns": (1, 1)},
        "THA": {"speedtest": (3, 3), "dns": (2, 2), "video": (1, 1)},
    }
    return {
        **world,
        "resources": resources,
        "deployments": deployments,
        "plans": plans,
    }


def mini_campaign_server(chaos=None, seed=7):
    """The mini testbed's control server with every endpoint registered,
    and the plans to run on it: ``(server, plans)``."""
    from repro.measure.amigo import AmigoControlServer

    testbed = build_mini_testbed()
    server = AmigoControlServer(testbed["resources"], testbed["factory"], chaos=chaos)
    for deployment in testbed["deployments"]:
        server.register_endpoint(
            deployment, random.Random(f"{seed}:{deployment.country_iso3}")
        )
    return server, testbed["plans"]


def run_mini_campaign(chaos=None, seed=7):
    """Run the mini testbed's whole campaign; returns the dataset."""
    server, plans = mini_campaign_server(chaos, seed)
    return server.run_campaign(plans)
