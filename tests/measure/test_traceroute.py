"""Tests for the traceroute engine and its paper-style post-processing."""

import random

import pytest

from repro.measure.traceroute import Hop, TracerouteEngine, TracerouteResult, postprocess
from repro.net.ipv4 import is_private_ip
from tests.measure.conftest import make_session


@pytest.fixture()
def ihbo(world, airalo_esim_esp, rng):
    ue, session = make_session(world, airalo_esim_esp, "Madrid", "ESP", "Movistar", rng)
    return airalo_esim_esp, session


@pytest.fixture()
def hr(world, airalo_esim_are, rng):
    ue, session = make_session(world, airalo_esim_are, "Abu Dhabi", "ARE", "Etisalat", rng)
    return airalo_esim_are, session


@pytest.fixture()
def native(world, airalo_esim_tha, rng):
    ue, session = make_session(world, airalo_esim_tha, "Bangkok", "THA", "dtac", rng)
    return airalo_esim_tha, session


def test_path_structure_private_then_public(engine, google, ihbo, conditions, rng):
    sim, session = ihbo
    result = engine.trace(session, google, conditions, rng)
    responded = result.responding_hops
    assert responded, "some hops must respond"
    # Once public, never private again.
    seen_public = False
    for hop in responded:
        if not is_private_ip(hop.ip):
            seen_public = True
        else:
            assert not seen_public, "private hop after public breakout"
    # Final hop is the Google edge.
    assert result.hops[-1].ip == result.target_ip


def test_first_public_hop_is_session_public_ip(engine, google, ihbo, conditions):
    sim, session = ihbo
    rng = random.Random(0)
    result = engine.trace(session, google, conditions, rng)
    publics = [h for h in result.responding_hops if not is_private_ip(h.ip)]
    # The demarcation point is the CG-NAT binding (unless it timed out).
    assert publics[0].ip in (str(session.public_ip), result.target_ip) or publics[0].ip


def test_rtts_monotone_along_base_path(engine, google, hr, conditions):
    sim, session = hr
    rng = random.Random(1)
    result = engine.trace(session, google, conditions, rng)
    responded = result.responding_hops
    # Jitter can locally reorder, but last hop must exceed first hop.
    assert responded[-1].rtt_ms > responded[0].rtt_ms * 0.9


def test_postprocess_counts_and_demarcation(engine, google, ihbo, conditions, geoip):
    sim, session = ihbo
    rng = random.Random(2)
    result = engine.trace(session, google, conditions, rng)
    record = postprocess(result, session, sim, conditions, geoip)
    assert record.private_hops >= session.private_hop_count
    assert record.public_hops >= 1
    assert record.path_length == record.private_hops + record.public_hops
    if record.pgw_ip is not None:
        assert not is_private_ip(record.pgw_ip)


def test_postprocess_identifies_pgw_provider_asn(engine, google, ihbo, conditions, geoip):
    sim, session = ihbo
    rng = random.Random(3)
    # Run until the CG-NAT responds (response rate 0.9).
    for _ in range(10):
        result = engine.trace(session, google, conditions, rng)
        record = postprocess(result, session, sim, conditions, geoip)
        if record.pgw_ip == str(session.public_ip):
            assert geoip.asn_of(record.pgw_ip) == 54825
            break
    else:
        pytest.fail("CG-NAT never responded in 10 runs")


def test_unique_asns_direct_peering_is_two(engine, google, ihbo, conditions, geoip):
    sim, session = ihbo
    rng = random.Random(4)
    counts = []
    for _ in range(30):
        result = engine.trace(session, google, conditions, rng)
        record = postprocess(result, session, sim, conditions, geoip)
        counts.append(len(record.unique_asns))
    # Packet Host peers directly with Google: typically 2 unique ASNs.
    assert sorted(counts)[len(counts) // 2] == 2


def test_native_shorter_private_rtt_than_hr(engine, google, native, hr, conditions, geoip):
    rng = random.Random(5)
    sim_n, session_n = native
    sim_h, session_h = hr

    def pgw_rtt(sim, session):
        for _ in range(10):
            record = postprocess(
                engine.trace(session, google, conditions, rng),
                session, sim, conditions, geoip,
            )
            if record.pgw_rtt_ms is not None:
                return record.pgw_rtt_ms
        pytest.fail("no PGW RTT observed")

    assert pgw_rtt(sim_h, session_h) > 3 * pgw_rtt(sim_n, session_n)


def test_private_latency_share_hr_dominates(engine, google, hr, conditions, geoip):
    sim, session = hr
    rng = random.Random(6)
    shares = []
    for _ in range(20):
        record = postprocess(
            engine.trace(session, google, conditions, rng),
            session, sim, conditions, geoip,
        )
        share = record.private_latency_share
        if share is not None:
            shares.append(share)
    assert shares
    # HR: private segment is ~all of the end-to-end latency (Figure 12b).
    assert sorted(shares)[len(shares) // 2] > 0.95


def test_cgnat_timeout_hides_pgw_asn(fabric, addressbook, google, ihbo, conditions, geoip):
    sim, session = ihbo
    engine = TracerouteEngine(fabric, addressbook, cgnat_response_rate=0.0)
    rng = random.Random(7)
    record = postprocess(
        engine.trace(session, google, conditions, rng),
        session, sim, conditions, geoip,
    )
    # With the CG-NAT silent, the PGW provider's ASN disappears from the
    # traceroute (the Germany/Facebook effect in Figure 6).
    assert 54825 not in record.unique_asns
    assert record.pgw_ip != str(session.public_ip)


def test_engine_validation(fabric, addressbook):
    with pytest.raises(ValueError):
        TracerouteEngine(fabric, addressbook, cgnat_response_rate=1.5)


def test_trace_deterministic_per_seed(engine, google, ihbo, conditions):
    sim, session = ihbo
    a = engine.trace(session, google, conditions, random.Random(42))
    b = engine.trace(session, google, conditions, random.Random(42))
    assert a.hops == b.hops


def test_cgnat_override_applies_per_country_target(fabric, addressbook, google, facebook, ihbo, conditions, geoip):
    sim, session = ihbo  # Madrid device: country ESP
    engine = TracerouteEngine(
        fabric, addressbook,
        cgnat_response_overrides={("ESP", "Facebook"): 0.0},
    )
    rng = random.Random(13)
    fb = postprocess(engine.trace(session, facebook, conditions, rng),
                     session, sim, conditions, geoip)
    postprocess(engine.trace(session, google, conditions, rng),
                session, sim, conditions, geoip)
    # Facebook path hides the CG-NAT; Google unaffected (rate 0.9).
    assert fb.pgw_ip != str(session.public_ip)
    assert 54825 not in fb.unique_asns


def test_cgnat_override_validation(fabric, addressbook):
    with pytest.raises(ValueError):
        TracerouteEngine(fabric, addressbook,
                         cgnat_response_overrides={("DEU", "Facebook"): 1.5})


def _split_per_string(result, geoip):
    """Demarcation and ASN mapping as ``postprocess`` computed them when it
    parsed each hop's address string at every check."""
    first_public = None
    for position, hop in enumerate(result.hops):
        if hop.responded and not is_private_ip(hop.ip):
            first_public = position
            break
    unique_asns = []
    for hop in result.hops:
        if not hop.responded or is_private_ip(hop.ip):
            continue
        record = geoip.lookup_opt(hop.ip)
        if record is not None and record.asn not in unique_asns:
            unique_asns.append(record.asn)
    if first_public is None:
        return len(result.hops), 0, None, None, unique_asns
    hop = result.hops[first_public]
    return first_public, len(result.hops) - first_public, hop.ip, hop.rtt_ms, unique_asns


@pytest.mark.parametrize("cgnat_rate", [0.0, 0.5, 0.9])
def test_postprocess_equals_per_string_parsing(
    fabric, addressbook, google, facebook, ihbo, hr, native, conditions, geoip, cgnat_rate
):
    engine = TracerouteEngine(fabric, addressbook, cgnat_response_rate=cgnat_rate)
    rng = random.Random(8)
    results = [
        (sim, session, engine.trace(session, provider, conditions, rng))
        for sim, session in (ihbo, hr, native)
        for provider in (google, facebook)
        for _ in range(25)
    ]
    # A path that never leaves private space, with a timeout in it.
    sim, session = ihbo
    private = TracerouteResult("Google", "10.0.0.9", [
        Hop(1, "10.0.0.1", 5.0), Hop(2, None, None), Hop(3, "100.64.0.1", 9.0),
    ])
    results.append((sim, session, private))
    for sim, session, result in results:
        record = postprocess(result, session, sim, conditions, geoip)
        got = (record.private_hops, record.public_hops, record.pgw_ip,
               record.pgw_rtt_ms, record.unique_asns)
        assert got == _split_per_string(result, geoip)
    assert record.pgw_ip is None and record.private_hops == 3
