"""Cross-cutting property-based tests on core invariants.

These go beyond the per-module unit tests: they generate random
topologies, ladders, markets and hop lists, and assert the structural
properties the analysis layer relies on.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.cellular.identifiers import IMSIRange, PLMN, infer_imsi_prefixes
from repro.net.topology import ASTopology, NoRouteError
from repro.services.video import AdaptiveBitratePlayer
from repro.market.providers import EsimProvider
from repro.geo import default_country_registry

from tests.market.reference import offers_for, unit_price

COUNTRIES = list(default_country_registry())


# ---------------------------------------------------------------------------
# Valley-free routing on random topologies
# ---------------------------------------------------------------------------

@st.composite
def random_topology(draw):
    """A random AS graph with a transit tree plus random peering edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    asns = list(range(1, n + 1))
    topo = ASTopology()
    for asn in asns:
        topo.add_as(asn)
    # Transit tree: every AS (except AS1, the root) buys from a lower ASN,
    # guaranteeing global reachability with no customer-provider cycles.
    for asn in asns[1:]:
        provider = draw(st.integers(min_value=1, max_value=asn - 1))
        topo.add_transit(customer=asn, provider=provider)
    # Random extra peering edges.
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=1, max_value=n))
        b = draw(st.integers(min_value=1, max_value=n))
        if a != b:
            topo.add_peering(a, b)
    return topo, asns


def _edge_kind(topo: ASTopology, a: int, b: int) -> str:
    """How traffic moves from a to b: 'up', 'down', or 'peer'."""
    for edge in topo._out[a]:  # noqa: SLF001 - test introspection
        if edge.neighbor != b:
            continue
        if edge.peer:
            return "peer"
        return "up" if edge.up else "down"
    raise AssertionError(f"no edge {a}->{b}")


@given(random_topology(), st.data())
@settings(max_examples=60, deadline=None)
def test_paths_are_valley_free_and_loopless(topology_and_asns, data):
    topo, asns = topology_and_asns
    src = data.draw(st.sampled_from(asns))
    dst = data.draw(st.sampled_from(asns))
    try:
        path = topo.as_path(src, dst)
    except NoRouteError:
        return  # absence of a route is a legal outcome
    assert path[0] == src and path[-1] == dst
    assert len(set(path)) == len(path), "AS loop"
    # Valley-free shape: up* peer? down*
    kinds = [_edge_kind(topo, a, b) for a, b in zip(path, path[1:])]
    state = "up"
    peers_crossed = 0
    for kind in kinds:
        if kind == "up":
            assert state == "up", f"climb after descent in {kinds}"
        elif kind == "peer":
            peers_crossed += 1
            assert state == "up", f"peer after descent in {kinds}"
            state = "down"
        else:
            state = "down"
    assert peers_crossed <= 1


@given(random_topology(), st.data())
@settings(max_examples=40, deadline=None)
def test_transit_tree_guarantees_reachability(topology_and_asns, data):
    # With the transit tree, any pair reachable through the root.
    topo, asns = topology_and_asns
    src = data.draw(st.sampled_from(asns))
    dst = data.draw(st.sampled_from(asns))
    path = topo.as_path(src, dst)  # must not raise
    assert path


# ---------------------------------------------------------------------------
# ABR player
# ---------------------------------------------------------------------------

@given(
    st.floats(min_value=0.2, max_value=100.0),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_player_report_is_consistent(throughput, seed):
    player = AdaptiveBitratePlayer()
    report = player.play(throughput, random.Random(seed), duration_s=80)
    assert len(report.segment_resolutions) == 20
    assert report.rebuffer_events >= 0
    assert 0.0 <= report.mean_buffer_s <= player.buffer_capacity_s
    assert report.startup_delay_s > 0
    shares = [report.share_at_or_above(p) for p in (240, 480, 720, 1080, 1440)]
    # Monotone non-increasing in resolution.
    assert all(a >= b for a, b in zip(shares, shares[1:]))


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_player_generous_link_never_rebuffers(seed):
    player = AdaptiveBitratePlayer(p_high_rung=0.0)
    # 10x the top default rung with low variance: downloads always keep up.
    report = player.play(80.0, random.Random(seed), duration_s=120,
                         throughput_cv=0.05)
    assert report.rebuffer_events == 0
    assert report.share_at_or_above(1080) == 1.0


# ---------------------------------------------------------------------------
# Market pricing
# ---------------------------------------------------------------------------

@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=1.0, max_value=1.3),
    st.sampled_from(COUNTRIES),
    st.integers(min_value=0, max_value=119),
)
@settings(max_examples=60, deadline=None)
def test_plan_prices_monotone_in_size(factor, exponent, country, day):
    provider = EsimProvider(
        name="prop", price_factor=factor,
        plan_sizes_gb=(1, 2, 5, 10, 20), coverage_count=50,
        size_exponent=exponent,
    )
    offers = offers_for(provider, country, day)
    ordered = sorted(offers, key=lambda o: o.data_gb)
    prices = [o.price_usd for o in ordered]
    assert prices == sorted(prices)
    per_gb = [o.usd_per_gb for o in ordered]
    if exponent > 1.0:
        # Superlinearity: $/GB never decreases with size (rounding aside).
        assert all(b >= a - 0.02 for a, b in zip(per_gb, per_gb[1:]))


@given(
    st.sampled_from(COUNTRIES),
    st.integers(min_value=0, max_value=119),
    st.integers(min_value=0, max_value=119),
)
@settings(max_examples=60, deadline=None)
def test_prices_never_decrease_over_the_ramp(country, day_a, day_b):
    from repro.market.providers import AIRALO

    early, late = sorted((day_a, day_b))
    assert unit_price(AIRALO, country, late) >= unit_price(AIRALO, country, early) - 1e-9


# ---------------------------------------------------------------------------
# IMSI prefix mining
# ---------------------------------------------------------------------------

@given(
    st.integers(min_value=0, max_value=10**6 - 1),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_mined_prefixes_cover_only_given_plmn(block_offset, count, seed):
    plmn = PLMN("262", "23")
    block = IMSIRange(prefix="26223" + str(block_offset).zfill(6)[:4])
    rng = random.Random(seed)
    imsis = [block.sample(rng) for _ in range(count)]
    mined = infer_imsi_prefixes(imsis, plmn, min_support=2)
    for prefix, support in mined:
        assert prefix.startswith(plmn.code)
        assert 2 <= support <= count
        # Every mined prefix is actually inhabited by the sample.
        assert any(i.value.startswith(prefix) for i in imsis)


# ---------------------------------------------------------------------------
# Dataset persistence
# ---------------------------------------------------------------------------

@st.composite
def measurement_contexts(draw):
    from repro.cellular.esim import SIMKind
    from repro.cellular.roaming import RoamingArchitecture
    from repro.measure.records import MeasurementContext

    return MeasurementContext(
        country_iso3=draw(st.sampled_from(["ESP", "PAK", "THA", "GEO"])),
        sim_kind=draw(st.sampled_from(list(SIMKind))),
        architecture=draw(st.sampled_from(list(RoamingArchitecture))),
        b_mno=draw(st.sampled_from(["Play", "Singtel", "dtac"])),
        v_mno="Movistar",
        pgw_provider="Packet Host",
        pgw_asn=draw(st.integers(min_value=1, max_value=2**31)),
        pgw_country="NLD",
        public_ip="198.18.0.1",
        rat=draw(st.sampled_from(["4G", "5G"])),
        cqi=draw(st.integers(min_value=1, max_value=15)),
        session_id=draw(st.text(alphabet="abc123-", min_size=1, max_size=12)),
        day=draw(st.integers(min_value=0, max_value=60)),
    )


@given(measurement_contexts(), st.floats(1, 1e4), st.floats(0.1, 500), st.floats(0.1, 100))
@settings(max_examples=40, deadline=None)
def test_dataset_roundtrip_arbitrary_records(context, latency, down, up):
    import pathlib
    import tempfile

    from repro.measure.dataset import MeasurementDataset
    from repro.measure.io import load_dataset, save_dataset
    from repro.measure.records import SpeedtestRecord

    dataset = MeasurementDataset()
    dataset.speedtests.append(
        SpeedtestRecord(
            context=context, server_city="Amsterdam",
            latency_ms=latency, download_mbps=down, upload_mbps=up,
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ds.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
    assert loaded.speedtests == dataset.speedtests


# ---------------------------------------------------------------------------
# CDN slow start
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=10**8))
@settings(max_examples=60, deadline=None)
def test_slow_start_rounds_monotone_and_sufficient(size):
    from repro.services.cdn import slow_start_rounds, _INITCWND_BYTES

    rounds = slow_start_rounds(size)
    # Delivered bytes after `rounds` doubling rounds must cover the size.
    delivered = _INITCWND_BYTES * (2**rounds - 1)
    assert delivered >= size
    if rounds > 1:
        prev = _INITCWND_BYTES * (2 ** (rounds - 1) - 1)
        assert prev < size  # rounds is minimal
