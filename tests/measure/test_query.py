"""Equivalence and maintenance tests for the indexed query layer.

The contract of :mod:`repro.measure.query` is: every indexed query
returns *exactly* what the naive list comprehension it replaced
returned — same records, same order — on clean and chaos-degraded
campaigns alike. These tests pin that contract, plus the index
maintenance rules (staleness rebuild, ``merge`` invalidation, pickle
byte-stability) and the speedup the indexes exist for.
"""

import pickle
import time

import pytest

from repro.cellular.esim import SIMKind
from repro.experiments import common
from repro.experiments.table4 import _count
from repro.faults import ChaosConfig
from repro.measure.dataset import MeasurementDataset
from repro.measure.query import KIND_FIELDS, dimensions_for


SEED = 424
SCALE = 0.03


@pytest.fixture(scope="module")
def clean_dataset():
    return common.get_device_dataset(SCALE, SEED)


@pytest.fixture(scope="module")
def chaos_dataset():
    return common.get_device_dataset(
        SCALE, SEED, chaos=ChaosConfig.paper_plausible(SEED)
    )


@pytest.fixture(scope="module", params=["clean", "chaos"])
def dataset(request, clean_dataset, chaos_dataset):
    return clean_dataset if request.param == "clean" else chaos_dataset


def naive(dataset, kind, **dims):
    """The pre-index implementation: one full scan per call."""
    extractors = dimensions_for(kind)
    records = getattr(dataset, KIND_FIELDS[kind])
    out = []
    for record in records:
        if all(extractors[d](record) == v for d, v in dims.items()):
            out.append(record)
    return out


# ---------------------------------------------------------------------------
# Indexed vs naive equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
def test_single_dimension_matches_naive(dataset, kind):
    query = dataset.select(kind)
    for country in query.values("country"):
        indexed = query.where(country=country).records()
        assert indexed == naive(dataset, kind, country=country)


def test_multi_dimension_matches_naive(dataset):
    for kind in ("speedtest", "cdn", "dns"):
        query = dataset.select(kind)
        for country in query.values("country"):
            for sim_kind in (SIMKind.PHYSICAL, SIMKind.ESIM):
                assert query.where(
                    country=country, sim_kind=sim_kind
                ).records() == naive(
                    dataset, kind, country=country, sim_kind=sim_kind
                )


def test_count_matches_record_count(dataset):
    for kind in sorted(KIND_FIELDS):
        query = dataset.select(kind)
        assert query.count() == len(getattr(dataset, KIND_FIELDS[kind]))
        for country in query.values("country"):
            narrowed = query.where(country=country)
            assert narrowed.count() == len(narrowed.records())
            assert len(narrowed) == narrowed.count()


def test_group_by_partitions_in_insertion_order(dataset):
    groups = dataset.select("speedtest").group_by("country")
    assert list(groups) == sorted(groups)
    recovered = [r for bucket in groups.values() for r in bucket]
    assert sorted(map(id, recovered)) == sorted(map(id, dataset.speedtests))
    for country, bucket in groups.items():
        assert bucket == naive(dataset, "speedtest", country=country)


def test_group_by_two_dimensions_matches_naive(dataset):
    groups = dataset.select("speedtest").group_by("country", "sim_kind")
    for (country, sim_kind), bucket in groups.items():
        assert bucket == naive(
            dataset, "speedtest", country=country, sim_kind=sim_kind
        )


def test_count_by_matches_group_by(dataset):
    query = dataset.select("cdn").where(provider="Cloudflare")
    counts = query.count_by("country")
    groups = query.group_by("country")
    assert counts == {country: len(bucket) for country, bucket in groups.items()}


def test_filter_composes_with_where(dataset):
    query = dataset.select("speedtest").filter(lambda r: r.passes_cqi_filter)
    for country in dataset.select("speedtest").values("country"):
        expected = [
            r
            for r in naive(dataset, "speedtest", country=country)
            if r.passes_cqi_filter
        ]
        assert query.where(country=country).records() == expected


def test_where_is_immutable_refinement(dataset):
    base = dataset.select("speedtest")
    esim = base.where(sim_kind=SIMKind.ESIM)
    physical = base.where(sim_kind=SIMKind.PHYSICAL)
    assert esim.count() + physical.count() == base.count()
    # Refining one branch never perturbs the other or the base.
    assert base.count() == len(dataset.speedtests)


def test_where_ignores_none_and_uppercases_country(dataset):
    query = dataset.select("speedtest")
    country = query.values("country")[0]
    assert query.where(country=None, sim_kind=None).records() == query.records()
    assert (
        query.where(country=country.lower()).records()
        == query.where(country=country).records()
    )


def test_where_then_filter_matches_naive(dataset):
    country = dataset.select("speedtest").values("country")[0]
    query = dataset.select("speedtest").where(country=country)
    assert query.records() == naive(dataset, "speedtest", country=country)
    assert query.filter(lambda r: r.passes_cqi_filter).records() == [
        r
        for r in naive(dataset, "speedtest", country=country)
        if r.passes_cqi_filter
    ]


def test_unknown_kind_and_dimension_raise(dataset):
    with pytest.raises(KeyError, match="unknown record kind"):
        dataset.select("telemetry")
    with pytest.raises(KeyError, match="unknown dimension"):
        dataset.select("speedtest").where(provider="Cloudflare").records()


# ---------------------------------------------------------------------------
# Index maintenance
# ---------------------------------------------------------------------------

def _small_copy(dataset, n=12):
    """A mutable dataset sharing no record *lists* with the module fixture."""
    return MeasurementDataset(
        speedtests=list(dataset.speedtests[:n]),
        cdn_fetches=list(dataset.cdn_fetches[:n]),
    )


def test_append_after_index_build_is_seen(clean_dataset):
    small = _small_copy(clean_dataset)
    before = small.select("speedtest").count_by("country")
    extra = clean_dataset.speedtests[-1]
    small.speedtests.append(extra)
    after = small.select("speedtest").count_by("country")
    assert sum(after.values()) == sum(before.values()) + 1
    key = extra.context.country_iso3
    assert after[key] == before.get(key, 0) + 1
    # where(country=, sim_kind=) probes the SIM-kind list's cached
    # position set; an append must drop that set with the index.
    context = small.speedtests[0].context

    def sliced():
        return small.select("speedtest").where(
            country=context.country_iso3, sim_kind=context.sim_kind
        ).count()

    before_sliced = sliced()
    small.speedtests.append(small.speedtests[0])
    assert sliced() == before_sliced + 1


def test_merge_invalidates_and_rebuilds(clean_dataset):
    left = _small_copy(clean_dataset, n=8)
    right = MeasurementDataset(
        speedtests=list(clean_dataset.speedtests[8:16]),
        cdn_fetches=list(clean_dataset.cdn_fetches[8:16]),
    )
    # Build indexes on both sides first, then merge.
    assert left.select("speedtest").count() == len(left.speedtests)
    assert right.select("cdn").count() == len(right.cdn_fetches)
    left.merge(right)
    assert left.select("speedtest").records() == left.speedtests
    assert left.select("cdn").records() == left.cdn_fetches
    for country in left.select("speedtest").values("country"):
        assert left.select("speedtest").where(
            country=country
        ).records() == naive(left, "speedtest", country=country)


def test_index_cache_is_reused_until_invalidated(clean_dataset):
    small = _small_copy(clean_dataset)
    first = small.index.kind("speedtest")
    assert small.index.kind("speedtest") is first
    small.invalidate_indexes()
    assert small.index.kind("speedtest") is not first


def test_pickle_drops_index_cache(clean_dataset):
    plain = _small_copy(clean_dataset)
    queried = _small_copy(clean_dataset)
    queried.select("speedtest").group_by("country")  # force index build
    assert "_index_cache" in queried.__dict__
    assert pickle.dumps(queried) == pickle.dumps(plain)
    revived = pickle.loads(pickle.dumps(queried))
    assert "_index_cache" not in revived.__dict__
    assert revived.select("speedtest").count() == queried.select("speedtest").count()


# ---------------------------------------------------------------------------
# Speedup over the naive scans
# ---------------------------------------------------------------------------

SPEEDUP_SCALE = 1.0
SPEEDUP_ROUNDS = 5
MIN_SPEEDUP = 5.0

#: Table 4's cells as (key, record list, field, wanted value).
_TABLE4_TESTS = [
    ("speedtest", "speedtests", None, None),
    ("mtr:Facebook", "traceroutes", "target", "Facebook"),
    ("mtr:Google", "traceroutes", "target", "Google"),
    ("mtr:YouTube", "traceroutes", "target", "YouTube"),
    ("cdn:Cloudflare", "cdn_fetches", "provider", "Cloudflare"),
    ("cdn:Google CDN", "cdn_fetches", "provider", "Google CDN"),
    ("cdn:jQuery", "cdn_fetches", "provider", "jQuery"),
    ("cdn:jsDelivr", "cdn_fetches", "provider", "jsDelivr"),
    ("cdn:Microsoft Ajax", "cdn_fetches", "provider", "Microsoft Ajax"),
    ("video", "video_probes", None, None),
]


def _naive_table4_count(dataset, country):
    """Table 4's counting as written before the query layer: one full
    list scan per cell."""
    counts = {}
    for key, attr, field, wanted in _TABLE4_TESTS:
        sim = esim = 0
        for record in getattr(dataset, attr):
            if record.context.country_iso3 != country:
                continue
            if field is not None and getattr(record, field) != wanted:
                continue
            if record.context.sim_kind is SIMKind.ESIM:
                esim += 1
            else:
                sim += 1
        counts[key] = (sim, esim)
    return counts


def _best_of(fn, rounds):
    best, result = float("inf"), None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_indexed_table4_counting_beats_naive_scans():
    """The full-scale Table 4 pass: cold (paying the index build) and
    warm indexed counts equal the naive scans, and the warm pass, the
    one every later artefact pays, is at least 5x faster."""
    dataset = common.get_device_dataset(SPEEDUP_SCALE)
    countries = sorted({
        record.context.country_iso3
        for _, attr, _, _ in _TABLE4_TESTS
        for record in getattr(dataset, attr)
    })

    def table4_pass(count):
        return {country: count(dataset, country) for country in countries}

    naive_s, naive_rows = _best_of(
        lambda: table4_pass(_naive_table4_count), SPEEDUP_ROUNDS
    )
    dataset.invalidate_indexes()
    _cold_s, cold_rows = _best_of(lambda: table4_pass(_count), 1)
    warm_s, warm_rows = _best_of(lambda: table4_pass(_count), SPEEDUP_ROUNDS)

    assert cold_rows == naive_rows
    assert warm_rows == naive_rows
    speedup = naive_s / warm_s
    assert speedup >= MIN_SPEEDUP, (
        f"indexed Table 4 counting is {speedup:.1f}x the naive scans "
        f"({warm_s * 1e3:.2f} ms vs {naive_s * 1e3:.2f} ms over "
        f"{dataset.total_records()} records; floor {MIN_SPEEDUP:.0f}x)"
    )
