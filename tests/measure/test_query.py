"""Equivalence and maintenance tests for the indexed query layer.

The contract of :mod:`repro.measure.query` is: every indexed query
returns *exactly* what the naive list comprehension it replaced
returned — same records, same order — on clean and chaos-degraded
campaigns alike. These tests pin that contract, plus the index
maintenance rules (staleness rebuild, ``merge`` invalidation, pickle
byte-stability).
"""

import pickle

import pytest

from repro.cellular.esim import SIMKind
from repro.experiments import common
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


def test_legacy_helpers_delegate_to_index(dataset):
    country = dataset.select("speedtest").values("country")[0]
    assert dataset.speedtests_where(country=country) == naive(
        dataset, "speedtest", country=country
    )
    assert dataset.speedtests_where(country=country, cqi_filtered=True) == [
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
