"""Tests for the columnar subscriber population (repro.worlds.population)."""

import pytest

from repro.cellular.esim import SIMKind
from repro.core import columns as columns_mod
from repro.worlds import paperdata
from repro.worlds.airalo import scaled_count
from repro.worlds.population import (
    BASE_ESIM_SUBSCRIBERS,
    BASE_LOCAL_SUBSCRIBERS,
    Population,
    attach_population,
    build_population,
    build_population_objects,
    estimate_snapshot_bytes,
)

SEED = 2024


@pytest.fixture(scope="module")
def population():
    return build_population(SEED, 0.2)


class TestScaledCount:
    def test_shrink_keeps_historic_semantics(self):
        assert scaled_count(100, 0.15) == 15
        assert scaled_count(3, 0.15) == 1  # floor of one survivor
        assert scaled_count(0, 0.15) == 0  # nothing to sample from

    def test_growth_is_proportional(self):
        assert scaled_count(750, 50) == 37500
        assert scaled_count(500, 100) == 50000
        assert scaled_count(1, 2.5) == 2  # banker's rounding, frozen by golden

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_count(10, 0)
        with pytest.raises(ValueError):
            scaled_count(10, -1.0)


class TestBuild:
    def test_row_count_scales(self, population):
        per_offering = scaled_count(BASE_ESIM_SUBSCRIBERS, 0.2) + scaled_count(
            BASE_LOCAL_SUBSCRIBERS, 0.2
        )
        assert len(population) == per_offering * len(paperdata.ESIM_OFFERINGS)

    def test_identity_metadata(self, population):
        assert population.seed == SEED
        assert population.scale == 0.2

    def test_same_seed_same_bytes(self, population):
        assert build_population(SEED, 0.2).to_bytes() == population.to_bytes()

    def test_different_seed_different_bytes(self, population):
        assert build_population(SEED + 1, 0.2).to_bytes() != population.to_bytes()

    def test_imsis_unique_and_valid(self, population):
        imsis = [v.profile.imsi.value for v in population]
        assert len(set(imsis)) == len(imsis)
        assert all(len(value) == 15 and value.isdigit() for value in imsis)

    def test_esim_imsis_stay_clear_of_campaign_cursors(self, population):
        """Population eSIMs issue from the top of each rented range; the
        RSP provisioning campaigns issue from index 0 upward. At any
        plausible scale the two must never meet."""
        prefixes = {
            spec.airalo_imsi_prefix for spec in paperdata.B_MNO_SPECS
        }
        for view in population:
            if not view.profile.is_esim:
                continue
            value = view.profile.imsi.value
            prefix, suffix = value[:8], value[8:]
            assert prefix in prefixes
            assert int(suffix) > 10 ** 6, "population must use the top of range"

    def test_addresses_unique_within_cgnat_pool(self, population):
        import ipaddress

        addresses = {view.address for view in population}
        assert len(addresses) == len(population)
        network = ipaddress.ip_network("100.64.0.0/10")
        for address in list(addresses)[:100]:
            assert ipaddress.ip_address(address) in network

    def test_iccids_luhn_valid(self, population):
        from repro.cellular.identifiers import luhn_check_digit

        for index in range(0, len(population), 997):
            iccid = population.subscriber(index).profile.iccid
            assert len(iccid) == 19
            assert iccid.startswith("8901")
            assert int(iccid[-1]) == luhn_check_digit(iccid[:-1])

    def test_stats_shape(self, population):
        stats = population.stats()
        assert stats["subscribers"] == len(population)
        assert stats["esims"] + stats["physical_sims"] == stats["subscribers"]
        assert 0 < stats["attached"] < stats["subscribers"]
        assert set(stats["countries"]) == {
            o.country_iso3 for o in paperdata.ESIM_OFFERINGS
        }
        assert stats["total_bytes"] == population.store.nbytes
        assert stats["monthly_traffic_gb"] > 0

    def test_estimate_tracks_actual_payload(self, population):
        estimated = estimate_snapshot_bytes(0.2)
        actual = sum(population.store.column_nbytes().values())
        assert estimated == actual


class TestViews:
    def test_profile_view_speaks_simprofile_api(self, population):
        view = population.subscriber(0).profile
        assert view.kind in (SIMKind.ESIM, SIMKind.PHYSICAL)
        assert view.is_esim == (view.kind is SIMKind.ESIM)
        assert view.plan_country_iso3 == population.subscriber(0).country_iso3
        materialized = view.materialize()
        assert materialized.iccid == view.iccid
        assert materialized.imsi.value == view.imsi.value

    def test_out_of_range_subscriber(self, population):
        with pytest.raises(IndexError):
            population.subscriber(len(population))
        with pytest.raises(IndexError):
            population.subscriber(-1)

    def test_local_subscribers_use_retail_operator(self, population):
        by_country = {}
        for view in population:
            if view.profile.kind is SIMKind.PHYSICAL:
                by_country.setdefault(view.country_iso3, view)
        for iso3, operator in paperdata.PHYSICAL_SIM_OPERATORS.items():
            if iso3 in by_country:
                assert by_country[iso3].profile.issuer_mno_name == operator


class TestSnapshots:
    def test_save_load_equivalence(self, population, tmp_path):
        from repro.core.cache import ArtifactCache

        cache = ArtifactCache(root=tmp_path)
        cache.store("population-test", population.store)
        loaded = Population(cache.load("population-test"))
        assert len(loaded) == len(population)
        assert (
            loaded.subscriber(17).materialize()
            == population.subscriber(17).materialize()
        )
        loaded.close()

    def test_meta_kind_guard(self):
        store = columns_mod.ColumnStore(meta={"kind": "something-else"})
        with pytest.raises(ValueError):
            Population(store)

    def test_attach_lifecycle(self, population):
        published = columns_mod.publish(population.store)
        try:
            attached, _ = attach_population(published.descriptor)
            assert (
                attached.subscriber(3).materialize()
                == population.subscriber(3).materialize()
            )
            attached.close()
            attached.close()  # idempotent
        finally:
            published.close()


def test_scale_guard_capacity_error():
    """A scale that exhausts an IMSI range fails loudly, not silently."""
    with pytest.raises(ValueError):
        build_population(SEED, 10 ** 6)


def test_objects_builder_matches_columnar_counts():
    objects = build_population_objects(SEED, 0.1)
    columnar = build_population(SEED, 0.1)
    assert len(objects) == len(columnar)
    assert objects[0].profile.iccid == columnar.subscriber(0).profile.iccid
