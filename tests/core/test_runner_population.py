"""Runner integration for the shared columnar population substrate.

Covers the lifecycle the tentpole refactor added to ``StudyRunner``:
``warm_inputs`` builds (or mmap-loads) the population when an artefact
declares the ``population`` input or ``share_population=True``; a
parallel run publishes exactly one shared-memory snapshot whose
descriptor rides the pool initargs; workers adopt it zero-copy; and the
segment is unlinked when the run ends — success, failure or interrupt.
"""

import glob
import json

import pytest

from repro.core import cache as cache_mod
from repro.core.runner import StudyRunner
from repro.experiments import common, registry
from repro.experiments.export import jsonable

SCALE = 0.05


@pytest.fixture()
def isolated_cache(tmp_path):
    previous = cache_mod.get_default_cache()
    store = cache_mod.configure(root=tmp_path / "cache")
    common.clear_caches()
    yield store
    common.clear_caches()
    cache_mod.set_default_cache(previous)


def _shm_segments():
    return glob.glob("/dev/shm/repro-cols-*")


# -- a temporary experiment that declares the population input ----------------

def run(seed: int, scale: float = SCALE) -> dict:
    population = common.get_population(seed, scale)
    q = population.query()
    return {
        "subscribers": len(population),
        "esims": q.where(kind=1).count(),
        "adopted": common._adopted_population is not None,
    }


def format_result(result: dict) -> str:
    return f"subscribers={result['subscribers']} esims={result['esims']}"


@pytest.fixture()
def population_experiment():
    registry.load_all()
    decorated = registry.experiment(
        "X97", title="population smoke", inputs=("population",)
    )(run)
    assert decorated is run
    yield "X97"
    registry._SPECS.pop("X97", None)


class TestWarmInputs:
    def test_population_not_warmed_unless_asked(self, isolated_cache):
        runner = StudyRunner(seed=2024, jobs=1)
        runner.warm_inputs(SCALE, ["T2"])
        assert not common._populations
        assert runner._population_snapshot is None

    def test_share_flag_warms_population(self, isolated_cache):
        runner = StudyRunner(seed=2024, jobs=1, share_population=True)
        runner.warm_inputs(SCALE, ["T2"])
        assert (2024, SCALE) in common._populations
        # serial runs never publish: there is no worker to share with
        assert runner._population_snapshot is None

    def test_declared_input_warms_population(
        self, isolated_cache, population_experiment
    ):
        runner = StudyRunner(seed=2024, jobs=1)
        runner.warm_inputs(SCALE, [population_experiment])
        assert (2024, SCALE) in common._populations

    def test_parallel_share_publishes_one_snapshot(self, isolated_cache):
        runner = StudyRunner(seed=2024, jobs=2, share_population=True)
        try:
            runner.warm_inputs(SCALE, ["T2"])
            snapshot = runner._population_snapshot
            assert snapshot is not None
            assert snapshot.descriptor.nbytes > 0
            # idempotent: warming again must not republish
            runner.warm_inputs(SCALE, ["T2"])
            assert runner._population_snapshot is snapshot
        finally:
            runner._release_population()
        assert runner._population_snapshot is None

    def test_snapshot_written_to_cache_for_cold_processes(self, isolated_cache):
        runner = StudyRunner(seed=2024, jobs=1, share_population=True)
        runner.warm_inputs(SCALE, ["T2"])
        (path,) = isolated_cache.root.glob("population-*.cols")
        # a fresh process-alike (cleared memo) mmap-loads the same bytes
        common.clear_caches()
        reloaded = common.get_population(2024, SCALE)
        assert reloaded.to_bytes() == path.read_bytes()


class TestRunAll:
    def test_population_experiment_serial_vs_parallel(
        self, isolated_cache, population_experiment
    ):
        serial = StudyRunner(seed=2024, jobs=1).run_all(
            scale=SCALE, artefacts=[population_experiment]
        )
        assert not serial.failed(), serial.summary_table()
        common.clear_caches()
        parallel = StudyRunner(seed=2024, jobs=2).run_all(
            scale=SCALE, artefacts=[population_experiment]
        )
        assert not parallel.failed(), parallel.summary_table()
        for report in (serial, parallel):
            result = report.results[population_experiment]
            assert result["subscribers"] == len(
                common.get_population(2024, SCALE)
            )
        assert (
            serial.results[population_experiment]["subscribers"]
            == parallel.results[population_experiment]["subscribers"]
        )
        # the parallel worker served the query from the adopted snapshot
        assert parallel.results[population_experiment]["adopted"] is True
        assert serial.results[population_experiment]["adopted"] is False

    def test_segments_cleaned_up_after_run(
        self, isolated_cache, population_experiment
    ):
        before = set(_shm_segments())
        report = StudyRunner(seed=2024, jobs=2).run_all(
            scale=SCALE, artefacts=[population_experiment, "T2"]
        )
        assert not report.failed(), report.summary_table()
        leaked = set(_shm_segments()) - before
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_share_population_does_not_perturb_results(self, isolated_cache):
        subset = ["T2", "F7"]
        plain = StudyRunner(seed=2024, jobs=1).run_all(
            scale=SCALE, artefacts=subset
        )
        common.clear_caches()
        shared = StudyRunner(seed=2024, jobs=2, share_population=True).run_all(
            scale=SCALE, artefacts=subset
        )
        assert not plain.failed() and not shared.failed()
        for artefact_id in subset:
            assert json.dumps(
                jsonable(plain.results[artefact_id]), indent=2, sort_keys=True
            ) == json.dumps(
                jsonable(shared.results[artefact_id]), indent=2, sort_keys=True
            ), f"{artefact_id} drifted under share_population"


class TestRegistry:
    def test_population_is_a_known_input_kind(self):
        assert "population" in registry.INPUT_KINDS

    def test_describe_inputs_includes_population(self, population_experiment):
        spec = registry.get_spec(population_experiment)
        assert spec.describe_inputs() == "population"
