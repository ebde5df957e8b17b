"""Tests for the parallel study runner (repro.core.runner)."""

import json
import os
import time

import pytest

from repro.core import StudyRunner, ThickMnaStudy
from repro.core import cache as cache_mod

#: Small, fast, representative mix: a topology table (world only), a
#: device-campaign figure, the headline numbers and a market figure.
SUBSET = ["T2", "F7", "HX1", "F18"]
SCALE = 0.05


@pytest.fixture()
def isolated_cache(tmp_path):
    previous = cache_mod.get_default_cache()
    store = cache_mod.configure(root=tmp_path / "cache")
    from repro.experiments import common

    common.clear_caches()
    yield store
    common.clear_caches()
    cache_mod.set_default_cache(previous)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        StudyRunner(jobs=0)


def test_unknown_artefact_fails_fast():
    with pytest.raises(KeyError):
        StudyRunner(jobs=1).run_all(scale=SCALE, artefacts=["F99"])


def test_serial_report_ledger(isolated_cache):
    report = StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, artefacts=SUBSET)
    assert [run.artefact_id for run in report.runs] == SUBSET
    assert all(run.status == "ok" for run in report.runs)
    assert set(report.results) == set(SUBSET)
    assert report.total_wall_s > 0
    assert len({run.worker for run in report.runs}) == 1
    table = report.summary_table()
    assert "4/4 artefacts ok" in table
    assert "jobs=1" in table


def test_parallel_matches_serial_byte_for_byte(isolated_cache):
    study = ThickMnaStudy(seed=2024)
    serial = StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, artefacts=SUBSET)
    parallel = StudyRunner(seed=2024, jobs=2).run_all(scale=SCALE, artefacts=SUBSET)
    assert not parallel.failed()
    for artefact_id in SUBSET:
        assert study.format_result(
            artefact_id, serial.results[artefact_id]
        ) == study.format_result(artefact_id, parallel.results[artefact_id])


def test_parallel_runs_span_workers(isolated_cache):
    report = StudyRunner(seed=2024, jobs=2).run_all(scale=SCALE, artefacts=SUBSET)
    assert all(run.worker.startswith("pid-") for run in report.runs)


def test_failure_is_isolated_per_artefact(isolated_cache, monkeypatch):
    import repro.experiments.table2 as table2

    def boom(**kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(table2, "run", boom)
    report = StudyRunner(seed=2024, jobs=1).run_all(
        scale=SCALE, artefacts=["T2", "F7"]
    )
    by_id = {run.artefact_id: run for run in report.runs}
    assert by_id["T2"].status == "error"
    assert "synthetic failure" in by_id["T2"].error
    assert by_id["F7"].status == "ok"
    assert "F7" in report.results and "T2" not in report.results
    assert "FAILED T2" in report.summary_table()


def test_serial_ledger_records_the_peak_rss_after_each_artefact(isolated_cache):
    """One process's high-water mark never falls, so in run order the
    rows' values never decrease; a resumed row ran nowhere and reads 0."""
    report = StudyRunner(seed=2024, jobs=1).run_all(
        scale=SCALE, artefacts=SUBSET, resume=True
    )
    peaks = [run.peak_rss_mb for run in report.runs]
    assert all(run.status == "ok" for run in report.runs)
    assert all(peak > 0 for peak in peaks) and peaks == sorted(peaks)
    assert [row["peak_rss_mb"] for row in report.to_jsonable()["runs"]] == peaks
    resumed = StudyRunner(seed=2024, jobs=1).run_all(
        scale=SCALE, artefacts=SUBSET, resume=True
    )
    assert [run.worker for run in resumed.runs] == ["cache"] * len(SUBSET)
    assert [run.peak_rss_mb for run in resumed.runs] == [0.0] * len(SUBSET)


def test_report_json_export(isolated_cache, tmp_path):
    report = StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, artefacts=["T2"])
    target = tmp_path / "report.json"
    report.save(target)
    data = json.loads(target.read_text())
    assert data["jobs"] == 1
    assert data["runs"][0]["artefact_id"] == "T2"
    assert data["runs"][0]["status"] == "ok"
    assert "T2" in data["results"]


def test_second_run_hits_the_disk_cache(isolated_cache):
    from repro.experiments import common

    StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, artefacts=["F7"])
    common.clear_caches()  # fresh-process simulation: memory gone, disk warm
    before = isolated_cache.stats.snapshot()
    report = StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, artefacts=["F7"])
    delta = isolated_cache.stats.delta(before)
    assert delta.hits >= 2  # world + device dataset come from disk
    assert not report.failed()


def test_warm_inputs_are_frozen_until_the_caches_are_cleared(isolated_cache):
    """``warm_inputs`` freezes the collector over the loaded inputs;
    ``clear_caches`` unfreezes, so a dropped world is reclaimed."""
    import gc
    import weakref

    from repro.experiments import common

    StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, artefacts=["T2"])
    world = weakref.ref(common.get_world(2024))
    assert gc.get_freeze_count() > 0
    common.clear_caches()
    assert gc.get_freeze_count() == 0
    gc.collect()
    assert world() is None


def _timed_run(jobs, cache_root, scale):
    """One full run_all from an empty in-memory state: (report, seconds)."""
    from repro.experiments import common

    common.clear_caches()
    cache_mod.configure(root=cache_root)
    started = time.perf_counter()
    report = StudyRunner(seed=2024, jobs=jobs).run_all(scale=scale)
    return report, time.perf_counter() - started


def test_cold_and_warm_runs_serial_and_parallel(isolated_cache, tmp_path):
    """Four full runs at scale 0.1: an empty then a primed disk cache,
    serial and sharded. Every render is identical, and the primed cache
    pays for itself in wall time and in the input phase."""
    scale = 0.1
    jobs = min(4, max(2, os.cpu_count() or 1))
    cold_serial, cold_serial_s = _timed_run(1, tmp_path / "serial", scale)
    warm_serial, warm_serial_s = _timed_run(1, tmp_path / "serial", scale)
    cold_parallel, _ = _timed_run(jobs, tmp_path / "parallel", scale)
    warm_parallel, _ = _timed_run(jobs, tmp_path / "parallel", scale)

    for report in (cold_serial, warm_serial, cold_parallel, warm_parallel):
        assert not report.failed(), report.summary_table()
    study = ThickMnaStudy(seed=2024)
    for artefact_id, result in cold_serial.results.items():
        rendered = study.format_result(artefact_id, result)
        for other in (warm_serial, cold_parallel, warm_parallel):
            assert study.format_result(
                artefact_id, other.results[artefact_id]
            ) == rendered, artefact_id

    assert warm_serial_s < cold_serial_s, (
        f"warm run {warm_serial_s:.2f}s, cold run {cold_serial_s:.2f}s"
    )
    assert warm_serial.warm_wall_s < cold_serial.warm_wall_s, (
        f"warm input phase {warm_serial.warm_wall_s:.2f}s, "
        f"cold input phase {cold_serial.warm_wall_s:.2f}s"
    )
