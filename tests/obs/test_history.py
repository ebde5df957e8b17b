"""The cross-run history store: round-trips, corruption tolerance,
concurrent appends, the RunReport -> RunRecord compaction, and the
store's time and size budgets."""

import json
import multiprocessing
import time

import pytest

from repro.obs.history import (
    SCHEMA_VERSION,
    ArtefactStats,
    HistoryStore,
    RunRecord,
    default_history_root,
    new_run_id,
)
from repro.obs.regress import detect


def make_record(run_id="run-1", seed=2024, scale=0.05, jobs=1, **artefacts):
    stats = {
        artefact_id: ArtefactStats(wall_s=wall, cache_hits=3, cache_misses=1,
                                   fingerprint=f"result-{artefact_id}")
        for artefact_id, wall in (artefacts or {"T2": 0.03}).items()
    }
    return RunRecord(
        run_id=run_id, created_unix=1700000000.0, seed=seed, scale=scale,
        jobs=jobs, host="testhost", total_wall_s=sum(
            s.wall_s for s in stats.values()
        ), artefacts=stats, metrics={"cache.hit": 3.0},
    )


def test_append_load_roundtrip(tmp_path):
    store = HistoryStore(tmp_path / "hist")
    store.append(make_record("run-1"))
    store.append(make_record("run-2", T2=0.04, F7=0.002))
    records = store.load()
    assert [r.run_id for r in records] == ["run-1", "run-2"]
    assert records[0].group_key() == "seed2024-scale0.05-jobs1"
    assert records[1].artefacts["F7"].fingerprint == "result-F7"
    assert records[1].artefacts["T2"].cache_hit_rate() == pytest.approx(0.75)
    assert records[0].metrics == {"cache.hit": 3.0}


def test_load_missing_store_is_empty(tmp_path):
    assert HistoryStore(tmp_path / "nowhere").load() == []


def test_get_by_id_and_unique_prefix(tmp_path):
    store = HistoryStore(tmp_path)
    store.append(make_record("20260101T000000-aaaa1111"))
    store.append(make_record("20260102T000000-bbbb2222"))
    assert store.get("20260101T000000-aaaa1111").run_id.endswith("aaaa1111")
    assert store.get("20260102").run_id.endswith("bbbb2222")
    assert store.get("2026") is None  # ambiguous prefix
    assert store.get("nope") is None


def test_last_and_runs_for_group_key(tmp_path):
    store = HistoryStore(tmp_path)
    store.append(make_record("a", scale=0.05))
    store.append(make_record("b", scale=0.15))
    store.append(make_record("c", scale=0.05))
    assert store.last().run_id == "c"
    assert store.last("seed2024-scale0.15-jobs1").run_id == "b"
    assert [r.run_id for r in store.runs_for("seed2024-scale0.05-jobs1")] == [
        "a", "c",
    ]


# -- corruption tolerance ----------------------------------------------------


def test_truncated_final_line_keeps_prior_records(tmp_path):
    store = HistoryStore(tmp_path)
    store.append(make_record("run-1"))
    store.append(make_record("run-2"))
    # A writer killed mid-append leaves a partial line with no newline.
    with store.path.open("a") as handle:
        handle.write('{"run_id": "run-3", "seed": 20')
    records = store.load()
    assert [r.run_id for r in records] == ["run-1", "run-2"]
    # The store stays appendable after the corruption.
    store.append(make_record("run-4"))
    assert store.load()[-1].run_id == "run-4"


def test_unknown_schema_version_is_skipped(tmp_path):
    store = HistoryStore(tmp_path)
    store.append(make_record("run-1"))
    newer = make_record("run-future").to_jsonable()
    newer["schema"] = SCHEMA_VERSION + 1
    newer["from_the_future"] = {"unknown": "shape"}
    with store.path.open("a") as handle:
        handle.write(json.dumps(newer) + "\n")
    store.append(make_record("run-2"))
    assert [r.run_id for r in store.load()] == ["run-1", "run-2"]


def test_garbage_and_non_record_lines_are_skipped(tmp_path):
    store = HistoryStore(tmp_path)
    with store.path.open("w") as handle:  # root exists: tmp_path
        handle.write("not json at all\n")
        handle.write('"a json string, not a record"\n')
        handle.write('{"some": "dict without a run_id"}\n')
        handle.write("\n")
    store.append(make_record("run-1"))
    assert [r.run_id for r in store.load()] == ["run-1"]


@pytest.mark.parametrize("bad", [
    {"run_id": "x", "schema": "2"},
    {"run_id": "x", "schema": None},
    {"run_id": "x", "seed": "abc"},
    {"run_id": "x", "scale": "big"},
    {"run_id": "x", "jobs": None},
    {"run_id": "x", "jobs": float("inf")},
    {"run_id": "x", "total_wall_s": [1]},
    {"run_id": "x", "artefacts": {"T2": {"wall_s": "slow"}}},
    {"run_id": "x", "artefacts": []},
])
def test_malformed_record_is_skipped_not_raised(tmp_path, bad):
    store = HistoryStore(tmp_path)
    store.append(make_record("run-1"))
    with store.path.open("a") as handle:
        handle.write(json.dumps(bad) + "\n")
    store.append(make_record("run-2"))
    records = store.load()
    assert [r.run_id for r in records] == ["run-1", "run-2"]
    assert [r.group_key() for r in records] == ["seed2024-scale0.05-jobs1"] * 2


def test_numeric_fields_are_coerced_on_load(tmp_path):
    store = HistoryStore(tmp_path)
    data = make_record("coerced").to_jsonable()
    data.update(seed="7", jobs=2.0, scale=1, total_wall_s="1.5")
    data["artefacts"]["T2"]["cache_hits"] = "3"
    store.path.write_text(json.dumps(data) + "\n")
    (loaded,) = store.load()
    assert (loaded.seed, loaded.jobs, loaded.scale) == (7, 2, 1.0)
    assert loaded.total_wall_s == 1.5
    assert loaded.artefacts["T2"].cache_hits == 3
    assert loaded.group_key() == "seed7-scale1-jobs2"


def _append_many(root, prefix, count):
    store = HistoryStore(root)
    for index in range(count):
        store.append(make_record(f"{prefix}-{index}"))


def test_concurrent_append_from_two_processes(tmp_path):
    """Two writers race; every record of both survives, uninterleaved."""
    count = 50
    workers = [
        multiprocessing.Process(
            target=_append_many, args=(tmp_path, prefix, count)
        )
        for prefix in ("alpha", "beta")
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0
    records = HistoryStore(tmp_path).load()
    assert len(records) == 2 * count
    ids = {record.run_id for record in records}
    assert ids == {
        f"{prefix}-{index}"
        for prefix in ("alpha", "beta") for index in range(count)
    }


# -- id generation and defaults ----------------------------------------------


def test_new_run_ids_are_unique_and_sortable():
    ids = {new_run_id(1700000000.0) for _ in range(100)}
    assert len(ids) == 100
    assert all(run_id.startswith("20231114T") for run_id in ids)


def test_default_history_root_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "h"))
    assert default_history_root() == tmp_path / "h"
    monkeypatch.delenv("REPRO_HISTORY_DIR")
    assert default_history_root().name == "history"


# -- RunReport compaction ----------------------------------------------------


def test_record_from_report_compacts_the_ledger():
    from repro.core.runner import ArtefactRun, RunReport
    from repro.obs.history import record_from_report

    report = RunReport(seed=7, scale=0.1, jobs=2, total_wall_s=1.5,
                       warm_wall_s=0.5)
    report.runs.append(ArtefactRun(
        artefact_id="T2", status="ok", wall_s=0.2, worker="pid-1",
        cache_hits=4, cache_misses=1, cache_hit_s=0.01,
    ))
    report.runs.append(ArtefactRun(
        artefact_id="F7", status="error", wall_s=0.1, worker="pid-2",
        error="boom",
    ))
    report.results["T2"] = {"rows": [1, 2, 3]}
    record = record_from_report(report, metrics={"cache.hit": 4.0},
                                host="h", now=1700000000.0)
    assert record.seed == 7 and record.scale == 0.1 and record.jobs == 2
    assert record.host == "h"
    assert record.ok is False  # F7 errored
    assert record.artefacts["T2"].fingerprint.startswith("result-")
    assert record.artefacts["F7"].fingerprint == ""  # no result to hash
    assert record.artefacts["F7"].status == "error"
    assert record.metrics["cache.hit"] == 4.0
    assert record.metrics["cache.ledger.hits"] == 4
    # Same results, same fingerprint: the digest is content-addressed.
    again = record_from_report(report, host="h", now=1700000000.0)
    assert again.artefacts["T2"].fingerprint == record.artefacts["T2"].fingerprint
    report.results["T2"] = {"rows": [1, 2, 999]}
    changed = record_from_report(report, host="h", now=1700000000.0)
    assert changed.artefacts["T2"].fingerprint != record.artefacts["T2"].fingerprint


def test_roundtrip_through_disk_preserves_every_field(tmp_path):
    store = HistoryStore(tmp_path)
    record = make_record("full", T2=0.03, F7=0.001)
    record.trace_path = "/tmp/somewhere/trace.jsonl"
    record.ok = False
    store.append(record)
    (loaded,) = store.load()
    assert loaded == record


def test_kind_and_slo_round_trip(tmp_path):
    store = HistoryStore(tmp_path)
    record = make_record("lg-1")
    record.kind = "loadgen"
    record.artefacts["T2"].slo_s = 1.5
    store.append(record)
    (loaded,) = store.load()
    assert loaded.kind == "loadgen"
    assert loaded.artefacts["T2"].slo_s == 1.5
    assert loaded.group_key() == "loadgen-seed2024-scale0.05-jobs1"


def test_run_all_group_key_shape_is_unchanged():
    """Pre-existing stores must keep their baselines: the run_all key
    has no kind prefix."""
    assert make_record().group_key() == "seed2024-scale0.05-jobs1"


def test_records_without_kind_default_to_run_all(tmp_path):
    store = HistoryStore(tmp_path)
    data = make_record("legacy").to_jsonable()
    del data["kind"]
    del data["artefacts"]["T2"]["slo_s"]
    store.root.mkdir(parents=True, exist_ok=True)
    store.path.write_text(json.dumps(data) + "\n")
    (loaded,) = store.load()
    assert loaded.kind == "run_all"
    assert loaded.artefacts["T2"].slo_s == 0.0


# -- budgets -----------------------------------------------------------------

#: A couple of months of nightly CI at several runs a day.
BUDGET_RUNS = 200
BUDGET_ARTEFACTS_PER_RUN = 30
APPEND_BUDGET_S = 2.0
DETECT_BUDGET_S = 1.0
MAX_BYTES_PER_RUN = 16_384


def _synthetic_record(index: int) -> RunRecord:
    artefacts = {
        f"T{artefact}": ArtefactStats(
            status="ok",
            wall_s=0.05 + 0.001 * (artefact % 7),
            cache_hits=8,
            cache_misses=2,
            cache_hit_s=0.004,
            fingerprint=f"result-{artefact:02d}feedfacecafe",
        )
        for artefact in range(BUDGET_ARTEFACTS_PER_RUN)
    }
    return RunRecord(
        run_id=f"20260101T{index:06d}-bench",
        created_unix=1_767_000_000.0 + 60.0 * index,
        seed=2024,
        scale=0.05,
        jobs=1,
        host="bench-host",
        total_wall_s=sum(s.wall_s for s in artefacts.values()),
        warm_wall_s=0.3,
        artefacts=artefacts,
        metrics={"cache.ledger.hits": 8.0 * BUDGET_ARTEFACTS_PER_RUN},
    )


def test_store_append_size_and_detect_budgets(tmp_path):
    """One append per ``run-all`` and one ``repro regress`` per CI push:
    200 appends, the bytes they leave and the rolling-baseline verdict
    for the newest run each stay within budget."""
    store = HistoryStore(tmp_path)
    started = time.perf_counter()
    for index in range(BUDGET_RUNS):
        store.append(_synthetic_record(index))
    append_s = time.perf_counter() - started
    assert append_s < APPEND_BUDGET_S, (
        f"appending {BUDGET_RUNS} runs took {append_s:.3f}s "
        f"(budget {APPEND_BUDGET_S:.1f}s)"
    )

    per_run = store.path.stat().st_size / BUDGET_RUNS
    assert per_run < MAX_BYTES_PER_RUN, (
        f"{per_run:.0f} bytes/run on disk (budget {MAX_BYTES_PER_RUN})"
    )

    started = time.perf_counter()
    regression = detect(store)
    detect_s = time.perf_counter() - started
    assert regression.ok(), regression.render()
    assert detect_s < DETECT_BUDGET_S, (
        f"load+detect over {BUDGET_RUNS} runs took {detect_s:.3f}s "
        f"(budget {DETECT_BUDGET_S:.1f}s)"
    )
