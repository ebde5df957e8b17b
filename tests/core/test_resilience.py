"""Resilient execution: supervision, chaos, journal and resume.

The ISSUE-6 acceptance bar, pinned as tests: with seeded exec-chaos
injecting worker crashes and a hang, a ``jobs=4`` run completes every
artefact (retried or quarantined, never stalled); a run killed with
``SIGKILL`` mid-flight and resumed with ``--resume`` produces
byte-identical exports to an uninterrupted run; SIGINT flushes a
partial report with ``status="interrupted"`` and a distinct exit code.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core import cache as cache_mod
from repro.core.journal import JournalEntry, JournalMismatch, RunJournal
from repro.core.runner import StudyRunner, result_key
from repro.faults import BackoffPolicy, ExecChaos, InjectedWorkerCrash
from repro.faults import execchaos as execchaos_mod

SCALE = 0.05
SUBSET = ["T2", "F7", "HX1", "F18"]
GOLDEN = pathlib.Path(__file__).parent / "golden" / "run_all_seed2024_scale0.05.json"

#: Backoff tuned for tests: retries are effectively immediate.
FAST_RETRY = BackoffPolicy(base_s=0.001, factor=1.0, cap_s=0.01, jitter=0.0)


@pytest.fixture()
def isolated_cache(tmp_path):
    previous = cache_mod.get_default_cache()
    store = cache_mod.configure(root=tmp_path / "cache")
    from repro.experiments import common

    common.clear_caches()
    yield store
    common.clear_caches()
    cache_mod.set_default_cache(previous)


# -- ExecChaos unit behaviour -------------------------------------------------


def test_exec_chaos_decisions_are_deterministic():
    chaos = ExecChaos(seed=3, worker_crash_rate=0.5, cache_corrupt_rate=0.5)
    for artefact in ("T2", "F7", "X1"):
        for attempt in (0, 1):
            assert chaos.should_crash(artefact, attempt) == chaos.should_crash(
                artefact, attempt
            )
            assert chaos.should_corrupt_cache(
                artefact, attempt
            ) == chaos.should_corrupt_cache(artefact, attempt)


def test_exec_chaos_stops_after_faulty_attempt_budget():
    chaos = ExecChaos(
        seed=3, worker_crash_rate=1.0, hang_artefacts=("T2",),
        cache_corrupt_rate=1.0, max_faulty_attempts=2,
    )
    assert chaos.should_crash("T2", 0) and chaos.should_crash("T2", 1)
    assert not chaos.should_crash("T2", 2)
    assert chaos.should_hang("T2", 1) and not chaos.should_hang("T2", 2)
    assert not chaos.should_corrupt_cache("T2", 2)


def test_exec_chaos_disabled_never_fires():
    chaos = ExecChaos()  # every rate at zero, no hang artefacts
    assert not chaos.should_crash("T2", 0)
    assert not chaos.should_hang("T2", 0)
    assert not chaos.should_corrupt_cache("T2", 0)
    # And a None config is a no-op hook.
    execchaos_mod.inject(None, "T2", 0, cache_root="/nonexistent", in_subprocess=False)


def test_exec_chaos_validates_rates():
    with pytest.raises(ValueError):
        ExecChaos(worker_crash_rate=1.5)
    with pytest.raises(ValueError):
        ExecChaos(hang_s=0)
    with pytest.raises(ValueError):
        ExecChaos(max_faulty_attempts=0)


def test_inject_crash_raises_inline_and_corrupts_cache(tmp_path):
    store = cache_mod.ArtifactCache(root=tmp_path)
    store.store("victim-aaaa", {"some": "payload"})
    chaos = ExecChaos(seed=0, worker_crash_rate=1.0, cache_corrupt_rate=1.0)
    with pytest.raises(InjectedWorkerCrash):
        execchaos_mod.inject(chaos, "T2", 0, cache_root=tmp_path, in_subprocess=False)
    # The cache entry was scribbled over; a load treats it as a miss.
    assert store.load("victim-aaaa") is None


# -- journal unit behaviour ---------------------------------------------------


def test_journal_roundtrip(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.begin("workload-1")
    journal.append(JournalEntry("T2", "fp-t2", wall_s=0.5, worker="pid-1"))
    journal.append(JournalEntry("F7", "fp-f7", attempts=2))
    workload, entries = journal.load()
    assert workload == "workload-1"
    assert set(entries) == {"T2", "F7"}
    assert entries["T2"].fingerprint == "fp-t2"
    assert entries["F7"].attempts == 2
    assert journal.resume("workload-1") == entries


def test_journal_resume_refuses_other_workload(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.begin("workload-1")
    with pytest.raises(JournalMismatch):
        journal.resume("workload-2")


def test_journal_resume_starts_fresh_when_missing(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    assert journal.resume("workload-1") == {}
    workload, _entries = journal.load()
    assert workload == "workload-1"  # begin() was called for us


def test_journal_tolerates_corruption(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.begin("workload-1")
    journal.append(JournalEntry("T2", "fp-t2"))
    with path.open("a") as handle:
        handle.write("garbage not json\n")
        handle.write('{"kind": "artefact"}\n')  # unusable: no artefact_id
        handle.write(json.dumps({
            "kind": "artefact", "artefact_id": "XX", "fingerprint": "fp-xx",
            "status": "ok", "schema": 99,  # newer writer: must be skipped
        }) + "\n")
    journal.append(JournalEntry("F7", "fp-f7"))
    with path.open("a") as handle:
        handle.write('{"kind": "artefact", "artefact_id": "T')  # torn write
    workload, entries = journal.load()
    assert workload == "workload-1"
    assert set(entries) == {"T2", "F7"}
    # Appending after a torn write seals the partial line first.
    journal.append(JournalEntry("X1", "fp-x1"))
    _workload, entries = journal.load()
    assert set(entries) == {"T2", "F7", "X1"}


def test_journal_resume_skips_non_ok_entries(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.begin("workload-1")
    journal.append(JournalEntry("T2", "fp-t2"))
    journal.append(JournalEntry("F7", "", status="quarantined"))
    journal.append(JournalEntry("X1", "fp-x1", status="timeout"))
    assert set(journal.resume("workload-1")) == {"T2"}


# -- supervised execution -----------------------------------------------------


def test_serial_injected_crash_is_retried(isolated_cache):
    chaos = ExecChaos(seed=0, worker_crash_rate=1.0)  # attempt 0 always dies
    report = StudyRunner(
        seed=2024, jobs=1, exec_chaos=chaos, retry_backoff=FAST_RETRY,
    ).run_all(scale=SCALE, artefacts=["T2", "F7"])
    assert not report.failed(), report.summary_table()
    assert all(run.attempts == 2 for run in report.runs)


def test_serial_repeated_crash_quarantines(isolated_cache):
    chaos = ExecChaos(seed=0, worker_crash_rate=1.0, max_faulty_attempts=99)
    report = StudyRunner(
        seed=2024, jobs=1, exec_chaos=chaos, max_attempts=2,
        retry_backoff=FAST_RETRY,
    ).run_all(scale=SCALE, artefacts=["T2", "F7"])
    assert [run.status for run in report.runs] == ["quarantined", "quarantined"]
    assert all(run.attempts == 2 for run in report.runs)
    assert "FAILED T2" in report.summary_table()


def test_deterministic_artefact_error_is_not_retried(isolated_cache, monkeypatch):
    from repro.core.study import ThickMnaStudy

    calls = []
    original_run = ThickMnaStudy.run

    def exploding(self, artefact_id, scale=None):
        calls.append(artefact_id)
        if artefact_id == "T2":
            raise RuntimeError("boom inside the artefact")
        return original_run(self, artefact_id, scale=scale)

    monkeypatch.setattr(ThickMnaStudy, "run", exploding)
    report = StudyRunner(
        seed=2024, jobs=1, retry_backoff=FAST_RETRY,
    ).run_all(scale=SCALE, artefacts=["T2", "F7"])
    by_id = {run.artefact_id: run for run in report.runs}
    assert by_id["T2"].status == "error"
    assert by_id["T2"].attempts == 1
    assert "boom inside the artefact" in by_id["T2"].error
    assert calls.count("T2") == 1  # deterministic failure: no retry burned
    assert by_id["F7"].status == "ok"


def test_parallel_chaos_completes_every_artefact(isolated_cache):
    """The acceptance criterion: 10% crashes + one hang, jobs=4, no stall."""
    chaos = ExecChaos(
        seed=11, worker_crash_rate=0.10, hang_artefacts=("F7",), hang_s=60.0,
    )
    report = StudyRunner(
        seed=2024, jobs=4, exec_chaos=chaos, artefact_timeout_s=6.0,
        retry_backoff=FAST_RETRY,
    ).run_all(scale=SCALE)
    assert len(report.runs) == 31
    assert {run.status for run in report.runs} <= {"ok", "timeout", "quarantined"}
    assert not report.failed(), report.summary_table()
    # The injected hang artefact survived (watchdog or pool-break rescue).
    hang_row = next(run for run in report.runs if run.artefact_id == "F7")
    assert hang_row.status == "ok"


def test_parallel_chaos_matches_clean_run_bytes(isolated_cache):
    """Chaos perturbs scheduling, never artefact bytes."""
    from repro.experiments.export import jsonable

    clean = StudyRunner(seed=2024, jobs=2).run_all(scale=SCALE, artefacts=SUBSET)
    chaos = ExecChaos(seed=5, worker_crash_rate=0.5)
    chaotic = StudyRunner(
        seed=2024, jobs=2, exec_chaos=chaos, retry_backoff=FAST_RETRY,
    ).run_all(scale=SCALE, artefacts=SUBSET)
    assert not chaotic.failed(), chaotic.summary_table()
    for artefact_id in SUBSET:
        assert json.dumps(jsonable(clean.results[artefact_id]), sort_keys=True) == \
            json.dumps(jsonable(chaotic.results[artefact_id]), sort_keys=True)


#: A chaotic run may cost this multiple of the clean one (plus a fixed
#: 5 s): supervision is bookkeeping, not a second campaign.
CHAOS_OVERHEAD_X = 5.0


@pytest.mark.chaos
def test_supervised_chaos_overhead_is_bounded(isolated_cache):
    # Warm pass so both timed runs read identical cached inputs.
    StudyRunner(seed=2024, jobs=2).run_all(scale=SCALE, artefacts=SUBSET)

    started = time.perf_counter()
    clean = StudyRunner(seed=2024, jobs=2).run_all(scale=SCALE, artefacts=SUBSET)
    clean_s = time.perf_counter() - started

    chaos = ExecChaos(seed=5, worker_crash_rate=0.5)
    started = time.perf_counter()
    chaotic = StudyRunner(
        seed=2024, jobs=2, exec_chaos=chaos, retry_backoff=FAST_RETRY,
        artefact_timeout_s=30.0,
    ).run_all(scale=SCALE, artefacts=SUBSET)
    chaotic_s = time.perf_counter() - started

    assert not clean.failed(), clean.summary_table()
    assert not chaotic.failed(), chaotic.summary_table()
    assert chaotic_s < clean_s * CHAOS_OVERHEAD_X + 5.0, (
        f"chaotic run took {chaotic_s:.2f}s against a {clean_s:.2f}s clean "
        f"run (budget {CHAOS_OVERHEAD_X:.0f}x + 5s)"
    )


def test_watchdog_times_out_hung_artefact(isolated_cache):
    chaos = ExecChaos(
        seed=0, hang_artefacts=("T2",), hang_s=120.0, max_faulty_attempts=99,
    )
    report = StudyRunner(
        seed=2024, jobs=2, exec_chaos=chaos, artefact_timeout_s=1.0,
        max_attempts=2, retry_backoff=FAST_RETRY,
    ).run_all(scale=SCALE, artefacts=["T2", "F7"])
    by_id = {run.artefact_id: run for run in report.runs}
    assert by_id["T2"].status == "timeout"
    assert by_id["T2"].attempts == 2
    assert "deadline" in by_id["T2"].error
    assert by_id["F7"].status == "ok"  # innocent neighbour survived the kills


# -- resume -------------------------------------------------------------------


def test_resume_requires_journal(isolated_cache):
    with pytest.raises(ValueError):
        StudyRunner(seed=2024, jobs=1).run_all(scale=SCALE, resume=True)


def test_resume_skips_completed_work_and_matches_bytes(isolated_cache, tmp_path):
    from repro.experiments.export import jsonable

    journal_path = tmp_path / "run.jsonl"
    first = StudyRunner(
        seed=2024, jobs=1, journal_path=journal_path,
    ).run_all(scale=SCALE, artefacts=SUBSET)
    assert not first.failed()
    resumed = StudyRunner(
        seed=2024, jobs=1, journal_path=journal_path,
    ).run_all(scale=SCALE, artefacts=SUBSET, resume=True)
    assert [run.worker for run in resumed.runs] == ["journal"] * len(SUBSET)
    assert [run.attempts for run in resumed.runs] == [0] * len(SUBSET)
    for artefact_id in SUBSET:
        assert json.dumps(jsonable(first.results[artefact_id]), sort_keys=True) == \
            json.dumps(jsonable(resumed.results[artefact_id]), sort_keys=True)


def test_resume_refuses_mismatched_workload(isolated_cache, tmp_path):
    journal_path = tmp_path / "run.jsonl"
    StudyRunner(seed=2024, jobs=1, journal_path=journal_path).run_all(
        scale=SCALE, artefacts=["T2"]
    )
    with pytest.raises(JournalMismatch):
        # Different seed => different workload fingerprint.
        StudyRunner(seed=7, jobs=1, journal_path=journal_path).run_all(
            scale=SCALE, artefacts=["T2"], resume=True
        )


def test_resume_reruns_artefact_with_missing_payload(isolated_cache, tmp_path):
    journal_path = tmp_path / "run.jsonl"
    runner = StudyRunner(seed=2024, jobs=1, journal_path=journal_path)
    first = runner.run_all(scale=SCALE, artefacts=["T2", "F7"])
    assert not first.failed()
    # Evict one checkpointed payload: resume must recompute just that one.
    key = result_key("T2", 2024, SCALE)
    (isolated_cache.root / f"{key}.pkl").unlink()
    resumed = StudyRunner(
        seed=2024, jobs=1, journal_path=journal_path,
    ).run_all(scale=SCALE, artefacts=["T2", "F7"], resume=True)
    by_id = {run.artefact_id: run for run in resumed.runs}
    assert by_id["T2"].worker != "journal"  # recomputed
    assert by_id["F7"].worker == "journal"  # served from the checkpoint
    assert not resumed.failed()


def test_served_artefact_reads_the_journal_checkpoint(
    isolated_cache, tmp_path, monkeypatch
):
    """A ``run-all --journal`` checkpoint and ``/artefact`` share one key:
    the server answers from the checkpoint and computes nothing."""
    from repro.core.study import ThickMnaStudy
    from repro.experiments.export import jsonable
    from repro.server.state import ServerState

    report = StudyRunner(
        seed=2024, jobs=1, journal_path=tmp_path / "run.jsonl",
    ).run_all(scale=SCALE, artefacts=["T2"])
    assert not report.failed()

    def no_compute(*args, **kwargs):
        raise AssertionError("the server recomputed a checkpointed result")

    monkeypatch.setattr(ThickMnaStudy, "run", no_compute)
    payload = ServerState(seed=2024, scale=SCALE).artefact("T2")
    assert payload["source"] == "cache"
    assert payload["result"] == jsonable(report.results["T2"])


# -- interruption -------------------------------------------------------------


def test_request_stop_flushes_partial_report(isolated_cache):
    runner = StudyRunner(seed=2024, jobs=1)
    original_warm = runner.warm_inputs

    def warm_then_stop(scale, artefacts):
        elapsed = original_warm(scale, artefacts)
        runner.request_stop()
        return elapsed

    runner.warm_inputs = warm_then_stop
    report = runner.run_all(scale=SCALE, artefacts=SUBSET)
    assert report.interrupted
    assert len(report.runs) == len(SUBSET)
    assert {run.status for run in report.runs} == {"interrupted"}
    assert "interrupted" in report.summary_table()


def test_interrupted_history_record(isolated_cache, tmp_path):
    from repro.obs.history import HistoryStore

    runner = StudyRunner(seed=2024, jobs=1, history_dir=tmp_path / "hist")
    original_warm = runner.warm_inputs

    def warm_then_stop(scale, artefacts):
        elapsed = original_warm(scale, artefacts)
        runner.request_stop()
        return elapsed

    runner.warm_inputs = warm_then_stop
    report = runner.run_all(scale=SCALE, artefacts=SUBSET)
    assert report.interrupted
    (record,) = HistoryStore(tmp_path / "hist").load()
    assert record.status == "interrupted"
    assert not record.ok


# -- subprocess-level kill / SIGINT ------------------------------------------


def _cli_env(cache_dir: pathlib.Path) -> dict:
    env = dict(os.environ)
    repo_src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _journal_completions(path: pathlib.Path) -> int:
    if not path.is_file():
        return 0
    return sum(
        1 for line in path.read_text().splitlines() if '"kind": "artefact"' in line
        or '"kind":"artefact"' in line
    )


@pytest.mark.chaos
def test_sigkill_then_resume_matches_golden(tmp_path):
    """Kill -9 a run mid-flight; --resume completes it byte-identically."""
    golden = json.loads(GOLDEN.read_text())
    cache_dir = tmp_path / "cache"
    journal = tmp_path / "run.jsonl"
    out_json = tmp_path / "report.json"
    base_cmd = [
        sys.executable, "-m", "repro", "--seed", str(golden["seed"]),
        "run-all", "--jobs", "2", "--scale", str(golden["scale"]),
        "--journal", str(journal),
    ]
    env = _cli_env(cache_dir)
    proc = subprocess.Popen(
        base_cmd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 300
    try:
        # Let it checkpoint a few artefacts, then kill it ungracefully.
        while _journal_completions(journal) < 3:
            if proc.poll() is not None:
                pytest.fail(
                    f"run finished (rc={proc.returncode}) before the kill "
                    f"window; got {_journal_completions(journal)} completions"
                )
            if time.time() > deadline:
                pytest.fail("run never checkpointed 3 artefacts")
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
    killed_at = _journal_completions(journal)
    assert killed_at >= 3

    resumed = subprocess.run(
        base_cmd + ["--resume", "--json", str(out_json)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    report = json.loads(out_json.read_text())
    assert report["ok"] and not report["interrupted"]
    served = [r for r in report["runs"] if r["worker"] == "journal"]
    assert len(served) >= 3  # the pre-kill checkpoints were actually reused
    assert sorted(report["results"]) == sorted(golden["results"])
    for artefact_id, result in report["results"].items():
        fresh = json.dumps(result, indent=2, sort_keys=True)
        gold = json.dumps(golden["results"][artefact_id], indent=2, sort_keys=True)
        assert fresh == gold, f"{artefact_id} drifted after kill/resume"


@pytest.mark.chaos
def test_sigint_writes_partial_report_and_distinct_exit_code(tmp_path):
    cache_dir = tmp_path / "cache"
    journal = tmp_path / "run.jsonl"
    out_json = tmp_path / "report.json"
    history = tmp_path / "hist"
    cmd = [
        sys.executable, "-m", "repro", "run-all", "--jobs", "2",
        "--scale", "0.05", "--journal", str(journal),
        "--json", str(out_json), "--history", str(history),
        # One artefact hangs (far longer than the test), guaranteeing the
        # run is still alive when the signal lands.
        "--exec-hang", "F7", "--exec-hang-s", "600",
    ]
    proc = subprocess.Popen(
        cmd, env=_cli_env(cache_dir),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.time() + 300
    try:
        # Wait for proof the supervised loop is live (a completion is
        # journalled strictly after the signal handlers are installed).
        while _journal_completions(journal) < 1:
            if proc.poll() is not None:
                pytest.fail(f"run exited early: rc={proc.returncode}")
            if time.time() > deadline:
                pytest.fail("run never journalled a completion")
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert rc == 130, proc.stdout.read() if proc.stdout else rc
    report = json.loads(out_json.read_text())
    assert report["interrupted"] and not report["ok"]
    statuses = {r["status"] for r in report["runs"]}
    assert "interrupted" in statuses  # the hung artefact never finished
    assert "ok" in statuses  # but completed work was kept

    from repro.obs.history import HistoryStore

    (record,) = HistoryStore(history).load()
    assert record.status == "interrupted"
