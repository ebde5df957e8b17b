"""The shared append-only JSONL log helpers behind the run journal and
the history store: single-write appends, sealing, tolerant loads, and
the journal's time budget."""

import json
import os
import time

import pytest

from repro.core.journal import JournalEntry, RunJournal
from repro.obs.sink import append_jsonl, load_jsonl


def test_append_is_a_single_write(tmp_path, monkeypatch):
    """One os.write per record — the atomicity contract of O_APPEND."""
    calls = []
    real_write = os.write

    def counting_write(fd, data):
        calls.append(data)
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", counting_write)
    append_jsonl(tmp_path / "log.jsonl", {"run_id": "solo"})
    payloads = [data for data in calls if b"solo" in data]
    assert len(payloads) == 1
    assert payloads[0].endswith(b"\n")


def test_append_seals_an_unterminated_last_line(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1}\n{"n": 2, "torn')  # a killed writer's tail
    calls = []
    real_write = os.write

    def counting_write(fd, data):
        calls.append(data)
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", counting_write)
    append_jsonl(path, {"n": 3})
    assert calls == [b'\n{"n": 3}\n']
    assert [obj["n"] for obj in load_jsonl(path, 1)] == [1, 3]


def test_load_missing_file_yields_nothing(tmp_path):
    assert list(load_jsonl(tmp_path / "absent.jsonl", 1)) == []


@pytest.mark.parametrize("schema", ["2", None, 1.0, True, [1], 2])
def test_load_skips_newer_or_non_int_schema(tmp_path, schema):
    path = tmp_path / "log.jsonl"
    append_jsonl(path, {"n": 1, "schema": 1})
    append_jsonl(path, {"n": 2, "schema": schema})
    append_jsonl(path, {"n": 3})  # no schema: taken as current
    assert [obj["n"] for obj in load_jsonl(path, 1)] == [1, 3]


def test_load_skips_garbage_and_non_objects(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'\xff\xfe not utf-8\n[1, 2]\n"text"\n\n{"n": 1}\n')
    assert list(load_jsonl(path, 1)) == [{"n": 1}]


def test_journal_skips_lines_with_malformed_fields(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(
        json.dumps({"kind": "header", "workload": "w", "schema": None}) + "\n"
        + json.dumps({"kind": "artefact", "artefact_id": "T2",
                      "fingerprint": "fp", "schema": "1"}) + "\n"
        + json.dumps({"kind": "artefact", "artefact_id": "F7",
                      "fingerprint": "fp", "attempts": float("inf")}) + "\n"
    )
    assert RunJournal(path).load() == (None, {})


#: ~16 full runs of checkpoints.
BUDGET_ENTRIES = 500
APPEND_BUDGET_S = 2.0
LOAD_BUDGET_S = 0.5


def test_journal_append_and_load_budgets(tmp_path):
    """One append per completed artefact sits on the ``run-all`` hot
    path, and resume must cost next to nothing beside the work it skips."""
    journal = RunJournal(tmp_path / "bench.jsonl")
    journal.begin("bench-workload")
    entries = [
        JournalEntry(
            artefact_id=f"T{index}",
            fingerprint=f"artefact-result-{index:04d}cafefeed",
            wall_s=0.05,
            worker="pid-1234",
        )
        for index in range(BUDGET_ENTRIES)
    ]

    started = time.perf_counter()
    for entry in entries:
        journal.append(entry)
    append_s = time.perf_counter() - started

    started = time.perf_counter()
    _workload, loaded = journal.load()
    load_s = time.perf_counter() - started

    assert len(loaded) == BUDGET_ENTRIES
    assert append_s < APPEND_BUDGET_S, (
        f"appending {BUDGET_ENTRIES} completions took {append_s:.3f}s "
        f"(budget {APPEND_BUDGET_S:.1f}s)"
    )
    assert load_s < LOAD_BUDGET_S, (
        f"loading {BUDGET_ENTRIES} completions took {load_s:.3f}s "
        f"(budget {LOAD_BUDGET_S:.1f}s)"
    )
