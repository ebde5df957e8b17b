"""The append-only JSONL log helpers behind the history store:
single-write appends, sealing and tolerant loads."""

import os

import pytest

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
