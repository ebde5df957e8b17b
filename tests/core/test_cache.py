"""Tests for the persistent artifact cache (repro.core.cache)."""

import os

import pytest

from repro.core import cache as cache_mod
from repro.core.cache import ArtifactCache, fingerprint
from repro.core.columns import ColumnStore
from repro.faults import ChaosConfig


@pytest.fixture()
def store(tmp_path):
    return ArtifactCache(root=tmp_path / "cache")


# -- fingerprints -----------------------------------------------------------

def test_fingerprint_stable_under_kwarg_order():
    assert fingerprint("world", seed=1, scale=0.5) == fingerprint(
        "world", scale=0.5, seed=1
    )


def test_fingerprint_separates_kinds_and_values():
    base = fingerprint("world", seed=1)
    assert fingerprint("dataset", seed=1) != base
    assert fingerprint("world", seed=2) != base


def test_fingerprint_flattens_chaos_config():
    a = ChaosConfig(seed=7, attach_reject_rate=0.1)
    b = ChaosConfig(seed=7, attach_reject_rate=0.1)
    c = ChaosConfig(seed=7, attach_reject_rate=0.2)
    assert fingerprint("d", chaos=a) == fingerprint("d", chaos=b)
    assert fingerprint("d", chaos=a) != fingerprint("d", chaos=c)
    assert fingerprint("d", chaos=None) != fingerprint("d", chaos=a)


def test_fingerprint_is_filename_safe():
    key = fingerprint("device-dataset", seed=2024, scale=0.15)
    assert "/" not in key and key.startswith("device-dataset-")


# -- store / load -----------------------------------------------------------

def test_roundtrip(store):
    key = fingerprint("blob", n=1)
    assert store.load(key) is None
    store.store(key, {"value": [1, 2, 3]})
    assert store.load(key) == {"value": [1, 2, 3]}
    assert store.stats.hits == 1
    assert store.stats.misses == 1
    assert store.stats.stores == 1


def test_store_is_atomic_no_temp_leftovers(store):
    store.store(fingerprint("blob", n=1), list(range(1000)))
    names = [path.name for path in store.root.iterdir()]
    assert len(names) == 1
    assert not names[0].startswith(".")


def test_truncated_entry_is_a_silent_miss(store):
    key = fingerprint("blob", n=1)
    path = store.store(key, list(range(1000)))
    path.write_bytes(path.read_bytes()[:17])  # truncate mid-pickle
    assert store.load(key) is None
    assert store.stats.evictions == 1
    assert not path.exists()  # corrupt entry dropped


def test_garbage_entry_is_a_silent_miss(store):
    key = fingerprint("blob", n=1)
    path = store.store(key, "fine")
    path.write_bytes(b"not a pickle at all")
    assert store.load(key) is None


def test_unresolvable_entry_class_is_a_silent_miss(store):
    # Simulates a stale entry whose class no longer exists after an
    # upgrade: well-formed pickle bytes, unresolvable import.
    key = fingerprint("blob", n=1)
    store.root.mkdir(parents=True)
    (store.root / f"{key}.pkl").write_bytes(b"cno_such_module_xyz\nNoClass\n.")
    assert store.load(key) is None
    assert store.stats.evictions == 1


def test_disabled_cache_never_touches_disk(tmp_path):
    store = ArtifactCache(root=tmp_path / "cache", enabled=False)
    assert store.store("k", 1) is None
    assert store.load("k") is None
    assert not (tmp_path / "cache").exists()


def test_env_disable(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_CACHE_DISABLE, "1")
    store = ArtifactCache(root=tmp_path / "cache")
    assert not store.enabled


def test_env_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cache_mod.ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
    assert cache_mod.default_cache_root() == tmp_path / "elsewhere"


# -- column-store entries ---------------------------------------------------

def _columns(rows: int = 50) -> ColumnStore:
    table = ColumnStore(meta={"kind": "test"})
    label = table.new_column("label", "H", strings="label")
    value = table.new_column("value", "d")
    for i in range(rows):
        label.append(table.strings("label").code(f"l{i % 4}"))
        value.append(i / 3)
    return table


def test_column_store_roundtrip_is_memory_mapped(store):
    import mmap

    table = _columns()
    key = fingerprint("cols", n=1)
    path = store.store(key, table)
    assert path.name == f"{key}.cols"
    assert path.read_bytes() == table.to_bytes()
    assert not list(store.root.glob("*.pkl"))
    loaded = store.load(key)
    assert isinstance(loaded, ColumnStore)
    assert isinstance(loaded._backing, mmap.mmap)
    assert loaded.to_bytes() == table.to_bytes()
    assert store.stats.hits == 1 and store.stats.stores == 1


@pytest.mark.parametrize("damage", ["scribble", "truncate", "empty"])
def test_damaged_column_entry_is_an_evicted_miss(store, damage):
    key = fingerprint("cols", n=1)
    path = store.store(key, _columns())
    blob = path.read_bytes()
    if damage == "scribble":
        path.write_bytes(b"\x00scribbled\x00" + blob[11:])
    elif damage == "truncate":
        path.write_bytes(blob[: len(blob) // 2])
    else:
        path.write_bytes(b"")
    assert store.load(key) is None
    assert store.stats.misses == 1 and store.stats.evictions == 1
    assert not path.exists()


def test_column_entry_corruption_counts_as_corrupt(store):
    from repro import obs

    key = fingerprint("cols", n=1)
    store.store(key, _columns()).write_bytes(b"RPCOL001 but not really")
    recorder = obs.TraceRecorder()
    with obs.use_recorder(recorder):
        assert store.load(key) is None
    assert recorder.metrics.counters() == {"cache.corrupt": 1, "cache.miss": 1}


def test_info_verify_and_clear_cover_column_entries(store):
    store.store("pickled-entry", {"v": 1})
    store.store("columns-entry", _columns())
    info = store.info()
    assert info["entry_count"] == 2
    assert [entry["key"] for entry in info["entries"]] == [
        "columns-entry", "pickled-entry",
    ]
    assert store.verify().ok == ["columns-entry", "pickled-entry"]
    (store.root / "columns-entry.cols").write_bytes(b"garbage")
    result = store.verify()
    assert result.corrupt == ["columns-entry"] and not result.clean
    assert store.verify(prune=True).pruned == ["columns-entry"]
    assert store.verify().clean
    assert store.clear() == 1
    assert store.entries() == []


# -- maintenance ------------------------------------------------------------

def test_info_and_clear(store):
    store.store(fingerprint("a", n=1), "x")
    store.store(fingerprint("b", n=2), "y" * 1000)
    info = store.info()
    assert info["entry_count"] == 2
    assert info["total_bytes"] > 1000
    assert store.clear() == 2
    assert store.entries() == []


def test_clear_on_missing_root(tmp_path):
    assert ArtifactCache(root=tmp_path / "never-created").clear() == 0


# -- integration with the experiment layer ----------------------------------

def test_corrupt_disk_entry_triggers_rebuild(tmp_path):
    """A truncated cached dataset must silently rebuild, byte-identical."""
    from repro.experiments import common

    previous = cache_mod.get_default_cache()
    store = cache_mod.configure(root=tmp_path / "cache")
    try:
        common.clear_caches()
        built = common.get_device_dataset(scale=0.03, seed=99)
        entries = {p for p in store.root.glob("device-dataset-*.pkl")}
        assert entries, "dataset was not persisted"
        for path in entries:
            path.write_bytes(path.read_bytes()[: os.path.getsize(path) // 2])
        common.clear_caches()  # drop memory layer; disk is now corrupt
        rebuilt = common.get_device_dataset(scale=0.03, seed=99)
        assert rebuilt == built
    finally:
        common.clear_caches()
        cache_mod.set_default_cache(previous)


def test_warm_load_equals_fresh_build(tmp_path):
    from repro.experiments import common

    previous = cache_mod.get_default_cache()
    cache_mod.configure(root=tmp_path / "cache")
    try:
        common.clear_caches()
        built = common.get_web_dataset(seed=77)
        common.clear_caches()
        loaded = common.get_web_dataset(seed=77)  # from disk this time
        assert loaded == built
        assert cache_mod.get_default_cache().stats.hits >= 1
    finally:
        common.clear_caches()
        cache_mod.set_default_cache(previous)


# -- verify / prune ----------------------------------------------------------

def test_verify_clean_cache(store):
    store.store("good-entry", {"v": 1})
    result = store.verify()
    assert result.ok == ["good-entry"]
    assert result.clean
    assert not result.pruned


def test_verify_reports_corrupt_entries_without_evicting(store):
    store.store("good-entry", {"v": 1})
    path = store.store("bad-entry", {"v": 2})
    path.write_bytes(b"not a pickle")
    result = store.verify()
    assert result.ok == ["good-entry"]
    assert result.corrupt == ["bad-entry"]
    assert not result.clean
    # verify() is read-only by default: the entry is still on disk and
    # the stats counters were not touched.
    assert path.is_file()
    assert store.stats.misses == 0 and store.stats.evictions == 0


def test_verify_reports_stray_temp_files(store):
    store.store("good-entry", {"v": 1})
    stray = store.root / ".good-entry.abc123"
    stray.write_bytes(b"half-written")
    result = store.verify()
    assert result.stray == [".good-entry.abc123"]
    assert not result.clean


def test_verify_prune_removes_corrupt_and_stray(store):
    store.store("good-entry", {"v": 1})
    bad = store.store("bad-entry", {"v": 2})
    bad.write_bytes(b"truncated")
    stray = store.root / ".bad-entry.xyz"
    stray.write_bytes(b"leftover")
    result = store.verify(prune=True)
    assert sorted(result.pruned) == [".bad-entry.xyz", "bad-entry"]
    assert not bad.exists() and not stray.exists()
    assert store.verify().clean
    assert store.load("good-entry") == {"v": 1}


def test_verify_missing_root(tmp_path):
    result = ArtifactCache(root=tmp_path / "never-created").verify()
    assert result.clean and not result.ok


def test_clear_removes_stray_temp_files(store):
    store.store("entry-a", {"v": 1})
    (store.root / ".entry-a.tmp123").write_bytes(b"leftover")
    assert store.clear() == 2
    assert not list(store.root.iterdir())


# -- atomic_write --------------------------------------------------------------

def test_atomic_write_streams_into_place(tmp_path):
    target = tmp_path / "out.bin"
    cache_mod.atomic_write(target, lambda handle: handle.write(b"payload"))
    assert target.read_bytes() == b"payload"
    cache_mod.atomic_write(
        target, lambda handle: handle.write("text"), mode="w"
    )
    assert target.read_text() == "text"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_atomic_write_failure_leaves_neither_target_nor_temp(tmp_path):
    def explode(handle):
        handle.write(b"half")
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError):
        cache_mod.atomic_write(tmp_path / "out.bin", explode)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_failure_keeps_previous_contents(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def explode(handle):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cache_mod.atomic_write(target, explode)
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]
