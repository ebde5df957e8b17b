"""Tests for the persistent artifact cache (repro.core.cache)."""

import contextlib
import hashlib
import json
import os
import pathlib
import pickle
import pickletools
import shutil

import pytest

from repro.core import cache as cache_mod
from repro.core.cache import DIGEST_BYTES, ArtifactCache, fingerprint
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
    # upgrade: well-formed pickle bytes and their digest, unresolvable
    # import.
    key = fingerprint("blob", n=1)
    store.root.mkdir(parents=True)
    payload = b"cno_such_module_xyz\nNoClass\n."
    (store.root / f"{key}.pkl").write_bytes(payload + hashlib.sha256(payload).digest())
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


def test_entry_is_the_pickle_then_its_sha256(store):
    key = fingerprint("blob", n=1)
    blob = store.store(key, {"value": [1, 2, 3]}).read_bytes()
    payload, digest = blob[:-DIGEST_BYTES], blob[-DIGEST_BYTES:]
    assert digest == hashlib.sha256(payload).digest()
    assert payload == pickle.dumps({"value": [1, 2, 3]}, protocol=pickle.HIGHEST_PROTOCOL)


def test_entry_without_a_digest_trailer_is_an_evicted_miss(store):
    """A bare pickle, as written before entries carried a digest."""
    key = fingerprint("blob", n=1)
    store.root.mkdir(parents=True)
    path = store.root / f"{key}.pkl"
    path.write_bytes(pickle.dumps(list(range(100))))
    assert store.load(key) is None
    assert store.stats.evictions == 1 and not path.exists()


# -- the market crawl's column entry ------------------------------------------

def _columns():
    """A small crawl: two daily listings and one vantage probe."""
    from repro.geo import default_country_registry
    from repro.market import EsimDB, build_provider_universe

    esimdb = EsimDB(build_provider_universe(4), default_country_registry())
    return esimdb.offer_table([0, 7], [(84, "Madrid")])


def test_offer_table_roundtrips_as_one_pickle(store):
    table = _columns()
    key = fingerprint("cols", n=1)
    path = store.store(key, table)
    assert [p.name for p in store.root.iterdir()] == [f"{key}.pkl"]
    loaded = store.load(key)
    assert loaded == table and loaded is not table
    assert loaded.prices[0].typecode == "d" and loaded.provider.typecode == "H"
    assert [p.tobytes() for p in loaded.prices] == [p.tobytes() for p in table.prices]
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
    store.store(key, _columns()).write_bytes(b"a pickle but not really")
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
    assert sorted(p.name for p in store.root.iterdir()) == [
        "columns-entry.pkl", "pickled-entry.pkl",
    ]
    (store.root / "columns-entry.pkl").write_bytes(b"garbage")
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


# -- byte-flip table: every entry kind is digest-checked ---------------------

GOLDEN = pathlib.Path(__file__).parent / "golden" / "run_all_seed2024_scale0.05.json"
SEED, SCALE = 2024, 0.05


def _flip_table():
    """Entry kind -> (its cache key, an artefact whose export reads it)."""
    from repro.core.runner import result_key
    from repro.experiments import common
    from repro.experiments.rx1 import default_chaos

    return {
        "world": (common._disk_key("world", seed=SEED), "T2"),
        "device": (common._disk_key(
            "device-dataset", seed=SEED, scale=SCALE, chaos=None), "F7"),
        "chaos-device": (common._disk_key(
            "device-dataset", seed=SEED, scale=SCALE, chaos=default_chaos(SEED)), "RX1"),
        "web": (common._disk_key("web-dataset", seed=SEED), "T3"),
        "market": (common._disk_key("market-crawl", step_days=7), "F16"),
        "journal-result": (result_key("F16", SEED, SCALE), "F16"),
    }


#: Pickle opcodes whose argument is raw data, with the width of the length
#: prefix before it: a bit flipped there still unpickles, to a wrong value.
DATA_OPCODES = {"BINFLOAT": 0, "SHORT_BINBYTES": 1, "BINBYTES": 4, "BINBYTES8": 8}


def _payload_byte(blob, near):
    """A byte of a float or bytes argument in ``blob``'s pickle: ``near``
    if such an argument spans it, else the last byte of the last one
    starting before it."""
    found = data = None
    for op, _, pos in pickletools.genops(blob):
        if data is not None:  # the previous opcode's argument is blob[data:pos]
            if data <= near < pos:
                return near
            found = pos - 1
        if pos > near:
            break
        data = pos + 1 + DATA_OPCODES[op.name] if op.name in DATA_OPCODES else None
    assert found is not None, "no float or bytes argument before the offset"
    return found


@contextlib.contextmanager
def _default_cache(root):
    """``root`` as the process-default cache, with empty memo layers."""
    from repro.experiments import common

    previous = cache_mod.get_default_cache()
    common.clear_caches()
    try:
        yield cache_mod.configure(root=root)
    finally:
        common.clear_caches()
        cache_mod.set_default_cache(previous)


@pytest.fixture(scope="module")
def flip_primed(tmp_path_factory):
    """A cache holding every entry kind, stored results included."""
    from repro.core.runner import StudyRunner

    root = tmp_path_factory.mktemp("flip-primed")
    artefacts = sorted({artefact for _, artefact in _flip_table().values()})
    with _default_cache(root / "cache"):
        report = StudyRunner(seed=SEED, jobs=1).run_all(
            scale=SCALE, artefacts=artefacts, resume=True
        )
    assert not report.failed(), report.summary_table()
    return root


@pytest.mark.parametrize("kind", sorted(_flip_table()))
def test_flipped_byte_is_an_evicted_miss_that_rebuilds_to_golden(
    flip_primed, tmp_path, kind
):
    """One payload byte flipped in any entry: ``verify`` names the entry,
    the next load evicts it, and the rerun exports golden bytes."""
    from repro.core.runner import StudyRunner
    from repro.experiments.export import jsonable

    key, artefact = _flip_table()[kind]
    shutil.copytree(flip_primed, tmp_path / "run")
    root = tmp_path / "run" / "cache"
    path = root / f"{key}.pkl"
    blob = bytearray(path.read_bytes())
    # 8,000 bytes before the end lies in the crawl's float64 prices; an
    # entry too small for that is hit at a float near its middle.
    near = len(blob) - 8000 if len(blob) > 16_000 else len(blob) // 2
    blob[_payload_byte(blob, near)] ^= 0x40
    path.write_bytes(bytes(blob))

    assert ArtifactCache(root).verify().corrupt == [key]

    with _default_cache(root) as store:
        # A stored result is read on resume; an input on any run.
        report = StudyRunner(seed=SEED, jobs=1).run_all(
            scale=SCALE, artefacts=[artefact], resume=kind == "journal-result"
        )
    assert store.stats.evictions == 1
    assert ArtifactCache(root).verify().clean and path.is_file()
    golden = json.loads(GOLDEN.read_text())["results"][artefact]
    assert json.dumps(jsonable(report.results[artefact]), indent=2, sort_keys=True) == (
        json.dumps(golden, indent=2, sort_keys=True)
    )


def _six_column_table():
    """An ``OfferTable`` as the six-column layout pickled it: that
    layout's fields on the same class, so it unpickles as an instance."""
    from array import array

    from repro.market.esimdb import OfferTable

    table = object.__new__(OfferTable)
    table.__dict__.update(
        provider=array("H", [0]), country=array("H", [0]),
        vantage=array("H", [0]), day=array("H", [0]),
        data_gb=array("d", [1.0]), price_usd=array("d", [4.5]),
        providers=("Airalo",), countries=("ESP",), vantages=("NJ",),
        listings=((0, "NJ", 0, 1),), daily=1,
    )
    return table


def test_six_column_crawl_at_the_old_key_is_never_read(tmp_path):
    """A cache the six-column layout filled keeps its crawl at the
    ``market-columns`` key, under the same version. It loads as an
    ``OfferTable`` without ``prices``, so the crawl is cached under
    another kind: F16 builds it and exports golden bytes."""
    from repro.core.runner import StudyRunner
    from repro.experiments import common
    from repro.experiments.export import jsonable
    from repro.market.esimdb import OfferTable

    old_key = common._disk_key("market-columns", step_days=7)
    new_key, _ = _flip_table()["market"]
    with _default_cache(tmp_path / "cache") as store:
        old = store.store(old_key, _six_column_table())
        loaded = store.load(old_key)
        assert isinstance(loaded, OfferTable) and not hasattr(loaded, "prices")
        report = StudyRunner(seed=SEED, jobs=1).run_all(
            scale=SCALE, artefacts=["F16"]
        )
    assert not report.failed(), report.summary_table()
    assert old.is_file() and (tmp_path / "cache" / f"{new_key}.pkl").is_file()
    golden = json.loads(GOLDEN.read_text())["results"]["F16"]
    assert json.dumps(jsonable(report.results["F16"]), indent=2, sort_keys=True) == (
        json.dumps(golden, indent=2, sort_keys=True)
    )


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
    stray = store.root / ".good-entry.pkl.abc123"
    stray.write_bytes(b"half-written")
    result = store.verify()
    assert result.stray == [".good-entry.pkl.abc123"]
    assert not result.clean


def test_verify_prune_removes_corrupt_and_stray(store):
    store.store("good-entry", {"v": 1})
    bad = store.store("bad-entry", {"v": 2})
    bad.write_bytes(b"truncated")
    stray = store.root / ".bad-entry.pkl.xyz"
    stray.write_bytes(b"leftover")
    result = store.verify(prune=True)
    assert sorted(result.pruned) == [".bad-entry.pkl.xyz", "bad-entry"]
    assert not bad.exists() and not stray.exists()
    assert store.verify().clean
    assert store.load("good-entry") == {"v": 1}


def test_verify_missing_root(tmp_path):
    result = ArtifactCache(root=tmp_path / "never-created").verify()
    assert result.clean and not result.ok


def test_clear_removes_stray_temp_files(store):
    store.store("entry-a", {"v": 1})
    (store.root / ".entry-a.pkl.tmp123").write_bytes(b"leftover")
    assert store.clear() == 2
    assert not list(store.root.iterdir())


def test_clear_and_prune_delete_only_the_caches_own_files(store):
    """Entries and atomic_write's ``.{key}.pkl.*`` temps are the cache's;
    a dotfile or a hidden directory in the same root is not."""
    store.store("entry-a", {"v": 1})
    (store.root / ".entry-a.pkl.tmp123").write_bytes(b"leftover")
    (store.root / ".bashrc").write_text("export PS1='$ '\n")
    (store.root / ".notes.pkl").write_bytes(b"not an entry")
    (store.root / ".ssh").mkdir()
    (store.root / ".ssh" / "config").write_text("Host *\n")
    (store.root / ".ssh.pkl.d").mkdir()
    result = store.verify(prune=True)
    assert result.ok == ["entry-a"] and not result.corrupt
    assert result.stray == result.pruned == [".entry-a.pkl.tmp123"]
    assert store.clear() == 1
    assert sorted(p.name for p in store.root.iterdir()) == [
        ".bashrc", ".notes.pkl", ".ssh", ".ssh.pkl.d",
    ]
    assert (store.root / ".ssh" / "config").read_text() == "Host *\n"


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
