"""Tests for the typed columnar store (repro.core.columns)."""

import json
import struct

import pytest

from repro.core import columns as columns_mod
from repro.core.columns import ColumnError, ColumnStore, StringTable


def _sample_store(rows: int = 100) -> ColumnStore:
    store = ColumnStore(meta={"kind": "test", "rows": rows})
    country = store.new_column("country", "H", strings="country")
    value = store.new_column("value", "d")
    flags = store.new_column("flags", "B")
    codes = store.strings("country")
    for i in range(rows):
        country.append(codes.code(("ESP", "JPN", "PAK")[i % 3]))
        value.append(i * 1.5)
        flags.append(i % 2)
    return store


class TestStringTable:
    def test_first_seen_order_and_roundtrip(self):
        table = StringTable()
        assert table.code("b") == 0
        assert table.code("a") == 1
        assert table.code("b") == 0  # interned, not re-added
        assert table.values() == ("b", "a")
        assert table.value(1) == "a"
        assert len(table) == 2

    def test_lookup_does_not_intern(self):
        table = StringTable(["x"])
        assert table.lookup("x") == 0
        assert table.lookup("missing") == -1
        assert len(table) == 1


class TestColumnStore:
    def test_rejects_platform_dependent_typecodes(self):
        store = ColumnStore()
        for typecode in ("l", "L", "i", "I", "u"):
            with pytest.raises(ColumnError):
                store.new_column("c", typecode)

    def test_duplicate_column_rejected(self):
        store = ColumnStore()
        store.new_column("c", "q")
        with pytest.raises(ColumnError):
            store.new_column("c", "q")

    def test_column_views_and_sizes(self):
        store = _sample_store(10)
        assert store.column_names() == ("country", "value", "flags")
        assert list(store.column("flags")) == [i % 2 for i in range(10)]
        assert {
            name: store.column(name).nbytes for name in store.column_names()
        } == {"country": 20, "value": 80, "flags": 10}
        assert store.typecode("value") == "d"

    def test_to_bytes_is_deterministic(self):
        assert _sample_store().to_bytes() == _sample_store().to_bytes()

    def test_roundtrip_through_bytes_is_zero_copy_equal(self):
        store = _sample_store()
        clone = ColumnStore.from_buffer(store.to_bytes())
        assert clone.meta == store.meta
        assert clone.column_names() == store.column_names()
        for name in store.column_names():
            assert list(clone.column(name)) == list(store.column(name))
            assert clone.typecode(name) == store.typecode(name)
        table = clone.strings("country")
        assert table.values() == store.strings("country").values()

    def test_from_buffer_rejects_garbage(self):
        with pytest.raises(ColumnError):
            ColumnStore.from_buffer(b"not a snapshot at all")
        blob = bytearray(_sample_store().to_bytes())
        blob[:4] = b"XXXX"
        with pytest.raises(ColumnError):
            ColumnStore.from_buffer(bytes(blob))

    def test_from_buffer_rejects_truncation(self):
        blob = _sample_store().to_bytes()
        with pytest.raises(ColumnError):
            ColumnStore.from_buffer(blob[: len(blob) - 16])

    def test_load_empty_file_is_a_column_error(self, tmp_path):
        path = tmp_path / "empty.cols"
        path.write_bytes(b"")
        with pytest.raises(ColumnError):
            ColumnStore.load(path)

    def test_save_load_mmap(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snap" / "sample.cols"
        store.save(path)
        assert path.read_bytes() == store.to_bytes()
        loaded = ColumnStore.load(path)
        assert list(loaded.column("value")) == list(store.column("value"))
        # no stray temp files from the atomic write
        assert [p.name for p in path.parent.iterdir()] == ["sample.cols"]


def test_aligned_offsets():
    assert columns_mod._aligned(0) == 0
    assert columns_mod._aligned(1) == 8
    assert columns_mod._aligned(8) == 8
    assert columns_mod._aligned(9) == 16


# -- malformed snapshots ---------------------------------------------------------


def _blob(header, payload: bytes = b"") -> bytes:
    """Snapshot bytes around an arbitrary (possibly malformed) header."""
    raw = json.dumps(header).encode()
    head = columns_mod.MAGIC + struct.pack("<Q", len(raw)) + raw
    return head + bytes(columns_mod._aligned(len(head)) - len(head)) + payload


def _column(**changes):
    entry = {
        "name": "v", "typecode": "d", "itemsize": 8, "count": 2,
        "offset": 0, "nbytes": 16, "strings": None,
    }
    entry.update(changes)
    return entry


def _header(*columns, strings=None):
    return {"meta": {}, "strings": strings or {}, "columns": list(columns)}


def _without(key):
    entry = _column()
    del entry[key]
    return entry


MALFORMED = {
    "nine-byte file": columns_mod.MAGIC + b"\x00",
    "header is a JSON list": _blob([1, 2, 3]),
    "header is not JSON": columns_mod.MAGIC + struct.pack("<Q", 3) + b"{{{",
    "header length past the end": columns_mod.MAGIC + struct.pack("<Q", 99),
    "meta is a list": _blob({"meta": [], "strings": {}, "columns": []}),
    "columns is an object": _blob({"meta": {}, "strings": {}, "columns": {}}),
    "column entry is a string": _blob(_header("v"), bytes(16)),
    "missing typecode": _blob(_header(_without("typecode")), bytes(16)),
    "missing name": _blob(_header(_without("name")), bytes(16)),
    "missing count": _blob(_header(_without("count")), bytes(16)),
    "unknown typecode": _blob(_header(_column(typecode="l")), bytes(16)),
    "itemsize mismatch": _blob(_header(_column(itemsize=4)), bytes(16)),
    "nbytes not a multiple of itemsize": _blob(
        _header(_column(count=1, nbytes=12)), bytes(16)
    ),
    "count disagrees with nbytes": _blob(_header(_column(count=3)), bytes(16)),
    "negative offset": _blob(_header(_column(offset=-8)), bytes(16)),
    "unaligned offset": _blob(_header(_column(offset=4, count=1, nbytes=8)), bytes(16)),
    "offset is a float": _blob(_header(_column(offset=0.0)), bytes(16)),
    "count is a bool": _blob(_header(_column(count=True, nbytes=8)), bytes(16)),
    "column past the end": _blob(_header(_column(offset=8)), bytes(16)),
    "duplicate column": _blob(_header(_column(), _column()), bytes(16)),
    "string table is a number": _blob(_header(strings={"t": 5})),
    "string table holds a number": _blob(_header(strings={"t": ["a", 5]})),
    "unknown string table": _blob(
        _header(_column(typecode="H", itemsize=2, nbytes=4, strings="t")), bytes(8)
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_snapshot_raises_column_error(case, tmp_path):
    blob = MALFORMED[case]
    with pytest.raises(ColumnError):
        ColumnStore.from_buffer(blob)
    path = tmp_path / "bad.cols"
    path.write_bytes(blob)
    with pytest.raises(ColumnError):
        ColumnStore.load(path)


def test_well_formed_blob_helper_parses():
    """The malformed cases above differ from this one in a single field."""
    store = ColumnStore.from_buffer(_blob(_header(_column()), bytes(16)))
    assert list(store.column("v")) == [0.0, 0.0]
