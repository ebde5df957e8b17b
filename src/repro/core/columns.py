"""Typed columnar stores with a byte-deterministic snapshot format.

Tables with hundreds of thousands of rows, such as the market crawl's
~476k offers, cost far less as typed :mod:`array` columns than as
Python objects. A :class:`ColumnStore` holds them that way and

* serializes to one contiguous, **byte-deterministic** snapshot blob
  (header JSON + 8-aligned column payloads), so equal inputs always
  produce equal bytes and snapshots can be content-fingerprinted;
* reopens **zero-copy** from any buffer via ``memoryview.cast`` (an
  ``mmap``-ed snapshot file or plain bytes), so loading a snapshot
  decodes only its header;
* interns labels through :class:`StringTable` so categorical columns
  are small-int arrays with the vocabulary riding in the header.

:class:`~repro.core.cache.ArtifactCache` writes any store as
``<key>.cols`` and memory-maps it back with :meth:`ColumnStore.load`;
:class:`repro.market.CrawlDataset` reads the crawl from it.
"""

from __future__ import annotations

import json
import mmap
import os
import pathlib
import struct
from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

MAGIC = b"RPCOL001"
_ALIGN = 8

#: Typecodes with a platform-stable itemsize (the snapshot format is
#: shared between processes and cached on disk, so 'l'/'L'/'i' — whose
#: width varies by ABI — are rejected at column creation).
STABLE_TYPECODES: Dict[str, int] = {
    "b": 1, "B": 1, "h": 2, "H": 2, "q": 8, "Q": 8, "f": 4, "d": 8,
}


class ColumnError(ValueError):
    """Malformed snapshot bytes or inconsistent column usage."""


class StringTable:
    """Interned label vocabulary: label <-> small-int code.

    Codes are assigned in first-seen order, which keeps snapshot bytes
    deterministic for a deterministic build order.
    """

    __slots__ = ("_values", "_codes")

    def __init__(self, values: Iterable[str] = ()) -> None:
        self._values: List[str] = list(values)
        self._codes: Dict[str, int] = {
            value: code for code, value in enumerate(self._values)
        }

    def code(self, value: str) -> int:
        """The code for ``value``, interning it on first use."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            self._codes[value] = code
        return code

    def lookup(self, value: str) -> int:
        """The code for ``value`` without interning; -1 when unknown."""
        return self._codes.get(value, -1)

    def value(self, code: int) -> str:
        return self._values[code]

    def values(self) -> Tuple[str, ...]:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)


class ColumnStore:
    """Named typed columns + string tables + a JSON-able meta dict.

    Build side: :meth:`new_column` returns a live ``array.array`` to
    append into. Attach side: :meth:`from_buffer` exposes every column
    as a read-only ``memoryview`` cast straight over the source buffer
    (no copy). :meth:`column` normalizes both representations to a
    ``memoryview`` so readers never care which side they are on.
    """

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.meta: Dict[str, Any] = dict(meta or {})
        self._columns: Dict[str, Union[array, memoryview]] = {}
        self._specs: Dict[str, Tuple[str, Optional[str]]] = {}
        self._strings: Dict[str, StringTable] = {}
        self._order: List[str] = []
        #: Whatever owns the attached bytes (mmap, bytes) — held so the
        #: buffer outlives every column view handed out.
        self._backing: Any = None

    # -- building -------------------------------------------------------------

    def new_column(
        self, name: str, typecode: str, strings: Optional[str] = None
    ) -> array:
        """Create (and return) an appendable column.

        ``strings=`` names the :class:`StringTable` whose codes this
        column holds; the snapshot header records the pairing.
        """
        if typecode not in STABLE_TYPECODES:
            raise ColumnError(
                f"typecode {typecode!r} has a platform-dependent width; "
                f"use one of {sorted(STABLE_TYPECODES)}"
            )
        if name in self._columns:
            raise ColumnError(f"duplicate column {name!r}")
        column = array(typecode)
        self._columns[name] = column
        self._specs[name] = (typecode, strings)
        self._order.append(name)
        if strings is not None:
            self.strings(strings)
        return column

    def strings(self, table: str) -> StringTable:
        """The named string table, created empty on first use."""
        if table not in self._strings:
            self._strings[table] = StringTable()
        return self._strings[table]

    # -- reading --------------------------------------------------------------

    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def column(self, name: str) -> memoryview:
        """The column as a typed ``memoryview`` (works on both sides)."""
        raw = self._columns[name]
        if isinstance(raw, memoryview):
            return raw
        return memoryview(raw)

    def typecode(self, name: str) -> str:
        return self._specs[name][0]

    # -- snapshot codec -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """One contiguous snapshot blob; equal stores -> equal bytes."""
        layout = []
        offset = 0
        for name in self._order:
            typecode, strings = self._specs[name]
            nbytes = len(self._columns[name]) * STABLE_TYPECODES[typecode]
            layout.append({
                "name": name,
                "typecode": typecode,
                "itemsize": STABLE_TYPECODES[typecode],
                "count": len(self._columns[name]),
                "offset": offset,  # relative to the data section
                "nbytes": nbytes,
                "strings": strings,
            })
            offset = _aligned(offset + nbytes)
        header = json.dumps(
            {
                "meta": self.meta,
                "strings": {
                    table: list(strtab.values())
                    for table, strtab in sorted(self._strings.items())
                },
                "columns": layout,
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        data_start = _aligned(len(MAGIC) + 8 + len(header))
        total = data_start + (_aligned(offset) if layout else 0)
        blob = bytearray(total)
        blob[: len(MAGIC)] = MAGIC
        struct.pack_into("<Q", blob, len(MAGIC), len(header))
        blob[len(MAGIC) + 8 : len(MAGIC) + 8 + len(header)] = header
        for name, entry in zip(self._order, layout):
            start = data_start + entry["offset"]
            raw = self._columns[name]
            payload = raw.tobytes() if isinstance(raw, array) else bytes(raw)
            blob[start : start + entry["nbytes"]] = payload
        return bytes(blob)

    @classmethod
    def from_buffer(
        cls, buffer: Union[bytes, bytearray, memoryview, mmap.mmap]
    ) -> "ColumnStore":
        """Zero-copy view over snapshot bytes produced by :meth:`to_bytes`.

        Columns become read-only ``memoryview`` casts into ``buffer``;
        nothing is copied. ``buffer`` is pinned on the store so it
        outlives the views.
        Every malformed input — short or garbage bytes, a header of the
        wrong shape, a column outside the buffer — raises
        :class:`ColumnError`, never another exception type.
        """
        view = memoryview(buffer)
        prefix = len(MAGIC) + 8
        if len(view) < prefix or bytes(view[: len(MAGIC)]) != MAGIC:
            raise ColumnError("not a column snapshot (bad magic)")
        (header_len,) = struct.unpack_from("<Q", view, len(MAGIC))
        header_end = prefix + header_len
        if header_end > len(view):
            raise ColumnError("truncated column snapshot header")
        try:
            header = json.loads(bytes(view[prefix:header_end]))
        except ValueError as error:
            raise ColumnError(f"corrupt snapshot header: {error}") from None
        _require(isinstance(header, dict), "snapshot header is not an object")
        meta = header.get("meta", {})
        strings = header.get("strings", {})
        columns = header.get("columns", [])
        _require(isinstance(meta, dict), "snapshot meta is not an object")
        _require(isinstance(strings, dict), "snapshot strings is not an object")
        _require(isinstance(columns, list), "snapshot columns is not a list")
        store = cls(meta=meta)
        for table, values in strings.items():
            _require(
                isinstance(values, list)
                and all(isinstance(value, str) for value in values),
                f"string table {table!r} is not a list of strings",
            )
            store._strings[table] = StringTable(values)
        data_start = _aligned(header_end)
        for entry in columns:
            name, typecode, table, start, end = _column_layout(
                entry, store, data_start, len(view)
            )
            store._columns[name] = view[start:end].cast(typecode)
            store._specs[name] = (typecode, table)
            store._order.append(name)
        store._backing = buffer
        return store

    # -- snapshot files -------------------------------------------------------

    def save(self, path: Union[str, "os.PathLike[str]"]) -> None:
        """Atomically write the snapshot blob (tmp + ``os.replace``)."""
        from repro.core.cache import atomic_write  # cache imports this module

        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, lambda handle: handle.write(self.to_bytes()))

    @classmethod
    def load(cls, path: Union[str, "os.PathLike[str]"]) -> "ColumnStore":
        """Memory-map a snapshot file: zero-copy, demand-paged, and the
        page cache is shared between every process mapping the file."""
        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # an empty file cannot be mapped
                raise ColumnError("not a column snapshot (empty file)") from None
        return cls.from_buffer(mapped)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ColumnError(message)


def _is_count(value: Any) -> bool:
    """A JSON integer >= 0 (``bool`` is an ``int`` subclass: rejected)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _column_layout(
    entry: Any, store: ColumnStore, data_start: int, buffer_len: int
) -> Tuple[str, str, Optional[str], int, int]:
    """Check one header column entry against the buffer it describes.

    Returns ``(name, typecode, strings, start, end)``; ``start:end`` is
    the column's byte range in the buffer.
    """
    _require(isinstance(entry, dict), "column entry is not an object")
    name = entry.get("name")
    _require(isinstance(name, str), "column entry without a string name")
    _require(name not in store._columns, f"duplicate column {name!r}")
    typecode = entry.get("typecode")
    itemsize = STABLE_TYPECODES.get(typecode) if isinstance(typecode, str) else None
    _require(itemsize is not None, f"column {name!r}: bad typecode {typecode!r}")
    _require(
        entry.get("itemsize") == itemsize,
        f"column {name!r}: itemsize mismatch "
        f"({entry.get('itemsize')!r} vs {itemsize} for {typecode!r})",
    )
    count, offset, nbytes = (entry.get(k) for k in ("count", "offset", "nbytes"))
    _require(
        _is_count(count) and _is_count(offset) and _is_count(nbytes),
        f"column {name!r}: count, offset and nbytes must be integers >= 0",
    )
    _require(
        nbytes == count * itemsize,
        f"column {name!r}: nbytes {nbytes} != count {count} x itemsize {itemsize}",
    )
    _require(offset % _ALIGN == 0, f"column {name!r}: offset {offset} is unaligned")
    table = entry.get("strings")
    _require(
        table is None or (isinstance(table, str) and table in store._strings),
        f"column {name!r}: unknown string table {table!r}",
    )
    start = data_start + offset
    end = start + nbytes
    _require(end <= buffer_len, f"column {name!r} is truncated")
    return name, typecode, table, start, end
