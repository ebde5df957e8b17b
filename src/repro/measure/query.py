"""Indexed dimensional queries over a :class:`MeasurementDataset`.

Every figure of the paper pivots the same campaign records along
:class:`~repro.measure.records.MeasurementContext` dimensions (country,
SIM kind, architecture, b-MNO, PGW provider, ...). Scanning the full
record lists per pivot is O(N) per call and the Table 4 counting path
alone issues hundreds of such scans. This module gives the dataset a
real query layer::

    q = dataset.select("speedtest").where(country="JPN", sim_kind=SIMKind.ESIM)
    by_arch = q.group_by("architecture")     # {architecture: [records]}
    n = q.count()

Per-dimension hash indexes (value -> sorted record positions) are built
lazily, once per dataset and dimension, then reused by every subsequent
query; filters intersect position lists instead of re-scanning. Results
always come back in insertion order, exactly like the naive list
comprehensions they replace.

Staleness: an index remembers how many records its backing list had
when it was built and silently rebuilds if records were appended since
(campaigns append, then analysis queries). ``MeasurementDataset.merge``
also invalidates explicitly, and pickling drops the index cache so
cached campaign bytes stay identical whether or not a dataset was ever
queried.
"""

from __future__ import annotations

import bisect
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro import obs

#: Query kind -> the MeasurementDataset attribute holding its records.
KIND_FIELDS: Dict[str, str] = {
    "traceroute": "traceroutes",
    "speedtest": "speedtests",
    "cdn": "cdn_fetches",
    "dns": "dns_probes",
    "video": "video_probes",
    "web": "web_measurements",
}

#: Dimensions shared by every record kind (all live on ``record.context``).
CONTEXT_DIMENSIONS: Dict[str, Callable[[Any], Any]] = {
    "country": lambda r: r.context.country_iso3,
    "sim_kind": lambda r: r.context.sim_kind,
    "architecture": lambda r: r.context.architecture,
    "b_mno": lambda r: r.context.b_mno,
    "v_mno": lambda r: r.context.v_mno,
    "pgw_provider": lambda r: r.context.pgw_provider,
    "pgw_country": lambda r: r.context.pgw_country,
    "rat": lambda r: r.context.rat,
    "day": lambda r: r.context.day,
    "config": lambda r: r.context.config_label,
}

#: Record-kind-specific dimensions (fields on the record itself).
RECORD_DIMENSIONS: Dict[str, Dict[str, Callable[[Any], Any]]] = {
    "traceroute": {"target": lambda r: r.target},
    "cdn": {"provider": lambda r: r.provider},
    "dns": {"resolver_service": lambda r: r.resolver_service},
    "web": {"volunteer": lambda r: r.volunteer},
    "speedtest": {},
    "video": {},
}


def dimensions_for(kind: str) -> Dict[str, Callable[[Any], Any]]:
    """All queryable dimensions of one record kind (name -> extractor)."""
    dims = dict(CONTEXT_DIMENSIONS)
    dims.update(RECORD_DIMENSIONS.get(kind, {}))
    return dims


class KindIndex:
    """Hash indexes for one record kind of one dataset.

    One dict per dimension, ``value -> ascending positions``, built on
    first use of that dimension and cached until the backing list grows
    or the owner invalidates.
    """

    def __init__(self, kind: str, records: List[Any]) -> None:
        self.kind = kind
        self._records = records
        self._built_len = len(records)
        self._by_dimension: Dict[str, Dict[Any, List[int]]] = {}
        self._position_sets: Dict[Tuple[str, Any], Set[int]] = {}
        self._dims = dimensions_for(kind)

    # -- maintenance --------------------------------------------------------

    def _fresh(self) -> bool:
        return self._built_len == len(self._records)

    def _ensure_fresh(self) -> None:
        if not self._fresh():
            self._built_len = len(self._records)
            self._by_dimension.clear()
            self._position_sets.clear()

    def _ensure_dimension(self, dimension: str) -> Dict[Any, List[int]]:
        self._ensure_fresh()
        if dimension not in self._by_dimension:
            if dimension not in self._dims:
                raise KeyError(
                    f"unknown dimension {dimension!r} for kind {self.kind!r}; "
                    f"known: {', '.join(sorted(self._dims))}"
                )
            extract = self._dims[dimension]
            table: Dict[Any, List[int]] = {}
            for position, record in enumerate(self._records):
                table.setdefault(extract(record), []).append(position)
            self._by_dimension[dimension] = table
            obs.counter("query.index.build").inc()
        else:
            obs.counter("query.index.reuse").inc()
        return self._by_dimension[dimension]

    # -- lookups ------------------------------------------------------------

    @property
    def records(self) -> List[Any]:
        return self._records

    def positions(self, dimension: str, value: Any) -> List[int]:
        """Ascending positions of records whose ``dimension`` == ``value``."""
        return self._ensure_dimension(dimension).get(value, [])

    def intersect(self, positions: List[int], dimension: str, value: Any) -> List[int]:
        """The ascending ``positions`` whose record's ``dimension`` == ``value``.

        Lopsided inputs are the common case (a narrow country+target
        slice against the dataset-wide SIM-kind list). When one side is
        over 16x longer, the short side is binary-searched into it:
        O(short log long). Otherwise ``positions`` is probed against the
        set of matching positions, built once per ``(dimension, value)``
        and dropped with the index; rebuilding it per query would cost
        O(matches) every time and hand back the full-scan complexity the
        index exists to avoid.
        """
        matched = self.positions(dimension, value)
        short, long = sorted((positions, matched), key=len)
        if len(long) > 16 * len(short):
            out = []
            for position in short:
                i = bisect.bisect_left(long, position)
                if i < len(long) and long[i] == position:
                    out.append(position)
            return out
        key = (dimension, value)
        if key not in self._position_sets:
            self._position_sets[key] = set(matched)
        members = self._position_sets[key]
        return [p for p in positions if p in members]

    def values(self, dimension: str) -> List[Any]:
        """Distinct values of ``dimension``, deterministically ordered."""
        return _sorted_values(self._ensure_dimension(dimension))

    def groups(self, dimension: str) -> Dict[Any, List[int]]:
        return self._ensure_dimension(dimension)


def _sorted_values(table: Dict[Any, Any]) -> List[Any]:
    try:
        return sorted(table)
    except TypeError:
        return sorted(table, key=repr)


class RecordQuery:
    """A lazily-evaluated, chainable slice of one record kind.

    Immutable: ``where``/``filter`` return new queries, so a base query
    can be refined several ways (the Table 4 counting pattern)::

        base = dataset.select("cdn").where(provider="Cloudflare")
        sim = base.where(sim_kind=SIMKind.PHYSICAL).count()
        esim = base.where(sim_kind=SIMKind.ESIM).count()
    """

    def __init__(
        self,
        index: KindIndex,
        positions: Optional[List[int]] = None,
        predicates: Tuple[Callable[[Any], bool], ...] = (),
    ) -> None:
        self._index = index
        self._positions = positions  # None = every record, in order
        self._predicates = predicates

    # -- refinement ---------------------------------------------------------

    def where(self, **dimensions: Any) -> "RecordQuery":
        """Narrow to records matching every ``dimension=value`` given.

        ``None`` values are ignored (so optional filter arguments can be
        forwarded verbatim); ``country`` is upper-cased like the historic
        slice helpers did.
        """
        positions = self._positions
        for dimension, value in dimensions.items():
            if value is None:
                continue
            if dimension == "country" and isinstance(value, str):
                value = value.upper()
            positions = (
                list(self._index.positions(dimension, value))
                if positions is None
                else self._index.intersect(positions, dimension, value)
            )
        if positions is self._positions:
            return self
        return RecordQuery(self._index, positions, self._predicates)

    def filter(self, predicate: Callable[[Any], bool]) -> "RecordQuery":
        """Narrow by an arbitrary per-record predicate (applied lazily)."""
        return RecordQuery(
            self._index, self._positions, self._predicates + (predicate,)
        )

    # -- evaluation ---------------------------------------------------------

    def _candidates(self) -> Iterator[Any]:
        records = self._index.records
        if self._positions is None:
            yield from records
        else:
            for position in self._positions:
                yield records[position]

    def records(self) -> List[Any]:
        """The matching records, in campaign insertion order."""
        out = self._candidates()
        for predicate in self._predicates:
            out = (r for r in out if predicate(r))
        return list(out)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records())

    def __len__(self) -> int:
        return self.count()

    def count(self) -> int:
        if not self._predicates:
            if self._positions is None:
                return len(self._index.records)
            return len(self._positions)
        return len(self.records())

    def values(self, dimension: str) -> List[Any]:
        """Distinct values of ``dimension`` among the matches, ordered."""
        if self._positions is None and not self._predicates:
            return self._index.values(dimension)
        extract = dimensions_for(self._index.kind)[dimension]
        return _sorted_values({extract(r): None for r in self.records()})

    def group_by(self, *dimensions: str) -> Dict[Any, List[Any]]:
        """Matching records bucketed by one or more dimensions.

        With one dimension the keys are its values; with several they
        are tuples (e.g. ``group_by("country", "config")`` — the pivot
        most figures use). Keys are deterministically ordered (sorted,
        falling back to ``repr`` for unorderable values); each bucket
        keeps insertion order.
        """
        if not dimensions:
            raise TypeError("group_by needs at least one dimension")
        if len(dimensions) == 1 and self._positions is None and not self._predicates:
            groups = self._index.groups(dimensions[0])
            records = self._index.records
            return {
                value: [records[p] for p in groups[value]]
                for value in _sorted_values(groups)
            }
        dims = dimensions_for(self._index.kind)
        extractors = [dims[d] for d in dimensions]
        buckets: Dict[Any, List[Any]] = {}
        for record in self.records():
            if len(extractors) == 1:
                key = extractors[0](record)
            else:
                key = tuple(extract(record) for extract in extractors)
            buckets.setdefault(key, []).append(record)
        return {value: buckets[value] for value in _sorted_values(buckets)}

    def count_by(self, *dimensions: str) -> Dict[Any, int]:
        """Match counts per dimension value (ordered like group_by)."""
        if len(dimensions) == 1 and self._positions is None and not self._predicates:
            groups = self._index.groups(dimensions[0])
            return {v: len(groups[v]) for v in _sorted_values(groups)}
        return {v: len(rs) for v, rs in self.group_by(*dimensions).items()}


class DatasetIndex:
    """The per-dataset index cache: one :class:`KindIndex` per record kind.

    Owned by :class:`~repro.measure.dataset.MeasurementDataset`; not
    pickled (see ``MeasurementDataset.__getstate__``), rebuilt lazily in
    any process that queries.
    """

    def __init__(self, dataset: Any) -> None:
        self._dataset = dataset
        self._kinds: Dict[str, KindIndex] = {}

    def kind(self, kind: str) -> KindIndex:
        if kind not in KIND_FIELDS:
            raise KeyError(
                f"unknown record kind {kind!r}; "
                f"known: {', '.join(sorted(KIND_FIELDS))}"
            )
        index = self._kinds.get(kind)
        records = getattr(self._dataset, KIND_FIELDS[kind])
        if index is None or index.records is not records:
            index = KindIndex(kind, records)
            self._kinds[kind] = index
        return index

    def invalidate(self) -> None:
        self._kinds.clear()


def select(dataset: Any, kind: str) -> RecordQuery:
    """Entry point used by ``MeasurementDataset.select``."""
    return RecordQuery(dataset.index.kind(kind))
