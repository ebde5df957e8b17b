"""Persistent artifact cache for expensive build products.

The world, the campaign :class:`~repro.measure.dataset.MeasurementDataset`\\ s
and the market crawl are deterministic functions of
``(package version, seed, scale, ChaosConfig)`` — there is no reason to
rebuild them in every fresh process. This module stores them under
``~/.cache/repro-airalo/`` (override with ``$REPRO_CACHE_DIR``; disable
entirely with ``$REPRO_CACHE_DISABLE=1``), keyed by a content
fingerprint of everything that can change the bytes. Every entry is
one file, ``<key>.pkl``: the pickle of the value followed by the 32-byte
sha256 digest of that pickle.

Design rules:

* **Atomic writes.** Entries are written to a temp file in the cache
  directory and ``os.replace``\\ d into place, so a crashed or
  concurrent writer can never leave a half-written entry under the
  final name. :func:`atomic_write` is that discipline, shared with
  every other whole-file writer in the package.
* **Corruption tolerance.** A load that fails for *any* reason (a
  digest that does not match, a truncated file, stale class layout,
  wrong protocol) is treated as a miss: the entry is deleted and the
  caller rebuilds. The digest is checked before anything is unpickled,
  so a flipped byte is caught even where it would still unpickle. The
  cache can therefore always be deleted, truncated or hand-edited with
  no effect beyond a rebuild.
* **Versioned keys.** The package version is part of every fingerprint,
  so upgrading the simulator silently invalidates old entries instead
  of serving artefacts built by different code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import time
import types
from dataclasses import dataclass
from typing import IO, Any, Callable, Dict, List, Optional, Union

from repro import obs

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"

#: Bytes of the sha256 trailer that ends every entry.
DIGEST_BYTES = hashlib.sha256().digest_size

#: How much of an entry is hashed per read.
_CHUNK_BYTES = 1 << 20


def _write_entry(value: Any, handle: IO[bytes]) -> None:
    """Pickle ``value`` into ``handle``, then append the pickle's sha256."""
    digest = hashlib.sha256()

    def write(data: bytes) -> None:
        digest.update(data)
        handle.write(data)

    pickle.dump(
        value, types.SimpleNamespace(write=write), protocol=pickle.HIGHEST_PROTOCOL
    )
    handle.write(digest.digest())


def _read_entry(path: pathlib.Path) -> Any:
    """Check an entry's sha256 trailer, reading in chunks, then unpickle it.

    Raises ``ValueError`` on a digest mismatch (a flipped byte, a torn
    write, an entry from before the trailer) and whatever ``open`` or
    ``pickle.load`` raise otherwise.
    """
    with path.open("rb") as handle:
        remaining = os.fstat(handle.fileno()).st_size - DIGEST_BYTES
        if remaining < 0:
            raise ValueError(f"{path.name}: shorter than its digest")
        digest = hashlib.sha256()
        while remaining:
            chunk = handle.read(min(remaining, _CHUNK_BYTES))
            if not chunk:
                raise ValueError(f"{path.name}: shrank while being read")
            digest.update(chunk)
            remaining -= len(chunk)
        if handle.read() != digest.digest():
            raise ValueError(f"{path.name}: digest mismatch")
        handle.seek(0)
        return pickle.load(handle)


def default_cache_root() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-airalo``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return pathlib.Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg).expanduser() if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-airalo"


def atomic_write(
    path: Union[str, "os.PathLike[str]"],
    write: Callable[[IO[Any]], None],
    mode: str = "wb",
) -> None:
    """Write ``path`` all or nothing, streaming through ``write(handle)``.

    ``write`` fills a temp file beside ``path``, which then replaces
    ``path`` in one rename, so ``write`` can stream (e.g. ``pickle.dump``)
    without first building the whole payload in memory. A crash or an
    exception from ``write`` never leaves a partial file under ``path``;
    on an exception the temp file is removed too. The temp name starts
    with ``.{name}.``, so one a killed process leaves behind is hidden,
    and :meth:`ArtifactCache.verify` reports it.

    A missing parent directory is created, and the file gets the mode a
    plain ``open`` gives it: 0666 less the umask.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.parent / f".{target.name}.{os.urandom(6).hex()}"
    # O_EXCL never writes through a name that already exists; the kernel
    # applies the umask to 0o666, as it does for open().
    descriptor = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, mode) as handle:
            write(handle)
        os.replace(temp, target)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _fingerprint_value(value: Any) -> Any:
    """Reduce a key component to canonical JSON-able data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _fingerprint_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _fingerprint_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_fingerprint_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def fingerprint(kind: str, **parts: Any) -> str:
    """Stable content key: ``{kind}-{sha256 of the canonical parts}``.

    ``parts`` should include everything that can change the artefact's
    bytes — seed, scale, chaos config, package version. Dataclasses
    (e.g. :class:`~repro.faults.ChaosConfig`) are flattened field by
    field, so two equal configs always fingerprint identically.
    """
    canonical = json.dumps(
        _fingerprint_value(parts), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"{kind}-{digest[:20]}"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance (one process).

    ``hit_time_s`` / ``miss_time_s`` accumulate the wall time spent in
    :meth:`ArtifactCache.load` for hitting and missing lookups, so the
    runner ledger can report per-artefact cache-hit latency.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    hit_time_s: float = 0.0
    miss_time_s: float = 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.stores, self.evictions,
            self.hit_time_s, self.miss_time_s,
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.stores - earlier.stores,
            self.evictions - earlier.evictions,
            self.hit_time_s - earlier.hit_time_s,
            self.miss_time_s - earlier.miss_time_s,
        )


@dataclass(frozen=True)
class CacheEntryInfo:
    """One on-disk entry, as reported by ``python -m repro cache info``."""

    key: str
    size_bytes: int


@dataclass(frozen=True)
class CacheVerifyResult:
    """What ``python -m repro cache verify`` found (and removed)."""

    #: Keys whose entries loaded cleanly.
    ok: List[str]
    #: Keys whose entries failed to load (digest mismatch, truncated, …).
    corrupt: List[str]
    #: Stray ``.{key}.pkl.*`` temp files from crashed writers.
    stray: List[str]
    #: Corrupt entries + stray temp files actually deleted (``prune=True``).
    pruned: List[str]

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.stray


class ArtifactCache:
    """Digest-checked pickle store: atomic, corruption-tolerant."""

    def __init__(
        self,
        root: Optional[Union[str, pathlib.Path]] = None,
        enabled: bool = True,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_root()
        self.enabled = enabled and os.environ.get(ENV_CACHE_DISABLE, "") not in (
            "1", "true", "yes",
        )
        self.stats = CacheStats()

    def _miss(self, started: float) -> None:
        self.stats.misses += 1
        self.stats.miss_time_s += time.perf_counter() - started
        obs.counter("cache.miss").inc()

    # -- load / store -------------------------------------------------------

    def load(self, key: str) -> Optional[Any]:
        """The cached object, or ``None`` on miss *or* corrupt entry."""
        if not self.enabled:
            return None
        started = time.perf_counter()
        path = self.root / f"{key}.pkl"
        try:
            value = _read_entry(path)
        except FileNotFoundError:
            self._miss(started)
            return None
        except Exception:
            # Digest mismatch, truncated write, stale class layout,
            # garbage bytes: drop the entry and let the caller rebuild
            # from scratch.
            self._miss(started)
            self.stats.evictions += 1
            obs.counter("cache.corrupt").inc()
            obs.event("cache.corrupt", key=key)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        elapsed = time.perf_counter() - started
        self.stats.hits += 1
        self.stats.hit_time_s += elapsed
        obs.counter("cache.hit").inc()
        obs.histogram("cache.load_s").observe(elapsed)
        return value

    def store(self, key: str, value: Any) -> Optional[pathlib.Path]:
        """Atomically persist ``value`` as ``<key>.pkl``; returns its path."""
        if not self.enabled:
            return None
        started = time.perf_counter()
        path = self.root / f"{key}.pkl"
        atomic_write(path, lambda handle: _write_entry(value, handle))
        self.stats.stores += 1
        obs.counter("cache.store").inc()
        obs.histogram("cache.store_s").observe(time.perf_counter() - started)
        return path

    # -- maintenance --------------------------------------------------------

    def _files(self, pattern: str) -> List[pathlib.Path]:
        """Regular files in the cache root matching ``pattern``, by name."""
        if not self.root.is_dir():
            return []
        return sorted(path for path in self.root.glob(pattern) if path.is_file())

    def _stray_temps(self) -> List[pathlib.Path]:
        """Leftover ``.{key}.pkl.{random}`` temp files from crashed writers.

        :func:`atomic_write` names an entry's temp file that way; no
        other file in the cache root, hidden or not, is the cache's.
        """
        return self._files(".*.pkl.*")

    def _entry_paths(self) -> List[pathlib.Path]:
        """Every live entry, sorted by name."""
        return self._files("[!.]*.pkl")

    def entries(self) -> List[CacheEntryInfo]:
        found = []
        for path in self._entry_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            found.append(CacheEntryInfo(key=path.stem, size_bytes=size))
        return found

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def clear(self) -> int:
        """Delete every entry (and stray temp file); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self._entry_paths() + self._stray_temps():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def verify(self, prune: bool = False) -> CacheVerifyResult:
        """Eagerly check every entry instead of waiting for a miss.

        Each entry is read as :meth:`load` reads it, digest first, then
        unpickled, but never through :meth:`load`: hit/miss stats and
        telemetry are untouched and nothing is silently evicted — a
        corrupt entry is only deleted when ``prune=True`` asks for it.
        Stray temp files (a writer that died between ``tempfile`` and
        ``os.replace``) are reported, and pruned, the same way.
        """
        ok: List[str] = []
        bad: List[pathlib.Path] = []
        for path in self._entry_paths():
            try:
                _read_entry(path)
            except Exception:
                bad.append(path)
            else:
                ok.append(path.stem)
        strays = self._stray_temps()
        corrupt = [path.stem for path in bad]
        stray = [path.name for path in strays]
        pruned: List[str] = []
        if prune:
            for path, name in zip(bad + strays, corrupt + stray):
                try:
                    path.unlink()
                    pruned.append(name)
                except OSError:
                    pass
        return CacheVerifyResult(ok=ok, corrupt=corrupt, stray=stray, pruned=pruned)

    def info(self) -> Dict[str, Any]:
        """Summary for the CLI: root, flag, entry list, totals."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": [dataclasses.asdict(entry) for entry in entries],
            "entry_count": len(entries),
            "total_bytes": sum(entry.size_bytes for entry in entries),
        }


# -- process-wide default ---------------------------------------------------

_default_cache: Optional[ArtifactCache] = None


def get_default_cache() -> ArtifactCache:
    """The cache the experiment layer consults (created lazily)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = ArtifactCache()
    return _default_cache


def set_default_cache(cache: ArtifactCache) -> ArtifactCache:
    """Adopt ``cache`` as the process-wide default."""
    global _default_cache
    _default_cache = cache
    return cache


def configure(
    root: Optional[Union[str, pathlib.Path]] = None,
    enabled: bool = True,
) -> ArtifactCache:
    """Replace the process-wide default cache (tests, workers, CLI)."""
    return set_default_cache(ArtifactCache(root=root, enabled=enabled))
