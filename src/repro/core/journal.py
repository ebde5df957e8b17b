"""Crash-safe run journal: the checkpoint behind ``run-all --resume``.

A :class:`RunJournal` is an append-only JSONL file that records, as
each artefact of a ``run_all`` completes, *that* it completed and
*where* its result payload lives (a :mod:`repro.core.cache` entry keyed
by content fingerprint). After a ``kill -9``, a SIGINT or a power cut,
``run-all --resume`` replays the journal, loads the already-computed
results straight from the cache, and runs only the remaining shard —
producing byte-identical exports to an uninterrupted run.

The journal and the :mod:`repro.obs.history` store are both
append-only JSONL logs, written and read through two helpers in
:mod:`repro.obs.sink`:

* **Atomic appends** (:func:`~repro.obs.sink.append_jsonl`). One
  ``\\n``-terminated line per entry, written with a single ``os.write``
  on an ``O_APPEND`` descriptor; a crashed writer can truncate at most
  its own final line.
* **Corruption tolerance** (:func:`~repro.obs.sink.load_jsonl`). Loads
  skip anything unusable — a truncated final line, garbage bytes,
  entries with a newer or malformed schema — and keep every entry that
  parses. A later journal entry for the same artefact wins.
* **Workload-keyed.** The header line carries a content fingerprint of
  ``(seed, scale, package version)``; resuming against a journal
  written for a different workload is refused instead of silently
  serving the wrong results.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple, Union

from repro.obs.sink import append_jsonl, load_jsonl

#: Bump when a reader can no longer interpret older journals.
SCHEMA_VERSION = 1

PathLike = Union[str, "pathlib.Path"]


class JournalMismatch(ValueError):
    """``--resume`` against a journal written for a different workload."""


@dataclass(frozen=True)
class JournalEntry:
    """One completed artefact: identity, payload pointer, ledger stats."""

    artefact_id: str
    #: Cache key under which the result payload was stored.
    fingerprint: str
    status: str = "ok"
    wall_s: float = 0.0
    worker: str = ""
    attempts: int = 1

    def to_jsonable(self) -> Dict[str, object]:
        data = asdict(self)
        data["schema"] = SCHEMA_VERSION
        data["kind"] = "artefact"
        return data


class RunJournal:
    """Append-only completion index for one (possibly resumed) run."""

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)

    # -- write ---------------------------------------------------------------

    def begin(self, workload_key: str) -> None:
        """Start a fresh journal for ``workload_key`` (truncates)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": "header", "workload": workload_key},
            sort_keys=True,
        )
        self.path.write_text(header + "\n")

    def append(self, entry: JournalEntry) -> None:
        """Persist one completion; atomic against a concurrent crash."""
        append_jsonl(self.path, entry.to_jsonable())

    # -- read ----------------------------------------------------------------

    def load(self) -> Tuple[Optional[str], Dict[str, JournalEntry]]:
        """``(workload key, {artefact id: entry})`` from what parses.

        Skips what :func:`load_jsonl` skips; the last loadable entry per
        artefact wins. Returns ``(None, {})`` for a missing or headerless
        file.
        """
        workload: Optional[str] = None
        entries: Dict[str, JournalEntry] = {}
        for data in load_jsonl(self.path, SCHEMA_VERSION):
            kind = data.get("kind")
            if kind == "header":
                workload = data.get("workload")
            elif kind == "artefact":
                try:
                    entries[str(data["artefact_id"])] = JournalEntry(
                        artefact_id=str(data["artefact_id"]),
                        fingerprint=str(data.get("fingerprint", "")),
                        status=str(data.get("status", "ok")),
                        wall_s=float(data.get("wall_s", 0.0)),
                        worker=str(data.get("worker", "")),
                        attempts=int(data.get("attempts", 1)),
                    )
                except (KeyError, TypeError, ValueError, OverflowError):
                    continue
        return workload, entries

    def resume(self, workload_key: str) -> Dict[str, JournalEntry]:
        """Completed entries for ``workload_key``; starts fresh if absent.

        Raises :class:`JournalMismatch` when the journal on disk was
        written for a different workload — resuming it would splice
        results computed under other parameters into this run.
        """
        workload, entries = self.load()
        if workload is None:
            # Missing (or unreadable) journal: begin a fresh one.
            self.begin(workload_key)
            return {}
        if workload != workload_key:
            raise JournalMismatch(
                f"journal {self.path} was written for workload {workload}, "
                f"not {workload_key}; rerun without --resume (or point "
                f"--journal at a fresh file) to start over"
            )
        return {
            artefact_id: entry
            for artefact_id, entry in entries.items()
            if entry.status == "ok" and entry.fingerprint
        }
