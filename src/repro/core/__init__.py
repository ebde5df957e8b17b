"""Public facade.

:class:`ThickMnaStudy` is the one-stop entry point: build the calibrated
world, run the paper's three campaigns, and regenerate any table or
figure by its identifier. :class:`StudyRunner` shards ``run_all`` over
supervised worker processes (deadlines, retries, crash-safe resume —
see :mod:`repro.core.runner` and :mod:`repro.core.journal`);
:class:`ArtifactCache` is the persistent store that makes fresh
processes cheap (see :mod:`repro.core.cache`);
:class:`ColumnStore` is the typed column format the cache memory-maps
the market crawl from (see :mod:`repro.core.columns`).
"""

from repro.core.cache import (
    ArtifactCache,
    CacheStats,
    CacheVerifyResult,
    fingerprint,
)
from repro.core.columns import ColumnError, ColumnStore, StringTable
from repro.core.journal import JournalEntry, JournalMismatch, RunJournal
from repro.core.runner import ArtefactRun, RunReport, StudyRunner
from repro.core.study import ThickMnaStudy

__all__ = [
    "ArtefactRun",
    "ArtifactCache",
    "CacheStats",
    "CacheVerifyResult",
    "ColumnError",
    "ColumnStore",
    "JournalEntry",
    "JournalMismatch",
    "RunJournal",
    "RunReport",
    "StringTable",
    "StudyRunner",
    "ThickMnaStudy",
    "fingerprint",
]
