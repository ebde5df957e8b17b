"""Public facade.

:class:`ThickMnaStudy` is the one-stop entry point: build the calibrated
world, run the paper's three campaigns, and regenerate any table or
figure by its identifier. :class:`StudyRunner` shards ``run_all`` over
supervised worker processes (deadlines, retries, crash-safe resume —
see :mod:`repro.core.runner` and :mod:`repro.core.journal`);
:class:`ArtifactCache` is the persistent store that makes fresh
processes cheap: one digest-checked pickle per input (see
:mod:`repro.core.cache`).
"""

from repro.core.cache import (
    ArtifactCache,
    CacheStats,
    CacheVerifyResult,
    fingerprint,
)
from repro.core.journal import JournalEntry, JournalMismatch, RunJournal
from repro.core.runner import ArtefactRun, RunReport, StudyRunner
from repro.core.study import ThickMnaStudy

__all__ = [
    "ArtefactRun",
    "ArtifactCache",
    "CacheStats",
    "CacheVerifyResult",
    "JournalEntry",
    "JournalMismatch",
    "RunJournal",
    "RunReport",
    "StudyRunner",
    "ThickMnaStudy",
    "fingerprint",
]
