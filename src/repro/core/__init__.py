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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ArtefactRun": "runner",
    "ArtifactCache": "cache",
    "CacheStats": "cache",
    "CacheVerifyResult": "cache",
    "JournalEntry": "journal",
    "JournalMismatch": "journal",
    "RunJournal": "journal",
    "RunReport": "runner",
    "StudyRunner": "runner",
    "ThickMnaStudy": "study",
    "fingerprint": "cache",
})
