"""Public facade.

:class:`ThickMnaStudy` is the one-stop entry point: build the calibrated
world, run the paper's three campaigns, and regenerate any table or
figure by its identifier. :class:`StudyRunner` shards ``run_all`` over
supervised worker processes (deadlines, retries, and a resume that
serves results already stored in the cache — see
:mod:`repro.core.runner`); :class:`ArtifactCache` is the persistent
store that makes fresh processes cheap and holds those results: one
digest-checked pickle per input or result (see :mod:`repro.core.cache`).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ArtefactRun": "runner",
    "ArtifactCache": "cache",
    "CacheStats": "cache",
    "CacheVerifyResult": "cache",
    "RunReport": "runner",
    "StudyRunner": "runner",
    "ThickMnaStudy": "study",
    "fingerprint": "cache",
})
