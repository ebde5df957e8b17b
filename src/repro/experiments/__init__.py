"""Experiment reproductions.

One module per table/figure of the paper. Every module exposes
``run(...) -> dict`` returning the figure's data series plus a
``format_result(result) -> str`` that prints the same rows/series the
paper reports. ``repro run-all --render-dir DIR`` writes every one.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "common": "common",
})
