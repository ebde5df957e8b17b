"""Experiment reproductions.

One module per table/figure of the paper. Every module exposes
``run(...) -> dict`` returning the figure's data series plus a
``format_result(result) -> str`` that prints the same rows/series the
paper reports. ``repro run-all --render-dir DIR`` writes every one.
"""

from repro.experiments import common

__all__ = ["common"]
