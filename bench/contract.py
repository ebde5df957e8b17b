"""``BENCHMARK.json`` and the one-line result every run prints last.

``BENCHMARK.json`` at the checkout root declares each metric's unit,
direction and (end-to-end only) regression bound. A run reports exactly
the declared end-to-end metrics untraced and exactly the declared
per-layer metrics traced; anything else is a bug in the benchmark.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: pathlib.Path = SPEC) -> Dict[str, Any]:
    return json.loads(path.read_text())


def declared(spec: Dict[str, Any], traced: bool) -> Dict[str, Dict[str, Any]]:
    """``{name: entry}`` for the metrics a traced or untraced run reports."""
    return {entry["name"]: entry for entry in spec["per_layer" if traced else "end_to_end"]}


@dataclass
class Result:
    """One workload run: the verdict, the operation counts and the metrics."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Supporting numbers (sample counts, quartiles, per-route medians); printed, not gated.
    detail: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def line(self, spec: Dict[str, Any], traced: bool) -> str:
        """The JSON object the benchmark prints as its last line."""
        wanted = declared(spec, traced)
        if set(self.metrics) != set(wanted):
            missing = sorted(set(wanted) - set(self.metrics))
            extra = sorted(set(self.metrics) - set(wanted))
            raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": wanted[name]["unit"]}
                for name in wanted
            },
        })
