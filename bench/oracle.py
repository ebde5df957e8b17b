"""Correctness oracle: artefact digests against the committed reference.

A digest is the sha256 of ``json.dumps(result, sort_keys=True)`` over an
artefact's exported result (the ``results`` object of ``run-all
--json``, or the ``result`` of ``/artefact/<id>``). The reference holds
the ``repro list`` ids and one digest per artefact at one (seed,
scale). For other seeds there is no reference, so every result a run
sees must agree with the first one it saw.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, List, Optional

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference" / "seed2024-scale0.15.json"


def digest(result: Any) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode("utf-8")).hexdigest()


def digests(results: Dict[str, Any]) -> Dict[str, str]:
    return {artefact: digest(result) for artefact, result in sorted(results.items())}


def list_ids(stdout: str) -> List[str]:
    """Artefact ids from ``repro list`` output (first column, header skipped)."""
    lines = stdout.strip().splitlines()
    return [line.split()[0] for line in lines[1:] if line.strip()]


class Oracle:
    """Collects the checks of one benchmark run; :attr:`errors` lists every mismatch."""

    def __init__(
        self, seed: int, scale: float, reference: pathlib.Path = REFERENCE
    ) -> None:
        data = json.loads(reference.read_text())
        self.ids: List[str] = data["ids"]
        self.expected: Optional[Dict[str, str]] = (
            dict(data["artefacts"])
            if (data["seed"], data["scale"]) == (seed, scale) else None
        )
        self.errors: List[str] = []
        self._seen: Dict[str, str] = {}

    @property
    def ok(self) -> bool:
        return not self.errors

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def check_ids(self, label: str, ids: List[str]) -> None:
        if ids != self.ids:
            self.fail(f"{label}: artefact ids {ids} differ from the reference {self.ids}")

    def check_results(self, label: str, results: Dict[str, Any]) -> Dict[str, str]:
        """Check a full ``run-all`` result set; returns its digests."""
        found = digests(results)
        self.check_ids(label, sorted(found))
        for artefact, value in found.items():
            self.check_artefact(label, artefact, value)
        return found

    def check_artefact(self, label: str, artefact: str, value: str) -> None:
        """Against the reference, or else against the first digest seen for ``artefact``."""
        expected = (
            self.expected.get(artefact) if self.expected is not None
            else self._seen.setdefault(artefact, value)
        )
        if value != expected:
            self.fail(f"{label}: {artefact} digest {value[:12]} != expected {str(expected)[:12]}")

    def check_same(self, label: str, key: str, value: str) -> None:
        """``value`` must equal every earlier value recorded under ``key``."""
        first = self._seen.setdefault(key, value)
        if value != first:
            self.fail(f"{label}: {key} changed between requests")
