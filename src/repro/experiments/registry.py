"""The artefact table: which module computes each paper artefact.

Every artefact is one module under ``repro.experiments`` that exposes
``run(...) -> dict`` and ``format_result(result) -> str``, plus one row
of :data:`ARTEFACTS`: the module's name, the shared inputs it reads
(``world``, ``device_dataset``, ``web_dataset``, ``market``) and the
artefact's title::

    "T4": ("table4", ("device_dataset",),
           "Table 4 — device-based campaign overview"),

Looking an artefact up imports nothing: :func:`get_spec`,
:func:`all_specs` and :func:`artefact_ids` read the table, so
``repro list`` loads no experiment, and a module loads only when its
``run`` or ``format_result`` is first needed.

A run is a function of ``(seed, scale)`` alone. An artefact takes the
campaign ``scale`` exactly when it reads the device campaign
(``supports_scale``); whether it takes the ``seed`` is read off its
``run`` signature (``uses_seed``). Any other ``run`` parameter keeps
its default when the driver calls it. The driver
(:class:`repro.core.ThickMnaStudy`), the runner and the server
dispatch through :func:`get_spec`, and :attr:`ExperimentSpec.inputs`
tells the runner which shared inputs to warm for a shard.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

#: The shared inputs an experiment may declare (what the runner warms).
INPUT_KINDS: Tuple[str, ...] = ("world", "device_dataset", "web_dataset", "market")

#: Artefact id -> (module under ``repro.experiments``, inputs, title).
ARTEFACTS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "T2": ("table2", ("world",),
           "Table 2 — eSIM topology (b-MNO / PGW provider / architecture)"),
    "T3": ("table3", ("web_dataset",),
           "Table 3 — web-based campaign overview"),
    "T4": ("table4", ("device_dataset",),
           "Table 4 — device-based campaign overview"),
    "F3": ("fig3", ("world",),
           "Figure 3 — SGW-to-PGW mapping, 21 roaming eSIMs"),
    "F4": ("fig4", ("world",),
           "Figure 4 — Packet Host (AS54825) assignments"),
    "F5": ("fig5", ("world",),
           "Figure 5 — v-MNO telemetry: Airalo vs Play roamers vs native"),
    "F6": ("fig6", ("device_dataset",),
           "Figure 6 — unique ASNs in traceroutes"),
    "F7": ("fig7", ("device_dataset",),
           "Figure 7 — private path length"),
    "F8": ("fig8", ("device_dataset",),
           "Figure 8 — RTT to Singtel PGWs (HR)"),
    "F9": ("fig9", ("device_dataset",),
           "Figure 9 — PGW RTT by provider (IHBO)"),
    "F10": ("fig10", ("device_dataset",),
            "Figure 10 — public path length"),
    "F11": ("fig11", ("device_dataset",),
            "Figure 11 — RTT to Facebook/Google/Ookla"),
    "F12": ("fig12", ("device_dataset",),
            "Figure 12 — private share of latency"),
    "F13": ("fig13", ("device_dataset", "web_dataset"),
            "Figure 13 — download/upload speeds"),
    "F14": ("fig14", ("device_dataset",),
            "Figure 14 — Cloudflare download + DNS lookup times"),
    "F15": ("fig15", ("device_dataset",),
            "Figure 15 — YouTube playback resolution"),
    "F16": ("fig16", ("market",),
            "Figure 16 — $/GB over time per continent"),
    "F17": ("fig17", ("market",),
            "Figure 17 — provider $/GB CDFs + local SIM"),
    "F18": ("fig18", ("market",),
            "Figure 18 — median $/GB per country"),
    "F19": ("fig19", ("market",),
            "Figure 19 — plan size vs price per b-MNO"),
    "F20": ("fig20", ("device_dataset",),
            "Figure 20 — remaining CDN download times"),
    "HX1": ("headline", ("device_dataset",),
            "Headline numbers (latency inflation, >150 ms shares)"),
    "HX2": ("validation", (),
            "Methodology validation (emnify, Section 4.3.1)"),
    "RX1": ("rx1", ("device_dataset",),
            "Resilience — the campaign under paper-plausible fault injection"),
    "X1": ("ext_voip", ("world",),
           "Extension X1 — jitter / loss / VoIP MOS"),
    "X2": ("ext_placement", ("world",),
           "Extension X2 — dynamic PGW placement"),
    "X3": ("ext_audit", ("world",),
           "Extension X3 — generic thick-MNA audit"),
    "X4": ("ext_steering", (),
           "Extension X4 — steering of roaming"),
    "X5": ("ext_economics", ("market",),
           "Extension X5 — wholesale unit economics"),
    "X6": ("ext_jurisdiction", ("world",),
           "Extension X6 — localization and jurisdiction"),
    "XA": ("ablations", ("world",),
           "Ablations — PGW selection / LBO / DoH / CQI filter"),
}

#: Artefact id prefix -> artefact kind (what ``python -m repro list`` prints).
_KIND_BY_PREFIX = {
    "T": "table",
    "F": "figure",
    "H": "headline",
    "R": "resilience",
    "X": "extension",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the driver needs to know about one artefact."""

    artefact_id: str
    #: Defining module (``repro.experiments.<name>``).
    module: str
    #: Subset of :data:`INPUT_KINDS` this experiment consumes.
    inputs: FrozenSet[str]
    title: str

    @property
    def kind(self) -> str:
        """table, figure, headline, resilience or extension, by id prefix."""
        return _KIND_BY_PREFIX[self.artefact_id[0]]

    @property
    def supports_scale(self) -> bool:
        """``run`` accepts a campaign ``scale``: the artefact reads the
        device campaign, the one input built at a scale."""
        return "device_dataset" in self.inputs

    @property
    def uses_seed(self) -> bool:
        """``run`` accepts the study ``seed`` (read off its signature,
        so asking loads the module)."""
        return "seed" in inspect.signature(self.run).parameters

    @property
    def run(self) -> Callable[..., Dict]:
        """The experiment's ``run`` — resolved from the module at call
        time so test monkeypatching of ``module.run`` keeps working."""
        return importlib.import_module(self.module).run

    def invoke(self, seed: int, scale: Optional[float] = None) -> Dict:
        """Call ``run`` with the ``seed`` and ``scale`` it declares."""
        kwargs: Dict[str, Any] = {}
        if self.uses_seed:
            kwargs["seed"] = seed
        if self.supports_scale and scale is not None:
            kwargs["scale"] = scale
        return self.run(**kwargs)

    def render(self, result: Dict) -> str:
        """Format a ``run`` result the paper's way (module ``format_result``)."""
        return importlib.import_module(self.module).format_result(result)

    def describe_inputs(self) -> str:
        """The declared inputs as a stable, compact label."""
        return "+".join(k for k in INPUT_KINDS if k in self.inputs) or "-"


_SPECS: Dict[str, ExperimentSpec] = {
    artefact_id: ExperimentSpec(
        artefact_id, f"repro.experiments.{module}", frozenset(inputs), title
    )
    for artefact_id, (module, inputs, title) in ARTEFACTS.items()
}


def get_spec(artefact_id: str) -> ExperimentSpec:
    """The spec for ``artefact_id`` (case-insensitive); KeyError if unknown."""
    artefact_id = artefact_id.upper()
    if artefact_id not in _SPECS:
        raise KeyError(
            f"unknown experiment {artefact_id!r}; "
            f"known: {', '.join(sorted(_SPECS))}"
        )
    return _SPECS[artefact_id]


def all_specs() -> Dict[str, ExperimentSpec]:
    """Every spec, keyed by artefact id."""
    return dict(_SPECS)


def artefact_ids() -> List[str]:
    return sorted(_SPECS)
