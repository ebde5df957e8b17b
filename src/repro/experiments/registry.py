"""Declarative experiment registry.

Every experiment module registers itself with one decorator on its
``run``::

    from repro.experiments.registry import experiment

    @experiment("T4", title="Table 4 — device-based campaign overview",
                inputs=("device_dataset",))
    def run(scale: float = common.DEFAULT_SCALE,
            seed: int = common.DEFAULT_SEED) -> Dict:
        ...

The decorator captures an :class:`ExperimentSpec` — the artefact id,
its human title, which shared inputs it consumes (``world``,
``device_dataset``, ``web_dataset``, ``market``) and which of the two
driver parameters, ``seed`` and ``scale``, its ``run`` accepts.
``supports_scale`` and ``uses_seed`` are *derived from the signature*,
never hand-maintained, which kills the drift bug class the old
``_SCALED`` set had. A run is a function of ``(seed, scale)`` alone:
any other ``run`` parameter keeps its default when the driver calls it.

The driver (:class:`repro.core.ThickMnaStudy`) and the parallel runner
dispatch through :func:`get_spec` instead of ``importlib`` string
lookups, and :meth:`ExperimentSpec.inputs` tells the runner exactly
which shared inputs to warm for a shard.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

#: The shared inputs an experiment may declare (what the runner warms).
INPUT_KINDS: Tuple[str, ...] = ("world", "device_dataset", "web_dataset", "market")

#: Artefact id prefix -> artefact kind (what ``python -m repro list`` prints).
_KIND_BY_PREFIX = {
    "T": "table",
    "F": "figure",
    "H": "headline",
    "R": "resilience",
    "X": "extension",
}

#: Modules under ``repro.experiments`` that are infrastructure, not
#: experiments (everything else must register a spec).
SUPPORT_MODULES: FrozenSet[str] = frozenset({"common", "export", "registry"})


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the driver needs to know about one artefact."""

    artefact_id: str
    title: str
    #: Subset of :data:`INPUT_KINDS` this experiment consumes.
    inputs: FrozenSet[str]
    #: ``run`` accepts a campaign ``scale`` (derived from its signature).
    supports_scale: bool
    #: ``run`` accepts the study ``seed`` (derived from its signature).
    uses_seed: bool
    #: "table" | "figure" | "headline" | "resilience" | "extension".
    kind: str
    #: Defining module (``repro.experiments.<name>``).
    module: str
    #: Name of the registered function inside ``module`` (always "run").
    run_name: str = "run"

    @property
    def run(self) -> Callable[..., Dict]:
        """The experiment's ``run`` — resolved from the module at call
        time so test monkeypatching of ``module.run`` keeps working."""
        return getattr(importlib.import_module(self.module), self.run_name)

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
        module = importlib.import_module(self.module)
        return module.format_result(result)

    def describe_inputs(self) -> str:
        """The declared inputs as a stable, compact label."""
        return "+".join(k for k in INPUT_KINDS if k in self.inputs) or "-"


_SPECS: Dict[str, ExperimentSpec] = {}
_LOADED = False


def experiment(
    artefact_id: str,
    *,
    title: str,
    inputs: Iterable[str] = ("world",),
) -> Callable[[Callable[..., Dict]], Callable[..., Dict]]:
    """Register the decorated ``run`` as artefact ``artefact_id``.

    ``inputs`` declares the shared inputs the experiment reads through
    :mod:`repro.experiments.common`; ``supports_scale`` and
    ``uses_seed`` are read off the function signature.
    """
    artefact_id = artefact_id.upper()
    declared = frozenset(inputs)
    unknown = declared - set(INPUT_KINDS)
    if unknown:
        raise ValueError(
            f"{artefact_id}: unknown inputs {sorted(unknown)}; "
            f"allowed: {INPUT_KINDS}"
        )
    kind = _KIND_BY_PREFIX.get(artefact_id[0], "artefact")

    def decorate(run_fn: Callable[..., Dict]) -> Callable[..., Dict]:
        parameters = inspect.signature(run_fn).parameters
        spec = ExperimentSpec(
            artefact_id=artefact_id,
            title=title,
            inputs=declared,
            supports_scale="scale" in parameters,
            uses_seed="seed" in parameters,
            kind=kind,
            module=run_fn.__module__,
            run_name=run_fn.__name__,
        )
        previous = _SPECS.get(artefact_id)
        if previous is not None and previous.module != spec.module:
            raise ValueError(
                f"duplicate experiment id {artefact_id!r}: "
                f"{previous.module} vs {spec.module}"
            )
        _SPECS[artefact_id] = spec
        run_fn.__experiment_spec__ = spec  # type: ignore[attr-defined]
        return run_fn

    return decorate


def load_all() -> None:
    """Import every experiment module so each registers its spec."""
    global _LOADED
    if _LOADED:
        return
    import repro.experiments as package

    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_") or info.name in SUPPORT_MODULES:
            continue
        importlib.import_module(f"repro.experiments.{info.name}")
    _LOADED = True


def get_spec(artefact_id: str) -> ExperimentSpec:
    """The spec for ``artefact_id`` (case-insensitive); KeyError if unknown."""
    load_all()
    artefact_id = artefact_id.upper()
    if artefact_id not in _SPECS:
        raise KeyError(
            f"unknown experiment {artefact_id!r}; "
            f"known: {', '.join(sorted(_SPECS))}"
        )
    return _SPECS[artefact_id]


def all_specs() -> Dict[str, ExperimentSpec]:
    """Every registered spec, keyed by artefact id (loads on demand)."""
    load_all()
    return dict(_SPECS)


def artefact_ids() -> List[str]:
    load_all()
    return sorted(_SPECS)
