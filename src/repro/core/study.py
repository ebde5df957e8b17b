"""The study driver: the repository's primary public API.

Typical use::

    from repro.core import ThickMnaStudy

    study = ThickMnaStudy(seed=2024)
    result = study.run("T2")          # rebuild Table 2 from measurements
    print(study.render("T2"))         # ... formatted like the paper

:class:`~repro.core.runner.StudyRunner` runs every table and figure.

Experiments are identified by the paper's artefact ids ("T2"-"T4",
"F3"-"F20", "HX1" headline numbers, "HX2" emnify validation) plus
"RX1", the resilience check that replays the campaign under injected
faults (see ``repro.faults``).

Dispatch goes through one table: each artefact id has a row in
:data:`repro.experiments.registry.ARTEFACTS` naming its module, inputs
and title, and the driver forwards exactly the parameters its
:class:`~repro.experiments.registry.ExperimentSpec` declares (``seed`` /
``scale``), so each artefact is a function of ``(seed, scale)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments import common, registry
from repro.experiments.registry import ExperimentSpec
from repro.measure.amigo import ConfigurationError
from repro.measure.dataset import MeasurementDataset
from repro.worlds import AiraloWorld

class ThickMnaStudy:
    """Drives the full reproduction for one seed."""

    def __init__(self, seed: int = common.DEFAULT_SEED) -> None:
        self.seed = seed

    # -- building blocks ---------------------------------------------------

    @property
    def world(self) -> AiraloWorld:
        """The calibrated ecosystem (built once per seed)."""
        return common.get_world(self.seed)

    def device_dataset(self, scale: float = common.DEFAULT_SCALE) -> MeasurementDataset:
        """The Table 4 device campaign at ``scale``."""
        return common.get_device_dataset(scale, self.seed)

    def web_dataset(self) -> MeasurementDataset:
        """The Table 3 web campaign."""
        return common.get_web_dataset(self.seed)

    # -- experiments -----------------------------------------------------------

    def available_experiments(self) -> List[str]:
        return registry.artefact_ids()

    def spec(self, artefact_id: str) -> ExperimentSpec:
        """The declarative spec for one artefact (KeyError if unknown)."""
        return registry.get_spec(artefact_id)

    def run(self, artefact_id: str, scale: Optional[float] = None) -> Dict:
        """Run one experiment and return its data series.

        Passing ``scale`` for an experiment that is not scale-aware is a
        :class:`~repro.measure.amigo.ConfigurationError` — loudly, here,
        instead of a ``TypeError`` from deep inside the module.
        """
        spec = self.spec(artefact_id)
        if scale is not None and not spec.supports_scale:
            scaled = sorted(
                s.artefact_id for s in registry.all_specs().values()
                if s.supports_scale
            )
            raise ConfigurationError(
                f"{spec.artefact_id} does not take a campaign scale "
                f"(it reads {spec.describe_inputs()}); scale-aware "
                f"experiments: {', '.join(scaled)}"
            )
        effective_scale = scale if scale is not None else (
            common.DEFAULT_SCALE if spec.supports_scale else None
        )
        return spec.invoke(seed=self.seed, scale=effective_scale)

    def format_result(self, artefact_id: str, result: Dict) -> str:
        """Format an already-computed ``run()`` result the paper's way.

        Public counterpart of each experiment module's ``format_result``
        so callers (the CLI, the runner) never need the module object.
        """
        return self.spec(artefact_id).render(result)

    def render(self, artefact_id: str, scale: Optional[float] = None) -> str:
        """Run one experiment and format it the way the paper reports it."""
        return self.format_result(artefact_id, self.run(artefact_id, scale=scale))
