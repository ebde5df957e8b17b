"""Self-consistency tests for the declarative experiment registry.

The registry's whole point is that nothing about dispatch is
hand-maintained: every experiment module registers itself, and the
driver-facing flags (``supports_scale``, ``uses_seed``) are derived
from the ``run`` signature. These tests pin that invariant so a module
can neither be forgotten nor drift from its own signature, and pin the
run contract: the driver passes ``(seed, scale)`` and nothing else.
"""

import inspect
import pkgutil

import pytest

import repro.experiments as experiments_pkg
from repro.experiments import registry
from repro.experiments.registry import INPUT_KINDS, SUPPORT_MODULES, experiment


def _experiment_module_names():
    return sorted(
        info.name
        for info in pkgutil.iter_modules(experiments_pkg.__path__)
        if not info.name.startswith("_") and info.name not in SUPPORT_MODULES
    )


def test_every_experiment_module_is_registered():
    registered = sorted(
        spec.module.rsplit(".", 1)[-1] for spec in registry.all_specs().values()
    )
    assert registered == _experiment_module_names()


@pytest.mark.parametrize("artefact", registry.artefact_ids())
def test_spec_matches_run_signature(artefact):
    spec = registry.get_spec(artefact)
    parameters = inspect.signature(spec.run).parameters
    assert spec.supports_scale == ("scale" in parameters)
    assert spec.uses_seed == ("seed" in parameters)


def test_every_other_run_parameter_is_one_of_two_with_a_default():
    """Beyond ``seed`` and ``scale``, only RX1's fault config (``repro
    chaos`` sets it) and X3's full audit (its test runs it) are
    parameters, and the driver never passes either."""
    extra = {
        (artefact, name): parameter.default
        for artefact, spec in registry.all_specs().items()
        for name, parameter in inspect.signature(spec.run).parameters.items()
        if name not in ("seed", "scale")
    }
    assert sorted(extra) == [("RX1", "chaos"), ("X3", "full")]
    assert inspect.Parameter.empty not in extra.values()


@pytest.mark.parametrize("artefact", registry.artefact_ids())
def test_spec_shape(artefact):
    spec = registry.get_spec(artefact)
    assert spec.artefact_id == artefact == artefact.upper()
    assert spec.title
    assert spec.inputs <= set(INPUT_KINDS)
    assert spec.kind in {"table", "figure", "headline", "resilience", "extension"}
    assert spec.module.startswith("repro.experiments.")
    assert callable(spec.run)
    # Every experiment module also formats its own result.
    assert spec.render.__self__ is spec


def test_describe_inputs_is_ordered_and_compact():
    t4 = registry.get_spec("T4")
    assert t4.describe_inputs() == "device_dataset"
    f13 = registry.get_spec("F13")
    assert f13.describe_inputs() == "device_dataset+web_dataset"
    hx2 = registry.get_spec("HX2")
    assert hx2.describe_inputs() == "-"


def test_hx2_takes_no_seed():
    spec = registry.get_spec("HX2")
    assert not spec.uses_seed
    assert "seed" not in inspect.signature(spec.run).parameters


def test_get_spec_is_case_insensitive_and_loud_on_unknown():
    assert registry.get_spec("t4") is registry.get_spec("T4")
    with pytest.raises(KeyError, match="unknown experiment 'F99'"):
        registry.get_spec("F99")


def test_spec_records_its_module():
    assert registry.get_spec("T4").module == "repro.experiments.table4"
    assert registry.get_spec("RX1").module == "repro.experiments.rx1"


def test_decorator_rejects_unknown_inputs():
    with pytest.raises(ValueError, match="unknown inputs"):
        @experiment("ZZ9", title="bogus", inputs=("campaign",))
        def run():  # pragma: no cover - never registered
            return {}


def test_decorator_rejects_duplicate_id_from_other_module():
    with pytest.raises(ValueError, match="duplicate experiment id"):
        @experiment("T4", title="impostor")
        def run():  # pragma: no cover - never registered
            return {}


def test_decorator_attaches_spec_to_function():
    from repro.experiments import table4

    spec = table4.run.__experiment_spec__
    assert spec is registry.get_spec("T4")
    assert spec.run_name == "run"
