"""Self-consistency tests for the artefact table.

``repro.experiments.registry.ARTEFACTS`` is the one place an artefact
is declared: its module, inputs and title. These tests pin the table to
the modules on disk, so a module can be neither forgotten nor listed
twice, and pin each row to its module's ``run`` signature: the driver
passes ``scale`` exactly to the artefacts that read the device campaign,
``seed`` to those whose ``run`` takes it, and nothing else.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.experiments as experiments_pkg
from repro.experiments import registry
from repro.experiments.registry import INPUT_KINDS

#: Modules under ``repro.experiments`` that are infrastructure, not experiments.
SUPPORT_MODULES = {"common", "export", "registry"}


def test_every_experiment_module_is_registered():
    """The modules on disk and the table's modules match one to one."""
    on_disk = sorted(
        info.name
        for info in pkgutil.iter_modules(experiments_pkg.__path__)
        if not info.name.startswith("_") and info.name not in SUPPORT_MODULES
    )
    in_table = sorted(module for module, _inputs, _title in registry.ARTEFACTS.values())
    assert in_table == on_disk


@pytest.mark.parametrize("artefact", registry.artefact_ids())
def test_spec_matches_run_signature(artefact):
    spec = registry.get_spec(artefact)
    parameters = inspect.signature(spec.run).parameters
    assert spec.supports_scale == ("scale" in parameters) == (
        "device_dataset" in spec.inputs
    )
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
    _module, inputs, _title = registry.ARTEFACTS[artefact]
    assert set(inputs) <= set(INPUT_KINDS)
    assert spec.inputs == frozenset(inputs)
    assert spec.artefact_id == artefact == artefact.upper()
    assert spec.title
    assert spec.kind in {"table", "figure", "headline", "resilience", "extension"}
    assert spec.module.startswith("repro.experiments.")
    # Every experiment module runs and formats its own result.
    module = importlib.import_module(spec.module)
    assert callable(module.run) and callable(module.format_result)


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
