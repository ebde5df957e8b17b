"""Tests for the ThickMnaStudy facade."""

import pytest

from repro.core import ThickMnaStudy
from repro.experiments import registry


@pytest.fixture(scope="module")
def study():
    return ThickMnaStudy(seed=2024)


def test_registry_covers_all_paper_artefacts():
    tables = {"T2", "T3", "T4"}
    figures = {f"F{i}" for i in range(3, 21)}
    headline = {"HX1", "HX2"}
    resilience = {"RX1"}
    extensions = {"X1", "X2", "X3", "X4", "X5", "X6", "XA"}
    assert set(registry.artefact_ids()) == (
        tables | figures | headline | resilience | extensions
    )


def test_available_experiments_sorted(study):
    experiments = study.available_experiments()
    assert experiments == sorted(experiments)
    assert set(experiments) == set(registry.all_specs())


def test_unknown_experiment_raises(study):
    with pytest.raises(KeyError):
        study.run("F99")


def test_world_cached(study):
    assert study.world is study.world


def test_run_and_render_table2(study):
    result = study.run("T2")
    assert "rows" in result
    rendered = study.render("T2")
    assert "Packet Host" in rendered
    assert "IHBO" in rendered


def test_run_scaled_experiment(study):
    result = study.run("F7", scale=0.05)
    assert result  # per-(country, config) summaries present


def test_case_insensitive_ids(study):
    result = study.run("t3")
    assert result["total_measurements"] > 0


def test_datasets_accessible(study):
    device = study.device_dataset(scale=0.05)
    assert device.total_records() > 0
    web = study.web_dataset()
    assert len(web.web_measurements) > 0


def test_scale_for_non_scale_aware_artefact_raises(study):
    from repro.measure.amigo import ConfigurationError

    with pytest.raises(ConfigurationError) as excinfo:
        study.run("T2", scale=0.05)
    message = str(excinfo.value)
    assert "T2 does not take a campaign scale" in message
    assert "world" in message  # says what T2 actually reads
    assert "T4" in message  # ... and which artefacts are scale-aware
    # The same guard protects render().
    with pytest.raises(ConfigurationError):
        study.render("HX2", scale=0.1)


def test_spec_accessor_exposes_declarative_metadata(study):
    spec = study.spec("F13")
    assert spec.artefact_id == "F13"
    assert spec.supports_scale
    assert spec.inputs == {"device_dataset", "web_dataset"}


def test_top_level_import():
    import repro

    assert repro.ThickMnaStudy is ThickMnaStudy
    assert repro.__version__
