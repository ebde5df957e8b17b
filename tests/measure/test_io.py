"""Tests for campaign dataset persistence and result export."""

import json

import pytest

from repro.experiments.export import jsonable, save_result
from repro.measure.io import load_dataset, save_dataset
from repro.measure.dataset import MeasurementDataset


@pytest.fixture()
def small_dataset(world, resources, rng):
    from repro.measure.amigo import CountryDeployment, MeasurementEndpoint
    from repro.cellular import RSPServer
    from repro.cellular.esim import issue_physical_sim

    operators = world["operators"]
    esim = RSPServer("Airalo").issue(operators.get("Play"), "ESP", rng)
    physical = issue_physical_sim(operators.get("Movistar"), rng)
    deployment = CountryDeployment(
        country_iso3="ESP",
        city=world["cities"].get("Madrid", "ESP"),
        physical_sim=physical,
        esim=esim,
        v_mno_physical="Movistar",
        v_mno_esim="Movistar",
    )
    endpoint = MeasurementEndpoint(deployment, resources, world["factory"], rng)
    return endpoint.run_battery(
        {"speedtest": (2, 2), "mtr:Google": (1, 1), "dns": (1, 1),
         "cdn:Cloudflare": (1, 1), "video": (1, 1)},
        day=0,
    )


def test_roundtrip_preserves_everything(small_dataset, tmp_path):
    path = tmp_path / "campaign.jsonl"
    count = save_dataset(small_dataset, path)
    assert count == small_dataset.total_records()
    loaded = load_dataset(path)
    assert loaded.total_records() == small_dataset.total_records()
    assert loaded.speedtests == small_dataset.speedtests
    assert loaded.traceroutes == small_dataset.traceroutes
    assert loaded.cdn_fetches == small_dataset.cdn_fetches
    assert loaded.dns_probes == small_dataset.dns_probes
    assert loaded.video_probes == small_dataset.video_probes


def test_loaded_dataset_supports_slicing(small_dataset, tmp_path):
    from repro.cellular import SIMKind

    path = tmp_path / "campaign.jsonl"
    save_dataset(small_dataset, path)
    loaded = load_dataset(path)
    assert loaded.countries() == ["ESP"]
    assert loaded.select("speedtest").where(sim_kind=SIMKind.ESIM).count() == 2


def test_empty_dataset_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert save_dataset(MeasurementDataset(), path) == 0
    assert load_dataset(path).total_records() == 0


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "speedtest", "record": {"nope": 1}}\n')
    with pytest.raises(ValueError, match="malformed"):
        load_dataset(path)


def test_blank_lines_ignored(small_dataset, tmp_path):
    path = tmp_path / "campaign.jsonl"
    save_dataset(small_dataset, path)
    content = path.read_text()
    path.write_text("\n" + content + "\n\n")
    assert load_dataset(path).total_records() == small_dataset.total_records()


def test_jsonable_flattens_tuples_and_dataclasses():
    from repro.analysis import boxplot_summary

    nested = {
        ("ESP", "eSIM/IHBO"): boxplot_summary([1.0, 2.0, 3.0]),
        "plain": [1, (2, 3), {"x": float("nan")}],
    }
    flat = jsonable(nested)
    assert "ESP|eSIM/IHBO" in flat
    assert flat["ESP|eSIM/IHBO"]["median"] == 2.0
    assert flat["plain"][1] == [2, 3]
    assert flat["plain"][2]["x"] == "nan"


def test_save_result_writes_valid_json(tmp_path):
    path = tmp_path / "out.json"
    save_result({("A", 1): {"v": 1.5}}, path)
    data = json.loads(path.read_text())
    assert data == {"A|1": {"v": 1.5}}


def test_roundtrip_preserves_web_records(tmp_path):
    from repro.experiments import common

    dataset = common.get_web_dataset()
    path = tmp_path / "web.jsonl"
    count = save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert count == dataset.total_records()
    assert loaded.web_measurements == dataset.web_measurements


def test_save_is_atomic_no_temp_leftovers(small_dataset, tmp_path):
    path = tmp_path / "campaign.jsonl"
    save_dataset(small_dataset, path)
    assert [p.name for p in tmp_path.iterdir()] == ["campaign.jsonl"]


def test_failed_save_leaves_no_file(tmp_path):
    class Exploding:
        """Stand-in record that breaks JSON encoding mid-stream."""

    dataset = MeasurementDataset()
    dataset.speedtests.append(Exploding())
    path = tmp_path / "campaign.jsonl"
    with pytest.raises(TypeError):
        save_dataset(dataset, path)
    assert list(tmp_path.iterdir()) == []


def test_truncated_file_raises_with_location(small_dataset, tmp_path):
    path = tmp_path / "campaign.jsonl"
    save_dataset(small_dataset, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
    with pytest.raises(ValueError, match="malformed"):
        load_dataset(path)


def test_save_result_roundtrips_real_experiment(tmp_path):
    from repro.core import ThickMnaStudy

    result = ThickMnaStudy(seed=2024).run("F7")
    path = tmp_path / "f7.json"
    save_result(result, path)
    data = json.loads(path.read_text())
    assert data == jsonable_strings(jsonable(result))


def jsonable_strings(value):
    """json round-trip normalisation (tuples->lists already done)."""
    return json.loads(json.dumps(value))
