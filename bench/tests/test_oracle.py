import json

from bench.oracle import REFERENCE, Oracle, digest, digests, list_ids

RESULTS = {"T2": {"rows": [1, 2.5, "x"]}, "F7": {"series": [0.1, 0.2]}}


def _reference(tmp_path, artefacts, seed=2024):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"seed": seed, "scale": 0.15, "ids": sorted(RESULTS), "artefacts": artefacts}))
    return path


def test_matching_results_pass(tmp_path):
    oracle = Oracle(2024, 0.15, _reference(tmp_path, digests(RESULTS)))
    oracle.check_results("run-all", RESULTS)
    oracle.check_artefact("GET /artefact/T2", "T2", digest(RESULTS["T2"]))
    assert oracle.ok, oracle.errors


def test_a_tampered_digest_fails(tmp_path):
    tampered = dict(digests(RESULTS), T2="0" * 64)
    oracle = Oracle(2024, 0.15, _reference(tmp_path, tampered))
    oracle.check_results("run-all", RESULTS)
    assert not oracle.ok
    assert oracle.errors == [f"run-all: T2 digest {digest(RESULTS['T2'])[:12]} != expected {'0' * 12}"]


def test_a_changed_result_fails(tmp_path):
    oracle = Oracle(2024, 0.15, _reference(tmp_path, digests(RESULTS)))
    oracle.check_results("run-all", dict(RESULTS, F7={"series": [0.1, 0.2000001]}))
    assert not oracle.ok


def test_other_seeds_must_agree_with_themselves(tmp_path):
    oracle = Oracle(7, 0.15, _reference(tmp_path, digests(RESULTS)))
    other = {"T2": {"rows": [9]}, "F7": {"series": []}}  # seed 7 has no reference
    oracle.check_results("cold", other)
    oracle.check_results("warm", other)
    assert oracle.ok
    oracle.check_artefact("served", "T2", digest(RESULTS["T2"]))
    assert not oracle.ok


def test_ids_and_repeated_bytes(tmp_path):
    oracle = Oracle(2024, 0.15, _reference(tmp_path, digests(RESULTS)))
    oracle.check_ids("list", ["F7", "T2"])
    oracle.check_same("GET /query", "/query?kind=dns", "aa")
    oracle.check_same("GET /query", "/query?kind=dns", "aa")
    assert oracle.ok
    oracle.check_same("GET /query", "/query?kind=dns", "ab")
    oracle.check_ids("list", ["T2"])
    assert len(oracle.errors) == 2


def test_list_ids_reads_repro_list_output():
    out = "id    kind       scale inputs   title\nF10   figure     yes   device   Latency\nT2    table      -     world    Providers\n"
    assert list_ids(out) == ["F10", "T2"]


def test_committed_reference_covers_every_listed_artefact():
    data = json.loads(REFERENCE.read_text())
    assert (data["seed"], data["scale"]) == (2024, 0.15)
    assert sorted(data["artefacts"]) == data["ids"] and len(data["ids"]) == 31
