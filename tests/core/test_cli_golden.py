"""Golden regression: the market CLI, the shopping example and ``repro list``
are byte-stable.

``golden/market_cli.json`` holds the stdout, stderr and exit code of
``repro market``, ``repro trip`` and ``examples/esim_shopping.py`` over
the tables below, captured before these commands moved from
``ESIMOffer`` objects to the columnar listing. Any change to a listed
plan, a price, a rounding or the order of rows fails here.

``golden/list.txt`` is ``repro list``'s stdout, captured while each
experiment module still registered itself with a decorator, before the
artefact table in ``repro.experiments.registry`` replaced it.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python tests/core/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).parent / "golden" / "market_cli.json"
LIST_GOLDEN = GOLDEN.with_name("list.txt")

#: ``repro market``: the overview on four crawl days, then country x GB
#: queries, including an unknown country and a size no plan reaches.
MARKET = [
    ["market", "--day", "0"],
    ["market", "--day", "84"],
    ["market"],
    ["market", "--day", "119"],
    ["market", "--country", "ESP", "--gb", "3", "--day", "84"],
    ["market", "--country", "esp", "--gb", "3"],
    ["market", "--country", "THA", "--gb", "1", "--top", "8"],
    ["market", "--country", "USA", "--gb", "0.5", "--day", "200", "--top", "3"],
    ["market", "--country", "GEO", "--gb", "12", "--day", "200"],
    ["market", "--country", "ESP", "--gb", "500"],
    ["market", "--country", "XYZ"],
]

#: ``repro trip``: one- and three-continent itineraries, another day,
#: a data-hungry single leg and an unknown country.
TRIP = [
    ["trip", "ESP:2", "FRA:1.5", "DEU:1"],
    ["trip", "ESP:1", "THA:2", "KEN:1"],
    ["trip", "ESP:2", "FRA:1.5", "--day", "84"],
    ["trip", "ESP:10"],
    ["trip", "XYZ:1"],
]

#: ``examples/esim_shopping.py`` arguments.
SHOPPING = [["ESP", "3"], ["THA", "1"]]


def run_cli(argv):
    """``repro.cli.main(argv)`` in process: its exit code and output."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_example(args):
    """``examples/esim_shopping.py`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "esim_shopping.py"), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", MARKET + TRIP, ids=_key)
def test_cli_matches_golden(golden, argv):
    assert run_cli(argv) == golden["cli"][_key(argv)]


@pytest.mark.parametrize("args", SHOPPING, ids=_key)
def test_shopping_example_matches_golden(golden, args):
    assert run_example(args) == golden["esim_shopping"][_key(args)]


def test_list_matches_golden():
    expected = LIST_GOLDEN.read_text(encoding="utf-8")
    assert run_cli(["list"]) == {"exit": 0, "stdout": expected, "stderr": ""}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "cli": {_key(argv): run_cli(argv) for argv in MARKET + TRIP},
        "esim_shopping": {_key(args): run_example(args) for args in SHOPPING},
    }, indent=2) + "\n")
