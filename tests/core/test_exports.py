"""Tests for the lazy package exports every ``repro`` package init uses."""

import sys
import textwrap

import pytest


@pytest.fixture
def lazy_pkg(tmp_path, monkeypatch):
    """A throwaway package ``lazypkg`` whose init exports lazily."""
    root = tmp_path / "lazypkg"
    root.mkdir()
    (root / "__init__.py").write_text(textwrap.dedent('''
        from repro._exports import lazy_exports

        PLAIN = "assigned"

        __getattr__, __dir__, __all__ = lazy_exports(__name__, {
            "Thing": "things",
            "renamed": "things:original",
            "helpers": "helpers",
        })
    '''))
    (root / "things.py").write_text(
        "class Thing:\n    pass\n\ndef original():\n    return 'original'\n"
    )
    (root / "helpers.py").write_text("VALUE = 3\n")
    (root / "unlisted.py").write_text("VALUE = 4\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield
    for name in [m for m in sys.modules if m.split(".")[0] == "lazypkg"]:
        del sys.modules[name]


def test_names_load_their_submodule_on_first_use(lazy_pkg):
    import lazypkg

    assert lazypkg.__all__ == ["Thing", "renamed", "helpers"]
    assert "lazypkg.things" not in sys.modules
    thing = lazypkg.Thing
    assert thing.__module__ == "lazypkg.things"
    # Stored in the namespace: later lookups never reach __getattr__.
    assert vars(lazypkg)["Thing"] is thing
    assert "lazypkg.helpers" not in sys.modules


def test_aliases_and_submodules_resolve(lazy_pkg):
    import lazypkg

    assert lazypkg.renamed() == "original"
    assert lazypkg.helpers.VALUE == 3
    assert lazypkg.helpers is sys.modules["lazypkg.helpers"]
    from lazypkg import Thing, unlisted

    assert Thing is sys.modules["lazypkg.things"].Thing
    assert unlisted.VALUE == 4


def test_unknown_names_raise_attribute_error(lazy_pkg):
    import lazypkg

    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        lazypkg.missing
    assert not hasattr(lazypkg, "unlisted")
    with pytest.raises(ImportError):
        from lazypkg import missing  # noqa: F401


def test_dir_lists_exports_before_they_load(lazy_pkg):
    import lazypkg

    names = dir(lazypkg)
    assert {"Thing", "renamed", "helpers", "PLAIN"} <= set(names)
    assert names == sorted(names)
