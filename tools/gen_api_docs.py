"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the names its ``__init__``
exports (or the module's public callables), and writes a reference with
each item's signature and first docstring line. Run after changing any
public API:

    python tools/gen_api_docs.py          # rewrite docs/API.md
    python tools/gen_api_docs.py --check  # exit 1 if docs/API.md is stale

``--check`` is the CI guard: it renders to memory and diffs against the
committed file without writing anything.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys

PACKAGES = [
    "repro",
    "repro.core",
    "repro.obs",
    "repro.obs.exposition",
    "repro.obs.live",
    "repro.obs.profile",
    "repro.obs.history",
    "repro.obs.regress",
    "repro.obs.critical",
    "repro.geo",
    "repro.net",
    "repro.cellular",
    "repro.faults",
    "repro.ipx",
    "repro.mna",
    "repro.services",
    "repro.measure",
    "repro.measure.query",
    "repro.server",
    "repro.server.loadgen",
    "repro.server.slo",
    "repro.analysis",
    "repro.market",
    "repro.worlds",
    "repro.experiments.common",
    "repro.experiments.registry",
]

OUTPUT = pathlib.Path(__file__).parent.parent / "docs" / "API.md"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def _first_doc_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def _public_names(module) -> list:
    exported = getattr(module, "__all__", None)
    if exported:
        return list(exported)
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and getattr(value, "__module__", "").startswith("repro")
    ]


def render_module(module_name: str) -> str:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    summary = _first_doc_line(module)
    if summary:
        lines.append(summary)
        lines.append("")
    for name in _public_names(module):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            lines.append(f"- **`{name}`** (class){' — ' + _first_doc_line(obj) if _first_doc_line(obj) else ''}")
            methods = [
                (method_name, method)
                for method_name, method in vars(obj).items()
                if not method_name.startswith("_") and callable(method)
            ]
            for method_name, method in sorted(methods):
                doc = _first_doc_line(method)
                lines.append(
                    f"  - `.{method_name}{_signature(method)}`"
                    + (f" — {doc}" if doc else "")
                )
        elif inspect.isfunction(obj):
            doc = _first_doc_line(obj)
            lines.append(
                f"- **`{name}{_signature(obj)}`**" + (f" — {doc}" if doc else "")
            )
        elif inspect.ismodule(obj):
            continue
        else:
            lines.append(f"- **`{name}`** — constant")
    lines.append("")
    return "\n".join(lines)


def render() -> str:
    parts = [
        "# API reference",
        "",
        "_Generated by `python tools/gen_api_docs.py` — do not edit by hand._",
        "",
    ]
    for module_name in PACKAGES:
        parts.append(render_module(module_name))
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed file instead of writing; "
             "exit 1 when docs/API.md is stale",
    )
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        try:
            committed = OUTPUT.read_text()
        except FileNotFoundError:
            print(f"{OUTPUT} is missing; run python tools/gen_api_docs.py",
                  file=sys.stderr)
            return 1
        if committed != text:
            print(f"{OUTPUT} is stale; run python tools/gen_api_docs.py",
                  file=sys.stderr)
            return 1
        print(f"{OUTPUT} is up to date")
        return 0
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
