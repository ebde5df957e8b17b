"""Check that every ``repro`` module and package export imports on its own.

Package ``__init__`` modules export lazily (``repro/_exports.py``): a
name's submodule loads on first use. So a module that imports only
because some other module happened to load first, or a mistyped export
table entry, fails only when that path is first taken. Two checks, each
in fresh interpreters:

    python tools/check_imports.py modules  # import each module alone
    python tools/check_imports.py exports  # resolve every package __all__ name

``modules`` skips ``repro.__main__``, which runs the CLI. Both exit 1
and name every failure.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
from typing import List

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_RESOLVE_EXPORTS = (
    "import importlib, sys\n"
    "package = importlib.import_module(sys.argv[1])\n"
    "for name in package.__all__:\n"
    "    getattr(package, name)\n"
)


def _modules(packages_only: bool) -> List[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        elif packages_only or parts[-1] == "__main__":
            continue
        names.append(".".join(parts))
    return names


def _fresh(code: str, module: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, module], env=env,
        capture_output=True, text=True, timeout=120,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("modules", "exports"))
    args = parser.parse_args(argv)
    if args.check == "modules":
        code, targets = "import importlib, sys; importlib.import_module(sys.argv[1])", _modules(False)
    else:
        code, targets = _RESOLVE_EXPORTS, _modules(True)
    failed = []
    for module in targets:
        done = _fresh(code, module)
        if done.returncode != 0:
            failed.append(module)
            print(f"FAIL {module}\n{done.stderr}", file=sys.stderr)
    print(f"{args.check}: {len(targets) - len(failed)} of {len(targets)} ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
