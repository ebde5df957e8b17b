"""``repro.obs`` is a sidecar: importing it loads none of the simulator.

Every ``src/repro/obs/*.py`` is parsed, and no import that runs when the
module loads may name a simulator or service package. Imports inside a
function run only when it is called, so they stay allowed.
"""

import ast
import pathlib

import repro.obs

OBS_DIR = pathlib.Path(repro.obs.__file__).parent

FORBIDDEN = (
    "repro.core",
    "repro.experiments",
    "repro.measure",
    "repro.market",
    "repro.worlds",
    "repro.server",
)


def _load_time_imports(tree):
    """``(line, module)`` for every import outside a function body."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
            for alias in node.names:  # ``from repro import core``
                yield node.lineno, f"{node.module}.{alias.name}"
        else:
            pending.extend(ast.iter_child_nodes(node))


def _forbidden(module):
    return any(
        module == package or module.startswith(package + ".")
        for package in FORBIDDEN
    )


def test_obs_modules_import_no_simulator_package_at_load_time():
    paths = sorted(OBS_DIR.glob("*.py"))
    assert paths
    violations = [
        f"{path.name}:{line}: {module}"
        for path in paths
        for line, module in _load_time_imports(ast.parse(path.read_text()))
        if _forbidden(module)
    ]
    assert not violations, violations
