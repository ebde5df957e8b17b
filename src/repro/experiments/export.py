"""Experiment result export.

Experiment ``run()`` functions return plain-Python structures that may
contain dataclasses (boxplot summaries, classified rows), enums and
tuple keys. This module flattens them into strict JSON so results can be
archived or plotted elsewhere (``python -m repro run F11 --json out.json``).
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pathlib
from typing import Any, Union

from repro.core.cache import atomic_write


def jsonable(obj: Any) -> Any:
    """Recursively convert an experiment result into JSON-safe data.

    Tuple dict keys become ``"a|b"`` strings; dataclasses become dicts;
    enums their values; non-finite floats become strings.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if isinstance(key, tuple):
                key = "|".join(str(part) for part in key)
            elif not isinstance(key, str):
                key = str(key)
            out[key] = jsonable(value)
        return out
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return str(obj)
        return obj
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def save_result(result: Any, path: Union[str, pathlib.Path]) -> None:
    """Dump one experiment result as pretty-printed JSON, atomically."""
    text = json.dumps(jsonable(result), indent=2, sort_keys=True) + "\n"
    atomic_write(path, lambda handle: handle.write(text), mode="w")
