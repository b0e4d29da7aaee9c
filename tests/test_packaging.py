"""The package metadata agrees with the dependencies it declares."""

from __future__ import annotations

import importlib.metadata
import re
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _floor(spec: str) -> tuple[int, ...]:
    """The lower bound of a ``>=X.Y`` version specifier."""
    match = re.search(r">=\s*(\d+(?:\.\d+)*)", spec)
    assert match, f"no lower bound in {spec!r}"
    return tuple(map(int, match.group(1).split(".")))


def test_python_floor_admits_the_required_scipy():
    # pip cannot install vppopt on a Python that the scipy it needs refuses
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    scipy_floor = _floor(importlib.metadata.metadata("scipy")["Requires-Python"])
    assert _floor(project["requires-python"]) >= scipy_floor


def test_numpy_floor_admits_the_required_scipy():
    # the floor admits no numpy that the scipy vppopt needs refuses
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    scipy_numpy = next(r for r in importlib.metadata.requires("scipy")
                       if re.match(r"numpy\b", r) and ";" not in r)
    ours = next(r for r in project["dependencies"] if re.match(r"numpy\b", r))
    assert _floor(ours) >= _floor(scipy_numpy)
