"""``pyproject.toml`` against the package: every console script it declares
names a module that imports and an attribute that module has."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the package supports 3.10
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{name} = {target!r}"
