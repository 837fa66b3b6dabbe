"""``pyproject.toml`` against the package: every console script it declares
names a module that imports and an attribute that module has, and the
Python floor it requires is one on which every dataclass of the package
(each declared with ``slots=True``, which needs 3.10) builds."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tfpdet
from tfpdet import anchorkit, datakit, heads

ROOT = Path(__file__).resolve().parents[1]


def project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the package supports 3.10
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_every_console_script_resolves():
    for name, target in project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{name} = {target!r}"


def test_requires_python_is_at_least_the_slots_floor():
    floor = re.fullmatch(r">=\s*(\d+)\.(\d+)", project()["requires-python"].strip())
    assert floor and tuple(map(int, floor.groups())) >= (3, 10), project()["requires-python"]


def test_every_dataclass_is_slotted():
    modules = [importlib.import_module(f"tfpdet.{m.name}") for m in pkgutil.iter_modules(tfpdet.__path__)]
    found = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__}
    assert {anchorkit.Segment, datakit.Activity, heads.Detection, heads.Proposal} <= found
    assert [c.__qualname__ for c in found if "__slots__" not in vars(c)] == []
    segment = anchorkit.Segment(0.0, 10.0)
    for obj in (segment, datakit.Activity(0.0, 10.0, 1), heads.Detection(segment, 1, 0.5, "v"),
                heads.Proposal(segment, 0.5, 0)):
        assert not hasattr(obj, "__dict__"), type(obj).__qualname__
