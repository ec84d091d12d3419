"""The package's public names: where each lives, and the README's list of them."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import invsys

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    for name in invsys.__all__:
        assert getattr(invsys, name) is getattr(importlib.import_module(f"invsys.{invsys._HOME[name]}"), name)


def test_functions_and_classes_come_from_their_home_module():
    for name in invsys.__all__:
        obj = getattr(invsys, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == f"invsys.{invsys._HOME[name]}", name


@pytest.mark.parametrize("name", ["hilbert_via_inverse_system", "is_level_dual"])
def test_dual_routes_are_not_library_names(name):
    # they are test references now, in tests/oracle.py
    assert name not in invsys.__all__
    with pytest.raises(AttributeError):
        getattr(invsys, name)
    assert not hasattr(importlib.import_module("invsys.duality"), name)


@pytest.mark.parametrize(
    "name,module", [("Frame", "linalg"), ("closure_span", "duality"), ("default_ring", "elliptic")]
)
def test_second_spellings_are_gone(name, module):
    # a subspace is one SubspaceBasis(ring, bound, echelon), a module's closure
    # is what SubmoduleHandle.closure() returns, and the cubic table has one ring
    assert name not in invsys.__all__
    with pytest.raises(AttributeError):
        getattr(invsys, name)
    assert not hasattr(importlib.import_module(f"invsys.{module}"), name)


def test_readme_lists_the_public_names_module_by_module():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Public names", 1)[1].split("\n\n**", 1)[0]
    listed = {}
    for item in re.split(r"\n\* ", section)[1:]:
        module, names = re.match(r"`invsys\.(\w+)`:(.*)", item, re.S).groups()
        listed[module] = set(re.findall(r"`(\w+)`", names))
    assert listed == {module: set(names) for module, names in invsys._MODULES.items()}
