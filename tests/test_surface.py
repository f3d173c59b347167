"""The package surface: every name in ``chordtrig.__all__`` is listed once
and resolves, and the retired names stay gone from the package, from the
modules that held them, from the README and from the docstrings."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import chordtrig

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_all_is_listed_once_and_resolves():
    assert len(chordtrig.__all__) == len(set(chordtrig.__all__))
    for name in chordtrig.__all__:
        assert getattr(chordtrig, name) is not None, name


def test_all_is_sorted_and_has_36_names():
    assert chordtrig.__all__ == sorted(chordtrig.__all__)
    assert len(chordtrig.__all__) == 36


@pytest.mark.parametrize("name", chordtrig.__all__)
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"chordtrig.{chordtrig._HOME[name]}")
    value = getattr(chordtrig, name)
    assert value is getattr(home, name)
    # defined there, not imported into it from another module
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'chordtrig' has no attribute 'no_such_name'"):
        chordtrig.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chordtrig import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == chordtrig.__all__
    assert all(namespace[name] is getattr(chordtrig, name) for name in chordtrig.__all__)


# (module that held the name, name)
RETIRED = [
    ("chordtrig.geometry", "Chord"),
    ("chordtrig.geometry", "TriangleAtOrigin"),
    ("chordtrig.geometry", "height_at_origin"),
    ("chordtrig.report", "FAN_BRACKET"),
    ("chordtrig.partitions", "bisection_partition"),
    ("chordtrig.partitions", "ordinate_uniform_partition"),
    ("chordtrig.partitions", "random_partition"),
    ("chordtrig.sector", "inner_polygon_area"),
    ("chordtrig.sector", "outer_polygon_area"),
    ("chordtrig.geometry", "compare_by_ordinate"),
    ("chordtrig.arclength", "enclose"),
    ("chordtrig.partitions", "DEDUPE_TOL"),
]


@pytest.mark.parametrize("module, name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_names_are_gone(module, name):
    assert name not in chordtrig.__all__
    assert not hasattr(chordtrig, name)
    assert not hasattr(importlib.import_module(module), name)


def _docstrings():
    """(where, text) of every module, class and function docstring in src/."""
    for path in sorted((ROOT / "src" / "chordtrig").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                text = ast.get_docstring(node, clean=False)
                if text:
                    yield f"{path.name}:{getattr(node, 'lineno', 1)}", text


@pytest.mark.parametrize("name", [name for _, name in RETIRED])
def test_no_retired_name_is_referenced_in_the_readme_or_a_docstring(name):
    # a code reference: the name in backticks, maybe behind a dotted path or
    # a role's "~", or the name called
    reference = re.compile(rf"`[^`\s]*\b{name}`|\b{name}\(")
    texts = [("README.md", (ROOT / "README.md").read_text()), *_docstrings()]
    assert [where for where, text in texts if reference.search(text)] == []
