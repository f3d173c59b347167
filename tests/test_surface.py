"""The package surface: every name in ``chordtrig.__all__`` is listed once
and resolves, and the retired names stay gone from the package and from
the modules that held them."""

import importlib

import pytest

import chordtrig
from chordtrig import point_from_ordinate
from chordtrig.arclength import enclose
from chordtrig.report import ARC_BRACKET


def test_every_name_in_all_is_listed_once_and_resolves():
    assert len(chordtrig.__all__) == len(set(chordtrig.__all__))
    for name in chordtrig.__all__:
        assert getattr(chordtrig, name) is not None, name


# (module that held the name, name)
RETIRED = [
    ("chordtrig.geometry", "Chord"),
    ("chordtrig.geometry", "TriangleAtOrigin"),
    ("chordtrig.geometry", "height_at_origin"),
    ("chordtrig.report", "FAN_BRACKET"),
]


@pytest.mark.parametrize("module, name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_names_are_gone(module, name):
    assert name not in chordtrig.__all__
    assert not hasattr(chordtrig, name)
    assert not hasattr(importlib.import_module(module), name)


def test_enclose_takes_no_strict_flag():
    a, b = point_from_ordinate(1.0), point_from_ordinate(0.0)
    with pytest.raises(TypeError, match="strict"):
        enclose(a, b, 1e-9, ARC_BRACKET, strict=True)
