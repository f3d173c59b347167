"""The nine frozen record types behave as frozen dataclasses did: equality
within one class only, hash and repr from the fields, keyword construction,
pattern matching, pickling, and FrozenInstanceError on set and del."""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from chordtrig import (
    Chord,
    CirclePoint,
    ConvergenceReport,
    Enclosure,
    IterationRow,
    Partition,
    SectorSandwich,
    TangentIntersection,
    TriangleAtOrigin,
    arc_length,
    point_from_ordinate,
)

TOP = CirclePoint(y=1.0, x=0.0)
RIGHT = CirclePoint(y=0.0, x=1.0)
CHORD = Chord(hi=TOP, lo=RIGHT, length=1.5)
ROW = IterationRow(m=0, segment_length=1.5, height=0.5, total_length=1.5, inner_area=0.375,
                   outer_area=1.5, enclosure_lo=1.5, enclosure_hi=3.0)

# (type, keyword arguments in field order, exact repr)
RECORDS = [
    (CirclePoint, dict(y=0.5, x=0.75), "CirclePoint(y=0.5, x=0.75)"),
    (Chord, dict(hi=TOP, lo=RIGHT, length=1.5),
     "Chord(hi=CirclePoint(y=1.0, x=0.0), lo=CirclePoint(y=0.0, x=1.0), length=1.5)"),
    (TriangleAtOrigin, dict(base=CHORD, height=0.5),
     "TriangleAtOrigin(base=Chord(hi=CirclePoint(y=1.0, x=0.0), "
     "lo=CirclePoint(y=0.0, x=1.0), length=1.5), height=0.5)"),
    (Enclosure, dict(lo=1.0, hi=2.0), "Enclosure(lo=1.0, hi=2.0)"),
    (IterationRow, dict(m=0, segment_length=1.5, height=0.5, total_length=1.5,
                        inner_area=0.375, outer_area=1.5, enclosure_lo=1.5,
                        enclosure_hi=3.0),
     "IterationRow(m=0, segment_length=1.5, height=0.5, total_length=1.5, "
     "inner_area=0.375, outer_area=1.5, enclosure_lo=1.5, enclosure_hi=3.0)"),
    (ConvergenceReport, dict(a_ordinate=1.0, b_ordinate=0.0, tolerance=1e-06,
                             stop_reason="tolerance_met", rows=(ROW,)),
     "ConvergenceReport(a_ordinate=1.0, b_ordinate=0.0, tolerance=1e-06, "
     "stop_reason='tolerance_met', rows=(IterationRow(m=0, segment_length=1.5, "
     "height=0.5, total_length=1.5, inner_area=0.375, outer_area=1.5, "
     "enclosure_lo=1.5, enclosure_hi=3.0),))"),
    (TangentIntersection, dict(u=0.25, v=-0.5), "TangentIntersection(u=0.25, v=-0.5)"),
    (SectorSandwich, dict(m=3, inner_area=0.25, outer_area=0.5, gap=0.25),
     "SectorSandwich(m=3, inner_area=0.25, outer_area=0.5, gap=0.25)"),
    (Partition, dict(points=(TOP, RIGHT), norm=1.5),
     "Partition(points=(CirclePoint(y=1.0, x=0.0), CirclePoint(y=0.0, x=1.0)), norm=1.5)"),
]

by_type = pytest.mark.parametrize("cls, kwargs, text", RECORDS,
                                  ids=[cls.__name__ for cls, _, _ in RECORDS])


@by_type
def test_equal_records_are_equal_and_hash_alike(cls, kwargs, text):
    a, b = cls(**kwargs), cls(*kwargs.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)


@by_type
def test_never_equal_to_a_tuple_or_another_record_type(cls, kwargs, text):
    record = cls(**kwargs)
    values = tuple(kwargs.values())
    other = type("Other" + cls.__name__, (cls,), {})(**kwargs)
    assert record != values and values != record
    assert record != other and other != record
    if len(values) == 2:
        twin = CirclePoint if cls is TangentIntersection else TangentIntersection
        assert record != twin(*values) and twin(*values) != record


@by_type
def test_repr_is_exact(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@by_type
def test_fields_match_and_unpack(cls, kwargs, text):
    record = cls(**kwargs)
    assert cls.__match_args__ == tuple(kwargs)
    assert [getattr(record, name) for name in kwargs] == list(kwargs.values())
    match record:
        case cls(first):
            assert first == next(iter(kwargs.values()))
        case _:
            pytest.fail("positional pattern did not match")


@by_type
def test_frozen_on_set_and_del(cls, kwargs, text):
    record = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0.0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == cls(**kwargs)


@by_type
def test_pickle_round_trip(cls, kwargs, text):
    record = cls(**kwargs)
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again == record and repr(again) == text


def test_report_rows_default_to_empty():
    assert ConvergenceReport(0.5, 0.5, 1e-9, "tolerance_met").rows == ()


def test_lazy_report_equals_hashes_and_pickles_like_an_eager_one():
    a, b = point_from_ordinate(0.9), point_from_ordinate(0.2)
    lazy = arc_length(a, b, 1e-10)[1]
    fresh = arc_length(a, b, 1e-10)[1]
    assert "rows" not in vars(lazy) and "rows" not in vars(fresh)
    eager = ConvergenceReport(fresh.a_ordinate, fresh.b_ordinate, fresh.tolerance,
                              fresh.stop_reason, fresh.rows)
    assert hash(lazy) == hash(eager) and lazy == eager and eager == lazy
    again = pickle.loads(pickle.dumps(arc_length(a, b, 1e-10)[1]))
    assert again == eager and repr(again) == repr(eager) and len(again) == len(eager)
