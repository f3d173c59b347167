"""The eight frozen record types behave as frozen dataclasses did: equality
within one class only, hash and repr from the fields, keyword construction,
pattern matching, pickling, copying, and FrozenInstanceError on set and
del. Every record's constructor, ``Value``'s or its own, refuses what a
dataclass's generated ``__init__`` refuses; a point and a partition hold no
field the constructor could derive, and are checked again when loaded."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from chordtrig import (
    AdditivityCheck,
    CirclePoint,
    ConvergenceError,
    ConvergenceReport,
    DomainError,
    Enclosure,
    IterationRow,
    Partition,
    SectorSandwich,
    TangentIntersection,
    arc_length,
    gap_iterations,
    pi_constant,
    point_from_ordinate,
)
from chordtrig import arclength, sector
from chordtrig._value import Value
from chordtrig.errors import PrecisionFloorError

TOP = CirclePoint(1.0)
RIGHT = CirclePoint(0.0)
LEVEL = (1.5, 0.5, 1.5, 1.5, 3.0)  # (l_m, h_m, L_m, lo, hi)

# (type, keyword arguments in field order, exact repr)
RECORDS = [
    (CirclePoint, dict(y=0.5), "CirclePoint(y=0.5)"),
    (Enclosure, dict(lo=1.0, hi=2.0), "Enclosure(lo=1.0, hi=2.0)"),
    (IterationRow, dict(m=0, segment_length=1.5, height=0.5, total_length=1.5,
                        inner_area=0.375, outer_area=1.5, enclosure_lo=1.5,
                        enclosure_hi=3.0),
     "IterationRow(m=0, segment_length=1.5, height=0.5, total_length=1.5, "
     "inner_area=0.375, outer_area=1.5, enclosure_lo=1.5, enclosure_hi=3.0)"),
    (ConvergenceReport, dict(a_ordinate=1.0, b_ordinate=0.0, tolerance=1e-06,
                             stop_reason="tolerance_met", levels=(LEVEL,)),
     "ConvergenceReport(a_ordinate=1.0, b_ordinate=0.0, tolerance=1e-06, "
     "stop_reason='tolerance_met', levels=((1.5, 0.5, 1.5, 1.5, 3.0),))"),
    (TangentIntersection, dict(u=0.25, v=-0.5), "TangentIntersection(u=0.25, v=-0.5)"),
    (SectorSandwich, dict(m=3, inner_area=0.25, outer_area=0.5, gap=0.25),
     "SectorSandwich(m=3, inner_area=0.25, outer_area=0.5, gap=0.25)"),
    (Partition, dict(points=(TOP, RIGHT)),
     "Partition(points=(CirclePoint(y=1.0), CirclePoint(y=0.0)))"),
    (AdditivityCheck, dict(arc_whole=1.25, arc_parts=1.5, sector_whole=0.625, sector_parts=0.75),
     "AdditivityCheck(arc_whole=1.25, arc_parts=1.5, sector_whole=0.625, sector_parts=0.75)"),
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
    # a record of another class with the same field names and values
    twin = type("Twin", (Value,), {"__slots__": cls._fields, "_fields": cls._fields})(*values)
    assert record != twin and twin != record


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


@by_type
def test_copy_and_deepcopy_give_an_equal_record(cls, kwargs, text):
    record = cls(**kwargs)
    for again in (copy.copy(record), copy.deepcopy(record)):
        assert type(again) is cls and again == record and repr(again) == text
        assert hash(again) == hash(record)


@by_type
def test_records_keep_no_instance_dict(cls, kwargs, text):
    assert cls.__slots__ == cls._fields == tuple(kwargs)
    assert not hasattr(cls(**kwargs), "__dict__")


def test_lazy_report_equals_hashes_and_pickles_like_an_eager_one():
    """Two runs of one arc give equal reports, and so does a report rebuilt
    from a run's fields, its level records given as a list, but not one
    with a level fewer: equality, hash, repr and pickling follow the
    fields."""
    a, b = point_from_ordinate(0.9), point_from_ordinate(0.2)
    run, again = arc_length(a, b, 1e-10)[1], arc_length(a, b, 1e-10)[1]
    rebuilt = ConvergenceReport(again.a_ordinate, again.b_ordinate, again.tolerance,
                                again.stop_reason, list(again.levels))
    for other in (again, rebuilt):
        assert hash(run) == hash(other) and run == other and other == run
    assert run != ConvergenceReport(again.a_ordinate, again.b_ordinate, again.tolerance,
                                    again.stop_reason, again.levels[:-1])
    pickled = pickle.loads(pickle.dumps(run))
    assert pickled == rebuilt and repr(pickled) == repr(rebuilt)
    assert pickled.rows == rebuilt.rows == run.rows and len(pickled) == len(run)


def _raised(call) -> ConvergenceError:
    with pytest.raises(ConvergenceError) as info:
        call()
    return info.value


def test_run_errors_pickle_with_their_bracket_and_report(monkeypatch):
    """The floor error, the level-62 backstop's error and gap_iterations'
    error each keep an equal bracket and an equal, hashable report with the
    same rows through pickle."""
    errors = [_raised(lambda: pi_constant(1e-16))]
    with monkeypatch.context() as patched:
        patched.setattr(arclength, "_MAX_LEVEL", 1)
        errors.append(_raised(lambda: arc_length(TOP, RIGHT, 1e-12)))
    with monkeypatch.context() as patched:
        patched.setattr(sector, "_FANS_MEET", 1)
        errors.append(_raised(lambda: gap_iterations(TOP, RIGHT, 1e-12)))
    assert [type(err) for err in errors] == [PrecisionFloorError, ConvergenceError,
                                            ConvergenceError]
    for err in errors:
        again = pickle.loads(pickle.dumps(err))
        assert type(again) is type(err) and str(again) == str(err)
        assert isinstance(again.enclosure, Enclosure) and again.enclosure == err.enclosure
        assert isinstance(again.report, ConvergenceReport) and again.report == err.report
        assert hash(again.report) == hash(err.report) and len(again.report) > 0
        assert again.report.rows == err.report.rows


def test_derived_values_are_not_fields():
    """A point's abscissa and a partition's norm are worked out from what
    the record holds, so no caller can pass in a wrong one."""
    with pytest.raises(TypeError):
        CirclePoint(0.5, 0.75)
    with pytest.raises(TypeError):
        Partition(points=(TOP, RIGHT), norm=0.0)
    assert CirclePoint(0.6).x == point_from_ordinate(0.6).x == 0.8
    assert Partition((TOP, RIGHT)).norm == 1.4142135623730951


def test_points_and_partitions_are_checked_again_when_loaded():
    """Pickle, copy and deepcopy rebuild a point or a partition by calling
    its checking constructor: an edited pickle cannot bring in an ordinate
    above 1 or an unordered partition."""
    point = CirclePoint(0.75)
    part = Partition([point, CirclePoint(0.25)])
    assert point.__reduce__() == (CirclePoint, (0.75,))
    assert part.__reduce__() == (Partition, (part.points,))
    with pytest.raises(DomainError, match=r"ordinate must lie in \[0, 1\], got 1.5"):
        pickle.loads(pickle.dumps(point, 0).replace(b"F0.75", b"F1.5"))
    with pytest.raises(DomainError, match="strictly decreasing"):
        pickle.loads(pickle.dumps(part, 0).replace(b"F0.25", b"F0.875"))


@by_type
def test_constructor_refuses_a_missing_last_field(cls, kwargs, text):
    values = list(kwargs.values())
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(list(kwargs.items())[:-1]))


@by_type
def test_constructor_refuses_one_value_too_many(cls, kwargs, text):
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 0.0)


@by_type
def test_constructor_refuses_an_unknown_keyword(cls, kwargs, text):
    with pytest.raises(TypeError):
        cls(**kwargs, extra=0.0)


@by_type
def test_constructor_refuses_a_field_by_position_and_by_keyword(cls, kwargs, text):
    with pytest.raises(TypeError):
        cls(next(iter(kwargs.values())), **kwargs)


@by_type
def test_keywords_in_any_order_build_the_same_record(cls, kwargs, text):
    items = list(kwargs.items())
    for order in (items[::-1], items[1:] + items[:1]):
        record = cls(**dict(order))
        assert record == cls(**kwargs) and repr(record) == text
