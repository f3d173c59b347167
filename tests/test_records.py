"""The eight frozen record types behave as frozen dataclasses did: equality
within one class only, hash and repr from the fields, keyword construction,
pattern matching, pickling, copying, and FrozenInstanceError on set and
del. The records built through ``Value``'s one constructor refuse what a
dataclass's generated ``__init__`` refuses."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from chordtrig import (
    AdditivityCheck,
    CirclePoint,
    ConvergenceError,
    ConvergenceReport,
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
from chordtrig.errors import PrecisionFloorError

TOP = CirclePoint(y=1.0, x=0.0)
RIGHT = CirclePoint(y=0.0, x=1.0)
LEVEL = (1.5, 0.5, 1.5, 1.5, 3.0)  # (l_m, h_m, L_m, lo, hi)

# (type, keyword arguments in field order, exact repr)
RECORDS = [
    (CirclePoint, dict(y=0.5, x=0.75), "CirclePoint(y=0.5, x=0.75)"),
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
    (Partition, dict(points=(TOP, RIGHT), norm=1.5),
     "Partition(points=(CirclePoint(y=1.0, x=0.0), CirclePoint(y=0.0, x=1.0)), norm=1.5)"),
    (AdditivityCheck, dict(arc_whole=1.25, arc_parts=1.5, sector_whole=0.625, sector_parts=0.75),
     "AdditivityCheck(arc_whole=1.25, arc_parts=1.5, sector_whole=0.625, sector_parts=0.75)"),
]

by_type = pytest.mark.parametrize("cls, kwargs, text", RECORDS,
                                  ids=[cls.__name__ for cls, _, _ in RECORDS])

# The records that keep their own __init__: those built on every ladder run
# store through their slots' setters.
OWN_INIT = {"CirclePoint", "Enclosure", "ConvergenceReport"}
VALUE_BUILT = [record for record in RECORDS if record[0].__name__ not in OWN_INIT]
by_value_built = pytest.mark.parametrize("cls, kwargs, text", VALUE_BUILT,
                                         ids=[cls.__name__ for cls, _, _ in VALUE_BUILT])


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


@by_value_built
def test_constructor_refuses_a_missing_last_field(cls, kwargs, text):
    values = list(kwargs.values())
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(list(kwargs.items())[:-1]))


@by_value_built
def test_constructor_refuses_one_value_too_many(cls, kwargs, text):
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 0.0)


@by_value_built
def test_constructor_refuses_an_unknown_keyword(cls, kwargs, text):
    with pytest.raises(TypeError):
        cls(**kwargs, extra=0.0)


@by_value_built
def test_constructor_refuses_a_field_by_position_and_by_keyword(cls, kwargs, text):
    with pytest.raises(TypeError):
        cls(next(iter(kwargs.values())), **kwargs)


@by_value_built
def test_keywords_in_any_order_build_the_same_record(cls, kwargs, text):
    items = list(kwargs.items())
    for order in (items[::-1], items[1:] + items[:1]):
        record = cls(**dict(order))
        assert record == cls(**kwargs) and repr(record) == text
