"""The value types: immutable records that copy, pickle and print as their fields."""

import copy
import pickle
from fractions import Fraction

import pytest

from collatz_parity import (
    AsymptoticReport,
    BitStreamGenerator,
    FixtureCase,
    FixtureReport,
    FixtureResult,
    HeadCycleGenerator,
    IntegerGenerator,
    ParityVector,
    char_set,
    classify,
    omega_extremes,
    parse_generator,
    xstar_decompose,
)

PV = ParityVector.from_string


def _char_set_with_a_read():
    cs = char_set(PV("1011010111"))
    assert (cs.a, cs.b) == (221, 472)  # fills the a cache
    return cs


_VERDICT = classify(parse_generator("int:7"), 12, 4)

# (record, a field, its repr); one or more of every public record type
RECORDS = [
    (PV("1101"), "bits", "ParityVector(bits=(1, 1, 0, 1))"),
    (IntegerGenerator(27), "N", "IntegerGenerator(N=27)"),
    (HeadCycleGenerator(cycle=PV("10"), head=PV("11")), "cycle",
     "HeadCycleGenerator(cycle=ParityVector(bits=(1, 0)), head=ParityVector(bits=(1, 1)))"),
    (HeadCycleGenerator(PV("1")), "head",
     "HeadCycleGenerator(cycle=ParityVector(bits=(1,)), head=None)"),
    (BitStreamGenerator((1, 0, 1)), "data", "BitStreamGenerator(data=(1, 0, 1), origin='bits')"),
    (BitStreamGenerator((1,), origin="file:bits.txt"), "origin",
     "BitStreamGenerator(data=(1,), origin='file:bits.txt')"),
    (_char_set_with_a_read(), "n", "CharacteristicSet(n=10, m=7, P=5645, N0=313)"),
    (xstar_decompose(PV("1101")), "Xstar",
     "XStarDecomposition(rows=(XStarRow(k=1, j=1, theta=5, z=5, t=1), "
     "XStarRow(k=2, j=2, theta=7, z=14, t=8), XStarRow(k=3, j=4, theta=1, z=8, t=14)), "
     "Xstar=27, Ystar=47, J=17)"),
    (xstar_decompose(PV("1101")).rows[0], "theta", "XStarRow(k=1, j=1, theta=5, z=5, t=1)"),
    (_VERDICT, "kind",
     "RealizabilityVerdict(kind='stabilized', horizon=12, window=4, rows_computed=12, "
     "candidate=7, stable_since=3, distinct_count=None, prefix_set=CharacteristicSet("
     "n=12, m=6, P=3089, N0=7), ones_in_window=1)"),
    (classify(parse_generator("bits:101"), 12, 4), "rows_computed",
     "RealizabilityVerdict(kind='inconclusive', horizon=12, window=4, rows_computed=3, "
     "candidate=None, stable_since=None, distinct_count=None, prefix_set=None, "
     "ones_in_window=None)"),
    (AsymptoticReport(2, {"m_over_n": Fraction(1, 2)}, {"m_over_n": None}), "last",
     "AsymptoticReport(tail_start=2, last={'m_over_n': Fraction(1, 2)}, "
     "max_over_tail={'m_over_n': None})"),
    (FixtureCase("c1", "n0", {"v": "11"}, {"realizers": ["3"]}, "Example"), "id",
     "FixtureCase(id='c1', kind='n0', input={'v': '11'}, expected={'realizers': ['3']}, "
     "source='Example', erratum=None)"),
    (FixtureResult("c1", "n0", "Example", True), "ok",
     "FixtureResult(id='c1', kind='n0', source='Example', ok=True, detail='')"),
    (FixtureReport((FixtureResult("c1", "n0", "Example", False, "N0: differs"),)), "results",
     "FixtureReport(results=(FixtureResult(id='c1', kind='n0', source='Example', ok=False, "
     "detail='N0: differs'),))"),
    (omega_extremes(3, 1), "min_p",
     "OmegaExtremes(min_vector=ParityVector(bits=(1, 0, 0)), min_p=1, "
     "max_vector=ParityVector(bits=(0, 0, 1)), max_p=4)"),
]


def _hash(record):
    """The record's hash, or TypeError when a field (a dict) is unhashable."""
    try:
        return hash(record)
    except TypeError:
        return TypeError


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("record, field, text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, _pickled],
                         ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle_to_equal_records(record, field, text, duplicate):
    assert repr(record) == text
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record and repr(twin) == text
    assert _hash(twin) == _hash(record)


@pytest.mark.parametrize("record, field, text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_records_refuse_assignment_and_deletion(record, field, text):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value and repr(record) == text


def test_copies_of_a_char_set_solve_a_and_b_again():
    cs = _char_set_with_a_read()
    for twin in (copy.copy(cs), copy.deepcopy(cs), _pickled(cs)):
        assert (twin.a, twin.b, twin.X) == (cs.a, cs.b, cs.X)


def test_records_equal_only_records_of_their_own_class():
    cs = char_set(PV("1101001"))
    assert cs == char_set(PV("1101001")) and hash(cs) == hash(char_set(PV("1101001")))
    assert cs != (cs.n, cs.m, cs.P, cs.N0)
    assert cs != char_set(PV("1101000"))
    # the same fields in another class
    assert BitStreamGenerator((1, 0), "bits") != HeadCycleGenerator((1, 0), "bits")
