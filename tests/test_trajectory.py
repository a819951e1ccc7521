"""Order-j rows, the r0 dichotomy, and the horizon-bounded classifier."""

import random
import types
from fractions import Fraction

import pytest

from collatz_parity import (
    BitStreamExhausted,
    BitStreamGenerator,
    GROWING,
    HALVED,
    HALVED_PLUS_HALF,
    INCONCLUSIVE,
    STABILIZED,
    IntegerGenerator,
    ParityVector,
    apply_vector,
    asymptotic_report,
    char_set,
    classify,
    iter_trajectory,
    lemma51_check,
    parse_generator,
)

PV = ParityVector.from_string


def some_generators():
    rng = random.Random(11)
    gens = [
        parse_generator("int:7"),
        parse_generator("int:27"),
        parse_generator("cycle:100"),
        parse_generator("head:1101;cycle:01"),
    ]
    for _ in range(6):
        bits = tuple(rng.randint(0, 1) for _ in range(80))
        gens.append(BitStreamGenerator(bits))
    return gens


def test_table1_n0_row():
    rows = list(iter_trajectory(parse_generator("bits:11010011010010"), 8))
    assert [r.N0 for r in rows] == [1, 3, 3, 11, 11, 11, 11, 139]


def test_from_integer_stabilizes_at_n():
    rows = list(iter_trajectory(IntegerGenerator(7), 20))
    assert all(r.N0 == 7 for r in rows if r.n >= 3)
    assert [r.N0 for r in rows[:3]] == [1, 3, 7]


def test_n0_matches_brute_force_scan():
    # independent oracle: scan 1..2^j for the first N whose parity vector
    # matches the prefix
    from collatz_parity import parity_vector

    gen = IntegerGenerator(7)
    rows = list(iter_trajectory(gen, 14))
    for row in rows:
        target = gen.prefix(row.n)
        smallest = next(
            N for N in range(1, (1 << row.n) + 1)
            if parity_vector(N, row.n) == target
        )
        assert row.N0 == smallest


def test_incremental_equals_from_scratch():
    for gen in some_generators():
        rows = list(iter_trajectory(gen, 64))
        for row in rows:
            v = gen.prefix(row.n)
            assert row == char_set(v)
            if row.m:
                # X* against the affine map, not against its own loop
                assert apply_vector(v, row.Xstar) == row.Ystar


def test_lemma51_table1_cases():
    rows = list(iter_trajectory(parse_generator("bits:11010011010010"), 8))
    assert rows[3].r0 == Fraction(11, 16) and rows[4].r0 == Fraction(11, 32)
    assert lemma51_check(rows[3], rows[4]) == HALVED
    assert rows[2].r0 == Fraction(3, 8)
    assert rows[3].r0 == rows[2].r0 / 2 + Fraction(1, 2)
    assert lemma51_check(rows[2], rows[3]) == HALVED_PLUS_HALF


def test_lemma51_dichotomy_everywhere():
    for gen in some_generators():
        rows = list(iter_trajectory(gen, 80))
        for prev, cur in zip(rows, rows[1:]):
            kind = lemma51_check(prev, cur)
            if cur.N0 == prev.N0:
                assert kind == HALVED
            else:
                assert kind == HALVED_PLUS_HALF
                assert cur.N0 == prev.N0 + (1 << prev.n)


def test_lemma51_rejects_non_consecutive():
    rows = list(iter_trajectory(IntegerGenerator(27), 5))
    with pytest.raises(ValueError):
        lemma51_check(rows[0], rows[3])


def test_row_identities():
    for gen in some_generators():
        rows = list(iter_trajectory(gen, 60))
        for row in rows:
            pow2 = 1 << row.n
            pow3 = 3**row.m
            assert row.c == pow2 - pow3
            assert 1 <= row.N0 <= pow2
            assert row.P == pow3 * row.alpha + row.beta and 0 <= row.beta < pow3
            assert row.P == pow2 * row.A + row.B and 0 <= row.B < pow2
            if row.m == 0:
                assert row.a is None and row.X is None and row.Xstar is None
                continue
            assert pow3 * row.a + 1 == pow2 * row.b
            assert row.X == row.P * row.a and row.Y == row.P * row.b
            # q = r0 + K exactly, and both particular points sit over N0
            assert row.q == row.r0 + row.K
            assert (row.X - row.N0) % pow2 == 0 and row.K >= 0
            assert (row.Xstar - row.N0) % pow2 == 0 and row.Kstar >= 0
            assert row.Xstar == row.N0 + pow2 * row.Kstar
            # offset bounds for m >= 1
            assert pow3 - 2**row.m <= row.P <= (pow2 >> row.m) * (pow3 - 2**row.m)
            assert row.f1 * pow2 + row.f2 == row.B * row.a and 0 <= row.f2 < pow2


def test_n0_non_decreasing():
    for gen in some_generators():
        rows = list(iter_trajectory(gen, 80))
        for prev, cur in zip(rows, rows[1:]):
            assert cur.N0 >= prev.N0


def test_trajectory_exhaustion():
    gen = BitStreamGenerator((1, 0, 1))
    rows = []
    with pytest.raises(BitStreamExhausted) as exc:
        for row in iter_trajectory(gen, 10):
            rows.append(row)
    assert exc.value.position == 3
    assert len(rows) == 3
    assert rows == list(iter_trajectory(gen, 3))


def test_classify_growing_cycle_100():
    verdict = classify(parse_generator("cycle:100"), 40, 10)
    assert verdict.kind == GROWING
    assert verdict.distinct_count >= 2
    assert verdict.diagnostics is not None


def test_classify_stabilized_from_integer():
    for N in (7, 27, 97):
        verdict = classify(IntegerGenerator(N), 80, 20)
        assert verdict.kind == STABILIZED
        assert verdict.candidate == N  # N0_j = N once 2^j >= N
        assert verdict.candidate <= N
        assert verdict.stable_since <= N.bit_length()


def test_classify_alternating_tail():
    verdict = classify(parse_generator("cycle:01"), 40, 10)
    assert verdict.kind == STABILIZED
    assert verdict.candidate == 2
    verdict = classify(parse_generator("head:;cycle:01"), 40, 10)
    assert verdict.kind == STABILIZED and verdict.candidate == 2


def test_classify_growing_bound_for_integers():
    # N realizes all its prefixes, so N0_j <= N: at most ceil(log2 N) + 1 changes
    for N in (7, 27, 97, 871, 6171):
        verdict = classify(IntegerGenerator(N), 80, 20)
        rows = list(iter_trajectory(IntegerGenerator(N), 80))
        distinct = len(set(r.N0 for r in rows))
        assert distinct <= N.bit_length() + 1
        assert verdict.kind == STABILIZED


def test_classify_inconclusive_short_stream():
    verdict = classify(BitStreamGenerator((1, 0, 1, 1, 0)), 40, 10)
    assert verdict.kind == INCONCLUSIVE
    assert verdict.rows_computed == 5
    # more rows than the window, but fewer than the horizon: no verdict either
    verdict = classify(parse_generator("bits:101"), 10, 2)
    assert verdict.kind == INCONCLUSIVE and verdict.rows_computed == 3
    assert verdict.candidate is None and verdict.diagnostics is None
    # a finite source that lasts the whole horizon is classified as usual
    verdict = classify(parse_generator("bits:101"), 3, 2)
    assert verdict.kind == STABILIZED and verdict.rows_computed == 3


def test_classify_reports_diagnostics():
    verdict = classify(IntegerGenerator(27), 80, 20)
    d = verdict.diagnostics
    assert d.final_j == 80
    # realizable stream: q is close to an integer (distance = r0 here)
    assert d.q_distance == Fraction(27, 1 << 80)
    assert d.qstar_distance is not None
    assert d.m_over_n == Fraction(sum(IntegerGenerator(27).prefix(80).bits), 80)
    assert d.ones_in_window > 0


def test_classify_flags_zero_tail():
    gen = parse_generator("head:1;cycle:0")
    verdict = classify(gen, 40, 10)
    assert verdict.diagnostics.ones_in_window == 0


def test_classify_validates_window():
    with pytest.raises(ValueError):
        classify(IntegerGenerator(7), 10, 20)
    with pytest.raises(ValueError):
        classify(IntegerGenerator(7), 10, 0)


def test_asymptotic_report_bounds():
    rows = list(iter_trajectory(IntegerGenerator(7), 60))
    rep = asymptotic_report(rows)
    for row in rows:
        if row.m == 0:
            continue
        # offset-ratio bound, exact
        assert row.P_over_2n3m <= Fraction(1, 2**row.m) - Fraction(1, 3**row.m)
        # lower bound from the minimal offset
        assert row.P_over_3m >= 1 - Fraction(2, 3) ** row.m
    assert set(rep.last) == set(rep.max_over_tail)
    assert rep.last["P_over_2n3m"] == rows[-1].P_over_2n3m
    assert rep.max_over_tail["P_over_2n3m"] >= rep.last["P_over_2n3m"]


def test_asymptotic_report_all_ones():
    rows = list(iter_trajectory(parse_generator("cycle:1"), 40))
    for row in rows:
        assert row.alpha == 0  # P = 3^m - 2^m < 3^m for the minimal vector
    rep = asymptotic_report(rows)
    assert rep.last["alpha_over_2n"] == 0


def test_asymptotic_report_needs_two_rows():
    rows = list(iter_trajectory(IntegerGenerator(7), 1))
    with pytest.raises(ValueError):
        asymptotic_report(rows)


def test_trajectory_name_is_the_submodule():
    import collatz_parity.trajectory as T

    assert isinstance(T, types.ModuleType)
    assert T.iter_trajectory is iter_trajectory
