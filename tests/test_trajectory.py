"""Order-j rows, the r0 dichotomy, and the horizon-bounded classifier."""

import copy
import io
import math
import pickle
import random
import tracemalloc
import types
from fractions import Fraction

import oracle
import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_parity import characteristics, core
from collatz_parity import (
    BitStreamExhausted,
    BitStreamGenerator,
    GROWING,
    HALVED,
    HALVED_PLUS_HALF,
    INCONCLUSIVE,
    STABILIZED,
    HeadCycleGenerator,
    IntegerGenerator,
    ParityVector,
    PrefixGenerator,
    ab_recurrence,
    apply_vector,
    asymptotic_report,
    char_set,
    classify,
    iter_trajectory,
    lemma51_check,
    parse_generator,
    xstar_decompose,
)
from collatz_parity.report import TRAJECTORY_CSV_HEADER, write_trajectory_csv

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
                # a and b against the paper's halving recurrence, X* of the
                # prefix against the affine map and N0: neither oracle shares
                # code with the rows
                assert (row.a, row.b) == ab_recurrence(row.m, row.n)[-1]
                dec = xstar_decompose(v)
                assert apply_vector(v, dec.Xstar) == dec.Ystar
                assert (dec.Xstar - row.N0) % (1 << row.n) == 0


# The length is drawn first: plain st.lists averages about 6 bits, and rows
# past the first few dozen would rarely be reached.
bit_lists = st.integers(1, 64).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(bit_lists)
def test_every_row_is_the_char_set_of_its_prefix(bits):
    gen = BitStreamGenerator(tuple(bits))
    for row in iter_trajectory(gen, len(bits)):
        v = gen.prefix(row.n)
        cs = char_set(v)
        assert row == cs and (row.a, row.b) == (cs.a, cs.b)
        if row.m:
            dec = xstar_decompose(v)
            assert apply_vector(v, dec.Xstar) == dec.Ystar


def _counted_solves(monkeypatch) -> list:
    """Make `_solve_a` record each (m, n) it is called with, in the list returned."""
    solves = []
    solve_a = characteristics._solve_a
    monkeypatch.setattr(characteristics, "_solve_a",
                        lambda m, n: solves.append((m, n)) or solve_a(m, n))
    return solves


@pytest.mark.parametrize("spec, horizon", [("int:27", 1000), ("head:0010;cycle:10110", 300)])
def test_rows_carry_a_and_b_without_a_solve(monkeypatch, spec, horizon):
    # the engine's a fills each row's a cache, and copies and pickles of the
    # rows keep it; the head's leading zeros give rows with m = 0, where a,
    # b and K are None
    solves = _counted_solves(monkeypatch)
    rows = list(iter_trajectory(parse_generator(spec), horizon))
    copies = [*map(copy.copy, rows), *map(copy.deepcopy, rows), *pickle.loads(pickle.dumps(rows))]
    got = [(row.a, row.b, row.K) for row in rows]
    assert copies == rows * 3 and [(row.a, row.b, row.K) for row in copies] == got * 3
    assert solves == []
    monkeypatch.undo()
    gen = parse_generator(spec)
    prefixes = map(gen.prefix, range(1, horizon + 1))
    assert got == [(cs.a, cs.b, cs.K) for cs in map(char_set, prefixes)]


# Up to 200 bits: rows around 64 and 128, inside the CSV writer's first
# block of 256 bits (tests/test_report.py covers the later block edges).
long_bit_lists = st.integers(1, 200).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(long_bit_lists)
def test_csv_carries_the_closed_form_a_b_and_kstar(bits):
    rows = oracle.rows(bits)
    out = io.StringIO()
    write_trajectory_csv(BitStreamGenerator(tuple(bits)), len(bits), out)
    # every cell against the oracle, which shares no code with the writer
    assert out.getvalue() == oracle.trajectory_csv(rows)
    header = TRAJECTORY_CSV_HEADER.split(",")
    columns = [header.index(name) for name in ("a_j", "b_j", "Kstar_j")]
    for row, line in zip(rows, out.getvalue().splitlines()[1:], strict=True):
        a, b, kstar = (line.split(",")[i] for i in columns)
        if row["m"] == 0:
            assert a == b == kstar == ""
            continue
        assert 0 <= int(kstar) < row["m"]
        if row["n"] % 16 == 0 or row["n"] == len(bits):
            assert (int(a), int(b)) == ab_recurrence(row["m"], row["n"])[-1]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(long_bit_lists)
def test_rows_carry_n_m_p_and_n0_until_the_source_runs_dry(bits):
    # each row against the oracle's, and the source runs dry at its last bit
    rows = []
    with pytest.raises(BitStreamExhausted) as exc:
        for row in iter_trajectory(BitStreamGenerator(tuple(bits)), len(bits) + 64):
            rows.append((row.n, row.m, row.P, row.N0))
    assert rows == [(r["n"], r["m"], r["P"], r["N0"]) for r in oracle.rows(bits)]
    assert exc.value.position == len(bits)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(long_bit_lists)
def test_ab_gap_is_one_over_2n_3m(bits):
    # the oracle is the definition, from the solved a and b
    for row in iter_trajectory(BitStreamGenerator(tuple(bits)), len(bits)):
        if row.m == 0:
            assert row.ab_gap is None
        else:
            assert row.ab_gap == abs(Fraction(row.a, 1 << row.n) - Fraction(row.b, 3**row.m))


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
                assert kind == HALVED and cur.r0 == prev.r0 / 2
            else:
                assert kind == HALVED_PLUS_HALF and cur.r0 == prev.r0 / 2 + Fraction(1, 2)
                assert cur.N0 == prev.N0 + (1 << prev.n)


def test_lemma51_rejects_non_consecutive():
    rows = list(iter_trajectory(IntegerGenerator(27), 5))
    with pytest.raises(ValueError):
        lemma51_check(rows[0], rows[3])


def test_lemma51_rejects_rows_of_two_streams():
    # N0 = 3 at row 2 of int:27, then N0 = 5 at row 3 of int:5: neither
    # unchanged nor grown by 2^2
    prev = list(iter_trajectory(IntegerGenerator(27), 2))[-1]
    cur = list(iter_trajectory(IntegerGenerator(5), 3))[-1]
    with pytest.raises(AssertionError) as exc:
        lemma51_check(prev, cur)
    assert str(exc.value) == "r0 dichotomy violated between rows 2 and 3: 3/4 -> 5/8"


def test_row_identities():
    for gen in some_generators():
        rows = list(iter_trajectory(gen, 60))
        assert [row.m for row in rows] == [sum(gen.prefix(row.n).bits) for row in rows]
        for row in rows:
            pow2 = 1 << row.n
            pow3 = 3**row.m
            assert row.c == pow2 - pow3
            assert 1 <= row.N0 <= pow2
            assert row.P == pow3 * row.alpha + row.beta and 0 <= row.beta < pow3
            assert row.P == pow2 * row.A + row.B and 0 <= row.B < pow2
            if row.m == 0:
                assert row.a is None and row.X is None
                continue
            assert pow3 * row.a + 1 == pow2 * row.b
            assert row.X == row.P * row.a and row.Y == row.P * row.b
            # q = r0 + K exactly, and both particular points sit over N0
            assert row.q == row.r0 + row.K
            assert (row.X - row.N0) % pow2 == 0 and row.K >= 0
            Xstar = xstar_decompose(gen.prefix(row.n)).Xstar
            assert (Xstar - row.N0) % pow2 == 0 and Xstar >= row.N0
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
    assert verdict.prefix_set is not None


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
    assert verdict.candidate is None and verdict.prefix_set is None
    # a finite source that lasts the whole horizon is classified as usual
    verdict = classify(parse_generator("bits:101"), 3, 2)
    assert verdict.kind == STABILIZED and verdict.rows_computed == 3


def test_classify_reports_diagnostics():
    verdict = classify(IntegerGenerator(27), 80, 20)
    cs = verdict.prefix_set
    assert cs.n == 80
    # realizable stream: q and q* are close to an integer (distance = r0 here)
    assert _int_distance(cs.r0) == Fraction(27, 1 << 80)
    assert cs.m_over_n == Fraction(sum(IntegerGenerator(27).prefix(80).bits), 80)
    assert verdict.ones_in_window > 0


def _int_distance(x: Fraction) -> Fraction:
    """The distance of x to the nearest integer, by its definition."""
    return min(x - math.floor(x), math.ceil(x) - x)


def _no_solve(m, n):
    raise AssertionError(f"_solve_a({m}, {n}) was called")


def _classify_with_no_solve_for_int(gen, horizon: int, window: int, monkeypatch):
    """classify, with `_solve_a` raising when gen is an int: spec, whose N0 needs no a."""
    with monkeypatch.context() as patched:
        if gen.spec_string().startswith("int:"):
            patched.setattr(characteristics, "_solve_a", _no_solve)
        return classify(gen, horizon, window)


def _verdict_and_ab(gen, horizon: int, window: int, monkeypatch):
    """classify's verdict and its set's (a, b), `_solve_a` raising in the step that must not solve.

    An int: spec's N0 needs no a, so `classify` makes no solve, and the set
    solves on the first read of a, after the patch is lifted.  Every other
    source solves for N0 and keeps a, so reading a and b solves nothing.
    """
    verdict = _classify_with_no_solve_for_int(gen, horizon, window, monkeypatch)
    with monkeypatch.context() as patched:
        if not isinstance(gen, IntegerGenerator):
            patched.setattr(characteristics, "_solve_a", _no_solve)
        return verdict, (verdict.prefix_set.a, verdict.prefix_set.b)


@pytest.mark.parametrize("spec", ["int:27", "head:0110;cycle:100", "cycle:0",
                                  "bits:" + "1101" * 25])
def test_classify_keeps_the_prefix_set(spec, monkeypatch):
    # the verdict's set is char_set of the H-bit prefix, and its a and b are
    # char_set's, solved by classify or, for an int: spec, on the first read
    gen = parse_generator(spec)
    verdict, ab = _verdict_and_ab(gen, 100, 16, monkeypatch)
    expected = char_set(gen.prefix(100))
    assert verdict.prefix_set == expected
    assert ab == (expected.a, expected.b)
    assert verdict.ones_in_window == sum(gen.prefix(100).bits[-16:])
    # a source that runs dry before the horizon gets no set
    dry = classify(BitStreamGenerator(gen.prefix(99).bits), 100, 16)
    assert dry.prefix_set is None and dry.ones_in_window is None


def _path_to_one(N: int) -> str:
    bits = []
    while N != 1:
        bits.append(str(N & 1))
        N = oracle.T(N)
    return "".join(bits)


# A 1 bit, then the orbit of T(27) + 2^299 down to 1 (a 1443-bit head), then
# the cycle 10: its 2-adic value is 27 + 2^300/3, which no positive integer is.
NOT_AN_INTEGER = f"head:1{_path_to_one(41 + 2**299)};cycle:10"
CLOSED_FORM_SPECS = ["int:27", f"int:{2**700 + 1}", "cycle:1", "cycle:10", "head:1101;cycle:01",
                     NOT_AN_INTEGER]


@pytest.mark.parametrize("horizon", [1, 2, 193, 2000, 4000])
@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=lambda spec: spec[:24])
def test_the_closed_form_verdict_is_the_generic_one(spec, horizon, monkeypatch):
    # int: and head+cycle specs take closed forms; the same bits as a bits:
    # source take char_set of the prefix, field for field, and a and b too
    gen = parse_generator(spec)
    bits = gen.prefix(horizon).bits
    for window in sorted({1, min(32, horizon), horizon}):
        got, ab = _verdict_and_ab(gen, horizon, window, monkeypatch)
        expected = classify(BitStreamGenerator(bits), horizon, window)
        assert got == expected
        assert ab == (expected.prefix_set.a, expected.prefix_set.b)


def _no_bits(self):
    raise AssertionError(f"{self.spec_string()[:20]} drew a bit")


class _Forwarding:
    """A source with its own bits(), drawn from `gen`, that forwards every other name to `gen`."""

    def __init__(self, gen):
        self._gen = gen

    def bits(self):
        yield from self._gen.bits()

    def __getattr__(self, name):
        return getattr(self._gen, name)


@pytest.mark.parametrize("spec", ["int:27", "cycle:0", "head:0110;cycle:100110101", NOT_AN_INTEGER],
                         ids=lambda spec: spec[:24])
def test_int_and_head_cycle_specs_draw_no_bit(spec, monkeypatch):
    # a proxy that forwards all but bits(), as a tracing wrapper does, takes the same closed form
    gen = parse_generator(spec)
    expected = classify(BitStreamGenerator(gen.prefix(300).bits), 300, 32)
    for cls in (IntegerGenerator, HeadCycleGenerator):
        monkeypatch.setattr(cls, "bits", _no_bits)
    for source in (gen, _Forwarding(gen)):
        assert _classify_with_no_solve_for_int(source, 300, 32, monkeypatch) == expected


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 2048).flatmap(lambda bits: st.integers(1, 2**bits - 1)),
       st.integers(0, 300))
@example(1, 0)
@example(1, 7)
@example(27, 300)
@example(2**2048 - 1, 299)
def test_steps_equal_plain_iteration(N, count):
    # 8 steps per table lookup and the rest one at a time, against the
    # oracle's plain steps; counts below 8 and no multiple of 8 included
    x = N
    for _ in range(count):
        x = oracle.T(x)
    assert core._steps(N, count) == (x, sum(oracle.spec_bits(f"int:{N}", count)))


@pytest.mark.parametrize("spec", ["int:27", "cycle:0", "bits:" + "1101" * 48])
def test_a_copied_or_unpickled_verdict_keeps_the_solve(spec, monkeypatch):
    # copies of a verdict whose set kept a read it with no solve; an int:
    # spec's verdict, made with no solve, gives unsolved copies, and each
    # solves once on its first read
    gen = parse_generator(spec)
    verdict = _classify_with_no_solve_for_int(gen, 192, 32, monkeypatch)
    expected = char_set(gen.prefix(192))
    solves = _counted_solves(monkeypatch)
    for copied in (copy.copy(verdict), copy.deepcopy(verdict),
                   pickle.loads(pickle.dumps(verdict))):
        assert copied == verdict
        assert (copied.prefix_set.a, copied.prefix_set.b) == (expected.a, expected.b)
    assert solves == [(expected.m, 192)] * (3 if isinstance(gen, IntegerGenerator) else 0)


def test_a_copied_unsolved_set_solves_on_first_read():
    cs = char_set(PV("1011"))
    fresh = characteristics.CharacteristicSet(cs.n, cs.m, cs.P, cs.N0)
    for copied in (copy.deepcopy(fresh), pickle.loads(pickle.dumps(fresh))):
        assert copied == cs and (copied.a, copied.b) == (cs.a, cs.b)


int_specs = st.integers(1, 10**12).map(lambda N: f"int:{N}")


# Both first bits: a first 0 lifts N0 from N0_0 = 1 at row 1, which is no change.
pinned_specs = st.one_of(
    st.sampled_from(["cycle:0", "cycle:01", "cycle:1", "cycle:10"]),
    int_specs,
    st.tuples(st.sampled_from("01"), st.text("01", max_size=12),
              st.text("01", min_size=1, max_size=12)
              ).map(lambda t: f"head:{t[0]}{t[1]};cycle:{t[2]}"),
    st.text("01", min_size=1, max_size=150).map(lambda bits: f"bits:{bits}"),
)
horizon_and_window = st.integers(1, 150).flatmap(
    lambda h: st.tuples(st.just(h), st.integers(1, h)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(pinned_specs, horizon_and_window)
@example("cycle:0", (40, 10))
@example("cycle:0", (40, 40))
@example("cycle:01", (40, 10))
@example("cycle:01", (40, 40))
@example("int:27", (120, 32))
@example("head:0110;cycle:100", (90, 20))
@example("head:1011;cycle:01", (90, 90))
@example("bits:" + "10" * 50, (150, 32))
def test_classify_equals_the_prefix_oracle(spec, horizon_window):
    # every field against the oracle's, whose N0 of every prefix is diffed
    # row to row; the one distance is that of both q and q*
    horizon, window = horizon_window
    v = classify(parse_generator(spec), horizon, window)
    expected = oracle.classify(oracle.spec_bits(spec, horizon), horizon, window)
    d = expected.pop("diagnostics")
    assert {key: getattr(v, key) for key in expected} == expected
    cs = v.prefix_set
    if d is None:
        assert cs is None and v.ones_in_window is None
        return
    distance = _int_distance(cs.r0) if cs.m else None
    assert (cs.n, distance, distance, cs.m_over_n, cs.P_over_2n,
            v.ones_in_window) == tuple(d.values())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(pinned_specs, st.integers(1, 150))
def test_each_lift_is_a_bit_of_the_last_n0(spec, horizon):
    # N0_j = ((N0_H - 1) mod 2^j) + 1, so the lift at row j is bit j - 1 of
    # N0_H - 1, with N0_H the N0 of the H-bit prefix's char_set; the oracle
    # lifts N0 row by row, from N0_0 = 1
    bits = oracle.spec_bits(spec, horizon)   # fewer from a short bits: spec
    lifts = char_set(parse_generator(spec).prefix(len(bits))).N0 - 1
    N0 = oracle.realizers(bits)
    assert N0[-1] == lifts + 1
    for j, (before, after) in enumerate(zip([1, *N0], N0), start=1):
        assert (after != before) == (lifts >> (j - 1)) & 1


class _ExactSource(PrefixGenerator):
    """A finite source that fails the test when asked for a bit past its last."""

    __slots__ = ("data",)

    def __init__(self, data: tuple[int, ...]):
        self._init(data)

    def bits(self):
        yield from self.data
        raise AssertionError(f"bit {len(self.data) + 1} was read")


@pytest.mark.parametrize("spec, horizon, window", [
    ("int:27", 120, 32), ("cycle:10", 192, 32), ("cycle:0", 40, 40), ("cycle:01", 1, 1),
])
def test_classify_reads_exactly_horizon_bits(spec, horizon, window):
    bits = parse_generator(spec).prefix(horizon).bits
    assert classify(_ExactSource(bits), horizon, window) == classify(
        BitStreamGenerator(bits), horizon, window)


def test_kept_rows_hold_linear_memory():
    # a row holds n, m, P, N0 and a, O(j) bits in all: about 2.2 MB for
    # these 4000 rows; O(j) one-positions per row would take O(H^2), about 16.5 MB
    tracemalloc.start()
    try:
        rows = list(iter_trajectory(parse_generator("cycle:10"), 4000))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 4000 and held < 3_000_000


def test_classify_flags_zero_tail():
    gen = parse_generator("head:1;cycle:0")
    verdict = classify(gen, 40, 10)
    assert verdict.ones_in_window == 0


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
