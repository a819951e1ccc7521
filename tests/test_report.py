"""Serialization, rational rendering, and the fixture corpus runner."""

import decimal
import io
import json
import random
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import islice

import oracle
import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_parity import characteristics
from collatz_parity import (
    BitStreamExhausted,
    CharacteristicSet,
    ParityVector,
    PrefixGenerator,
    char_set,
    iter_trajectory,
    parse_generator,
    xstar_decompose,
)
from collatz_parity.cli import main
from collatz_parity.report import (
    DEFAULT_PRECISION,
    TRAJECTORY_CSV_HEADER,
    FixtureCase,
    charset_to_json_dict,
    _fixed,
    format_rational,
    load_fixtures,
    render_report_text,
    run_fixtures,
    write_trajectory_csv,
    write_xstar_json,
    write_xstar_table,
)
from collatz_parity.trajectory import _add_columns

PV = ParityVector.from_string


def test_format_rational_basic():
    assert format_rational(Fraction(11, 32), 6) == "0.343750"
    assert format_rational(Fraction(11, 32), 0) == "0"
    assert format_rational(Fraction(10), 4) == "10.0000"
    assert format_rational(Fraction(-79, 16), 3) == "-4.938"
    assert format_rational(Fraction(1, 3), 12) == "0.333333333333"


def test_format_rational_half_even():
    assert format_rational(Fraction(1, 2), 0) == "0"
    assert format_rational(Fraction(3, 2), 0) == "2"
    assert format_rational(Fraction(25, 1000), 2) == "0.02"
    assert format_rational(Fraction(35, 1000), 2) == "0.04"


def test_format_rational_of_zero_builds_no_power_of_ten():
    # 10^digits is never built for a zero numerator: at 10^7 digits it took seconds
    assert format_rational(Fraction(0), 0) == "0"
    assert format_rational(Fraction(0), 1) == "0.0"
    assert format_rational(Fraction(0), 10**7) == "0." + "0" * 10**7


def test_format_rational_exact():
    assert format_rational(Fraction(79, 16), exact=True) == "79/16"
    assert format_rational(Fraction(10), exact=True) == "10"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(-10**30, 10**30) | st.just(0), st.integers(1, 10**20), st.integers(1, 10**6),
       st.integers(0, 12))
@example(0, 7, 3, 12)
@example(0, 1, 1, 0)
@example(5, 3, 4, 0)
@example(1, 8, 5, 2)    # 12.5 hundredths: the tie rounds to the even 0.12
@example(3, 8, 5, 2)    # 37.5 hundredths: the tie rounds to the even 0.38
@example(-3, 8, 2, 2)
def test_fixed_of_unreduced_integers_is_format_rational(p, q, k, digits):
    assert _fixed(k * p, k * q, digits) == _fixed(p, q, digits) == format_rational(
        Fraction(p, q), digits)


def test_fixed_ties_round_half_even():
    assert _fixed(1, 8, 2) == _fixed(2, 16, 2) == "0.12"
    assert _fixed(3, 8, 2) == _fixed(9, 24, 2) == "0.38"
    assert _fixed(1, 2, 0) == "0" and _fixed(3, 2, 0) == "2" and _fixed(0, 5, 0) == "0"
    with pytest.raises(ValueError, match="precision must be >= 0, got -1"):
        _fixed(1, 2, -1)


class _Precision(int):
    """A precision whose 10^digits fails the test: the digit-limit check must come first."""

    def __rpow__(self, base, mod=None):
        raise AssertionError(f"{base}^{int(self)} was built")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
@pytest.mark.parametrize("p, q, k", [(1, 1, 3), (3, 2, 3), (9, 6, 1), (1, 3, 7), (2**600, 3, 5),
                                     (3**400, 2**700, 3), (-5, 4, 9), (1, 2**2000, 3)])
@pytest.mark.parametrize("digits", [639, 640, 641, 700, 5000])
def test_fixed_under_a_low_digit_limit_is_format_rational(p, q, k, digits):
    # unreduced or not, _fixed renders what format_rational renders, or raises
    # the same error; the bound that refuses before 10^digits is built
    # depends on the value alone
    def outcome(render, *args):
        try:
            return render(*args)
        except ValueError as exc:
            return str(exc)

    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        expected = outcome(format_rational, Fraction(p, q), digits)
        assert outcome(_fixed, k * p, k * q, digits) == outcome(_fixed, p, q, digits) == expected
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
def test_fixed_refuses_before_building_ten_to_the_digits():
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for p, q in ((1, 3), (3, 6), (2**40, 2**41), (7, 1)):
            with pytest.raises(ValueError) as exc:
                _fixed(p, q, _Precision(10**9))
            assert str(exc.value) == (
                "Exceeds the limit (640 digits) for integer string conversion at precision "
                "1000000000; use sys.set_int_max_str_digits() to increase the limit")
        # a zero numerator builds no 10^digits either, and renders
        assert _fixed(0, 3, _Precision(650)) == "0." + "0" * 650
    finally:
        sys.set_int_max_str_digits(previous)


def rounded(p, q, digits):
    """round(p/q * 10^digits) as `format_rational` gives it, read back from its text."""
    text = format_rational(Fraction(p, q), digits)
    whole, point, fraction = text.partition(".")
    assert len(fraction) == digits and bool(point) == bool(digits)
    assert whole.lstrip("-") == str(abs(int(whole)))  # no pad left before the point
    return int(whole + fraction)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(-10**30, 10**30) | st.just(0), st.integers(1, 10**20), st.integers(0, 12))
def test_round_half_even_matches_fraction(p, q, digits):
    assert rounded(p, q, digits) == round(Fraction(p, q) * 10**digits)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(-10**12, 10**12), st.integers(0, 12), st.integers(0, 40))
def test_round_half_even_ties(u, digits, extra):
    # p * 10^digits / q = (2u + 1) 5^digits / 2 exactly, with q a power of 2
    p, q = (2 * u + 1) << extra, 1 << (digits + 1 + extra)
    assert (p * 10**digits) % q == q // 2
    expected = round(Fraction(p, q) * 10**digits)
    assert rounded(p, q, digits) == expected and expected % 2 == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 2**600), st.integers(0, 2**5000), st.integers(-4000, 0),
       st.integers(-4, 4), st.booleans())
def test_fixed_point_refuses_only_what_str_would(p, low, e, offset, negative):
    # 2^e < |p|/q < 2^(e+2), and the precision puts round(|p|/q * 10^digits)
    # within a few digits of a 640-digit limit
    bits = p.bit_length() - 1 - e
    q = (1 << (bits - 1)) | (low & ((1 << (bits - 1)) - 1))
    p = -p if negative else p
    digits = 640 - e * 30103 // 100000 + offset
    # the digit-limit check before 10^digits never refuses a value that renders
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = format_rational(Fraction(p, q), digits)
        scaled_digits = len(str(abs(rounded(p, q, digits))))
        sys.set_int_max_str_digits(640)
        try:
            assert format_rational(Fraction(p, q), digits) == expected
        except ValueError as exc:
            assert "int_max_str_digits" in str(exc) and scaled_digits > 640
    finally:
        sys.set_int_max_str_digits(previous)


def test_charset_json_round_trip():
    for bits in ("1101001", "1011010111", "0000", "1"):
        cs = char_set(PV(bits))
        d = charset_to_json_dict(cs)
        blob = json.dumps(d)
        assert json.loads(blob) == d
        # every integer field is a decimal string, never a native number
        for key, value in d.items():
            assert value is None or isinstance(value, str)
        for key in ("n", "m", "P", "c", "a", "b", "alpha", "beta", "A", "B", "N0", "X", "Y"):
            value = getattr(cs, key)
            assert d[key] == (None if value is None else str(value))
        assert Fraction(int(d["r0_num"]), int(d["r0_den"])) == cs.r0


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
def test_analyze_json_rebuilds_the_characteristic_set(bits):
    # n, m, P and N0 are all a reader of the JSON needs: the set they rebuild
    # writes every other cell back byte for byte (a and b null when m = 0)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["analyze", "".join(map(str, bits))]) == 0
    d = json.loads(out.getvalue())
    cs = CharacteristicSet(*(int(d[key]) for key in ("n", "m", "P", "N0")))
    assert cs == char_set(ParityVector(tuple(bits)))
    assert json.dumps(charset_to_json_dict(cs), indent=2) + "\n" == out.getvalue()


def test_analyze_json_contains_p_string():
    d = charset_to_json_dict(char_set(PV("1101001")))
    assert d["P"] == "133"
    assert d["a"] == "79" and d["b"] == "50"


def xstar_json_text(v: ParityVector) -> str:
    out = io.StringIO()
    write_xstar_json(v, out)
    return out.getvalue()


def test_xstar_json():
    d = json.loads(xstar_json_text(PV("1011010111")))
    assert d["Xstar"] == "4409" and d["Ystar"] == "9422" and d["J"] == "1214"
    assert d["rows"][0] == {"k": 1, "j": 1, "theta": "341", "z": "341", "t": "1"}


def half_ones(n: int) -> str:
    rng = random.Random(n)
    ones = set(rng.sample(range(n), n // 2))
    return "".join("1" if i in ones else "0" for i in range(n))


# the writers carry z_k in a Decimal through 3 z_k = 2^(j_k - j_(k-1)) z_(k-1)
# + s_k 2^n: a first one late, after 2^(j_1) z_0 = -2^(j_1 - 1); a zero run
# of 1200 bits, where s_k = r - (the bits theta_(k-1) loses) is near -2^1200;
# ones on every row, where j_k - j_(k-1) = 1; a lone one at j = n, where
# theta_1 = 1; and the benchmark's sizes
XSTAR_STRESS = {
    "first-one-late": "0" * 40 + "1011" + "0" * 7 + "1",
    "zero-run-of-1200": "1101" + "0" * 1200 + "1011",
    "all-ones": "1" * 300,
    "one-at-n": "0" * 299 + "1",
    "1024-bits": half_ones(1024),
    "2048-bits": half_ones(2048),
}
XSTAR_VECTORS = ["1", "0001", "1000", "1" * 64, "1011010111",
                 *(pytest.param(bits, id=name) for name, bits in XSTAR_STRESS.items())]


@pytest.mark.parametrize("bits", XSTAR_VECTORS)
def test_xstar_json_is_the_json_dump_layout(bits):
    assert xstar_json_text(PV(bits)) == oracle.xstar_outputs(PV(bits).bits)[1]


# the length first, then the bits, with at least one 1
vectors_with_a_one = st.integers(1, 400).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                        st.integers(0, n - 1)))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(vectors_with_a_one)
def test_xstar_json_is_the_json_dump_layout_random(drawn):
    bits, one = drawn
    bits[one] = 1
    assert xstar_json_text(ParityVector(tuple(bits))) == oracle.xstar_outputs(bits)[1]


def xstar_table_text(v: ParityVector) -> str:
    out = io.StringIO()
    write_xstar_table(v, out)
    return out.getvalue()


@pytest.mark.parametrize("bits", XSTAR_VECTORS)
def test_xstar_table_is_the_str_layout(bits):
    assert xstar_table_text(PV(bits)) == oracle.xstar_outputs(PV(bits).bits)[0]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(vectors_with_a_one)
def test_xstar_table_is_the_str_layout_random(drawn):
    bits, one = drawn
    bits[one] = 1
    assert xstar_table_text(ParityVector(tuple(bits))) == oracle.xstar_outputs(bits)[0]


def test_xstar_writers_keep_the_callers_decimal_context():
    # a caller's context with 5 digits and an exponent capped at 10 would
    # round or overflow every z_k; the writers set their own and restore it
    v = PV(XSTAR_STRESS["zero-run-of-1200"])
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.rounding = 5, 10, decimal.ROUND_UP
        ctx.traps[decimal.Overflow] = False
        ctx.traps[decimal.DivisionByZero] = False
        before = (ctx.prec, ctx.Emax, ctx.rounding, dict(ctx.traps))
        texts = xstar_table_text(v), xstar_json_text(v)
        after = decimal.getcontext()
        assert after is ctx
        assert (after.prec, after.Emax, after.rounding, dict(after.traps)) == before
        assert not any(after.flags.values())
    assert texts == oracle.xstar_outputs(v.bits)


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def xstar_writer_peak(write, v: ParityVector) -> int:
    """The tracemalloc peak, in bytes, of one X* writer call on v into a sink that keeps nothing."""
    tracemalloc.start()
    try:
        write(v, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("write", [write_xstar_json, write_xstar_table],
                         ids=["json", "table"])
def test_xstar_writers_hold_o_n_bits(write):
    # the one pass keeps only the last theta_k, t_k, 3^(k-1), z_k and the
    # sums, each of O(n) bits; keeping every row's theta_k, z_k and t_k took about
    # 760 KiB at 2048 bits and grows as n*m, about 4x per doubling of n
    small = xstar_writer_peak(write, PV(XSTAR_STRESS["2048-bits"]))
    large = xstar_writer_peak(write, PV(half_ones(4096)))
    assert small < 200 * 1024
    assert large < 3 * small


XSTAR_WRITERS = [pytest.param(write_xstar_table, 0, id="table"),
                 pytest.param(write_xstar_json, 1, id="json")]


def xstar_passes(monkeypatch, write, v: ParityVector) -> tuple[int, str]:
    """How many times one writer call draws `_xstar_terms`, and what it writes."""
    calls = []
    loop = characteristics._xstar_terms

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(characteristics, "_xstar_terms", counted)
    out = io.StringIO()
    write(v, out)
    return len(calls), out.getvalue()


@pytest.mark.parametrize("write, layout", XSTAR_WRITERS)
def test_xstar_writers_make_one_pass(monkeypatch, write, layout):
    # 2048 + 2*1024 + 11 bits bound every number printed, far inside the
    # default limit of 4300 digits, so no pass runs before the rows
    v = PV(XSTAR_STRESS["2048-bits"])
    assert xstar_passes(monkeypatch, write, v) == (1, oracle.xstar_outputs(v.bits)[layout])


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
@pytest.mark.parametrize("write, layout", XSTAR_WRITERS)
def test_xstar_writers_convert_first_where_the_bound_passes_the_limit(monkeypatch, write,
                                                                      layout):
    # 1200 + 2*600 + 10 = 2410 bits against the 2126 that 640 digits surely
    # hold, so the totals go through str() first; every number fits, and
    # the rows follow in a second pass
    v = PV(half_ones(1200))
    expected = oracle.xstar_outputs(v.bits)[layout]
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert xstar_passes(monkeypatch, write, v) == (2, expected)
    finally:
        sys.set_int_max_str_digits(previous)


def assert_below_the_xstar_bound(v: ParityVector) -> None:
    # the bounds `_write_xstar_rows` states, and the one it tests the digit
    # limit against: every number printed is below 2^(n + 2m + bits(m))
    dec = xstar_decompose(v)
    n, m = v.n, v.ones
    for row in dec.rows:
        assert 0 < row.theta < 1 << n and 0 < row.z < 1 << n and 0 < row.t < 3**row.k
    assert 0 < dec.Xstar < m << n and 0 < dec.Ystar < m * 3**m
    assert abs(dec.J) < (m << n) * 3**m <= 1 << (n + 2 * m + m.bit_length())


@pytest.mark.parametrize("bits", XSTAR_VECTORS)
def test_xstar_numbers_are_below_the_writers_bound(bits):
    assert_below_the_xstar_bound(PV(bits))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(vectors_with_a_one)
def test_xstar_numbers_are_below_the_writers_bound_random(drawn):
    bits, one = drawn
    bits[one] = 1
    assert_below_the_xstar_bound(ParityVector(tuple(bits)))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
def test_xstar_writers_at_the_digit_limit_write_all_or_nothing():
    # at 640 digits X* passes the limit from about 2130 bits and Y* from
    # about 1340 ones, and here J only with one of them; the vectors of
    # 1100 and 1650 bits with 10% ones make one pass, the rest convert the
    # totals first.  Each writer writes the oracle's bytes exactly when X*,
    # Y* and J all fit, and else raises having written nothing
    rng = random.Random(640)
    outcomes = set()
    for n in (1100, 1650, 2100, 2200):
        for share in (0.1, 0.5, 0.9):
            ones = set(rng.sample(range(n), round(n * share)))
            bits = [int(i in ones) for i in range(n)]
            _, Xstar, Ystar, J = oracle.xstar(bits)
            fits = all(len(str(abs(x))) <= 640 for x in (Xstar, Ystar, J))
            expected = oracle.xstar_outputs(bits) if fits else ("", "")
            previous = sys.get_int_max_str_digits()
            try:
                sys.set_int_max_str_digits(640)
                for write, doc in zip((write_xstar_table, write_xstar_json), expected):
                    out = io.StringIO()
                    try:
                        write(ParityVector(tuple(bits)), out)
                    except ValueError as exc:
                        assert "int_max_str_digits" in str(exc) and not fits
                    assert out.getvalue() == doc
            finally:
                sys.set_int_max_str_digits(previous)
            outcomes.add(fits)
    assert outcomes == {True, False}


def test_trajectory_csv_header_and_shape():
    out = io.StringIO()
    write_trajectory_csv(parse_generator("int:7"), 6, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert len(lines) == 7
    assert all(len(line.split(",")) == len(TRAJECTORY_CSV_HEADER.split(",")) for line in lines)


def test_trajectory_csv_deterministic():
    def render():
        out = io.StringIO()
        write_trajectory_csv(parse_generator("head:1101;cycle:01"), 30, out)
        return out.getvalue()

    assert render() == render()


def csv_lines(gen, horizon, digits=DEFAULT_PRECISION, exact=False):
    out = io.StringIO()
    write_trajectory_csv(gen, horizon, out, digits, exact)
    return out.getvalue().split("\n")


def test_trajectory_csv_empty_cells_before_first_one():
    gen = parse_generator("bits:00101")
    lines = csv_lines(gen, 5)
    cells = lines[1].split(",")
    header = TRAJECTORY_CSV_HEADER.split(",")
    for name in ("a_j", "b_j", "q_j", "K_j", "Kstar_j", "f2_over_2n"):
        assert cells[header.index(name)] == ""
    # once a one arrives the cells fill in
    assert lines[3].split(",")[header.index("a_j")] != ""
    assert lines == oracle.trajectory_csv(oracle.rows([0, 0, 1, 0, 1])).split("\n")


def test_trajectory_csv_exact_mode():
    gen = parse_generator("int:7")
    line = csv_lines(gen, 3, exact=True)[3]
    cells = line.split(",")
    header = TRAJECTORY_CSV_HEADER.split(",")
    assert cells[header.index("r0_j")] == "7/8"
    rows = oracle.rows(oracle.spec_bits("int:7", 3))
    assert line == oracle.trajectory_csv(rows, exact=True).split("\n")[3]


def test_trajectory_csv_checks_the_horizon_before_writing():
    for horizon in (0, -5):
        out = io.StringIO()
        with pytest.raises(ValueError, match="horizon"):
            write_trajectory_csv(parse_generator("int:27"), horizon, out)
        assert out.getvalue() == ""


class _DrySource(PrefixGenerator):
    """A source that yields no bit, which no spec can give."""

    __slots__ = ()

    def bits(self):
        return iter(())


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
def test_trajectory_csv_from_the_digit_limit_up_fails_on_row_1():
    # row 1 has a cell equal to 1, whose 10^digits has one digit too many;
    # a source with no row 1 is reported as such instead
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for digits in (640, 641, 10**9):
            for spec in ("bits:0", "bits:1", "int:27"):
                out = io.StringIO()
                with pytest.raises(ValueError, match="int_max_str_digits"):
                    write_trajectory_csv(parse_generator(spec), 10, out, digits)
                assert out.getvalue() == TRAJECTORY_CSV_HEADER + "\n"
            out = io.StringIO()
            with pytest.raises(BitStreamExhausted) as exc:
                write_trajectory_csv(_DrySource(), 10, out, digits)
            assert exc.value.position == 0 and out.getvalue() == TRAJECTORY_CSV_HEADER + "\n"
            # exact rationals take no 10^digits
            out = io.StringIO()
            write_trajectory_csv(parse_generator("int:27"), 10, out, digits, exact=True)
            assert out.getvalue() == "\n".join(csv_lines(parse_generator("int:27"), 10,
                                                          exact=True))
    finally:
        sys.set_int_max_str_digits(previous)


def test_trajectory_csv_memory_follows_the_rows_written():
    # the K* column counts widen with the rows written, so a source that runs
    # dry at row 3 costs a few KiB at any horizon; counts as wide as the
    # horizon would take 12.5 MB per int here
    out = io.StringIO()
    tracemalloc.start()
    try:
        with pytest.raises(BitStreamExhausted) as exc:
            write_trajectory_csv(parse_generator("bits:101"), 10**8, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.position == 3
    assert peak < 64 * 1024


@pytest.mark.parametrize("length", [3, 256, 257, 300, 512])
def test_trajectory_csv_of_a_source_that_runs_dry(length):
    # the writer asks for a block of bits that the source cannot fill (at
    # 256 and 512 the next block comes back empty); it writes every row the
    # source delivered, then raises what the row iterator raises
    bits = [random.Random(length).choice((0, 1)) for _ in range(length)]
    gen = parse_generator("bits:" + "".join(map(str, bits)))
    out = io.StringIO()
    with pytest.raises(BitStreamExhausted) as exc:
        write_trajectory_csv(gen, 1000, out)
    with pytest.raises(BitStreamExhausted) as from_rows:
        list(iter_trajectory(gen, 1000))
    assert exc.value.position == from_rows.value.position == length
    assert str(exc.value) == str(from_rows.value) == (
        f"bit source exhausted after {length} complete rows (requested horizon 1000)")
    assert out.getvalue() == oracle.trajectory_csv(oracle.rows(bits))


class _CountingSource(PrefixGenerator):
    """int:27's bits, with a count of the bits drawn."""

    __slots__ = ("drawn",)

    def __init__(self):
        self._init([0])

    def bits(self):
        for bit in parse_generator("int:27").bits():
            self.drawn[0] += 1
            yield bit


class _RowsWritten(Exception):
    pass


class _StopAfterRows(io.StringIO):
    """An output that takes the header and `rows` rows, then raises."""

    def __init__(self, rows):
        super().__init__()
        self.left = rows + 1

    def write(self, text):
        if not self.left:
            raise _RowsWritten
        self.left -= 1
        return super().write(text)


def _write_rows(source, rows):
    out = _StopAfterRows(rows)
    with pytest.raises(_RowsWritten):
        write_trajectory_csv(source, 10**8, out)
    assert out.getvalue().count("\n") == rows + 1


def _take_rows(source, rows):
    assert len(list(islice(iter_trajectory(source, 10**8), rows))) == rows


_LOOK_AHEAD_ROWS = (1, 255, 256, 257, 300, 512, 513, 1000, 1025)


@pytest.mark.parametrize("consume, rows", [
    *(pytest.param(_write_rows, rows, id=str(rows)) for rows in _LOOK_AHEAD_ROWS),
    *(pytest.param(_take_rows, rows, id=f"iter_trajectory-{rows}") for rows in _LOOK_AHEAD_ROWS),
])
def test_trajectory_csv_reads_at_most_twice_the_rows_written(consume, rows):
    # blocks end at rows 256, 512, 1024, ..., so by the time row r is
    # written or yielded at most max(256, 2r) bits were drawn, under any horizon
    source = _CountingSource()
    consume(source, rows)
    assert source.drawn[0] <= max(256, 2 * rows)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 7) | st.integers(0, 2**130), max_size=300))
def test_bit_sliced_column_counts(values):
    counts = []
    for z in values:
        _add_columns(counts, z)
    for c in range(max((z.bit_length() for z in values), default=0)):
        count = sum((level >> c & 1) << i for i, level in enumerate(counts))
        assert count == sum(z >> c & 1 for z in values)


def _ones_at(rows, length):
    return "bits:" + "".join("1" if j in rows else "0" for j in range(1, length + 1))


# The writer reads its bits in blocks that end at rows 256, 512, 1024, ...,
# capped at the horizon (H = 513 ends the third block after one row).  Each
# block recounts every one so far at its width and transposes the counts
# into one field per column: 1 byte below a width of 256, 2 bytes from it.
# cycle:1 has a one on every row, so at H = 600 the counts pass 255 and
# need the wider fields; the bits: specs have ones only on both sides of
# the block edges.  Rows 64/65 and 128/129, a horizon of 100 and a first
# one at row 71 all fall inside the first block.
_ONES_AT_BLOCK_EDGES = _ones_at((1, 64, 65, 128, 129), 200)
_ONES_AT_WIDENINGS = _ones_at((1, 64, 65, 128, 129, 256, 257), 300)
_ONES_AT_256_AND_512 = _ones_at((1, 255, 256, 257, 258, 511, 512, 513, 514), 600)
_ONES_AT_THE_LAST_BLOCK = _ones_at((1, 256, 257, 512, 513), 513)


@pytest.mark.parametrize("spec, horizon", [
    pytest.param("int:27", 300, id="int:27"),
    pytest.param("cycle:100", 300, id="cycle:100"),
    pytest.param("head:1101;cycle:01", 300, id="head:1101;cycle:01"),
    pytest.param("cycle:1", 300, id="cycle:1"),
    pytest.param(_ONES_AT_BLOCK_EDGES, 200, id="ones-at-block-edges"),
    pytest.param(_ONES_AT_WIDENINGS, 300, id="ones-at-widenings"),
    pytest.param("int:27", 100, id="int:27-horizon-100"),
    pytest.param("head:" + "0" * 70 + ";cycle:1", 200, id="first-one-past-a-widening"),
    pytest.param(_ONES_AT_256_AND_512, 600, id="ones-at-rows-256-and-512"),
    pytest.param(_ONES_AT_THE_LAST_BLOCK, 513, id="ones-at-a-one-row-last-block"),
    pytest.param("cycle:1", 600, id="cycle:1-horizon-600"),
])
def test_csv_equals_the_closed_form_rendering(spec, horizon):
    gen = parse_generator(spec)
    rows = oracle.rows(oracle.spec_bits(spec, horizon))
    for digits, exact in ((DEFAULT_PRECISION, False), (0, False), (2, False), (3, False),
                          (640, False), (700, False), (DEFAULT_PRECISION, True)):
        assert csv_lines(gen, horizon, digits, exact) == (
            oracle.trajectory_csv(rows, digits, exact).split("\n"))
    assert [(r.n, r.m, r.P, r.N0) for r in iter_trajectory(gen, horizon)] == (
        [(r["n"], r["m"], r["P"], r["N0"]) for r in rows])


# each fixed-point column of the CSV and the row property it rounds
_FIXED_POINT_COLUMNS = {"r0_j": "r0", "q_j": "q", "m_over_n": "m_over_n",
                        "P_over_2n": "P_over_2n", "P_over_2n3m": "P_over_2n3m",
                        "alpha_over_2n": "alpha_over_2n", "A_over_3m": "A_over_3m",
                        "f2_over_2n": "f2_over_2n"}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
def test_fixed_point_cells_round_half_to_even(bits):
    # On short streams p 10^digits / q is often an exact half: over 2^n in
    # r0, q, P/2^n, alpha/2^n and f2, and over n in m/n (never over 3^m or
    # 2^n 3^m); these 200 streams give about 970 in r0 and 440 in m/n.  Each
    # cell is read back from its text and checked against Fraction's round(),
    # half to even; nothing of report.py but the writer is used.
    gen = parse_generator("bits:" + "".join(map(str, bits)))
    rows = oracle.rows(bits)
    for digits in range(6):
        out = io.StringIO()
        write_trajectory_csv(gen, len(bits), out, digits)
        header, *lines = out.getvalue().splitlines()
        columns = header.split(",")
        for row, line in zip(rows, lines, strict=True):
            cells = dict(zip(columns, line.split(","), strict=True))
            for column, name in _FIXED_POINT_COLUMNS.items():
                value, text = row[name], cells[column]
                if value is None:
                    assert text == ""
                    continue
                whole, point, fraction = text.partition(".")
                assert whole == str(int(whole)) and len(fraction) == digits
                assert point == ("." if digits else "")
                assert int(whole + fraction) == round(value * 10**digits)


def test_load_fixtures_default_corpus():
    cases = load_fixtures()
    assert len(cases) >= 14
    kinds = {c.kind for c in cases}
    assert {"charset", "p-table", "ab", "xstar", "n0", "apply", "g-eval",
            "trajectory-n0", "fixed-point"} <= kinds
    # the Example 4.5 case must carry its erratum note
    by_id = {c.id: c for c in cases}
    assert by_id["ex4.5-alternating-p"].erratum is not None
    assert all(c.source for c in cases)


def test_run_default_corpus_passes():
    report = run_fixtures(load_fixtures())
    assert report.failed == 0
    text = render_report_text(report)
    assert "0 failed" in text


def test_load_fixtures_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "kind": "n0", "input": {"v": "1", "count": 1}, '
                    '"expected": {"realizers": ["1"]}, "source": "x"}\n'
                    "{broken\n")
    with pytest.raises(ValueError, match="line 2"):
        load_fixtures(str(path))


def test_load_fixtures_rejects_the_old_string_format(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text('{"id": "a", "kind": "n0", "input": {"v": "1", "count": 1}, '
                    '"expected": {"realizers": ["1"]}, "source": "x"}\n'
                    '{"id": "b", "kind": "n0", "input": "1", "expected": "1", "source": "x"}\n')
    with pytest.raises(ValueError, match="line 2: input and expected must be JSON objects"):
        load_fixtures(str(path))


_GOOD_CASE = {"id": "a", "kind": "n0", "input": {"v": "1", "count": 1},
              "expected": {"realizers": ["1"]}, "source": "x"}


@pytest.mark.parametrize("field, value", [("id", 1), ("id", None), ("kind", ["n0"]),
                                          ("source", ["x"]), ("source", 1), ("erratum", 5),
                                          ("erratum", ["x"])])
def test_load_fixtures_rejects_fields_that_are_not_strings(tmp_path, field, value):
    # run_fixtures sorts by id and the report prints kind and source as text
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_GOOD_CASE) + "\n"
                    + json.dumps({**_GOOD_CASE, "id": "b", field: value}) + "\n")
    with pytest.raises(ValueError, match="line 2: id, kind and source must be strings"):
        load_fixtures(str(path))


def test_load_fixtures_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "kind": "nope", "input": "1", "expected": "1", "source": "x"}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_fixtures(str(path))


def test_failing_fixture_reports_diff():
    case = FixtureCase(id="wrong", kind="n0", input={"v": "101110", "count": 1},
                       expected={"realizers": ["8"]}, source="made up")
    report = run_fixtures([case])
    assert report.failed == 1
    assert 'expected ["8"]' in report.results[0].detail
    assert 'got ["9"]' in report.results[0].detail


def test_fixture_key_the_kind_does_not_produce_fails():
    case = FixtureCase(id="extra", kind="apply", input={"v": "1101001", "N": "11"},
                       expected={"value": "8", "member": None}, source="made up")
    report = run_fixtures([case])
    assert report.failed == 1
    assert report.results[0].detail == "member: expected null, not produced"


def test_fixture_values_compare_by_json_type():
    # "true" is not true, and 1 is not true: values match as JSON, not by Python ==
    for member in ("true", 1):
        case = FixtureCase(id="typed", kind="g-eval", input={"v": "11010", "N": "11"},
                           expected={"value": "10", "member": member}, source="made up")
        assert run_fixtures([case]).failed == 1


def _altered(value):
    """A different JSON value of the same shape: one element changed in a list."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if isinstance(value, list):
        return [_altered(value[0])] + value[1:]
    raise TypeError(f"no alteration for {value!r}")


def test_corpus_checks_every_expected_value():
    cases = load_fixtures()
    altered_keys = 0
    for i, case in enumerate(cases):
        for key, value in case.expected.items():
            expected = {**case.expected, key: _altered(value)}
            bad = FixtureCase(case.id, case.kind, case.input, expected, case.source)
            report = run_fixtures(cases[:i] + [bad] + cases[i + 1:])
            failed = [r for r in report.results if not r.ok]
            assert [r.id for r in failed] == [case.id], (case.id, key)
            assert failed[0].detail.startswith(f"{key}: expected "), failed[0].detail
            altered_keys += 1
    assert altered_keys >= 30


def test_crashing_fixture_is_a_failure():
    case = FixtureCase(id="crash", kind="xstar", input={"v": "000"},
                       expected={"Xstar": "1"}, source="made up")
    report = run_fixtures([case])
    assert report.failed == 1
    assert report.results[0].detail.startswith("error: X* needs at least one 1 bit")


def test_report_order_is_by_id():
    cases = [
        FixtureCase(id="b", kind="n0", input={"v": "1", "count": 1},
                    expected={"realizers": ["1"]}, source="s"),
        FixtureCase(id="a", kind="n0", input={"v": "0", "count": 1},
                    expected={"realizers": ["2"]}, source="s"),
    ]
    report = run_fixtures(cases)
    assert [r.id for r in report.results] == ["a", "b"]
    assert report.passed == 2
