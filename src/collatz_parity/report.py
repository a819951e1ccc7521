"""Serialization schemas, the worked-example fixture corpus, and the verify runner.

Unbounded integers are always serialized as decimal strings (never native
JSON numbers).  Rationals render either exactly as ``p/q`` or as fixed-point
decimal strings with a configurable digit count, rounded half-even in integer
arithmetic.

The trajectory CSV renders the rows of the one row engine, `trajectory._rows`,
whose docstring states how it reads N0, K* and a off per-block counts and at
what cost; `write_trajectory_csv` states which cells share which numerator,
which denominators can tie, and how its row template keeps the digit limit.

The X* table of a length-n vector is written in one pass of `_xstar_totals`
over its one-positions, which sums X* and Y* as each row is written, one
`write` per row, in the layout `json.dump` with `indent=2` gives (that
encoder runs in pure Python and writes once per token, about 24,600 writes
for 2048 bits with 1024 ones).  The pass holds O(n) bits, where a table of
every row's theta_k, z_k and t_k would hold O(n m).  Every number printed is
below 2^(n + 2m + bits(m)), so a first pass converts X*, Y* and J through
str() only where that bound does not rule out the digit limit: a
digit-limit error writes nothing (`_write_xstar_rows`).
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections.abc import Iterable
from decimal import MAX_EMAX, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction

from .characteristics import (
    CharacteristicSet,
    _xstar_totals,
    ab_recurrence,
    apply_vector,
    char_set,
    cycle_fixed_point,
    g_of,
    is_member,
    p_recurrence,
    solve_n0,
)
from .core import ParityVector, PrefixGenerator, Record, parse_generator
from .trajectory import _rows, iter_trajectory

TYPE_CHECKING = False
if TYPE_CHECKING:  # IO is for annotations only; typing costs ms of every call's start
    from typing import IO

DEFAULT_PRECISION = 12


# No nonzero int/str digit limit is lower than this, and below it 10^digits
# is cheap to build: str() of the rounded value then makes the same check.
_LOWEST_DIGIT_LIMIT = getattr(sys.int_info, "str_digits_check_threshold", 640)
# the interpreter's int/str digit limit, 0 for none (interpreters before 3.10.7 have none)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digit_limit_error(limit: int, digits: int) -> ValueError:
    return ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion "
                      f"at precision {digits}; use sys.set_int_max_str_digits() "
                      "to increase the limit")


def _check_digit_limit(p: int, q: int, digits: int) -> None:
    """Raise the interpreter's digit-limit error if round(|p|/q * 10^digits) must pass it.

    |p|/q >= 2^e with e = floor(log2(|p|/q)), which is bits(p) - bits(q) or
    one less, so the rounded value is at least 10^(digits + e*log10(2));
    this bound needs no 10^digits, which at a precision of millions takes
    seconds to build.  It depends on the value of p/q alone, not on whether
    p/q is reduced.
    """
    limit = _digit_limit()
    if not limit:
        return
    p = abs(p)
    e = p.bit_length() - q.bit_length()
    if p << max(-e, 0) < q << max(e, 0):   # |p|/q < 2^e
        e -= 1
    # e*log10(2) rounded down, from 0.30102 < log10(2) < 0.30103
    if digits + e * (30102 if e >= 0 else 30103) // 100000 >= limit:
        raise _digit_limit_error(limit, digits)


def format_rational(x: Fraction, digits: int = DEFAULT_PRECISION, exact: bool = False) -> str:
    """Decimal-string rendering of an exact rational.

    `exact` gives the reduced p/q form; otherwise `_fixed` of its numerator
    and denominator.
    """
    if exact:
        return str(x)
    x = Fraction(x)
    return _fixed(x.numerator, x.denominator, digits)


def _fixed(p: int, q: int, digits: int) -> str:
    """p/q, q >= 1 and p/q not necessarily reduced, in fixed point with `digits` fractional digits.

    Rounded half to even in integer arithmetic.  From the lowest digit limit
    up, a nonzero value is first bounded against the interpreter's limit,
    so a precision of millions fails before 10^digits is built.
    """
    if digits < 0:
        raise ValueError(f"precision must be >= 0, got {digits}")
    if p and digits >= _LOWEST_DIGIT_LIMIT:
        _check_digit_limit(p, q, digits)
    scaled, rem = divmod(p * 10**digits, q) if p else (0, 0)   # 0 needs no 10^digits
    twice = rem << 1
    if twice > q or (twice == q and scaled & 1):
        scaled += 1
    if not digits:
        return str(scaled)
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{'-' if scaled < 0 else ''}{text[:-digits]}.{text[-digits:]}"


def _opt(x: int | None) -> str | None:
    return None if x is None else str(x)


def charset_to_json_dict(cs: CharacteristicSet) -> dict:
    return {
        "n": str(cs.n), "m": str(cs.m), "P": str(cs.P), "c": str(cs.c),
        "a": _opt(cs.a), "b": _opt(cs.b),
        "alpha": str(cs.alpha), "beta": str(cs.beta),
        "A": str(cs.A), "B": str(cs.B),
        "N0": str(cs.N0), "X": _opt(cs.X), "Y": _opt(cs.Y),
        "r0_num": str(cs.r0.numerator), "r0_den": str(cs.r0.denominator),
    }


def _write_xstar_rows(v: ParityVector, out: IO[str], first: str, rest: str, last: str) -> None:
    """Write `first`, then `rest`, % (k, j, theta_k, z_k, t_k) per row, then `last` % (X*, Y*, J).

    One pass of `_xstar_totals` writes each row as it is made and sums X* and
    Y*, holding O(n) bits.  z_k = 2^(j_k - 1) theta_k has n bits on every
    row, where str() is quadratic, so it is carried in a Decimal through the
    exact 3 z_k = 2^(j_k - j_(k-1)) z_(k-1) + s_k 2^n from z_0 = -1 at j_0 =
    1 (3 theta_k = theta_(k-1) + s_k 2^(n - j_k + 1), times 2^(j_k - 1)),
    linear work per row; no intermediate has more than n + 1 digits, and
    Inexact and Rounded are trapped.  theta_k, z_k < 2^n, t_k < 3^k, X* <
    m 2^n, Y* < m 3^m and |J| < m 2^n 3^m (a < 2^n, b < 3^m), so every
    number is below 2^(n + 2m + bits(m)).  Only where that does not rule out
    the digit limit does a first pass convert X*, Y* and J, the largest,
    through str().  So a number past the limit writes nothing, nor does a
    vector with no one, as `first` goes out with the first row.
    """
    n, m = v.n, v.ones
    limit = _digit_limit()
    # below 2^(limit * 3.32192) a number has at most `limit` digits, as 3.32192 < log2(10)
    if limit and (n + 2 * m + m.bit_length()) * 100000 > limit * 332192:
        list(map(str, _xstar_totals(v)))   # raises before anything is written
    with localcontext() as ctx:
        ctx.prec = n + 1
        ctx.Emax = MAX_EMAX   # the caller's context may cap the exponent lower
        ctx.traps[Inexact] = ctx.traps[Rounded] = True
        pow2n = Decimal(1 << n)
        z, last_j, row = Decimal(-1), 1, first

        def write_row(k: int, j: int, theta: int, _: int, t: int, s: int) -> None:
            nonlocal z, last_j, row
            z = (z * (1 << (j - last_j)) + s * pow2n) // 3
            out.write(row % (k, j, theta, z, t))
            last_j, row = j, rest

        totals = _xstar_totals(v, write_row)
    out.write(last % totals)


_JSON_ROW = ('    {\n      "k": %d,\n      "j": %d,\n      "theta": "%s",\n'
             '      "z": "%s",\n      "t": "%s"\n    }')


def write_xstar_json(v: ParityVector, out: IO[str]) -> None:
    """The X* table of v as JSON, byte for byte as `json.dump(..., indent=2)` and a newline give it.

    Integers other than k and j are decimal strings.  One pass over the
    one-positions, holding O(n) bits, writes each row as it is made and then
    X*, Y* and J; a number past the interpreter's digit limit writes nothing.
    """
    _write_xstar_rows(v, out, '{\n  "rows": [\n' + _JSON_ROW, ",\n" + _JSON_ROW,
                      '\n  ],\n  "Xstar": "%s",\n  "Ystar": "%s",\n  "J": "%s"\n}\n')


def write_xstar_table(v: ParityVector, out: IO[str]) -> None:
    """The X* table of v as fixed-width text, in the one O(n)-bit pass of `write_xstar_json`."""
    row = "%3d %5d %24s %24s %24s\n"
    header = f"{'k':>3} {'j_k':>5} {'theta_k':>24} {'z_k':>24} {'t_k':>24}\n"
    _write_xstar_rows(v, out, header + row, row, "Xstar = %s\nYstar = %s\nJ = %s\n")


TRAJECTORY_CSV_HEADER = (
    "j,n_j,m_j,P_j,c_j,a_j,b_j,N0_j,r0_j,q_j,K_j,Kstar_j,"
    "m_over_n,P_over_2n,P_over_2n3m,alpha_over_2n,A_over_3m,f2_over_2n"
)


def write_trajectory_csv(gen: PrefixGenerator, horizon: int, out: IO[str],
                         digits: int = DEFAULT_PRECISION, exact: bool = False) -> None:
    """Write the header and rows 1..horizon of `gen`, as `trajectory._rows` yields them.

    b = (3^m a + 1)/2^n and X = P a take one multiply each.  Each row is one
    `%` of a template built per call (a second, for m = 0, has the empty
    cells in it), in every mode.  A rational cell is a pair of template
    fields: %d.%0<digits>d at 1 digit or more, %d%.0s at 0 (which consumes
    the fraction and prints nothing), and %s%s with `exact`, filled with the
    reduced Fraction and "".  In fixed point the pair is s // 10^digits and
    s % 10^digits, where s = round(p 10^digits / q), half to even, is worked
    out once per numerator p:
      * N0 over 2^n gives r0, f2 = r0 (X = P a = N0 mod 2^n, and N0 < 2^n
        once m >= 1) and q = K + r0, as X = N0 + 2^n K;
      * B = P mod 2^n over 2^n gives P/2^n = A + B/2^n with A = P >> n, and
        the same A over 3^m gives A/3^m; alpha = P // 3^m over 2^n gives
        alpha/2^n;
      * m over n, and P over 2^n 3^m.
    Over 2^n and over n an exact half occurs, and the parity of the
    quotient breaks the tie; over 3^m (odd) and over 2^n 3^m (P mod 3 =
    2^(j_m - 1) mod 3 is not 0 once m >= 1) none can, and adding q // 2
    rounds.  The template fails a row where str() of each s would: the
    integer cells go through %d, which checks the digit limit as str()
    does; every other cell but q and P/2^n is at most 1; and once the
    integer part of q or P/2^n nears the limit in bit length, str() of it
    times 10^digits raises the interpreter's own error.  Below the limit
    the cells at most 1 have at most digits + 1 digits, which pass.  From
    the limit up, row 1 has a cell equal to 1 (m/n after a one, r0 = 2/2
    after a zero), whose 10^digits is past it, so the call fails when row
    1 arrives, before 10^digits is built.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    limit = _digit_limit()
    if exact:
        fixed = "%s%s"
    elif digits < 0:
        raise ValueError(f"precision must be >= 0, got {digits}")
    else:
        fixed = f"%d.%0{digits}d" if digits else "%d%.0s"
        # an integer part below 2^safe_bits is below 10^(limit - digits), as 3.32192 < log2(10)
        safe_bits = (limit - digits) * 332192 // 100000 if limit else sys.maxsize
    row = ",".join(["%d"] * 8 + [fixed, fixed, "%d", "%d"] + [fixed] * 6) + "\n"
    row0 = ",".join(["%d"] * 5 + ["", "", "%d", fixed, "", "", ""] + [fixed] * 5 + [""]) + "\n"
    past_limit = not exact and limit and digits >= limit
    scale = 1 if exact or past_limit else 10**digits

    out.write(TRAJECTORY_CSV_HEADER + "\n")
    rows = _rows(gen, horizon)
    if past_limit:
        next(rows)   # a source with no bits raises BitStreamExhausted here
        raise _digit_limit_error(limit, digits)
    for n, m, P, pow2, pow3, N0, kstar, a in rows:
        if exact:
            r0i, r0f = Fraction(N0, pow2), ""
            ratios = (Fraction(m, n), "", Fraction(P, pow2), "", Fraction(P, pow2 * pow3), "",
                      Fraction(P // pow3, pow2), "", Fraction(P >> n, pow3), "")
        else:
            # (t + 2^(n-1) - 1 + parity of t >> n) >> n rounds t/2^n half to even, and
            # (2t + n - 1 + parity of t // n) // 2n rounds t/n
            half = (pow2 >> 1) - 1
            t = N0 * scale
            r0i, r0f = divmod((t + half + (t >> n & 1)) >> n, scale)
            t = (P & pow2 - 1) * scale
            Bi, Bf = divmod((t + half + (t >> n & 1)) >> n, scale)
            t = P // pow3 * scale
            alpha = divmod((t + half + (t >> n & 1)) >> n, scale)
            t = m * scale
            m_n = divmod((2 * t + n - 1 + (t // n & 1)) // (2 * n), scale)
            q = pow2 * pow3
            P_q = divmod((P * scale + (q >> 1)) // q, scale)
            A = P >> n
            A_3m = divmod((A * scale + (pow3 >> 1)) // pow3, scale)
            Pi = A + Bi   # the integer part of P/2^n
            ratios = (*m_n, Pi, Bf, *P_q, *alpha, *A_3m)
        if m:
            K = (P * a - N0) >> n   # X = P a
            qi = K + r0i   # q = K + r0, in fixed point its integer part; f2 = r0
            if not exact and (qi.bit_length() > safe_bits or Pi.bit_length() > safe_bits):
                str(qi * scale), str(Pi * scale)   # raises where str(s) would
            out.write(row % (n, n, m, P, pow2 - pow3, a, (pow3 * a + 1) >> n, N0, r0i, r0f,
                             qi, r0f, K, kstar, *ratios, r0i, r0f))
        else:
            out.write(row0 % (n, n, m, P, pow2 - pow3, N0, r0i, r0f, *ratios))


# ---------------------------------------------------------------------------
# Fixture corpus
# ---------------------------------------------------------------------------
#
# A case's `input` and `expected` are JSON objects.  Bit vectors are
# bitstrings; the counts m, n, count and horizon are JSON numbers; every other
# integer is a decimal string and every rational a "p/q" string, as the CLI's
# JSON writes them; booleans are JSON booleans.  Each kind maps its input to a
# dict of named results in that encoding, and a case passes when every key of
# `expected` is among them with an equal value.


def _vector(inp: dict) -> ParityVector:
    return ParityVector.from_string(inp["v"])


def _strs(values: Iterable) -> list[str]:
    return [str(x) for x in values]


def _ab_results(inp: dict) -> dict:
    table = ab_recurrence(inp["m"], inp["n"])
    return {"a": str(table[-1][0]), "b": str(table[-1][1]),
            "table": [_strs(row) for row in table]}


def _xstar_results(inp: dict) -> dict:
    buf = io.StringIO()
    write_xstar_json(_vector(inp), buf)
    results = json.loads(buf.getvalue())
    rows = results.pop("rows")
    for key in ("theta", "z", "t"):
        results[key] = [row[key] for row in rows]
    return results


def _n0_results(inp: dict) -> dict:
    v = _vector(inp)
    n0 = solve_n0(v)
    return {"realizers": [str(n0 + (j << v.n)) for j in range(inp["count"])]}


def _g_eval_results(inp: dict) -> dict:
    v, N = _vector(inp), int(inp["N"])
    return {"value": str(g_of(v, N)), "member": is_member(v, N)}


def _trajectory_n0_results(inp: dict) -> dict:
    rows = iter_trajectory(parse_generator(inp["spec"]), inp["horizon"])
    return {"N0": [str(row.N0) for row in rows]}


_KIND_RESULTS = {
    "charset": lambda inp: charset_to_json_dict(char_set(_vector(inp))),
    "p-table": lambda inp: {"table": _strs(p_recurrence(_vector(inp)))},
    "ab": _ab_results,
    "xstar": _xstar_results,
    "n0": _n0_results,
    "apply": lambda inp: {"value": str(apply_vector(_vector(inp), int(inp["N"])))},
    "g-eval": _g_eval_results,
    "trajectory-n0": _trajectory_n0_results,
    "fixed-point": lambda inp: {"value": str(cycle_fixed_point(_vector(inp)))},
}

FIXTURE_KINDS = tuple(_KIND_RESULTS)


class FixtureCase(Record):
    """One self-contained worked example: re-runnable from its own fields alone."""

    __slots__ = ("id", "kind", "input", "expected", "source", "erratum")

    def __init__(self, id: str, kind: str, input: dict, expected: dict, source: str,
                 erratum: str | None = None):
        self._init(id, kind, input, expected, source, erratum)


class FixtureResult(Record):
    __slots__ = ("id", "kind", "source", "ok", "detail")

    def __init__(self, id: str, kind: str, source: str, ok: bool, detail: str = ""):
        self._init(id, kind, source, ok, detail)


class FixtureReport(Record):
    __slots__ = ("results",)

    def __init__(self, results: tuple[FixtureResult, ...]):
        self._init(results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)


def default_fixture_path() -> str:
    return os.path.join(os.path.dirname(__file__), "fixtures", "paper.jsonl")


def load_fixtures(path=None) -> list[FixtureCase]:
    """Load a JSONL fixture corpus; malformed lines are reported with their number."""
    # read whole before the CLI's first write, which may rewrite this file in place (--out)
    with open(default_fixture_path() if path is None else path, encoding="utf-8") as fh:
        text = fh.read()
    cases = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            case = FixtureCase(
                id=obj["id"], kind=obj["kind"], input=obj["input"],
                expected=obj["expected"], source=obj["source"],
                erratum=obj.get("erratum"),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed fixture at line {lineno}: {exc}") from None
        if not (all(isinstance(x, str) for x in (case.id, case.kind, case.source))
                and isinstance(case.erratum, (str, type(None)))):
            raise ValueError(f"malformed fixture at line {lineno}: id, kind and source must be "
                             "strings, and erratum a string or null")
        if case.kind not in FIXTURE_KINDS:
            raise ValueError(f"malformed fixture at line {lineno}: unknown kind {case.kind!r}")
        if not (isinstance(case.input, dict) and isinstance(case.expected, dict)):
            raise ValueError(f"malformed fixture at line {lineno}: "
                             "input and expected must be JSON objects")
        cases.append(case)
    return cases


def _compare(expected: dict, got: dict) -> str:
    """One problem per expected key that is missing from `got` or differs; empty if none."""
    problems = []
    for key, want in expected.items():
        want_text = json.dumps(want)
        if key not in got:
            problems.append(f"{key}: expected {want_text}, not produced")
        elif json.dumps(got[key]) != want_text:
            problems.append(f"{key}: expected {want_text}, got {json.dumps(got[key])}")
    return "; ".join(problems)


def run_fixtures(cases: Iterable[FixtureCase]) -> FixtureReport:
    """Execute every case against the library; report order is by id."""
    results = []
    for case in sorted(cases, key=lambda c: c.id):
        try:
            detail = _compare(case.expected, _KIND_RESULTS[case.kind](case.input))
        except Exception as exc:  # a crashing case is a failing case
            detail = f"error: {exc}"
        results.append(FixtureResult(case.id, case.kind, case.source, detail == "", detail))
    return FixtureReport(tuple(results))


def render_report_text(report: FixtureReport) -> str:
    lines = []
    for r in report.results:
        if r.ok:
            lines.append(f"PASS {r.id} [{r.kind}] {r.source}")
        else:
            lines.append(f"FAIL {r.id} [{r.kind}] {r.source}: {r.detail}")
    lines.append(f"{report.passed} passed, {report.failed} failed")
    return "\n".join(lines)


def report_to_json(report: FixtureReport) -> list[dict]:
    return [
        {"id": r.id, "kind": r.kind, "source": r.source, "ok": r.ok, "detail": r.detail}
        for r in report.results
    ]
