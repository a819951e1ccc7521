"""Serialization schemas, the worked-example fixture corpus, and the verify runner.

Unbounded integers are always serialized as decimal strings (never native
JSON numbers).  Rationals render either exactly as ``p/q`` or as fixed-point
decimal strings with a configurable digit count, rounded half-even.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import IO, Iterable

from .characteristics import (
    CharacteristicSet,
    XStarDecomposition,
    ab_recurrence,
    apply_vector,
    char_set,
    cycle_fixed_point,
    g_of,
    is_member,
    nth_realizer,
    p_recurrence,
    solve_n0,
    xstar_decompose,
)
from .core import ParityVector, parse_generator
from .trajectory import iter_trajectory

DEFAULT_PRECISION = 12


def format_rational(x: Fraction, digits: int = DEFAULT_PRECISION, exact: bool = False) -> str:
    """Decimal-string rendering of an exact rational.

    `exact` gives the reduced p/q form; otherwise fixed-point with `digits`
    fractional digits, round-half-even.
    """
    if exact:
        return str(x)
    if digits < 0:
        raise ValueError(f"precision must be >= 0, got {digits}")
    scale = 10**digits
    scaled = round(Fraction(x) * scale)  # Fraction.__round__ is half-even
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if digits == 0:
        return f"{sign}{scaled}"
    return f"{sign}{scaled // scale}.{scaled % scale:0{digits}d}"


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


def xstar_to_json_dict(dec: XStarDecomposition) -> dict:
    return {
        "rows": [
            {"k": r.k, "j": r.j, "theta": str(r.theta), "z": str(r.z), "t": str(r.t)}
            for r in dec.rows
        ],
        "Xstar": str(dec.Xstar),
        "Ystar": str(dec.Ystar),
        "J": str(dec.J),
    }


TRAJECTORY_CSV_HEADER = (
    "j,n_j,m_j,P_j,c_j,a_j,b_j,N0_j,r0_j,q_j,K_j,Kstar_j,"
    "m_over_n,P_over_2n,P_over_2n3m,alpha_over_2n,A_over_3m,f2_over_2n"
)


def trajectory_csv_line(row: CharacteristicSet, digits: int = DEFAULT_PRECISION,
                        exact: bool = False) -> str:
    def cell_int(x: int | None) -> str:
        return "" if x is None else str(x)

    def cell_frac(x: Fraction | None) -> str:
        return "" if x is None else format_rational(x, digits, exact)

    cells = [
        str(row.n), str(row.n), str(row.m), str(row.P), str(row.c),
        cell_int(row.a), cell_int(row.b), str(row.N0),
        cell_frac(row.r0), cell_frac(row.q), cell_int(row.K), cell_int(row.Kstar),
        cell_frac(row.m_over_n), cell_frac(row.P_over_2n), cell_frac(row.P_over_2n3m),
        cell_frac(row.alpha_over_2n), cell_frac(row.A_over_3m), cell_frac(row.f2_over_2n),
    ]
    return ",".join(cells)


def write_trajectory_csv(rows: Iterable[CharacteristicSet], out: IO[str],
                         digits: int = DEFAULT_PRECISION, exact: bool = False) -> None:
    out.write(TRAJECTORY_CSV_HEADER + "\n")
    for row in rows:
        out.write(trajectory_csv_line(row, digits, exact) + "\n")


# ---------------------------------------------------------------------------
# Fixture corpus
# ---------------------------------------------------------------------------

FIXTURE_KINDS = (
    "charset", "p-table", "ab", "xstar", "n0", "apply", "g-eval",
    "trajectory-n0", "fixed-point",
)


@dataclass(frozen=True)
class FixtureCase:
    """One self-contained worked example: re-runnable from its textual fields alone."""

    id: str
    kind: str
    input: str
    expected: str
    source: str
    erratum: str | None = None


@dataclass(frozen=True)
class FixtureResult:
    id: str
    kind: str
    source: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class FixtureReport:
    results: tuple[FixtureResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)


def default_fixture_path():
    return resources.files("collatz_parity").joinpath("fixtures/paper.jsonl")


def load_fixtures(path=None) -> list[FixtureCase]:
    """Load a JSONL fixture corpus; malformed lines are reported with their number."""
    src = default_fixture_path() if path is None else path
    if isinstance(src, str):
        with open(src, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = src.read_text(encoding="utf-8")
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
        if case.kind not in FIXTURE_KINDS:
            raise ValueError(f"malformed fixture at line {lineno}: unknown kind {case.kind!r}")
        cases.append(case)
    return cases


def _kv(text: str) -> dict[str, str]:
    out = {}
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {part!r}")
        out[key.strip()] = value.strip()
    return out


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _check_charset(case: FixtureCase) -> str:
    cs = char_set(ParityVector.from_string(case.input))
    problems = []
    for key, want in _kv(case.expected).items():
        got = getattr(cs, key)
        got_text = "absent" if got is None else str(got)
        if got_text != want:
            problems.append(f"{key}: expected {want}, got {got_text}")
    return "; ".join(problems)


def _check_p_table(case: FixtureCase) -> str:
    got = list(p_recurrence(ParityVector.from_string(case.input)))
    want = _int_list(case.expected)
    return "" if got == want else f"expected {want}, got {got}"


def _check_ab(case: FixtureCase) -> str:
    kv_in = _kv(case.input)
    m, n = int(kv_in["m"]), int(kv_in["n"])
    table = ab_recurrence(m, n)
    problems = []
    for key, want in _kv(case.expected).items():
        if key == "a":
            got = table[-1][0]
        elif key == "b":
            got = table[-1][1]
        elif key.startswith("a_"):
            got = table[int(key[2:]) - 1][0]
        elif key.startswith("b_"):
            got = table[int(key[2:]) - 1][1]
        else:
            raise ValueError(f"unknown ab key {key!r}")
        if str(got) != want:
            problems.append(f"{key}: expected {want}, got {got}")
    return "; ".join(problems)


def _check_xstar(case: FixtureCase) -> str:
    dec = xstar_decompose(ParityVector.from_string(case.input))
    problems = []
    for key, want in _kv(case.expected).items():
        if key in ("theta", "z", "t"):
            got = [getattr(r, key) for r in dec.rows]
            if got != _int_list(want):
                problems.append(f"{key}: expected {want}, got {got}")
        elif key in ("Xstar", "Ystar", "J"):
            got = getattr(dec, key)
            if str(got) != want:
                problems.append(f"{key}: expected {want}, got {got}")
        else:
            raise ValueError(f"unknown xstar key {key!r}")
    return "; ".join(problems)


def _check_n0(case: FixtureCase) -> str:
    v = ParityVector.from_string(case.input)
    want = _int_list(case.expected)
    got = [nth_realizer(v, j) for j in range(len(want))]
    return "" if got == want else f"expected {want}, got {got}"


def _check_apply(case: FixtureCase) -> str:
    kv = _kv(case.input)
    got = apply_vector(ParityVector.from_string(kv["v"]), int(kv["N"]))
    return "" if str(got) == case.expected else f"expected {case.expected}, got {got}"


def _check_g_eval(case: FixtureCase) -> str:
    kv = _kv(case.input)
    v = ParityVector.from_string(kv["v"])
    N = int(kv["N"])
    parts = case.expected.split(";")
    want_value = Fraction(parts[0])
    problems = []
    got = g_of(v, N)
    if got != want_value:
        problems.append(f"value: expected {want_value}, got {got}")
    for part in parts[1:]:
        key, _, val = part.partition("=")
        if key == "member":
            want_member = val == "true"
            if is_member(v, N) != want_member:
                problems.append(f"member: expected {want_member}")
    return "; ".join(problems)


def _check_trajectory_n0(case: FixtureCase) -> str:
    spec_text, sep, horizon_part = case.input.partition("|")
    if not sep or not horizon_part.startswith("horizon="):
        raise ValueError(f"trajectory-n0 input must be '<spec>|horizon=<H>', got {case.input!r}")
    gen = parse_generator(spec_text)
    horizon = int(horizon_part[len("horizon="):])
    got = [row.N0 for row in iter_trajectory(gen, horizon)]
    want = _int_list(case.expected)
    return "" if got == want else f"expected {want}, got {got}"


def _check_fixed_point(case: FixtureCase) -> str:
    got = cycle_fixed_point(ParityVector.from_string(case.input))
    want = Fraction(case.expected)
    return "" if got == want else f"expected {want}, got {got}"


_CHECKS = {
    "charset": _check_charset,
    "p-table": _check_p_table,
    "ab": _check_ab,
    "xstar": _check_xstar,
    "n0": _check_n0,
    "apply": _check_apply,
    "g-eval": _check_g_eval,
    "trajectory-n0": _check_trajectory_n0,
    "fixed-point": _check_fixed_point,
}


def run_fixtures(cases: Iterable[FixtureCase]) -> FixtureReport:
    """Execute every case against the library; report order is by id."""
    results = []
    for case in sorted(cases, key=lambda c: c.id):
        try:
            detail = _CHECKS[case.kind](case)
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
