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
    results = xstar_to_json_dict(xstar_decompose(_vector(inp)))
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


@dataclass(frozen=True)
class FixtureCase:
    """One self-contained worked example: re-runnable from its own fields alone."""

    id: str
    kind: str
    input: dict
    expected: dict
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
