"""Command-line surface: analyze, solve, xstar, trajectory, classify, verify.

Exit status: 0 success, 1 domain error, 2 verification failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .characteristics import char_set, solve_n0, xstar_decompose
from .core import ParityVector, parse_generator
from .report import (
    DEFAULT_PRECISION,
    charset_to_json_dict,
    format_rational,
    load_fixtures,
    render_report_text,
    report_to_json,
    run_fixtures,
    write_trajectory_csv,
    xstar_to_json_dict,
)
from .trajectory import DEFAULT_HORIZON, DEFAULT_WINDOW, classify, iter_trajectory

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _add_rational_flags(sub):
    sub.add_argument("--precision", type=_non_negative_int, default=DEFAULT_PRECISION,
                     help="decimal digits for rationals (default 12)")
    sub.add_argument("--exact-rationals", action="store_true",
                     help="render rationals exactly as p/q")


def _add_out_flag(sub):
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="collatz-parity",
                     description="Characteristic numbers of Collatz parity vectors")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", parents=[], help="print the characteristic set as JSON")
    p.add_argument("bits", help="parity vector as a bitstring, first bit leftmost")
    _add_out_flag(p)

    p = subs.add_parser("solve", help="print the smallest realizers N0, N1, ...")
    p.add_argument("bits")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="how many realizers (default 1)")
    _add_out_flag(p)

    p = subs.add_parser("xstar", help="print the X* decomposition table")
    p.add_argument("bits")
    p.add_argument("--json", action="store_true")
    _add_out_flag(p)

    p = subs.add_parser("trajectory", help="stream order-j rows as CSV")
    p.add_argument("spec", help="generator spec: int:N | bits:... | cycle:... | "
                                "head:...;cycle:... | file:PATH")
    p.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    _add_rational_flags(p)
    _add_out_flag(p)

    p = subs.add_parser("classify", help="horizon-bounded realizability verdict")
    p.add_argument("spec")
    p.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    p.add_argument("--window", type=_positive_int, default=DEFAULT_WINDOW)
    p.add_argument("--json", action="store_true")
    _add_rational_flags(p)
    _add_out_flag(p)

    p = subs.add_parser("verify", help="replay the worked-example fixture corpus")
    p.add_argument("--fixtures", metavar="PATH", help="alternative JSONL corpus")
    p.add_argument("--json", action="store_true")
    _add_out_flag(p)

    return parser


def _open_out(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def _cmd_analyze(args) -> int:
    cs = char_set(ParityVector.from_string(args.bits))
    with _open_out(args) as out:
        json.dump(charset_to_json_dict(cs), out, indent=2)
        out.write("\n")
    return 0


def _cmd_solve(args) -> int:
    v = ParityVector.from_string(args.bits)
    n0 = solve_n0(v)
    with _open_out(args) as out:
        for j in range(args.count):
            out.write(f"{n0 + (j << v.n)}\n")
    return 0


def _cmd_xstar(args) -> int:
    dec = xstar_decompose(ParityVector.from_string(args.bits))
    with _open_out(args) as out:
        if args.json:
            json.dump(xstar_to_json_dict(dec), out, indent=2)
            out.write("\n")
            return 0
        out.write(f"{'k':>3} {'j_k':>5} {'theta_k':>24} {'z_k':>24} {'t_k':>24}\n")
        for r in dec.rows:
            out.write(f"{r.k:>3} {r.j:>5} {r.theta:>24} {r.z:>24} {r.t:>24}\n")
        out.write(f"Xstar = {dec.Xstar}\n")
        out.write(f"Ystar = {dec.Ystar}\n")
        out.write(f"J = {dec.J}\n")
    return 0


def _cmd_trajectory(args) -> int:
    gen = parse_generator(args.spec)
    with _open_out(args) as out:
        write_trajectory_csv(
            iter_trajectory(gen, args.horizon), out,
            digits=args.precision, exact=args.exact_rationals,
        )
    return 0


def _frac_text(x, args) -> str | None:
    return None if x is None else format_rational(x, args.precision, args.exact_rationals)


def _cmd_classify(args) -> int:
    gen = parse_generator(args.spec)
    verdict = classify(gen, args.horizon, args.window)
    d = verdict.diagnostics
    with _open_out(args) as out:
        if args.json:
            payload = {
                "kind": verdict.kind,
                "horizon": verdict.horizon,
                "window": verdict.window,
                "rows_computed": verdict.rows_computed,
                "candidate": None if verdict.candidate is None else str(verdict.candidate),
                "stable_since": verdict.stable_since,
                "distinct_count": verdict.distinct_count,
                "note": "horizon-bounded verdict; limits are not decidable from finitely many bits",
            }
            if d is not None:
                payload["diagnostics"] = {
                    "final_j": d.final_j,
                    "q_int_distance": _frac_text(d.q_distance, args),
                    "qstar_int_distance": _frac_text(d.qstar_distance, args),
                    "m_over_n": _frac_text(d.m_over_n, args),
                    "P_over_2n": _frac_text(d.P_over_2n, args),
                    "ones_in_window": d.ones_in_window,
                }
            json.dump(payload, out, indent=2)
            out.write("\n")
            return 0
        out.write(f"verdict: {verdict.kind} (horizon-bounded; horizon={verdict.horizon}, "
                  f"window={verdict.window}, rows={verdict.rows_computed})\n")
        if verdict.kind == "stabilized":
            out.write(f"candidate: {verdict.candidate} (stable since row {verdict.stable_since})\n")
        elif verdict.kind == "growing":
            out.write(f"distinct N0 values seen: {verdict.distinct_count}\n")
        if d is not None:
            out.write(f"final row {d.final_j}: m/n = {_frac_text(d.m_over_n, args)}, "
                      f"P/2^n = {_frac_text(d.P_over_2n, args)}\n")
            out.write(f"nearest-integer distance: q = {_frac_text(d.q_distance, args)}, "
                      f"q* = {_frac_text(d.qstar_distance, args)}\n")
            if d.ones_in_window == 0:
                out.write("warning: no 1 bits inside the final window "
                          "(all-zero tail would break the infinite-ones assumption)\n")
    return 0


def _cmd_verify(args) -> int:
    cases = load_fixtures(args.fixtures)
    report = run_fixtures(cases)
    with _open_out(args) as out:
        if args.json:
            json.dump(report_to_json(report), out, indent=2)
            out.write("\n")
        else:
            out.write(render_report_text(report) + "\n")
    return 0 if report.failed == 0 else 2


_COMMANDS = {
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "xstar": _cmd_xstar,
    "trajectory": _cmd_trajectory,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
