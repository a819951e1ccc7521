"""Command-line surface: analyze, solve, xstar, trajectory, classify, verify.

Exit status: 0 success, 1 domain error, 2 verification failure, 64 usage error.

A call that starts with a command parses with that command's parser alone,
which has its flags only (`_command_parser`).  Every other call (`-h`, no
or an unknown command, `--max-digits` first) and the usage errors a
command-first call leaves over (extra arguments, a `--window` past
`--horizon`) take the top-level parser (`build_parser`), a plain argparse
tree of every command.  argparse sets up each argument as it is added, so
the command-first path builds one command's flags where the tree builds
every command's.  Each parser is built on its first use and kept for the
life of the process; argparse looks the terminal width up each time it
formats help or usage, so a kept parser wraps to the width of each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from contextlib import AbstractContextManager, contextmanager, nullcontext
from fractions import Fraction

from .characteristics import char_set, solve_n0
from .core import ParityVector, parse_generator
from .report import (
    _LOWEST_DIGIT_LIMIT,
    DEFAULT_PRECISION,
    charset_to_json_dict,
    format_rational,
    load_fixtures,
    render_report_text,
    report_to_json,
    run_fixtures,
    write_trajectory_csv,
    write_xstar_json,
    write_xstar_table,
)
from .trajectory import DEFAULT_HORIZON, DEFAULT_WINDOW, GROWING, STABILIZED, classify

USAGE_ERROR = 64
_C_INT_MAX = 2**31 - 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int(text: str) -> int:
    """ASCII decimal digits after an optional "-", as the `int:` spec reads them.

    int() would take other scripts' digits, "_" and whitespace too.
    """
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    # argparse's own wording for type=int
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _int_at_least(text: str, low: int) -> int:
    value = _int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _max_digits(text: str) -> int:
    value = _int(text)
    if value != 0 and value < _LOWEST_DIGIT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be 0 (no limit) or >= {_LOWEST_DIGIT_LIMIT}, got {value}")
    if value > _C_INT_MAX:  # sys.set_int_max_str_digits takes a C int
        raise argparse.ArgumentTypeError(f"must be <= {_C_INT_MAX}, got {value}")
    return value


def _add_rational_flags(sub):
    sub.add_argument("--precision", type=_non_negative_int, default=DEFAULT_PRECISION,
                     help="decimal digits for rationals (default 12)")
    sub.add_argument("--exact-rationals", action="store_true",
                     help="render rationals exactly as p/q")


def _add_out_flag(sub):
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def _in_place(path: str, flags: int) -> int:
    """open()'s own open of `path`, with every flag and the creation mode, but no O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class _OutFile(AbstractContextManager):
    """The --out file, opened on the first write; a call that fails before then leaves it alone.

    An existing file is rewritten in place and cut to the written length on
    exit, on success or error, so it holds exactly what the call wrote: the
    truncating open of mode "w" cost more than a small call's arithmetic.
    A path that is no regular file (/dev/null, a FIFO, a tty) is written
    without a cut.  Writing in place is safe because every command reads its
    inputs (a `file:` spec, a `--fixtures` corpus) whole before its first
    write, so `--out` may name one of them.
    """

    def __init__(self, path: str):
        self.path, self.file = path, None

    def write(self, text: str) -> int:
        # the file's own write then shadows this method, so later writes skip a frame
        self.file = open(self.path, "w", encoding="utf-8", opener=_in_place)
        self.write = self.file.write
        return self.write(text)

    def __exit__(self, *exc):
        if self.file is not None:
            try:
                if stat.S_ISREG(os.fstat(self.file.fileno()).st_mode):
                    self.file.truncate()  # flushes, then cuts at the written position
            finally:
                self.file.close()


def _open_out(args):
    return _OutFile(args.out) if args.out else nullcontext(sys.stdout)


def _analyze_flags(p):
    p.add_argument("bits", help="parity vector as a bitstring, first bit leftmost")
    _add_out_flag(p)


def _cmd_analyze(args) -> int:
    cs = char_set(ParityVector.from_string(args.bits))
    with _open_out(args) as out:
        out.write(json.dumps(charset_to_json_dict(cs), indent=2) + "\n")
    return 0


def _solve_flags(p):
    p.add_argument("bits")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="how many realizers (default 1)")
    _add_out_flag(p)


def _cmd_solve(args) -> int:
    v = ParityVector.from_string(args.bits)
    n0 = solve_n0(v)
    # the last realizer is the largest: converted first, a digit-limit error writes nothing
    str(n0 + ((args.count - 1) << v.n))
    with _open_out(args) as out:
        for j in range(args.count):
            out.write(f"{n0 + (j << v.n)}\n")
    return 0


def _xstar_flags(p):
    p.add_argument("bits")
    p.add_argument("--json", action="store_true")
    _add_out_flag(p)


def _cmd_xstar(args) -> int:
    v = ParityVector.from_string(args.bits)
    with _open_out(args) as out:
        (write_xstar_json if args.json else write_xstar_table)(v, out)
    return 0


def _trajectory_flags(p):
    p.add_argument("spec", help="generator spec: int:N | bits:... | cycle:... | "
                                "head:...;cycle:... | file:PATH")
    p.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    _add_rational_flags(p)
    _add_out_flag(p)


def _cmd_trajectory(args) -> int:
    gen = parse_generator(args.spec)
    with _open_out(args) as out:
        write_trajectory_csv(
            gen, args.horizon, out,
            digits=args.precision, exact=args.exact_rationals,
        )
    return 0


def _classify_flags(p):
    p.add_argument("spec")
    p.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
    p.add_argument("--window", type=_positive_int, default=DEFAULT_WINDOW)
    p.add_argument("--json", action="store_true")
    _add_rational_flags(p)
    _add_out_flag(p)


def _frac_text(x: Fraction, args) -> str:
    return format_rational(x, args.precision, args.exact_rationals)


# the --json document as json.dumps(..., indent=2) lays it out; every string
# in it is a kind, a decimal integer or a rendered rational, none of which
# JSON escapes
_CLASSIFY_JSON = (
    '{\n  "kind": "%s",\n  "horizon": %d,\n  "window": %d,\n  "rows_computed": %d,\n'
    '  "candidate": %s,\n  "stable_since": %s,\n  "distinct_count": %s,\n'
    '  "note": "horizon-bounded verdict; limits are not decidable from finitely many bits"'
    '%s\n}\n')
_CLASSIFY_JSON_DIAGNOSTICS = (
    ',\n  "diagnostics": {\n    "final_j": %d,\n    "q_int_distance": %s,\n'
    '    "qstar_int_distance": %s,\n    "m_over_n": "%s",\n    "P_over_2n": "%s",\n'
    '    "ones_in_window": %d\n  }')


def _json_value(x, quote: bool = False) -> str:
    return "null" if x is None else f'"{x}"' if quote else str(x)


def _cmd_classify(args) -> int:
    verdict = classify(parse_generator(args.spec), args.horizon, args.window)
    cs = verdict.prefix_set
    if cs is not None:
        # each rational is rendered once, for either layout; q = X/2^n and
        # q* = X*/2^n differ from r0 = N0/2^n by integers, and need m >= 1
        m_over_n, P_over_2n = _frac_text(cs.m_over_n, args), _frac_text(cs.P_over_2n, args)
        if cs.m:
            pow2 = 1 << cs.n   # r0 = N0/2^n with 1 <= N0 <= 2^n
            distance = _frac_text(Fraction(min(cs.N0, pow2 - cs.N0), pow2), args)
        else:
            distance = None
    # the whole text is built before the first write, so an error writes nothing
    if args.json:
        diagnostics = "" if cs is None else _CLASSIFY_JSON_DIAGNOSTICS % (
            cs.n, _json_value(distance, True), _json_value(distance, True), m_over_n,
            P_over_2n, verdict.ones_in_window)
        text = _CLASSIFY_JSON % (
            verdict.kind, verdict.horizon, verdict.window, verdict.rows_computed,
            _json_value(verdict.candidate, True), _json_value(verdict.stable_since),
            _json_value(verdict.distinct_count), diagnostics)
    else:
        lines = [f"verdict: {verdict.kind} (horizon-bounded; horizon={verdict.horizon}, "
                 f"window={verdict.window}, rows={verdict.rows_computed})\n"]
        if verdict.kind == STABILIZED:
            lines.append(f"candidate: {verdict.candidate} "
                         f"(stable since row {verdict.stable_since})\n")
        elif verdict.kind == GROWING:
            lines.append(f"distinct N0 values seen: {verdict.distinct_count}\n")
        if cs is not None:
            lines.append(f"final row {cs.n}: m/n = {m_over_n}, P/2^n = {P_over_2n}\n")
            if distance is not None:
                lines.append(f"nearest-integer distance: q = {distance}, q* = {distance}\n")
            if verdict.ones_in_window == 0:
                lines.append("warning: no 1 bits inside the final window "
                             "(all-zero tail would break the infinite-ones assumption)\n")
        text = "".join(lines)
    with _open_out(args) as out:
        out.write(text)
    return 0


def _verify_flags(p):
    p.add_argument("--fixtures", metavar="PATH", help="alternative JSONL corpus")
    p.add_argument("--json", action="store_true")
    _add_out_flag(p)


def _cmd_verify(args) -> int:
    cases = load_fixtures(args.fixtures)
    report = run_fixtures(cases)
    with _open_out(args) as out:
        if args.json:
            out.write(json.dumps(report_to_json(report), indent=2) + "\n")
        else:
            out.write(render_report_text(report) + "\n")
    return 0 if report.failed == 0 else 2


# name: (help line, flag builder, run function), in the order the help lists them
_COMMANDS = {
    "analyze": ("print the characteristic set as JSON", _analyze_flags, _cmd_analyze),
    "solve": ("print the smallest realizers N0, N1, ...", _solve_flags, _cmd_solve),
    "xstar": ("print the X* decomposition table", _xstar_flags, _cmd_xstar),
    "trajectory": ("stream order-j rows as CSV", _trajectory_flags, _cmd_trajectory),
    "classify": ("horizon-bounded realizability verdict", _classify_flags, _cmd_classify),
    "verify": ("replay the worked-example fixture corpus", _verify_flags, _cmd_verify),
}


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command `name` with its flags, built on its first use in the process."""
    parser = _Parser(prog=f"collatz-parity {name}")
    _COMMANDS[name][1](parser)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every command's flags, built on its first use in the process."""
    parser = _Parser(prog="collatz-parity",
                     description="Characteristic numbers of Collatz parity vectors")
    parser.add_argument("--max-digits", type=_max_digits, metavar="N",
                        help="most decimal digits an integer may have in input or output, "
                             "0 for no limit (default: the interpreter's limit, 4300)")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        add_flags(subs.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The call's arguments; an argv that starts with a command takes that command's parser alone.

    The top-level parser could read an argument that starts with `--=` as an
    ambiguous abbreviation of --help or --max-digits before it dispatches,
    so an argv with one goes through the top-level parser whole.
    """
    name = argv[0] if argv else None
    if name not in _COMMANDS or any(arg.startswith("--=") for arg in argv):
        args = build_parser().parse_args(argv)
    else:
        args, extras = _command_parser(name).parse_known_args(argv[1:])
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        args.command, args.max_digits = name, None
    if args.command == "classify" and args.window > args.horizon:
        build_parser().error(f"argument --window: must not exceed --horizon ({args.horizon})")
    return args


@contextmanager
def _int_digit_limit(limit: int | None):
    """Set the interpreter's int/str digit limit for the call, then restore it.

    Interpreters older than 3.10.7 have no limit and nothing to set.
    """
    if limit is None or not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _error_text(exc: Exception) -> str:
    text = str(exc)
    if "int_max_str_digits" in text:  # int <-> str past the interpreter's limit
        return (f"an integer has more than {sys.get_int_max_str_digits()} decimal digits; "
                "rerun with --max-digits N before the command (0 for no limit)")
    return text


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    with _int_digit_limit(args.max_digits):
        try:
            _, _, run = _COMMANDS[args.command]
            return run(args)
        except (ValueError, OSError) as exc:
            print(f"error: {_error_text(exc)}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
