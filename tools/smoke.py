"""Smoke check of the library and the CLI contract, standard library only.

For interpreters that have no pytest.  Run it with the interpreter to check,
from any directory:

    python3 tools/smoke.py

It runs `verify`, every demo and a few CLI calls in child processes of the
same interpreter, with this checkout's src/ on PYTHONPATH, checks the
`trajectory` CSV (of fixed specs and of 30 seeded random ones) and the
`xstar --json` table byte for byte against renderings built from closed
forms (every CSV cell from the row's own properties, none through the CSV
writer), checks `classify` against the N0 of every prefix, diffed row to
row, and its rational diagnostics against closed forms, on fixed and seeded
random specs, checks in process that the CLI's parser, which builds a
command's flags when argparse reaches the command, parses and prints what a
parser built in full up front does, that `main` on an argv that starts with
a command, which it parses with that command's parser alone, exits and
prints what it does through the full top-level parser, and that the help
of every command, wrapped to a width the CLI's parser looks up once, is the
help argparse's own parser prints, checks that importing the CLI in a fresh
`python -I` loads none of the modules it has no use for at start-up, and
prints one PASS or FAIL line per check.
The exit status is 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
SIX_THOUSAND_ONES = "1" * 6000
# modules the CLI's import must not load: dataclasses pulls in inspect,
# importlib.resources is of no use for a path next to the package, and the
# package's annotations need no typing at run time
START_UP_EXCLUDED = ("dataclasses", "inspect", "importlib.resources", "typing")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, timeout=300)


def cli(*argv: str) -> subprocess.CompletedProcess:
    return run("-m", "collatz_parity.cli", *argv)


def check_verify() -> str:
    proc = cli("verify")
    last = proc.stdout.splitlines()[-1] if proc.stdout else ""
    if proc.returncode != 0 or not last.endswith(" 0 failed"):
        return f"exit {proc.returncode}, last line {last!r}"
    return ""


def check_demos() -> str:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = run(str(demo))
        if proc.returncode != 0:
            return f"{demo.name} exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return ""


def check_domain_errors() -> str:
    # exit 1 with exactly one line on stderr; a corpus whose ids are an int
    # and a string is refused when it is read, before it is sorted by id; a
    # source that runs dry at row 3 under a horizon of 10^8 fails at once,
    # since the CSV writer reads at most 256 bits before its first row;
    # an int: spec with a digit outside ASCII is refused, not read as 3
    case = {"kind": "n0", "input": {"v": "1", "count": 1}, "expected": {"realizers": ["1"]},
            "source": "x"}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "mixed-ids.jsonl")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write(f'{json.dumps({"id": 1, **case})}\n{json.dumps({"id": "a", **case})}\n')
        for argv in (("trajectory", "cycle:102", "--horizon", "5"),
                     ("trajectory", "bits:101", "--horizon", "10"),
                     ("trajectory", "bits:101", "--horizon", "100000000"),
                     ("trajectory", "int:\u0663", "--horizon", "5"),
                     ("solve", "10a1"),
                     ("verify", "--fixtures", corpus)):
            proc = cli(*argv)
            lines = proc.stderr.splitlines()
            if proc.returncode != 1 or len(lines) != 1 or not lines[0].startswith("error: "):
                return f"{' '.join(argv)}: exit {proc.returncode}, stderr {proc.stderr!r}"
    return ""


def check_usage_errors() -> str:
    # exit 64, one error line after the usage, nothing on stdout or in --out
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        for argv in (("frobnicate",),
                     ("trajectory", "int:27", "--precision", "-1"),
                     ("classify", "int:27", "--horizon", "3", "--window", "5"),
                     ("solve", "11", "--count", "0"),
                     ("--max-digits", "5", "analyze", "11"),
                     # sys.set_int_max_str_digits takes a C int
                     ("--max-digits", "2147483648", "analyze", "11")):
            proc = cli(*argv, "--out", path)
            errors = [line for line in proc.stderr.splitlines() if "error:" in line]
            if (proc.returncode != 64 or proc.stdout or len(errors) != 1
                    or os.path.exists(path)):
                return f"{' '.join(argv)}: exit {proc.returncode}, stderr {proc.stderr!r}"
    return ""


def check_success() -> str:
    proc = cli("analyze", "1101001")
    if proc.returncode != 0 or json.loads(proc.stdout)["N0"] != "11":
        return f"analyze 1101001: exit {proc.returncode}"
    return ""


def check_digit_limit() -> str:
    # X = P*a of 6000 ones has about 4670 decimal digits
    has_limit = hasattr(sys, "set_int_max_str_digits")
    proc = cli("analyze", SIX_THOUSAND_ONES)
    if has_limit:
        if (proc.returncode != 1 or len(proc.stderr.splitlines()) != 1
                or "--max-digits" not in proc.stderr):
            return f"default limit: exit {proc.returncode}, stderr {proc.stderr[:200]!r}"
    elif proc.returncode != 0:
        return f"no limit on this interpreter, yet exit {proc.returncode}"
    proc = cli("--max-digits", "0", "analyze", SIX_THOUSAND_ONES)
    if proc.returncode != 0 or len(json.loads(proc.stdout)["X"]) <= 4300:
        return f"--max-digits 0: exit {proc.returncode}, stderr {proc.stderr[:200]!r}"
    if has_limit:
        # the CSV of int:27 stops after row 2086, where an integer passes 640
        # digits; under a horizon of 10^8 it stops there too, at once, as the
        # writer reads its bits a block at a time and never the horizon whole
        first, second = (cli("--max-digits", "640", "trajectory", "int:27", "--horizon", h)
                         for h in ("2200", "100000000"))
        last = (first.stdout.splitlines() or [""])[-1].split(",", 1)[0]
        if (first.returncode != 1 or last != "2086" or "--max-digits" not in first.stderr
                or (second.returncode, second.stdout, second.stderr)
                != (first.returncode, first.stdout, first.stderr)):
            return (f"--max-digits 640 trajectory int:27: last row {last}, exit "
                    f"{first.returncode} and {second.returncode} at --horizon 2200 and "
                    f"100000000, stderr {second.stderr[:200]!r}")
    return ""


# `write_trajectory_csv` states how the CSV carries a, b and K*; the oracle
# renders every cell from the row's closed-form properties, and K* from X*
# of the row's prefix.  The writer fills one row template per call in every
# mode; its rational cells take a different template at 0 digits, at 1 digit
# or more (here 2, where short rows often round an exact half, the default
# precision, and 700, past the lowest digit limit) and as exact p/q.  The
# oracle rounds with Fraction's round(), half to even, and places the point
# with Decimal, so it shares no rounding code with the writer either.  A
# cell is empty where its property is None (m = 0).
CSV_MODES = (((), None, False), (("--precision", "2"), 2, False),
             (("--precision", "0"), 0, False), (("--precision", "700"), 700, False),
             (("--exact-rationals",), None, True))
CSV_INTEGERS = ("n", "m", "P", "c", "a", "b", "N0")
CSV_RATIONALS = ("r0", "q", "m_over_n", "P_over_2n", "P_over_2n3m", "alpha_over_2n",
                 "A_over_3m", "f2_over_2n")


def closed_form_rows(spec: str, horizon: int) -> list:
    """Per row: its integer cells, its rational values and its K and K* cells."""
    sys.path.insert(0, str(SRC))
    from collatz_parity import iter_trajectory, parse_generator, xstar_decompose

    def text(x) -> str:
        return "" if x is None else str(x)

    gen = parse_generator(spec)
    rows = []
    for row in iter_trajectory(gen, horizon):
        kstar = ""
        if row.m:
            kstar = str((xstar_decompose(gen.prefix(row.n)).Xstar - row.N0) >> row.n)
        rows.append(([str(row.n), *(text(getattr(row, name)) for name in CSV_INTEGERS)],
                     [getattr(row, name) for name in CSV_RATIONALS],
                     [text(row.K), kstar]))
    return rows


def closed_form_csv(rows: list, digits: int | None, exact: bool) -> str:
    sys.path.insert(0, str(SRC))
    from collatz_parity.report import DEFAULT_PRECISION, TRAJECTORY_CSV_HEADER

    digits = DEFAULT_PRECISION if digits is None else digits

    def render(x: Fraction | None) -> str:
        if x is None:
            return ""
        return str(x) if exact else f"{Decimal(f'{round(x * 10**digits)}E-{digits}'):f}"

    lines = [TRAJECTORY_CSV_HEADER]
    for integer_cells, values, k_cells in rows:
        r0, q, *ratios = map(render, values)
        lines.append(",".join([*integer_cells, r0, q, *k_cells, *ratios]))
    return "\n".join([*lines, ""])


def check_csv_oracle() -> str:
    # the CSV writer reads its bits in blocks that end at rows 256 and 300
    # here; cycle:1 has a one on every row, so each block recounts a one per
    # row so far, and past row 255 its column counts need 2-byte fields
    for spec in ("int:27", "cycle:1"):
        rows = closed_form_rows(spec, 300)
        for flags, digits, exact in CSV_MODES:
            proc = cli("trajectory", spec, "--horizon", "300", *flags)
            if proc.returncode != 0 or proc.stdout != closed_form_csv(rows, digits, exact):
                return (f"{spec} {' '.join(flags) or 'at the default precision'}: exit "
                        f"{proc.returncode}; the CSV differs from the closed-form rendering")
    return ""


def random_specs(rng: random.Random, count: int) -> list[str]:
    """int:N and head+cycle specs in turn; heads start with a 0 or a 1 in turn."""
    specs = []
    for i in range(count):
        if i % 2:
            head = "01"[i // 2 % 2] + "".join(rng.choice("01") for _ in range(rng.randint(0, 11)))
            cycle = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
            specs.append(f"head:{head};cycle:{cycle}")
        else:
            specs.append(f"int:{rng.randrange(1, 2 ** rng.randint(1, 64))}")
    return specs


def check_csv_random() -> str:
    # seeded stand-in for the pytest property: 30 random specs, each at a
    # horizon up to 600 (some past the CSV writer's block edges at rows 256
    # and 512) and in one of the rendering modes in turn
    rng = random.Random(16)
    for i, spec in enumerate(random_specs(rng, 30)):
        horizon = rng.randint(1, 600)
        flags, digits, exact = CSV_MODES[i % len(CSV_MODES)]
        proc = cli("trajectory", spec, "--horizon", str(horizon), *flags)
        expected = closed_form_csv(closed_form_rows(spec, horizon), digits, exact)
        if proc.returncode != 0 or proc.stdout != expected:
            return (f"{spec} --horizon {horizon} {' '.join(flags)}: exit {proc.returncode}; "
                    "the CSV differs from the closed-form rendering")
    return ""


def classify_oracle(gen, horizon: int, window: int) -> tuple:
    """(kind, candidate, stable_since, distinct_count, rows_computed, ones_in_window).

    From the char_set of every prefix, with N0 diffed between consecutive
    rows; row 1 has no row before it, so it is no change.
    """
    from collatz_parity import BitStreamExhausted, char_set

    rows = []
    for j in range(1, horizon + 1):
        try:
            rows.append(char_set(gen.prefix(j)))
        except BitStreamExhausted:
            return "inconclusive", None, None, None, j - 1, None
    changes = [cur.n for prev, cur in zip(rows, rows[1:]) if cur.N0 != prev.N0]
    ones = rows[-1].m - (rows[horizon - window - 1].m if horizon > window else 0)
    if changes and changes[-1] > horizon - window:
        return "growing", None, None, len({row.N0 for row in rows}), horizon, ones
    return "stabilized", rows[-1].N0, changes[-1] if changes else 1, None, horizon, ones


def diagnostics_oracle(gen, horizon: int) -> tuple:
    """(final_j, int_distance, m_over_n, P_over_2n) of the horizon-bit prefix.

    P as the weighted sum over the one-positions, and X = P*a with a =
    -3^-m mod 2^H by pow(): none of it through char_set.
    """
    ones = [j for j, e in enumerate(gen.prefix(horizon).bits, start=1) if e]
    m, pow2 = len(ones), 1 << horizon
    P = sum(3 ** (m - k) << (j - 1) for k, j in enumerate(ones, start=1))
    distance = None
    if m:
        frac = Fraction(P * (pow2 - pow(3, -m, pow2)) % pow2, pow2)
        distance = min(frac, 1 - frac)
    return horizon, distance, Fraction(m, horizon), Fraction(P, pow2)


def check_classify_oracle() -> str:
    # every field of the verdict that the rows decide, on cycle:0 and
    # cycle:01 (a lift at row 1 only, which is no change, shows when the
    # window is the whole horizon), random specs, and a bits: source that
    # runs dry before the horizon or lasts it
    sys.path.insert(0, str(SRC))
    from collatz_parity import classify, parse_generator

    rng = random.Random(17)
    specs = ["cycle:0", "cycle:01", *random_specs(rng, 30),
             "bits:" + "".join(rng.choice("01") for _ in range(100))]
    for spec in specs:
        gen = parse_generator(spec)
        for horizon in (rng.randint(1, 150), 40):
            for window in (rng.randint(1, horizon), horizon):
                v = classify(gen, horizon, window)
                ones = None if v.diagnostics is None else v.diagnostics.ones_in_window
                got = (v.kind, v.candidate, v.stable_since, v.distinct_count,
                       v.rows_computed, ones)
                expected = classify_oracle(gen, horizon, window)
                if v.diagnostics is not None:
                    d = v.diagnostics
                    got += (d.final_j, d.int_distance, d.m_over_n, d.P_over_2n)
                    expected += diagnostics_oracle(gen, horizon)
                if got != expected:
                    return f"{spec} --horizon {horizon} --window {window}: {got} != {expected}"
    return ""


def check_xstar_oracle() -> str:
    # the CLI takes each theta_k from the one before, and prints each z_k from
    # the one before through a Decimal; the oracle solves each theta from
    # scratch, 3^k theta = -1 mod 2^L with L = n - j_k + 1, and prints every
    # integer through str().  The first vector has 300 bits, 151 of them
    # ones; the second has its first one at bit 46 and a run of 1100 zeros
    for bits in (format(3**189, "b"), "0" * 45 + format(3**40, "b") + "0" * 1100 + "1011"):
        n = len(bits)
        ones = [j for j, ch in enumerate(bits, start=1) if ch == "1"]
        m = len(ones)
        rows = []
        for k, j in enumerate(ones, start=1):
            L = n - j + 1
            theta = (1 << L) - pow(3, -k, 1 << L)
            rows.append({"k": k, "j": j, "theta": str(theta), "z": str(theta << (j - 1)),
                         "t": str((3**k * theta + 1) >> L)})
        xstar = sum(int(r["z"]) for r in rows)
        ystar = sum(3 ** (m - r["k"]) * int(r["t"]) for r in rows)
        P = sum(3 ** (m - k) << (j - 1) for k, j in enumerate(ones, start=1))
        X = P * ((1 << n) - pow(3, -m, 1 << n))
        expected = {"rows": rows, "Xstar": str(xstar), "Ystar": str(ystar),
                    "J": str((X - xstar) >> n)}
        proc = cli("xstar", bits, "--json")
        # byte for byte: the CLI streams the layout json.dumps(..., indent=2) gives
        if proc.returncode != 0 or proc.stdout != json.dumps(expected, indent=2) + "\n":
            return f"{n} bits: exit {proc.returncode}; the X* table differs from the closed forms"
    return ""


def output(call, argv: list[str]) -> tuple:
    """(what call(argv) returns, or its exit code when it exits; stdout; stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, stdout.getvalue(), stderr.getvalue()


def check_lazy_parser() -> str:
    # the CLI's parser relies on argparse handing add_parser's keyword
    # arguments to the parser class and calling only parse_known_args on a
    # command's parser, main parses a command-first argv with the command's
    # parser alone, and argparse's formatting differs across interpreters
    sys.path.insert(0, str(SRC))
    from collatz_parity import cli

    def eager_command(add_flags, **kwargs):  # argparse's own parser class, flags added at once
        parser = cli._Parser(**kwargs)
        add_flags(parser)
        return parser

    def full_parse(argv):  # the top-level parser for every argv and every usage error
        parser = cli.build_parser()
        args = parser.parse_args(argv)
        if args.command == "classify" and args.window > args.horizon:
            parser.error(f"argument --window: must not exceed --horizon ({args.horizon})")
        return args

    argvs = [["-h"], [], ["frobnicate"], ["--max", "5000", "classify", "int:27"],
             ["--max-digits", "1", "classify", "int:27"], ["--max-digits=5000", "xstar", "-h"],
             ["classify", "int:27", "--horizon", "192", "--window", "32", "--json"]]
    # argvs that start with a command, which main parses with its parser alone:
    # a --window past --horizon, an argument the top-level parser reads as an
    # ambiguous option, a `--`, and each command's help, a missing, an unknown
    # and an extra argument
    first = [["classify", "int:27", "--horizon", "3", "--window", "5"],
             ["classify", "int:27", "--=x"], ["classify", "--", "int:27", "--horizon", "5"]]
    for name in cli._COMMANDS:
        first += [[name, "-h"], [name], [name, "--bogus"], [name, "0", "--bogus"], [name, "0", "0"]]
    argvs += first
    for width in ("80", "200"):
        # argparse wraps to the terminal width
        with mock.patch.dict(os.environ, {"COLUMNS": width}):
            lazy = [output(full_parse, argv) for argv in argvs]
            lazy += [output(cli.main, argv) for argv in first]
            with mock.patch.object(cli, "_Command", eager_command), \
                    mock.patch.object(cli, "_parse_args", full_parse):
                eager = [output(full_parse, argv) for argv in argvs]
                eager += [output(cli.main, argv) for argv in first]
        for argv, got, expected in zip(argvs + first, lazy, eager):
            if got != expected:
                return f"{' '.join(argv)}, width {width}: the output differs"
    return ""


def check_plain_help() -> str:
    # the CLI's parser looks the terminal width up once, when it is built,
    # and argparse's own parser once per help formatter; the help of every
    # command, and of the CLI, must wrap alike on every interpreter
    sys.path.insert(0, str(SRC))
    import argparse

    from collatz_parity import cli

    for width in ("40", "200"):
        with mock.patch.dict(os.environ, {"COLUMNS": width}):
            for name, (_, add_flags, _) in cli._COMMANDS.items():
                plain = argparse.ArgumentParser(prog=f"collatz-parity {name}")
                add_flags(plain)
                if output(cli.main, [name, "-h"]) != (0, plain.format_help(), ""):
                    return f"{name} -h, width {width}: the help differs"
            got = output(cli.main, ["-h"])
            with mock.patch.object(cli, "_Parser", argparse.ArgumentParser):
                if got != output(cli.main, ["-h"]):
                    return f"-h, width {width}: the help differs"
    return ""


def check_lean_import() -> str:
    # a fresh interpreter as the benchmark starts one; site may have loaded
    # any of these already, and only what the import adds counts
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import collatz_parity.cli; print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    added = [name for name in proc.stdout.split() if name in START_UP_EXCLUDED]
    return f"the import loads {', '.join(added)}" if added else ""


CHECKS = {
    "verify": check_verify,
    "demos": check_demos,
    "exit 0": check_success,
    "exit 1, one error line": check_domain_errors,
    "exit 64, nothing written": check_usage_errors,
    "digit limit and --max-digits": check_digit_limit,
    "trajectory CSV = closed forms": check_csv_oracle,
    "trajectory CSV of 30 random specs = closed forms": check_csv_random,
    "classify = the N0 of every prefix": check_classify_oracle,
    "xstar --json = closed forms": check_xstar_oracle,
    "the lazy parser = one built up front": check_lazy_parser,
    "help = argparse's own, at 40 and 200 columns": check_plain_help,
    "the CLI's import loads no dataclasses, inspect, importlib.resources or typing":
        check_lean_import,
}


def main() -> int:
    failed = 0
    version = ".".join(map(str, sys.version_info[:3]))
    for name, check in CHECKS.items():
        try:
            problem = check()
        except Exception as exc:  # a crashing check is a failing check
            problem = f"{type(exc).__name__}: {exc}"
        failed += bool(problem)
        print(f"FAIL {name}: {problem}" if problem else f"PASS {name}")
    print(f"python {version}: {len(CHECKS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
