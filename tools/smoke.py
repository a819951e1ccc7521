"""Smoke check of the library and the CLI contract, standard library only.

For interpreters that have no pytest.  Run it with the interpreter to check,
from any directory:

    python3 tools/smoke.py

It runs `verify`, every demo and CLI calls with this checkout's src/ on the
path, and compares the `trajectory` CSV in every rendering mode, the rows
of `iter_trajectory`, the `classify` text and --json document and the
`xstar` table and --json document, byte for byte, with tools/oracle.py,
which computes each number from its definition and imports nothing of the
package.  It compares the verdict `classify` takes in closed form for
`int:` and head+cycle specs with the one `char_set` gives for the same
bits as a `bits:` source, and with the verdict of a proxy that draws its
own bits and forwards every other name to the generator, as a tracing
wrapper does; and the a and b of its set and of `iter_trajectory`
rows with `char_set`'s: `classify` of an `int:` spec runs with `_solve_a`
made to raise and its set solves on the first read, and every other set is
read with `_solve_a` raising; and the bits
of `int:` orbits, core's `_steps` and byte-wise `_horner_p`, which read its
table of 8-step residues, with the oracle's plain steps and weighted sum.
It also checks the exit codes, the digit limit, that an existing --out
file holds exactly what each call wrote, that the CLI's lazily built
parsers, each kept for the life of the process, parse and print what new
parsers built in full up front do, each argv called twice at widths of 40,
200 and again 40 columns, and that importing the CLI loads no module it
has no use for at start-up.  It prints one PASS or FAIL line per check,
and exits 0 when every check passes and 1 otherwise.
"""

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import oracle  # tools/oracle.py, next to this script

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
    # exit 64, one error line after the usage, nothing on stdout or in --out,
    # and no name of a private helper (a flag's type function) on stderr
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        for argv in (("frobnicate",),
                     ("trajectory", "int:27", "--precision", "-1"),
                     ("classify", "int:27", "--horizon", "x"),
                     ("classify", "int:27", "--horizon", "3", "--window", "5"),
                     ("solve", "11", "--count", "0"),
                     ("--max-digits", "5", "analyze", "11"),
                     # sys.set_int_max_str_digits takes a C int
                     ("--max-digits", "2147483648", "analyze", "11")):
            proc = cli(*argv, "--out", path)
            errors = [line for line in proc.stderr.splitlines() if "error:" in line]
            if (proc.returncode != 64 or proc.stdout or len(errors) != 1
                    or " _" in proc.stderr or os.path.exists(path)):
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


def check_out_in_place() -> str:
    # an existing --out file is rewritten in place and cut to the written
    # length when the call ends (open without O_TRUNC, truncate() at the
    # written position if fstat says the file is regular): each command
    # writes a long output and then a short one into the same path, which
    # must then hold the short call's stdout, and the digit-limit stop of
    # the CSV over a prefilled file must end after row 2086 all the same
    with tempfile.TemporaryDirectory() as tmp:
        out, corpus = os.path.join(tmp, "out"), os.path.join(tmp, "one.jsonl")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write('{"id": "one", "kind": "n0", "input": {"v": "1", "count": 1}, '
                     '"expected": {"realizers": ["1"]}, "source": "x"}\n')
        for long, short in ((("analyze", "1" * 2000), ("analyze", "11")),
                            (("solve", "1011010111", "--count", "400"), ("solve", "11")),
                            (("xstar", "10" * 600, "--json"), ("xstar", "11", "--json")),
                            (("trajectory", "int:27", "--horizon", "300"),
                             ("trajectory", "int:27", "--horizon", "5")),
                            (("classify", "int:27", "--horizon", "200", "--window", "20",
                              "--json", "--precision", "300"),
                             ("classify", "int:27", "--horizon", "20", "--window", "5", "--json")),
                            (("verify", "--json"), ("verify", "--fixtures", corpus))):
            for argv in (long, short):
                proc = cli(*argv, "--out", out)
                if (proc.returncode, proc.stdout, proc.stderr) != (0, "", ""):
                    return f"{argv[0]} --out: exit {proc.returncode}, stderr {proc.stderr!r}"
            with open(out, encoding="utf-8") as fh:
                if fh.read() != cli(*short).stdout:
                    return f"{short[0]}: the --out file is not the short call's output"
        if hasattr(sys, "set_int_max_str_digits"):
            argv = ("--max-digits", "640", "trajectory", "int:27", "--horizon", "2200")
            with open(out, "w", encoding="utf-8") as fh:
                fh.write("x" * (5 << 20))  # longer than the 4.1 MB of rows written
            proc = cli(*argv, "--out", out)
            with open(out, encoding="utf-8") as fh:
                got = fh.read()
            if proc.returncode != 1 or got != cli(*argv).stdout:
                return (f"{' '.join(argv)} over a prefilled --out: exit {proc.returncode}, "
                        f"last row {(got.splitlines() or [''])[-1][:20]!r}")
    return ""


# The writer fills one row template per call in every mode; its rational
# cells take a different template at 0 digits, at 1 digit or more (here 2,
# where short rows often round an exact half, the default precision, and
# 640 and 700, from the lowest digit limit up) and as exact p/q.
CSV_MODES = (((), oracle.PRECISION, False), (("--precision", "2"), 2, False),
             (("--precision", "0"), 0, False), (("--precision", "640"), 640, False),
             (("--precision", "700"), 700, False), (("--exact-rationals",), oracle.PRECISION, True))


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


def check_csv_oracle() -> str:
    # int:27 and cycle:1 at a horizon of 300 in every mode: the CSV writer
    # reads their bits in blocks that end at rows 256 and 300; cycle:1 has a
    # one on every row, so each block recounts a one per row so far, and past
    # row 255 its column counts need 2-byte fields.  Then a seeded stand-in
    # for the pytest property: 30 random specs, each at a horizon up to 600
    # (some past the block edges at rows 256 and 512), in one mode each in turn
    rng = random.Random(16)
    cases = [(spec, 300, CSV_MODES) for spec in ("int:27", "cycle:1")]
    cases += [(spec, rng.randint(1, 600), [CSV_MODES[i % len(CSV_MODES)]])
              for i, spec in enumerate(random_specs(rng, 30))]
    for spec, horizon, modes in cases:
        rows = oracle.rows(oracle.spec_bits(spec, horizon))
        for flags, digits, exact in modes:
            proc = cli("trajectory", spec, "--horizon", str(horizon), *flags)
            if proc.returncode != 0 or proc.stdout != oracle.trajectory_csv(rows, digits, exact):
                return (f"{spec} --horizon {horizon} {' '.join(flags)}: exit {proc.returncode}; "
                        "the CSV differs from the oracle's")
    # iter_trajectory reads the same block rows as the writer: past the blocks ending
    # at rows 256 and 512, with cycle:1's column counts in 2-byte fields
    sys.path.insert(0, str(SRC))
    from collatz_parity import iter_trajectory, parse_generator

    for spec in ("int:27", "cycle:1"):
        got = [(r.n, r.m, r.P, r.N0) for r in iter_trajectory(parse_generator(spec), 600)]
        if got != [(r["n"], r["m"], r["P"], r["N0"])
                   for r in oracle.rows(oracle.spec_bits(spec, 600))]:
            return f"iter_trajectory {spec} 600: the rows differ from the oracle's"
    return ""


def check_classify_oracle() -> str:
    # the text and the --json document, each in the rendering modes in turn,
    # of cycle:0 and cycle:01 (a lift at row 1 only, which is no change,
    # shows when the window is the whole horizon), random specs, and a bits:
    # source that runs dry before the horizon or lasts it
    sys.path.insert(0, str(SRC))
    from collatz_parity import cli

    rng = random.Random(17)
    specs = ["cycle:0", "cycle:01", *random_specs(rng, 30),
             "bits:" + "".join(rng.choice("01") for _ in range(100))]
    for i, spec in enumerate(specs):
        flags, digits, exact = CSV_MODES[i % len(CSV_MODES)]
        for horizon in (rng.randint(1, 150), 40):
            bits = oracle.spec_bits(spec, horizon)
            for window in (rng.randint(1, horizon), horizon):
                argv = ["classify", spec, "--horizon", str(horizon), "--window", str(window),
                        *flags]
                expected = oracle.classify_outputs(bits, horizon, window, digits, exact)
                for layout, doc in zip(([], ["--json"]), expected):
                    if output(cli.main, argv + layout) != (0, doc, ""):
                        return f"{' '.join(argv + layout)}: the output differs from the oracle's"
    return ""


def check_classify_closed_form() -> str:
    # an int: or head+cycle spec gives classify its prefix state in closed
    # form, drawing no bit; the same bits as a bits: source take char_set of
    # the prefix.  The verdicts must agree field for field, at horizons up
    # to 2000, some inside a 300-bit head, and so must the verdict of a
    # proxy that draws its own bits and forwards every other name to the
    # spec, as a tracing wrapper does, with the spec's bits() raising.  The
    # iter_trajectory rows at the window and at the horizon, and the
    # head+cycle verdict's set, must hold char_set's a, and b from it, with
    # _solve_a raising: they keep a and solve nothing on read.  An int:
    # spec's N0 needs no a, so its classify runs with _solve_a raising, and
    # its set must give char_set's a and b on the first read, which solves.
    # A stand-in for the pytest tests
    sys.path.insert(0, str(SRC))
    from collatz_parity import (BitStreamGenerator, char_set, characteristics, classify,
                                iter_trajectory, parse_generator)

    def no_solve(m, n):
        raise AssertionError(f"_solve_a({m}, {n}) was called")

    def no_bits(self):
        raise AssertionError(f"{self.spec_string()[:40]} drew a bit")

    class Forwarding:  # its own bits(), drawn from gen; every other name is gen's
        def __init__(self, gen):
            self.gen = gen

        def bits(self):
            yield from self.gen.bits()

        def __getattr__(self, name):
            return getattr(self.gen, name)

    rng = random.Random(18)
    head = "".join(rng.choice("01") for _ in range(300))
    specs = [*random_specs(rng, 24), f"head:{head};cycle:10", f"head:1{head};cycle:011"]
    for spec in specs:
        gen = parse_generator(spec)
        lazy = spec.startswith("int:")
        for horizon in (rng.randint(1, 2000), 2000):
            bits = BitStreamGenerator(gen.prefix(horizon).bits)
            for window in (rng.randint(1, horizon), horizon):
                expected = classify(bits, horizon, window)
                solved = {j: char_set(gen.prefix(j)) for j in (window, horizon)}
                want = [(cs.a, cs.b) for cs in (*solved.values(), solved[horizon])]
                if not lazy:
                    got = classify(gen, horizon, window)
                with mock.patch.object(characteristics, "_solve_a", no_solve):
                    if lazy:
                        got = classify(gen, horizon, window)
                    kept = [(cs.a, cs.b) for cs in iter_trajectory(gen, horizon) if cs.n in solved]
                    if not lazy:
                        kept.append((got.prefix_set.a, got.prefix_set.b))
                if lazy:
                    kept.append((got.prefix_set.a, got.prefix_set.b))
                with mock.patch.object(type(gen), "bits", no_bits):
                    proxied = classify(Forwarding(gen), horizon, window)
                if got != expected or kept != want or proxied != got:
                    return (f"{spec[:40]} --horizon {horizon} --window {window}: "
                            "the closed form's verdict, its proxy's or a row differs from "
                            "char_set's")
    return ""


def check_byte_steps() -> str:
    # int: orbits walk 8 steps per lookup in core's table, core's _steps
    # counts odd terms the same way, and its _horner_p sums P a byte at a
    # time; each against
    # the oracle's plain steps and weighted sum, for integers of 1 to 2048
    # bits and counts of 0 to 300, some below 8 and some no multiple of 8:
    # a stand-in for the pytest properties
    sys.path.insert(0, str(SRC))
    from itertools import islice

    from collatz_parity.core import IntegerGenerator, _horner_p, _steps

    rng = random.Random(19)
    for i in range(200):
        N = rng.getrandbits(rng.randint(1, 2048)) | 1 << i % 3
        count = (0, 1, 7, 8, 9, rng.randint(0, 300))[i % 6]
        bits = oracle.spec_bits(f"int:{N}", count)
        x = N
        for _ in range(count):
            x = oracle.T(x)
        if list(islice(IntegerGenerator(N).bits(), count)) != bits:
            return f"int:{N % 10**12}... {count}: the bits differ from the oracle's"
        if _steps(N, count) != (x, sum(bits)):
            return f"_steps({N % 10**12}..., {count}) differs from the oracle's"
        if count and _horner_p(tuple(bits)) != oracle._P(oracle._ones(bits)):
            return f"_horner_p of int:{N % 10**12}...'s {count} bits differs from the oracle's"
    for n in (1, 7, 8, 9, 40, 256, 2049):
        for bits in ([0] * n, [1] * n, [1] + [0] * (n - 1)):
            if _horner_p(tuple(bits)) != oracle._P(oracle._ones(bits)):
                return f"_horner_p of a {n}-bit run differs from the oracle's"
    return ""


def check_xstar_oracle() -> str:
    # the CLI writes each row in one pass over the one-positions, taking
    # theta_k from the one before and summing X* and Y* as it goes, z_k
    # printed from the one before through a Decimal.  The oracle solves
    # each theta from scratch and prints every integer through str().  The
    # first vector has 300 bits, 151 of them ones; the second has its first
    # one at bit 46 and a run of 1100 zeros; the third has 4096 bits, half
    # of them ones, more than the benchmark's largest vector
    rng = random.Random(4096)
    ones = set(rng.sample(range(4096), 2048))
    for bits in (format(3**189, "b"), "0" * 45 + format(3**40, "b") + "0" * 1100 + "1011",
                 "".join("1" if i in ones else "0" for i in range(4096))):
        expected = oracle.xstar_outputs([int(ch) for ch in bits])
        for flags, doc in zip(((), ("--json",)), expected):
            proc = cli("xstar", bits, *flags)
            if proc.returncode != 0 or proc.stdout != doc:
                return (f"{len(bits)} bits {' '.join(flags)}: exit {proc.returncode}; the X* "
                        "table differs from the oracle's")
    if not hasattr(sys, "set_int_max_str_digits"):
        return ""
    # at 640 digits the bound 2^(n + 2m + bits(m)) on every number printed
    # no longer rules the limit out: 1200 bits with 600 ones convert X*, Y*
    # and J first and then fit, while Y* of 2000 ones passes the limit and
    # nothing is written
    ones = set(random.Random(1200).sample(range(1200), 600))
    bits = "".join("1" if i in ones else "0" for i in range(1200))
    expected = oracle.xstar_outputs([int(ch) for ch in bits])
    for flags, doc in zip(((), ("--json",)), expected):
        proc = cli("--max-digits", "640", "xstar", bits, *flags)
        if proc.returncode != 0 or proc.stdout != doc:
            return (f"--max-digits 640, 1200 bits {' '.join(flags)}: exit {proc.returncode}; "
                    "the X* table differs from the oracle's")
        proc = cli("--max-digits", "640", "xstar", "1" * 2000, *flags)
        if proc.returncode != 1 or proc.stdout != "" or "--max-digits" not in proc.stderr:
            return (f"--max-digits 640, 2000 ones {' '.join(flags)}: exit {proc.returncode}, "
                    f"{len(proc.stdout)} characters written")
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


def check_command_first_parse() -> str:
    # main parses a command-first argv with the command's parser alone and
    # every other argv with the top-level parser; both kinds of parser are
    # built once and kept, and argparse's formatting differs across
    # interpreters.  Each argv's parse and each command-first call must give
    # what a new top-level parser gives, at every width.
    sys.path.insert(0, str(SRC))
    from collatz_parity import cli

    def top_level_parse(argv):  # a new top-level parser, for every usage error too
        parser = cli.build_parser.__wrapped__()
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
    for width in ("40", "200", "40"):
        # argparse wraps to the terminal width, which a kept parser must not fix
        with mock.patch.dict(os.environ, {"COLUMNS": width}):
            new = [output(top_level_parse, argv) for argv in argvs]
            with mock.patch.object(cli, "_parse_args", top_level_parse):
                new += [output(cli.main, argv) for argv in first]
            for attempt in ("first", "second"):  # the second call reuses the kept parsers
                kept = [output(cli._parse_args, argv) for argv in argvs]
                kept += [output(cli.main, argv) for argv in first]
                for argv, got, expected in zip(argvs + first, kept, new):
                    if got != expected:
                        return (f"{' '.join(argv)}, width {width}, {attempt} call: "
                                "the output differs")
    return ""


def check_plain_help() -> str:
    # each parser, a command's and the top-level one, is kept from call to
    # call at whatever width it was built; the help of every command, called
    # twice at each width, and of the CLI must wrap as argparse's own new
    # parser wraps it, on every interpreter
    sys.path.insert(0, str(SRC))
    import argparse

    from collatz_parity import cli

    for width in ("40", "200", "40"):
        with mock.patch.dict(os.environ, {"COLUMNS": width}):
            for name, (_, add_flags, _) in cli._COMMANDS.items():
                plain = argparse.ArgumentParser(prog=f"collatz-parity {name}")
                add_flags(plain)
                for attempt in ("first", "second"):
                    if output(cli.main, [name, "-h"]) != (0, plain.format_help(), ""):
                        return f"{name} -h, width {width}, {attempt} call: the help differs"
            got = output(cli.main, ["-h"])  # the kept top-level parser
            with mock.patch.object(cli, "_Parser", argparse.ArgumentParser):
                if got != output(cli.build_parser.__wrapped__().parse_args, ["-h"]):
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
    "--out rewritten in place and cut at the end of the call": check_out_in_place,
    "trajectory CSV of 2 fixed and 30 random specs = the oracle": check_csv_oracle,
    "classify text and --json = the oracle": check_classify_oracle,
    "classify of int: specs with no solve, head+cycle specs and their forwarding proxies, "
    "and rows' a and b, = char_set": check_classify_closed_form,
    "int: bits, _steps and _horner_p, 8 bits per lookup, = the oracle": check_byte_steps,
    "xstar and xstar --json = the oracle": check_xstar_oracle,
    "a command-first parse = a new top-level parser's, at 40, 200 and again 40 columns":
        check_command_first_parse,
    "help = argparse's own, at 40, 200 and again 40 columns": check_plain_help,
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
