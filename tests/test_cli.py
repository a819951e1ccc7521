"""Command-line surface: subcommands, flags, exit codes."""

import argparse
import importlib
import io
import json
import os
import stat
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import oracle
import pytest
from hypothesis import example, given, settings, strategies as st

from collatz_parity import characteristics, cli
from collatz_parity.cli import main
from collatz_parity.report import (
    TRAJECTORY_CSV_HEADER, charset_to_json_dict, default_fixture_path)
from collatz_parity import char_set, ParityVector


def _forget_parsers():
    cli._command_parser.cache_clear()
    cli.build_parser.cache_clear()


@pytest.fixture(autouse=True)
def fresh_command_parsers():
    """Each test starts and ends with no command parser and no top-level parser cached.

    The tests that count parsers and flag builds, or patch cli._Parser,
    would otherwise reuse a parser an earlier test cached and compare nothing.
    """
    _forget_parsers()
    yield
    _forget_parsers()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze(capsys):
    code, out, _ = run(capsys, "analyze", "1101001")
    assert code == 0
    assert '"P": "133"' in out
    cs = char_set(ParityVector.from_string("1101001"))
    cs.check()
    assert json.loads(out) == charset_to_json_dict(cs)


def test_analyze_solves_for_a_and_b_once(capsys):
    # char_set solves for a to get N0 and keeps (a, b) for the JSON's a, b, X and Y
    solve_ab = characteristics._solve_ab
    with mock.patch.object(characteristics, "_solve_ab", wraps=solve_ab) as counted:
        code, out, _ = run(capsys, "analyze", "1011010111")
    assert code == 0 and json.loads(out)["a"] == "221"
    assert counted.call_count == 1


def test_analyze_rejects_garbage(capsys):
    code, _, err = run(capsys, "analyze", "1102")
    assert code == 1
    assert "error" in err


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "1011010111", "--count", "5")
    assert code == 0
    assert [int(line) for line in out.split()] == [313, 1337, 2361, 3385, 4409]


def test_solve_count_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "11", "--count", "0"])
    assert exc.value.code == 64


def test_xstar_table(capsys):
    code, out, _ = run(capsys, "xstar", "1011010111")
    assert code == 0
    assert "Xstar = 4409" in out and "Ystar = 9422" in out and "J = 1214" in out


def test_xstar_json(capsys):
    code, out, _ = run(capsys, "xstar", "1011010111", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["Xstar"] == "4409"
    assert [r["theta"] for r in d["rows"]] == ["341", "199", "109", "15", "5", "3", "1"]


def test_trajectory_streams_csv(capsys):
    code, out, _ = run(capsys, "trajectory", "int:7", "--horizon", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert len(lines) == 9


def test_trajectory_deterministic(capsys):
    _, out1, _ = run(capsys, "trajectory", "head:1101;cycle:01", "--horizon", "40")
    _, out2, _ = run(capsys, "trajectory", "head:1101;cycle:01", "--horizon", "40")
    assert out1 == out2


def test_trajectory_exact_rationals(capsys):
    code, out, _ = run(capsys, "trajectory", "int:7", "--horizon", "3",
                       "--exact-rationals")
    assert code == 0
    assert "7/8" in out


def test_trajectory_out_file(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "trajectory", "int:27", "--horizon", "5",
                       "--out", str(path))
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER and len(lines) == 6


@pytest.mark.parametrize("argv", [
    ["analyze", "1011010111"],
    ["solve", "1011010111", "--count", "5"],
    ["xstar", "1" * 64, "--json"],
    ["trajectory", "int:27", "--horizon", "40"],
    ["classify", "int:27", "--horizon", "80", "--window", "10", "--json"],
    ["verify"],
], ids=lambda argv: argv[0])
def test_an_existing_out_file_holds_exactly_what_the_call_writes(capsys, tmp_path, argv):
    # --out is rewritten in place and cut to the written length at the end
    path = tmp_path / "old.out"
    path.write_bytes(b"x" * (1 << 20))
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and len(expected) < 1 << 20
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == expected


_FAILING_CASE = ('{"id": "bad", "kind": "n0", "input": {"v": "101110", "count": 1}, '
                 '"expected": {"realizers": ["8"]}, "source": "made up"}\n')


@pytest.mark.parametrize("text, argv, longer", [
    # the CSV is longer than the bit file, the --json report than its one failing case
    ("1011\n0110\n", ["trajectory", "file:@", "--horizon", "8"], True),
    (_FAILING_CASE, ["verify", "--fixtures", "@", "--json"], True),
    # the text report of the paper's corpus is shorter than the corpus
    (None, ["verify", "--fixtures", "@"], False),
], ids=["trajectory-file", "verify-json", "verify-shorter"])
def test_out_may_name_the_input_file(capsys, tmp_path, text, argv, longer):
    # every command reads its input whole before its first write; writing
    # --out in place relies on it
    path = tmp_path / "input"
    if text is None:
        text = Path(default_fixture_path()).read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    argv = [arg.replace("@", str(path)) for arg in argv]
    code, expected, _ = run(capsys, *argv)
    assert (len(expected) > len(text)) == longer
    assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
    assert path.read_text(encoding="utf-8") == expected


def test_out_to_a_device_is_not_cut(capsys):
    # /dev/null is no regular file, so the call writes without a truncate
    if not Path("/dev/null").exists():
        pytest.skip("no /dev/null here")
    assert run(capsys, "trajectory", "int:27", "--horizon", "40", "--out", "/dev/null") == (
        0, "", "")


@pytest.mark.parametrize("umask", [None, 0o002, 0o077], ids=["current", "002", "077"])
def test_a_new_out_file_gets_the_mode_of_open_w(capsys, tmp_path, umask):
    previous = None if umask is None else os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert run(capsys, "analyze", "11", "--out", str(tmp_path / "out"))[0] == 0
    finally:
        if previous is not None:
            os.umask(previous)
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == stat.S_IMODE(
        (tmp_path / "plain").stat().st_mode)


def test_out_naming_a_directory_is_a_one_line_error(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "11", "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_classify_growing(capsys):
    code, out, _ = run(capsys, "classify", "cycle:100", "--horizon", "40",
                       "--window", "10")
    assert code == 0
    assert "verdict: growing" in out
    assert "horizon-bounded" in out


def test_classify_stabilized_json(capsys):
    code, out, _ = run(capsys, "classify", "int:27", "--horizon", "80",
                       "--window", "20", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["kind"] == "stabilized" and d["candidate"] == "27"
    assert "horizon-bounded" in d["note"]
    assert d["diagnostics"]["final_j"] == 80


def test_classify_dry_source_is_inconclusive(capsys):
    code, out, _ = run(capsys, "classify", "bits:101", "--horizon", "10", "--window", "2")
    assert code == 0
    assert out == "verdict: inconclusive (horizon-bounded; horizon=10, window=2, rows=3)\n"
    code, out, _ = run(capsys, "classify", "bits:101", "--horizon", "10", "--window", "2",
                       "--json")
    assert code == 0
    d = json.loads(out)
    assert d["kind"] == "inconclusive" and d["rows_computed"] == 3
    assert d["candidate"] is None and "diagnostics" not in d


def test_classify_all_zero_stream_omits_the_distance_line(capsys):
    # the final row has m = 0, so q and q* are undefined: no text line, null in JSON
    argv = ("classify", "cycle:0", "--horizon", "40", "--window", "8")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "verdict: growing" in out and "final row 40" in out
    assert "nearest-integer distance" not in out and "None" not in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    d = json.loads(out)["diagnostics"]
    assert d["q_int_distance"] is None and d["qstar_int_distance"] is None


# the rendering flags, and the digits and exact arguments of the oracle
RENDERINGS = [([], 12, False), (["--precision", "0"], 0, False), (["--precision", "2"], 2, False),
              (["--precision", "640"], 640, False), (["--precision", "700"], 700, False),
              (["--exact-rationals"], 12, True)]


@pytest.mark.parametrize("spec, horizon, window", [
    ("int:27", 80, 20), ("cycle:100", 40, 10), ("cycle:0", 40, 8), ("head:1;cycle:0", 40, 10),
    ("bits:101", 10, 2), ("head:0110;cycle:100", 90, 90), ("cycle:01", 1, 1),
])
def test_classify_text_and_json_are_the_oracle(capsys, spec, horizon, window):
    # every field of the verdict and its diagnostics, in both layouts
    bits = oracle.spec_bits(spec, horizon)
    argv = ["classify", spec, "--horizon", str(horizon), "--window", str(window)]
    for flags, digits, exact in RENDERINGS:
        text, doc = oracle.classify_outputs(bits, horizon, window, digits, exact)
        assert run(capsys, *argv, *flags) == (0, text, "")
        assert run(capsys, *argv, *flags, "--json") == (0, doc, "")


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "0 failed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    results = json.loads(out)
    assert all(r["ok"] for r in results)
    assert len(results) >= 14


def test_verify_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "fixtures.jsonl"
    path.write_text('{"id": "bad", "kind": "n0", "input": {"v": "101110", "count": 1}, '
                    '"expected": {"realizers": ["8"]}, "source": "made up"}\n')
    code, out, _ = run(capsys, "verify", "--fixtures", str(path))
    assert code == 2
    assert "FAIL bad" in out


def test_verify_on_a_corpus_with_mixed_id_types_is_a_one_line_error(capsys, tmp_path):
    path, out = tmp_path / "fixtures.jsonl", tmp_path / "report.txt"
    case = {"kind": "n0", "input": {"v": "1", "count": 1}, "expected": {"realizers": ["1"]},
            "source": "x"}
    path.write_text(json.dumps({"id": 1, **case}) + "\n" + json.dumps({"id": "a", **case}) + "\n")
    code, stdout, err = run(capsys, "verify", "--fixtures", str(path), "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: malformed fixture at line 1")


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "trajectory", "cycle:102", "--horizon", "5")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("horizon", [sys.maxsize + 1, 10**23])
def test_a_horizon_past_sys_maxsize_is_a_one_line_error(capsys, horizon):
    # a bits: source is read through islice, which takes no longer stop;
    # int: and head+cycle specs draw no bits, yet take the same bound
    for spec in ("int:27", "cycle:10", "head:1101;cycle:01", "bits:101"):
        code, out, err = run(capsys, "classify", spec, "--horizon", str(horizon))
        assert (code, out) == (1, "")
        assert err == (f"error: prefix length must be 1 to sys.maxsize ({sys.maxsize}), "
                       f"got {horizon}\n")


def test_exhausted_bit_source_is_a_one_line_error(capsys):
    code, out, err = run(capsys, "trajectory", "bits:101", "--horizon", "10")
    assert code == 1
    assert len(out.splitlines()) == 4  # the header and the three complete rows
    assert err.startswith("error: bit source exhausted") and len(err.splitlines()) == 1


def test_a_source_that_runs_dry_past_the_first_block(capsys):
    # the CSV writer reads 256 bits, then asks for 256 more and gets 44; the
    # 300 rows before the source runs dry are written, and each is the
    # oracle's line
    spec = "bits:" + format(3**200, "b")[:300]
    code, out, err = run(capsys, "trajectory", spec, "--horizon", "600")
    assert code == 1
    assert err.startswith("error: bit source exhausted") and len(err.splitlines()) == 1
    assert out == oracle.trajectory_csv(oracle.rows(oracle.spec_bits(spec, 600)))


def test_negative_precision_is_a_usage_error(capsys, tmp_path):
    # and so are a horizon, window or count below 1
    path = tmp_path / "rows.csv"
    for argv, flag in (
        (["trajectory", "int:27", "--horizon", "3", "--precision", "-1"], "--precision"),
        (["classify", "int:27", "--horizon", "3", "--window", "2", "--precision", "-1"],
         "--precision"),
        (["trajectory", "int:27", "--horizon", "0"], "--horizon"),
        (["classify", "int:27", "--horizon", "0", "--window", "1"], "--horizon"),
        (["classify", "int:27", "--horizon", "3", "--window", "0"], "--window"),
        (["classify", "int:27", "--horizon", "3", "--window", "5"], "--window"),
        (["solve", "11", "--count", "0"], "--count"),
        (["--max-digits", "1", "analyze", "11"], "--max-digits"),
        (["--max-digits", "2147483648", "analyze", "11"], "--max-digits"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(path)])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err
        assert not path.exists()
    with pytest.raises(SystemExit) as exc:
        main(["trajectory", "int:27", "--precision", "-1"])
    assert exc.value.code == 64
    assert capsys.readouterr().out == ""


def test_digit_limit_is_an_error_naming_max_digits(capsys):
    # X = P*a of 6000 ones has about 4670 digits, past the default 4300
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "analyze", "1" * 6000)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--max-digits" in err and str(limit) in err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["table", "json"])
def test_xstar_past_the_digit_limit_writes_nothing(capsys, tmp_path, flags, to_file):
    # Y* of 2000 ones has 958 digits, but the first t_k past 640 digits is
    # at k = 1343, after rows that a writer converting row by row would write
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    path = tmp_path / "xstar.out"
    path.write_text("keep\n")
    out_flag = ["--out", str(path)] if to_file else []
    code, out, err = run(capsys, "--max-digits", "640", "xstar", "1" * 2000, *flags, *out_flag)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "--max-digits" in err
    assert path.read_text() == "keep\n"  # the --out file is opened on the first write


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["table", "json"])
def test_xstar_of_an_all_zero_vector_writes_nothing(capsys, tmp_path, flags, to_file):
    # the writers' one pass raises on its first row, before the header goes out with it
    path = tmp_path / "xstar.out"
    path.write_text("keep\n")
    out_flag = ["--out", str(path)] if to_file else []
    code, out, err = run(capsys, "xstar", "0000", *flags, *out_flag)
    assert (code, out) == (1, "")
    assert err == "error: X* needs at least one 1 bit (m >= 1)\n"
    assert path.read_text() == "keep\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("argv", [
    # X = P*a of 6000 ones has about 4670 digits
    ["analyze", "1" * 6000],
    # the distance line is the first past 4300 digits; the lines before it
    # must not be written either
    ["classify", "int:27", "--horizon", "50", "--window", "5", "--precision", "5000"],
    # N0 of a 14283-bit vector has 4300 digits, and the third realizer 4301
    ["solve", "1" + "0" * 14282, "--count", "40"],
], ids=["analyze", "classify", "solve"])
def test_a_call_past_the_digit_limit_writes_nothing(capsys, tmp_path, argv, to_file):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    path = tmp_path / "old.out"
    path.write_text("keep\n")
    out_flag = ["--out", str(path)] if to_file else []
    code, out, err = run(capsys, *argv, *out_flag)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "--max-digits" in err
    assert path.read_text() == "keep\n"


@pytest.mark.parametrize("to_file, prefill", [(False, 0), (True, 0), (True, 5 << 20)],
                         ids=["stdout", "out", "out-prefilled"])
def test_trajectory_stops_at_the_first_row_past_the_digit_limit(capsys, tmp_path, to_file,
                                                                prefill):
    # q of row 2087 has an integer part of 629 digits, and 641 at the default
    # precision of 12; the integer cells first pass 640 digits at row 2127.
    # A prefilled --out file, longer than the 4.1 MB of rows written, is cut
    # after row 2086 all the same
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    path = tmp_path / "rows.csv"
    if prefill:
        path.write_bytes(b"x" * prefill)
    out_flag = ["--out", str(path)] if to_file else []
    code, out, err = run(capsys, "--max-digits", "640", "trajectory", "int:27",
                         "--horizon", "2200", *out_flag)
    text = path.read_text() if to_file else out
    assert code == 1 and out == ("" if to_file else text)
    assert text.startswith(TRAJECTORY_CSV_HEADER + "\n") and text.endswith("\n")
    assert [line.split(",", 1)[0] for line in text.splitlines()[1:]] == [
        str(j) for j in range(1, 2087)]
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--max-digits" in err


# The last row each digit-limit stop writes.  With --precision 600 the
# integer part of q passes 640 - 600 digits; at 0 digits the integer cells
# stop the run, and with --exact-rationals the numerator or denominator of a
# cell.  From the limit up (4300 and 4301 at the default limit), row 1
# already has a cell equal to 1, 10^digits scaled, so only the header is
# written.
_STOP_ROWS = [
    (["--max-digits", "640", "trajectory", "int:27", "--horizon", "2200", "--precision", "600"],
     132),
    (["--max-digits", "640", "trajectory", "int:27", "--horizon", "2200", "--precision", "0"],
     2126),
    (["--max-digits", "640", "trajectory", "int:27", "--horizon", "2200", "--exact-rationals"],
     1064),
    (["--max-digits", "700", "trajectory", "int:27", "--horizon", "2200", "--precision", "650"],
     166),
    (["--max-digits", "1000", "trajectory", "cycle:1", "--horizon", "2500", "--precision", "900"],
     209),
    *((["trajectory", spec, "--precision", precision], 0)
      for spec in ("int:27", "bits:0", "bits:1") for precision in ("4300", "4301")),
]


@pytest.mark.parametrize("argv, last_row", _STOP_ROWS,
                         ids=[" ".join(argv) for argv, _ in _STOP_ROWS])
def test_trajectory_digit_limit_stop_rows(capsys, argv, last_row):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    if "--max-digits" not in argv and sys.get_int_max_str_digits() != 4300:
        pytest.skip("the interpreter's digit limit is not the default 4300")
    code, out, err = run(capsys, *argv)
    assert code == 1
    header, *lines = out.split("\n")
    assert header == TRAJECTORY_CSV_HEADER and lines.pop() == ""
    assert [line.split(",", 1)[0] for line in lines] == [str(j) for j in range(1, last_row + 1)]
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--max-digits" in err


def test_a_huge_precision_fails_at_once(capsys):
    # 10^4000000 alone takes seconds to build; the rounded value's digit count
    # is bounded from bit lengths first.  Zero renders at any precision.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    for argv, before_error in (
            (["classify", "int:27", "--horizon", "50", "--window", "5"], ""),
            (["trajectory", "int:27", "--horizon", "50"], TRAJECTORY_CSV_HEADER + "\n")):
        _, out_5000, err_5000 = run(capsys, *argv, "--precision", "5000")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--precision", "4000000")
        assert time.perf_counter() - start < 0.2
        assert code == 1 and out == out_5000 == before_error and err == err_5000
        assert "--max-digits" in err and len(err.splitlines()) == 1
    code, out, err = run(capsys, "classify", "cycle:0", "--horizon", "40", "--window", "8",
                         "--precision", "5000")
    zero = "0." + "0" * 5000
    assert code == 0 and err == ""
    assert f"m/n = {zero}, P/2^n = {zero}\n" in out


def test_max_digits_takes_any_c_int(capsys):
    code, out, err = run(capsys, "--max-digits", str(2**31 - 1), "analyze", "11")
    assert code == 0 and err == "" and json.loads(out)["N0"] == "3"


def test_max_digits_zero_lifts_the_limit(capsys):
    before = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    code, out, err = run(capsys, "--max-digits", "0", "analyze", "1" * 6000)
    assert code == 0 and err == ""
    d = json.loads(out)
    assert len(d["X"]) > 4300 and d["X"].isdigit()
    X = char_set(ParityVector.from_string("1" * 6000)).X
    digits = len(d["X"])
    assert 10 ** (digits - 1) <= X < 10**digits and int(d["X"][-30:]) == X % 10**30
    if before is not None:  # the limit is the caller's again after the call
        assert sys.get_int_max_str_digits() == before


# The CLI contract on argvs from a small grammar: every subcommand and a bogus
# one, valid and malformed vectors, specs and flag values, --max-digits before
# the command, and --out.  "@" in an argument stands for a fresh directory per
# example, holding a small bit file, a failing and a malformed fixture corpus.
def mostly(valid, invalid):
    """`valid` three draws in four, `invalid` in the fourth."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else invalid)


BAD_INTS = st.sampled_from(["-1", "0", "x"])
ONES_AND_ZEROS = st.text("01", min_size=1, max_size=64)
VECTORS = mostly(ONES_AND_ZEROS, st.sampled_from(["", "1x", "102", "bits:1x", "-1"]))
SPECS = mostly(
    st.one_of(
        st.integers(1, 10**6).map(lambda N: f"int:{N}"),
        ONES_AND_ZEROS.map(lambda bits: f"bits:{bits}"),
        st.tuples(st.text("01", max_size=16), st.text("01", min_size=1, max_size=16)).map(
            lambda hc: f"head:{hc[0]};cycle:{hc[1]}"),
        st.just("file:@/bits.txt"),
    ),
    st.sampled_from(["int:0", "int:", "int:x", "bits:1x", "bits:", "head:1", "cycle:",
                     "cycle:12", "file:@/missing", "nonsense"]),
)
SMALL = mostly(st.integers(1, 64).map(str), BAD_INTS)
FLAG_VALUES = {
    "--count": mostly(st.integers(1, 8).map(str), BAD_INTS),
    "--horizon": SMALL,
    "--window": SMALL,
    # under --max-digits 0 a precision of d digits builds 10^d, so none is large
    "--precision": mostly(st.sampled_from(["0", "3", "5000"]), st.sampled_from(["-1", "x"])),
    "--fixtures": st.sampled_from(["@/failing.jsonl", "@/malformed.jsonl", "@/missing"]),
    "--json": None,
    "--exact-rationals": None,
    "--out": None,  # always @/out
}
COMMANDS = {
    "analyze": ["--out"],
    "solve": ["--count", "--out"],
    "xstar": ["--json", "--out"],
    "trajectory": ["--precision", "--exact-rationals", "--out"],
    "classify": ["--window", "--json", "--precision", "--exact-rationals", "--out"],
    "verify": ["--fixtures", "--json", "--out"],
    "frobnicate": [],
}
MAX_DIGITS = mostly(st.sampled_from(["0", "640", "5000", str(2**31 - 1)]),
                    st.sampled_from(["-1", "x", "1", str(2**31), "99999999999999999999"]))


@st.composite
def argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--max-digits", draw(MAX_DIGITS)]
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv.append(command)
    if command in ("analyze", "solve", "xstar"):
        argv.append(draw(VECTORS))
    elif command in ("trajectory", "classify"):
        # --horizon is always given, to keep the default 256 rows out
        argv += [draw(SPECS), "--horizon", draw(SMALL)]
    # mostly the command's own flags, now and then one it does not take
    own = COMMANDS[command] or ["--json"]
    names = draw(st.lists(mostly(st.sampled_from(own), st.sampled_from(sorted(FLAG_VALUES))),
                          max_size=3, unique=True))
    for name in names:
        argv.append(name)
        if name == "--out":
            argv.append("@/out")
        elif FLAG_VALUES[name] is not None:
            argv.append(draw(FLAG_VALUES[name]))
    return argv


def _make_tmp(tmp: str) -> None:
    """The files "@" arguments name: a bit file, a failing and a malformed corpus."""
    Path(tmp, "bits.txt").write_text("1011\n0110\n")
    Path(tmp, "failing.jsonl").write_text(
        '{"id": "bad", "kind": "n0", "input": {"v": "101110", "count": 1}, '
        '"expected": {"realizers": ["8"]}, "source": "made up"}\n')
    Path(tmp, "malformed.jsonl").write_text("{not json\n")


def _call(argv, tmp: str):
    """main(argv) with "@" standing for `tmp`: exit code, stdout, stderr, --out bytes or None."""
    out_path = Path(tmp, "out")
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main([arg.replace("@", tmp) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    written = out_path.read_bytes() if out_path.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argvs())
# classify builds its text before the first write: its distance line is past
# the default 4300-digit limit, so nothing may be written
@example(["classify", "int:27", "--horizon", "50", "--window", "5", "--precision", "5000"])
@example(["classify", "int:27", "--horizon", "50", "--window", "5", "--precision", "5000",
          "--out", "@/out"])
def test_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _make_tmp(tmp)
        code, out, err, written = _call(argv, tmp)
        err = err.splitlines()
        assert code in (0, 1, 2, 64)
        if code == 0:
            assert err == []
            assert out == "" or "--out" not in argv
        elif code == 1:
            assert len(err) == 1 and err[0].startswith("error: ")
            if "trajectory" not in argv:
                # only the trajectory CSV streams; a failed call writes nothing
                assert out == "" and written is None
        elif code == 64:
            assert out == "" and written is None
            assert err and ": error: " in err[-1]


# main parses an argv that starts with a command by the command's parser
# alone; the top-level parser, a plain argparse tree of every command, must
# give the same bytes, exit code and --out file
def _full_parse(argv):
    """Every argv through the top-level parser, which also reports a --window past --horizon."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if args.command == "classify" and args.window > args.horizon:
        parser.error(f"argument --window: must not exceed --horizon ({args.horizon})")
    return args


def _assert_scoped_equals_full(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _make_tmp(tmp)
        scoped = _call(argv, tmp)
        with mock.patch.object(cli, "_parse_args", _full_parse):
            full = _call(argv, tmp)
    assert scoped == full


def _count_flag_builds(monkeypatch) -> list:
    """Wrap each flag builder in cli._COMMANDS; the list names each command whose flags are built."""
    built = []
    for name, (help_text, add_flags, run) in list(cli._COMMANDS.items()):
        def counting(parser, name=name, add_flags=add_flags):
            built.append(name)
            add_flags(parser)
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, counting, run))
    return built


def _count_parsers(monkeypatch) -> list:
    """Wrap cli._Parser's constructor; the list holds the prog of each parser built."""
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counting)
    return built


def _bench_calls(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    return [call for name in workloads.WORKLOADS for call in workloads.make_calls(name, seed)]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_scoped_parser_equals_full_parser(argv):
    _assert_scoped_equals_full(argv)


# command: the command the argv names, None for none
@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv, command", [
    (["-h"], None),
    *[([name, "-h"], name) for name in sorted(cli._COMMANDS)],
    ([], None),
    (["frobnicate"], None),
    (["frobnicate", "classify"], None),
    (["--max-digits", "5000", "classify", "-h"], "classify"),
    (["--max-digits=5000", "xstar", "-h"], "xstar"),
    (["--max", "5000", "classify", "int:27"], "classify"),
    (["--max-digits", "1", "classify", "int:27"], "classify"),
    (["classify", "int:27", "--horizon", "3", "--window", "5"], "classify"),
    (["classify", "int:27", "--bogus"], "classify"),
    (["classify", "int:27", "--=x"], "classify"),
    (["classify", "--", "int:27", "--horizon", "5"], "classify"),
    (["solve", "1011", "--count", "0"], "solve"),
])
def test_scoped_parser_equals_full_parser_on_help_and_errors(monkeypatch, argv, command,
                                                             columns):
    monkeypatch.setenv("COLUMNS", columns)  # argparse wraps help to the terminal width
    _assert_scoped_equals_full(argv)
    _forget_parsers()
    # a call that starts with a command builds that command's flags; one
    # that takes the top-level parser, for its argv or for its usage error,
    # builds every command's; neither builds any flags again
    command_first = argv[:1] == [command] and "--=x" not in argv
    built = _count_flag_builds(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        _, _, err, _ = _call(argv, tmp)
        top_level = not command_first or "collatz-parity: error: " in err
        assert built == [command] * command_first + list(cli._COMMANDS) * top_level
        built.clear()
        _call(argv, tmp)
    assert built == []


def test_a_call_builds_only_the_flags_of_its_command(monkeypatch, tmp_path):
    # a first call that starts with a command builds that command's parser
    # and no other; a first call that takes the top-level parser builds it
    # with every command's parser and flags; the same call again builds none
    cases = [([*call.argv, "--out", "@/out"], call.argv[0], False)
             for call in _bench_calls(monkeypatch, 1)]
    cases += [(["classify", "-h"], "classify", False),
              (["-h"], None, True), ([], None, True), (["frobnicate"], None, True),
              (["--max", "5000", "classify", "int:27"], None, True),
              (["--max-digits", "5000", "xstar", "-h"], None, True),
              (["classify", "int:27", "--bogus"], "classify", True)]
    tree = ["collatz-parity", *(f"collatz-parity {name}" for name in cli._COMMANDS)]
    built = _count_flag_builds(monkeypatch)
    parsers = _count_parsers(monkeypatch)
    for argv, command, top_level in cases:
        _forget_parsers()
        for first in (True, False):
            built.clear()
            parsers.clear()
            _call(argv, str(tmp_path))
            own = [command] if first and command else []
            assert built == own + list(cli._COMMANDS) * (first and top_level), argv
            progs = [f"collatz-parity {name}" for name in own]
            assert parsers == progs + tree * (first and top_level), argv


@pytest.mark.parametrize("argvs", [
    [["classify", "int:27", "--horizon", "40", "--window", "8", "--json", "--exact-rationals",
      "--precision", "3"], ["classify", "int:27", "--horizon", "40", "--window", "8"]],
    [["--max-digits", "5000", "classify", "int:27", "--json"], ["classify", "int:27"]],
    [["--max-digits", "5000", "classify", "int:27", "--horizon", "40", "--window", "8", "--json",
      "--exact-rationals"], ["--max-digits", "5000", "classify", "int:27", "--horizon", "40",
                             "--window", "8"]],
    [["trajectory", "int:7", "--horizon", "5", "--exact-rationals", "--out", "@/out"],
     ["trajectory", "int:7", "--horizon", "5"]],
])
def test_parsed_values_do_not_carry_over_between_calls(tmp_path, argvs):
    # a cached parser keeps no value from the call before: each call gives
    # what it gives with no parser cached
    fresh = []
    for argv in argvs:
        _forget_parsers()
        fresh.append(_call(argv, str(tmp_path)))
    _forget_parsers()
    assert [_call(argv, str(tmp_path)) for argv in argvs] == fresh
    assert fresh[0] != fresh[1]


class _PlainParser(argparse.ArgumentParser):
    """argparse's own parser, with the CLI's exit code for a usage error."""

    error = cli._Parser.error


HELP_AND_USAGE_ERRORS = [
    ["-h"],
    *[[name, "-h"] for name in sorted(cli._COMMANDS)],
    ["--max-digits", "5000", "xstar", "-h"],
    ["frobnicate"],
    ["classify"],
    ["trajectory", "int:27", "--horizon", "0"],
    ["classify", "int:27", "--horizon", "3", "--window", "5"],
]


# every parser built as argparse builds it must print the same help and errors
@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS)
def test_help_and_usage_errors_wrap_as_argparse_wraps_them(monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    with tempfile.TemporaryDirectory() as tmp:
        got = _call(argv, tmp)
        _forget_parsers()
        with mock.patch.object(cli, "_Parser", _PlainParser):
            expected = _call(argv, tmp)
    assert got == expected
    assert got[0] in (0, 64) and "usage: collatz-parity" in got[1] + got[2]
    if argv[0] in cli._COMMANDS and argv[-1] == "-h":
        # the command's flags on a plain parser, wrapped to the same width
        plain = argparse.ArgumentParser(prog=f"collatz-parity {argv[0]}")
        cli._COMMANDS[argv[0]][1](plain)
        assert got[1] == plain.format_help()


@pytest.mark.parametrize("argv", HELP_AND_USAGE_ERRORS)
def test_a_parser_cached_at_80_columns_wraps_to_the_width_of_each_call(monkeypatch, argv):
    # argparse looks the terminal width up each time it formats help or usage
    widths = ("200", "40", "80")
    expected = {}
    for columns in widths:
        monkeypatch.setenv("COLUMNS", columns)
        with mock.patch.object(cli, "_Parser", _PlainParser), \
                tempfile.TemporaryDirectory() as tmp:
            expected[columns] = _call(argv, tmp)
        _forget_parsers()
    if argv[-1] == "-h":
        assert expected["200"] != expected["40"]
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.setenv("COLUMNS", "80")
        _call(argv, tmp)
        for columns in widths:
            monkeypatch.setenv("COLUMNS", columns)
            assert _call(argv, tmp) == expected[columns], columns


# usage errors the top-level parser reports with its own usage line, though
# a command-first call found them by the command's parser or after it
TOP_LEVEL_USAGE = ("usage: collatz-parity [-h] [--max-digits N]\n"
                   "                      {analyze,solve,xstar,trajectory,classify,verify} ...\n")


@pytest.mark.parametrize("argv, message", [
    (["classify", "int:27", "--horizon", "3", "--window", "5"],
     "argument --window: must not exceed --horizon (3)"),
    (["classify", "int:27", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_errors_in_the_top_level_parser_voice(monkeypatch, capsys, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 64 and captured.out == ""
    assert captured.err == f"{TOP_LEVEL_USAGE}collatz-parity: error: {message}\n"


@pytest.mark.parametrize("parse", ["command-first", "top-level"])
@pytest.mark.parametrize("argv, flag, value", [
    (["classify", "int:27", "--horizon", "x"], "--horizon", "x"),
    (["classify", "int:27", "--window", "1.5"], "--window", "1.5"),
    (["solve", "11", "--count", "abc"], "--count", "abc"),
    (["trajectory", "int:27", "--precision", ""], "--precision", ""),
    (["--max-digits", "abc", "analyze", "11"], "--max-digits", "abc"),
])
def test_a_non_integer_flag_value_names_no_helper(monkeypatch, capsys, argv, flag, value, parse):
    # argparse's own wording for type=int, not the name of the CLI's type function
    if parse == "top-level":
        monkeypatch.setattr(cli, "_parse_args", _full_parse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 64 and captured.out == ""
    assert captured.err.endswith(f" error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("parse", ["command-first", "top-level"])
@pytest.mark.parametrize("argv, flag, value", [
    (["classify", "int:27", "--horizon", "\u0664\u0660"], "--horizon", "\u0664\u0660"),
    (["classify", "int:27", "--horizon", "40", "--window", "1_0"], "--window", "1_0"),
    (["classify", "int:27", "--horizon", "\uff14\uff10"], "--horizon", "\uff14\uff10"),
    (["classify", "int:27", "--window", "+5"], "--window", "+5"),
    (["classify", "int:27", "--window", " 5"], "--window", " 5"),
    (["solve", "11", "--count", "3 "], "--count", "3 "),
    (["trajectory", "int:27", "--precision", "-\u0661"], "--precision", "-\u0661"),
    (["--max-digits", "\u0665\u0660\u0660\u0660", "analyze", "11"], "--max-digits",
     "\u0665\u0660\u0660\u0660"),
])
def test_integer_flags_take_ascii_digits_only(monkeypatch, capsys, argv, flag, value, parse):
    # a flag reads an integer by the int: spec's rule: ASCII digits, here
    # after an optional "-", and no other script's digits, "_", "+" or space
    if parse == "top-level":
        monkeypatch.setattr(cli, "_parse_args", _full_parse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 64 and captured.out == ""
    assert captured.err.endswith(f" error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("argv", [
    ["classify", "int:27", "--horizon", "040", "--window", "08"],
    ["trajectory", "int:27", "--horizon", "3", "--precision", "-0"],
])
def test_integer_flags_take_leading_zeros(capsys, argv):
    plain = [str(int(arg)) if arg.lstrip("-").isdigit() else arg for arg in argv]
    assert run(capsys, *argv) == run(capsys, *plain)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_build_parser_keeps_every_command(monkeypatch, seed):
    # the benchmark parses its classify calls with build_parser() to run
    # classify alone: one kept parser, which parses as the command-first path
    argvs = [call.argv for call in _bench_calls(monkeypatch, seed)]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS) - {"verify"}
    argvs.append(("verify", "--json", "--fixtures", "corpus.jsonl"))
    parser = cli.build_parser()
    for argv in argvs:
        assert parser.parse_args(argv) == cli._parse_args(list(argv))
        assert cli.build_parser() is parser
