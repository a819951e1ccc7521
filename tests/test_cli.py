"""Command-line surface: subcommands, flags, exit codes."""

import json

import pytest

from collatz_parity.cli import main
from collatz_parity.report import TRAJECTORY_CSV_HEADER, charset_to_json_dict
from collatz_parity import char_set, ParityVector


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


def test_exhausted_bit_source_is_a_one_line_error(capsys):
    code, out, err = run(capsys, "trajectory", "bits:101", "--horizon", "10")
    assert code == 1
    assert len(out.splitlines()) == 4  # the header and the three complete rows
    assert err.startswith("error: bit source exhausted") and len(err.splitlines()) == 1


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
        (["solve", "11", "--count", "0"], "--count"),
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
