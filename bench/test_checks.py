"""Tests for the benchmark's output checks: each must accept the program's
real output and reject a corrupted copy of it.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from collatz_parity import cli  # noqa: E402


def cli_output(tmp_path, argv) -> str:
    out = tmp_path / "out.txt"
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def replace_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_call_of_a_seeded_round_passes(tmp_path, name):
    calls = workloads.make_calls(name, 7)
    assert [c.argv for c in calls] == [c.argv for c in workloads.make_calls(name, 7)]
    for call in calls:
        assert call.check(cli_output(tmp_path, call.argv)) == ""


def test_seeds_change_the_inputs():
    assert [c.argv for c in workloads.make_calls("trajectory-int", 1)] != \
           [c.argv for c in workloads.make_calls("trajectory-int", 2)]


N, H = 27, 40


@pytest.fixture
def trajectory_csv(tmp_path):
    return cli_output(tmp_path, ["trajectory", f"int:{N}", "--horizon", str(H)])


def check_trajectory(text):
    return checks.trajectory_csv(N, H, 12, text)


def test_trajectory_accepts_real_output(trajectory_csv):
    assert check_trajectory(trajectory_csv) == ""


def test_trajectory_rejects_n0_off_by_a_power_of_two(trajectory_csv):
    j = 3
    n0 = int(trajectory_csv.split("\n")[j].split(",")[7])
    bad = replace_cell(trajectory_csv, j, 7, str(n0 + (1 << j)))
    assert "N0_j" in check_trajectory(bad)


def test_trajectory_rejects_r0_rounded_the_wrong_way(tmp_path):
    # Find a row whose 12-digit r0 is inexact, and round it the other way.
    N, H = 3, 60
    text = cli_output(tmp_path, ["trajectory", f"int:{N}", "--horizon", str(H)])
    for j in range(1, H + 1):
        N0 = (N - 1) % (1 << j) + 1
        num, den = N0 * 10**12, 1 << j
        if num % den:
            cell = text.split("\n")[j].split(",")[8]
            whole, frac = cell.split(".")
            floor = num // den
            other = floor if int(whole + frac) == floor + 1 else floor + 1
            bad = replace_cell(text, j, 8, f"{other // 10**12}.{other % 10**12:012d}")
            assert "r0_j" in checks.trajectory_csv(N, H, 12, bad)
            return
    pytest.fail("no row with an inexact r0")


@pytest.mark.parametrize("row,col,value", [
    (5, 3, "1"),          # P_j
    (5, 4, "0"),          # c_j
    (5, 5, "2"),          # a_j no longer solves the characteristic equation
    (5, 10, "0"),         # K_j
])
def test_trajectory_rejects_corrupted_cells(trajectory_csv, row, col, value):
    assert check_trajectory(replace_cell(trajectory_csv, row, col, value)) != ""


def test_trajectory_rejects_missing_row(trajectory_csv):
    lines = trajectory_csv.split("\n")
    assert "rows" in check_trajectory("\n".join(lines[:-2] + [""]))


def test_fixed_point_text_rounds_half_even():
    assert checks.fixed_point_text(1, 8, 2) == "0.12"     # 0.125 -> even
    assert checks.fixed_point_text(3, 8, 2) == "0.38"     # 0.375 -> even
    assert checks.fixed_point_text(1, 3, 3) == "0.333"
    assert checks.fixed_point_text(2, 2, 0) == "1"


def test_prefix_realizers_match_the_classic_table():
    # Example 2.6, Table 1 of the paper: the stream 11010011010010...
    bits = [int(ch) for ch in "11010011"]
    assert checks.prefix_realizers(bits) == [1, 3, 3, 11, 11, 11, 11, 139]


def classify_call(spec, stream, candidate):
    return ["classify", spec, "--horizon", "64", "--window", "8", "--json"], \
        lambda text: checks.classify_json(stream[:64], 64, 8, 12, candidate, text)


def test_classify_accepts_and_rejects(tmp_path):
    argv, check = classify_call("int:27", checks.parity_bits(27, 64), 27)
    text = cli_output(tmp_path, argv)
    assert check(text) == ""
    payload = json.loads(text)
    assert "kind" in check(json.dumps({**payload, "kind": "growing"}))
    assert "candidate" in check(json.dumps({**payload, "candidate": "28"}))
    other = {**payload, "diagnostics": {**payload["diagnostics"], "ones_in_window": 0}}
    assert "ones_in_window" in check(json.dumps(other))


def test_classify_rejects_a_wrong_growing_count(tmp_path):
    stream = [1, 0, 0] * 64
    argv, check = classify_call("cycle:100", stream, None)
    text = cli_output(tmp_path, argv)
    assert check(text) == ""
    payload = json.loads(text)
    assert payload["kind"] == "growing"
    bad = {**payload, "distinct_count": payload["distinct_count"] + 1}
    assert "distinct_count" in check(json.dumps(bad))


VECTOR = "".join(random.Random(3).choice("01") for _ in range(200)) + "1"


def test_analyze_rejects_a_wrong_n0(tmp_path):
    text = cli_output(tmp_path, ["analyze", VECTOR])
    assert checks.analyze_json(VECTOR, text) == ""
    d = json.loads(text)
    bad = {**d, "N0": str(int(d["N0"]) + 1)}
    assert "N0" in checks.analyze_json(VECTOR, json.dumps(bad))
    bad = {**d, "X": str(int(d["X"]) + 1)}
    assert "X" in checks.analyze_json(VECTOR, json.dumps(bad))


def test_solve_rejects_a_wrong_realizer(tmp_path):
    text = cli_output(tmp_path, ["solve", VECTOR, "--count", "3"])
    assert checks.solve_text(VECTOR, 3, text) == ""
    lines = text.split("\n")
    lines[2] = str(int(lines[2]) + (1 << len(VECTOR)))
    assert "realizer 2" in checks.solve_text(VECTOR, 3, "\n".join(lines))


def test_xstar_rejects_an_even_theta_and_a_wrong_ystar(tmp_path):
    text = cli_output(tmp_path, ["xstar", VECTOR, "--json"])
    assert checks.xstar_json(VECTOR, text) == ""
    d = json.loads(text)
    row = d["rows"][0]
    theta = int(row["theta"]) + 1
    rows = [{**row, "theta": str(theta), "z": str(theta << (row["j"] - 1))}] + d["rows"][1:]
    assert "even" in checks.xstar_json(VECTOR, json.dumps({**d, "rows": rows}))
    bad = {**d, "Ystar": str(int(d["Ystar"]) + 1)}
    assert "Y*" in checks.xstar_json(VECTOR, json.dumps(bad))
    bad = {**d, "J": str(int(d["J"]) + 1)}
    assert "J" in checks.xstar_json(VECTOR, json.dumps(bad))
