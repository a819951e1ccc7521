"""Serialization, rational rendering, and the fixture corpus runner."""

import io
import json
from fractions import Fraction

import pytest

from collatz_parity import ParityVector, char_set, iter_trajectory, parse_generator
from collatz_parity.report import (
    TRAJECTORY_CSV_HEADER,
    FixtureCase,
    charset_to_json_dict,
    format_rational,
    load_fixtures,
    render_report_text,
    run_fixtures,
    trajectory_csv_line,
    write_trajectory_csv,
    xstar_to_json_dict,
)
from collatz_parity.characteristics import xstar_decompose

PV = ParityVector.from_string


def test_format_rational_basic():
    assert format_rational(Fraction(11, 32), 6) == "0.343750"
    assert format_rational(Fraction(11, 32), 0) == "0"
    assert format_rational(Fraction(10), 4) == "10.0000"
    assert format_rational(Fraction(-79, 16), 3) == "-4.938"
    assert format_rational(Fraction(1, 3), 12) == "0.333333333333"


def test_format_rational_half_even():
    assert format_rational(Fraction(1, 2), 0) == "0"
    assert format_rational(Fraction(3, 2), 0) == "2"
    assert format_rational(Fraction(25, 1000), 2) == "0.02"
    assert format_rational(Fraction(35, 1000), 2) == "0.04"


def test_format_rational_exact():
    assert format_rational(Fraction(79, 16), exact=True) == "79/16"
    assert format_rational(Fraction(10), exact=True) == "10"


def test_charset_json_round_trip():
    for bits in ("1101001", "1011010111", "0000", "1"):
        cs = char_set(PV(bits))
        d = charset_to_json_dict(cs)
        blob = json.dumps(d)
        assert json.loads(blob) == d
        # every integer field is a decimal string, never a native number
        for key, value in d.items():
            assert value is None or isinstance(value, str)
        for key in ("n", "m", "P", "c", "a", "b", "alpha", "beta", "A", "B", "N0", "X", "Y"):
            value = getattr(cs, key)
            assert d[key] == (None if value is None else str(value))
        assert Fraction(int(d["r0_num"]), int(d["r0_den"])) == cs.r0


def test_analyze_json_contains_p_string():
    d = charset_to_json_dict(char_set(PV("1101001")))
    assert d["P"] == "133"
    assert d["a"] == "79" and d["b"] == "50"


def test_xstar_json():
    d = xstar_to_json_dict(xstar_decompose(PV("1011010111")))
    assert d["Xstar"] == "4409" and d["Ystar"] == "9422" and d["J"] == "1214"
    assert d["rows"][0] == {"k": 1, "j": 1, "theta": "341", "z": "341", "t": "1"}


def test_trajectory_csv_header_and_shape():
    rows = list(iter_trajectory(parse_generator("int:7"), 6))
    out = io.StringIO()
    write_trajectory_csv(rows, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert len(lines) == 7
    assert all(len(line.split(",")) == len(TRAJECTORY_CSV_HEADER.split(",")) for line in lines)


def test_trajectory_csv_deterministic():
    def render():
        out = io.StringIO()
        write_trajectory_csv(iter_trajectory(parse_generator("head:1101;cycle:01"), 30), out)
        return out.getvalue()

    assert render() == render()


def test_trajectory_csv_empty_cells_before_first_one():
    rows = list(iter_trajectory(parse_generator("bits:00101"), 5))
    line1 = trajectory_csv_line(rows[0])
    cells = line1.split(",")
    header = TRAJECTORY_CSV_HEADER.split(",")
    for name in ("a_j", "b_j", "q_j", "K_j", "Kstar_j", "f2_over_2n"):
        assert cells[header.index(name)] == ""
    # once a one arrives the cells fill in
    line3 = trajectory_csv_line(rows[2])
    assert line3.split(",")[header.index("a_j")] != ""


def test_trajectory_csv_exact_mode():
    rows = list(iter_trajectory(parse_generator("int:7"), 3))
    line = trajectory_csv_line(rows[2], exact=True)
    cells = line.split(",")
    header = TRAJECTORY_CSV_HEADER.split(",")
    assert cells[header.index("r0_j")] == "7/8"


def test_load_fixtures_default_corpus():
    cases = load_fixtures()
    assert len(cases) >= 14
    kinds = {c.kind for c in cases}
    assert {"charset", "p-table", "ab", "xstar", "n0", "apply", "g-eval",
            "trajectory-n0", "fixed-point"} <= kinds
    # the Example 4.5 case must carry its erratum note
    by_id = {c.id: c for c in cases}
    assert by_id["ex4.5-alternating-p"].erratum is not None
    assert all(c.source for c in cases)


def test_run_default_corpus_passes():
    report = run_fixtures(load_fixtures())
    assert report.failed == 0
    text = render_report_text(report)
    assert "0 failed" in text


def test_load_fixtures_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "kind": "n0", "input": "1", "expected": "1", "source": "x"}\n'
                    "{broken\n")
    with pytest.raises(ValueError, match="line 2"):
        load_fixtures(str(path))


def test_load_fixtures_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "kind": "nope", "input": "1", "expected": "1", "source": "x"}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_fixtures(str(path))


def test_failing_fixture_reports_diff():
    case = FixtureCase(id="wrong", kind="n0", input="101110", expected="8",
                       source="made up")
    report = run_fixtures([case])
    assert report.failed == 1
    assert "expected [8]" in report.results[0].detail
    assert "got [9]" in report.results[0].detail


def test_crashing_fixture_is_a_failure():
    case = FixtureCase(id="crash", kind="xstar", input="000", expected="Xstar=1",
                       source="made up")
    report = run_fixtures([case])
    assert report.failed == 1
    assert "error" in report.results[0].detail


def test_report_order_is_by_id():
    cases = [
        FixtureCase(id="b", kind="n0", input="1", expected="1", source="s"),
        FixtureCase(id="a", kind="n0", input="0", expected="2", source="s"),
    ]
    report = run_fixtures(cases)
    assert [r.id for r in report.results] == ["a", "b"]
    assert report.passed == 2
