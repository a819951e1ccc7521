"""Shortcut map, parity vectors, and prefix generators."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from collatz_parity import (
    BitStreamExhausted,
    BitStreamGenerator,
    HeadCycleGenerator,
    IntegerGenerator,
    ParityVector,
    collatz_sequence,
    collatz_step,
    parity_vector,
    parse_generator,
)


def test_collatz_step_examples():
    assert collatz_step(11) == 17
    assert collatz_step(2) == 1
    assert collatz_step(1) == 2


def test_collatz_step_rejects_zero():
    with pytest.raises(ValueError):
        collatz_step(0)


def test_collatz_sequence_examples():
    assert collatz_sequence(11, 7) == (11, 17, 26, 13, 20, 10, 5)
    assert collatz_sequence(1, 1) == (1,)
    # independent oracle: step-by-step iteration
    seq = [313]
    for _ in range(9):
        seq.append(collatz_step(seq[-1]))
    assert collatz_sequence(313, 10) == tuple(seq)
    assert collatz_sequence(313, 10) == (313, 470, 235, 353, 530, 265, 398, 199, 299, 449)


def test_collatz_sequence_rejects_bad_args():
    with pytest.raises(ValueError):
        collatz_sequence(0, 3)
    with pytest.raises(ValueError):
        collatz_sequence(3, 0)


def test_parity_vector_examples():
    assert str(parity_vector(11, 7)) == "1101001"
    assert str(parity_vector(7, 12)) == "111010010001"
    for k in range(1, 12):
        assert str(parity_vector(2**k, k)) == "0" * k


def test_parity_vector_matches_sequence_parity():
    # every bit equals the parity of the corresponding sequence term
    for N in range(1, 10_001):
        bits = parity_vector(N, 64).bits
        terms = collatz_sequence(N, 64)
        assert all(b == (t & 1) for b, t in zip(bits, terms))


def test_parity_vector_validation():
    with pytest.raises(ValueError):
        ParityVector(())
    with pytest.raises(ValueError):
        ParityVector((0, 2))
    with pytest.raises(ValueError):
        ParityVector.from_string("10a1")
    with pytest.raises(ValueError):
        ParityVector.from_string("")


@pytest.mark.parametrize("bad", ["", "012", "01\n", " 01", "１", "0 1"])
def test_from_string_rejects_anything_but_ascii_0_and_1(bad):
    # "１" is a fullwidth 1, which int() would accept; from_string checks the
    # string itself and builds the vector without `__init__`, so only this
    # check stands between a bad string and a vector
    with pytest.raises(ValueError) as exc:
        ParityVector.from_string(bad)
    assert str(exc.value) == f"invalid bitstring {bad!r}: need nonempty string of '0'/'1'"


@pytest.mark.parametrize("bits", ["0", "1", "0110", "1" * 300])
def test_from_string_builds_the_vector_the_constructor_builds(bits):
    v = ParityVector.from_string(bits)
    w = ParityVector(tuple(map(int, bits)))
    assert type(v) is ParityVector and v == w and hash(v) == hash(w) and repr(v) == repr(w)
    assert v.bits == w.bits and type(v.bits) is tuple
    with pytest.raises(AttributeError):
        v.bits = (1,)


def test_parity_vector_helpers():
    v = ParityVector.from_string("101101")
    assert v.n == 6 and v.ones == 4
    assert v.one_positions() == (1, 3, 4, 6)
    assert str(v.concat(ParityVector.from_string("01"))) == "10110101"
    assert str(ParityVector.from_string("10").repeat(3)) == "101010"


def test_from_integer_generator_matches_parity_vector():
    for N in (1, 2, 7, 27, 97, 313, 10**30 + 1):
        gen = IntegerGenerator(N)
        for n in (1, 5, 33):
            assert gen.prefix(n) == parity_vector(N, n)


def test_prefix_consistency():
    gens = [
        IntegerGenerator(27),
        HeadCycleGenerator(cycle=ParityVector.from_string("100")),
        HeadCycleGenerator(cycle=ParityVector.from_string("01"),
                           head=ParityVector.from_string("1101")),
        BitStreamGenerator(tuple(int(b) for b in "110100111010")),
    ]
    for gen in gens:
        for j in range(1, 12):
            assert gen.prefix(j + 1).bits[:j] == gen.prefix(j).bits


def test_head_cycle_examples():
    gen = HeadCycleGenerator(cycle=ParityVector.from_string("100"))
    assert str(gen.prefix(6)) == "100100"
    gen = HeadCycleGenerator(cycle=ParityVector.from_string("01"),
                             head=ParityVector.from_string("11"))
    assert str(gen.prefix(7)) == "1101010"


def test_generator_reruns_identically():
    gen = IntegerGenerator(27)
    assert gen.prefix(40) == gen.prefix(40)
    it1, it2 = gen.bits(), gen.bits()
    assert [next(it1) for _ in range(10)] == [next(it2) for _ in range(10)]


def test_bit_stream_exhaustion_reports_position():
    gen = BitStreamGenerator((1, 0, 1))
    with pytest.raises(BitStreamExhausted) as exc:
        gen.prefix(5)
    assert exc.value.position == 3


def test_parse_generator_grammar(tmp_path):
    assert parse_generator("int:27") == IntegerGenerator(27)
    assert parse_generator("bits:1101") == BitStreamGenerator((1, 1, 0, 1))
    assert parse_generator("cycle:100") == HeadCycleGenerator(
        cycle=ParityVector.from_string("100"))
    assert parse_generator("head:1101;cycle:01") == HeadCycleGenerator(
        cycle=ParityVector.from_string("01"), head=ParityVector.from_string("1101"))
    assert parse_generator("head:;cycle:01") == HeadCycleGenerator(
        cycle=ParityVector.from_string("01"))
    path = tmp_path / "bits.txt"
    path.write_text("110 100\n111 010\n")
    gen = parse_generator(f"file:{path}")
    assert str(gen.prefix(12)) == "110100111010"


@pytest.mark.parametrize("bad", [
    "int:0", "int:x", "int:\u0663", "int:\u00b2", "bits:", "bits:12", "cycle:", "head:11",
    "head:11;bits:0", "file:/no/such/file", "nonsense", "1101",
])
def test_parse_generator_rejects(bad):
    with pytest.raises(ValueError) as exc:
        parse_generator(bad)
    if bad in ("int:\u0663", "int:\u00b2"):   # an Arabic-Indic three and a superscript two
        assert str(exc.value) == f"invalid integer in generator spec {bad!r}"


# parse_generator against streams built without it
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)
BITSTRINGS = st.text("01", min_size=1, max_size=40)


@PROPERTY
@given(st.integers(1, 2**80), st.integers(1, 120))
def test_int_spec_prefixes_are_the_parity_vector(N, n):
    prefix = parse_generator(f"int:{N}").prefix(n)
    assert prefix == parity_vector(N, n)
    assert prefix.bits == tuple(x & 1 for x in collatz_sequence(N, n))


@PROPERTY
@given(st.text("01", max_size=20), BITSTRINGS, st.integers(1, 120))
def test_head_cycle_spec_prefixes_are_head_then_cycle(head, cycle, n):
    stream = head + cycle * (n // len(cycle) + 1)
    assert str(parse_generator(f"head:{head};cycle:{cycle}").prefix(n)) == stream[:n]


@PROPERTY
@given(BITSTRINGS)
def test_bits_spec_yields_its_bits_then_runs_dry(bits):
    gen = parse_generator(f"bits:{bits}")
    assert "".join(map(str, gen.bits())) == bits
    assert str(gen.prefix(len(bits))) == bits
    with pytest.raises(BitStreamExhausted) as exc:
        gen.prefix(len(bits) + 1)
    assert exc.value.position == len(bits)


# every spec but file:, which reads the file system
WELL_FORMED = re.compile(r"int:0*[1-9][0-9]*|bits:[01]+|cycle:[01]+|head:[01]*;cycle:[01]+")


@PROPERTY
@given(st.tuples(st.sampled_from(["", "int:", "bits:", "cycle:", "head:", "head:1;cycle:"]),
                 st.text("0129x;: abcdehilty", max_size=12)).map("".join)
       .filter(lambda spec: not WELL_FORMED.fullmatch(spec) and not spec.startswith("file:")))
def test_malformed_spec_is_a_value_error(spec):
    with pytest.raises(ValueError):
        parse_generator(spec)
