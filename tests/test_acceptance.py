"""Acceptance gate: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from collatz_parity import (
    BitStreamGenerator,
    GROWING,
    STABILIZED,
    IntegerGenerator,
    ParityVector,
    ab_recurrence,
    apply_vector,
    char_set,
    classify,
    collatz_step,
    compose_p,
    congruence_witness,
    cycle_fixed_point,
    g_of,
    is_member,
    nth_realizer,
    omega_extremes,
    p_closed_form,
    p_recurrence,
    iter_trajectory,
    parse_generator,
    repeat_p,
    run_fixtures,
    load_fixtures,
    solve_n0,
    xstar_decompose,
    xy_points,
)

PV = ParityVector.from_string


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def all_vectors(n: int):
    for mask in range(1 << n):
        yield ParityVector(tuple((mask >> i) & 1 for i in range(n)))


def random_vector(rng: random.Random, n: int, force_one: bool = False) -> ParityVector:
    bits = [rng.randint(0, 1) for _ in range(n)]
    if force_one and not any(bits):
        bits[rng.randrange(n)] = 1
    return ParityVector(tuple(bits))


def test_criterion_1_paper_example_corpus():
    with criterion(1, "worked-example corpus replays exactly"):
        report = run_fixtures(load_fixtures())
        assert report.failed == 0, [r for r in report.results if not r.ok]
        # the headline values, re-asserted directly
        assert p_recurrence(PV("1101001"))[-1] == 133
        assert apply_vector(PV("1101001"), 11) == 8
        assert g_of(PV("11010"), 5) == Fraction(79, 16)
        assert g_of(PV("11010"), 11) == 10
        table = ab_recurrence(7, 10)
        assert table[-1] == (221, 472) and table[3] == (13, 1777)
        assert xy_points(PV("1011010111"))[0] == 1247545
        dec = xstar_decompose(PV("1011010111"))
        assert dec.Xstar == 4409 and dec.Ystar == 9422
        assert [r.theta for r in dec.rows] == [341, 199, 109, 15, 5, 3, 1]
        assert solve_n0(PV("101110")) == 9
        assert solve_n0(PV("1011010111")) == 313
        rows = list(iter_trajectory(parse_generator("bits:11010011010010"), 8))
        assert [r.N0 for r in rows] == [1, 3, 3, 11, 11, 11, 11, 139]
        assert cycle_fixed_point(PV("100")) == Fraction(1, 5)


def test_criterion_2_oracle_equivalence_n_le_12():
    with criterion(2, "solve_n0 = exhaustive scan and P recurrence = closed form, n <= 12"):
        for n in range(1, 13):
            # smallest realizer per vector by one sweep over 1..2^n
            smallest: dict[tuple, int] = {}
            for N in range(1, (1 << n) + 1):
                bits = []
                x = N
                for _ in range(n):
                    e = x & 1
                    bits.append(e)
                    x = x >> 1 if e == 0 else (3 * x + 1) >> 1
                smallest.setdefault(tuple(bits), N)
            # the sweep must have hit every vector exactly once
            assert len(smallest) == 1 << n
            for v in all_vectors(n):
                assert solve_n0(v) == smallest[v.bits]
                assert p_recurrence(v)[-1] == p_closed_form(v) == char_set(v).P


def test_criterion_3_extremes_exhaustive():
    with criterion(3, "P extremes over Omega(n, m) match the closed forms, n <= 12"):
        for n in range(1, 13):
            seen: dict[int, tuple[int, int]] = {}
            for v in all_vectors(n):
                P = p_recurrence(v)[-1]
                m = v.ones
                lo, hi = seen.get(m, (P, P))
                seen[m] = (min(lo, P), max(hi, P))
            for m in range(n + 1):
                ext = omega_extremes(n, m)
                lo, hi = seen[m]
                assert lo == ext.min_p and hi == ext.max_p
                if m:
                    assert ext.min_p == 3**m - 2**m
                    assert ext.max_p == (1 << (n - m)) * (3**m - 2**m)
                else:
                    assert ext.min_p == ext.max_p == 0
                assert p_closed_form(ext.min_vector) == ext.min_p
                assert p_closed_form(ext.max_vector) == ext.max_p


def test_criterion_4_identity_suites():
    with criterion(4, "characteristic equation, particular points, composition, witnesses"):
        # 3^m a + 1 = 2^n b with a < 2^n, b < 3^m over the full grid
        for m in range(1, 25):
            for n in range(1, 25):
                a, b = ab_recurrence(m, n)[-1]
                assert 3**m * a + 1 == (1 << n) * b
                assert 0 < a < (1 << n) and 0 < b < 3**m
        rng = random.Random(20250810)
        # X and X* realize v; applying the vector lands on Y and Y*
        for _ in range(500):
            v = random_vector(rng, rng.randint(1, 32), force_one=True)
            X, Y = xy_points(v)
            dec = xstar_decompose(v)
            assert is_member(v, X) and is_member(v, dec.Xstar)
            x = X
            xs = dec.Xstar
            for _ in range(v.n):
                x = collatz_step(x)
                xs = collatz_step(xs)
            assert x == Y and apply_vector(v, X) == Y
            assert xs == dec.Ystar and apply_vector(v, dec.Xstar) == dec.Ystar
            assert (X - dec.Xstar) % (1 << v.n) == 0
        # composition and repetition against the recurrence oracle
        for _ in range(500):
            v1 = random_vector(rng, rng.randint(1, 16))
            v2 = random_vector(rng, rng.randint(1, 16))
            assert compose_p(v1, v2) == p_recurrence(v1.concat(v2))[-1]
            k = rng.randint(1, 5)
            assert repeat_p(v1, k) == p_recurrence(v1.repeat(k))[-1]
        # congruence witnesses are exact integers for member pairs
        for _ in range(200):
            n = rng.randint(1, 20)
            v1 = random_vector(rng, n)
            v2 = random_vector(rng, n)
            if v2.ones < v1.ones:
                v1, v2 = v2, v1
            x1 = nth_realizer(v1, rng.randint(0, 4))
            x2 = nth_realizer(v2, rng.randint(0, 4))
            j = congruence_witness(v1, v2, x1, x2)
            assert (3 ** (v2.ones - v1.ones) * x2 * p_closed_form(v1)
                    - x1 * p_closed_form(v2)) == (1 << n) * j


def test_criterion_5_trajectory_invariants():
    with criterion(5, "row invariants and incremental/from-scratch agreement, horizon 200"):
        rng = random.Random(514)
        gens = [
            parse_generator("int:7"),
            parse_generator("int:27"),
            parse_generator("cycle:100"),
            parse_generator("head:1101;cycle:01"),
        ]
        for _ in range(50):
            gens.append(BitStreamGenerator(tuple(rng.randint(0, 1) for _ in range(200))))
        for gen in gens:
            rows = list(iter_trajectory(gen, 200))
            for prev, cur in zip(rows, rows[1:]):
                # r0 dichotomy: exactly one of the two lift relations
                half = prev.r0 / 2
                assert (cur.r0 == half) != (cur.r0 == half + Fraction(1, 2))
                assert cur.N0 in (prev.N0, prev.N0 + (1 << prev.n))
            for row in rows:
                if row.m == 0:
                    continue
                assert row.q == row.r0 + row.K  # exact rational identity
                pow3, pow2m = 3**row.m, 2**row.m
                assert pow3 - pow2m <= row.P <= (1 << (row.n - row.m)) * (pow3 - pow2m)
            for j in (1, 17, 64, 200):
                v = gen.prefix(j)
                assert rows[j - 1] == char_set(v)
                if rows[j - 1].m:
                    dec = xstar_decompose(v)
                    assert apply_vector(v, dec.Xstar) == dec.Ystar
                    assert (dec.Xstar - rows[j - 1].N0) % (1 << j) == 0


def test_criterion_6_classifier_behavior():
    with criterion(6, "horizon-bounded classifier verdicts"):
        verdict = classify(parse_generator("cycle:100"), 40, 10)
        assert verdict.kind == GROWING
        for N in (7, 27, 97):
            verdict = classify(IntegerGenerator(N), 80, 20)
            assert verdict.kind == STABILIZED
            assert verdict.candidate is not None and verdict.candidate <= N
        verdict = classify(parse_generator("head:;cycle:01"), 40, 10)
        assert verdict.kind == STABILIZED
        # N0_j never decreases, for realizable and non-realizable streams alike
        for spec in ("cycle:100", "int:27", "head:1101;cycle:01"):
            rows = list(iter_trajectory(parse_generator(spec), 80))
            assert all(cur.N0 >= prev.N0 for prev, cur in zip(rows, rows[1:]))


def test_criterion_7_decay_diagnostics():
    with criterion(7, "offset ratio at row 500 decayed by >= 2^100 vs row 10"):
        rows = list(iter_trajectory(IntegerGenerator(27), 500))
        early = rows[9].P_over_2n3m
        late = rows[-1].P_over_2n3m
        assert late > 0
        assert late * 2**100 <= early
