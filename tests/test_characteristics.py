"""Characteristic numbers of finite vectors against worked examples and oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from collatz_parity import characteristics, core
from collatz_parity import (
    CharacteristicSet,
    ParityVector,
    ab_family_member,
    ab_recurrence,
    apply_vector,
    char_set,
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
    parity_vector,
    repeat_p,
    solve_n0,
    xstar_decompose,
    xy_points,
)
from collatz_parity.core import _BYTE_P, _BYTE_STEPS

PV = ParityVector.from_string


def brute_force_n0(v: ParityVector) -> int:
    """Oracle: smallest N in [1, 2^n] whose parity vector equals v."""
    for N in range(1, (1 << v.n) + 1):
        if parity_vector(N, v.n) == v:
            return N
    raise AssertionError(f"no realizer found for {v}")


def random_vector(rng: random.Random, n: int, force_one: bool = False) -> ParityVector:
    bits = [rng.randint(0, 1) for _ in range(n)]
    if force_one and not any(bits):
        bits[rng.randrange(n)] = 1
    return ParityVector(tuple(bits))


def test_char_set_paper_examples():
    cs = char_set(PV("1101001"))
    assert (cs.n, cs.m, cs.P) == (7, 4, 133)
    cs = char_set(PV("1011010111"))
    assert (cs.n, cs.m, cs.P, cs.a, cs.b, cs.X) == (10, 7, 5645, 221, 472, 1247545)
    assert cs.Y == 5645 * 472 == 2664440


def test_char_set_stores_the_characteristic_numbers_only():
    # X* belongs to the vector (xstar_decompose), not to the set
    cs = char_set(PV("1011010111"))
    stored = [name for cls in type(cs).__mro__ for name in getattr(cls, "__slots__", ())]
    assert not hasattr(cs, "__dict__")
    assert [name for name in stored if not name.startswith("_")] == ["n", "m", "P", "N0"]
    assert CharacteristicSet._fields == ("n", "m", "P", "N0")
    assert cs == CharacteristicSet(n=10, m=7, P=5645, N0=313)
    for gone in ("one_positions", "Xstar", "Ystar", "Kstar", "qstar",
                 "q_int_distance", "qstar_int_distance"):
        assert not hasattr(cs, gone)


def test_char_set_all_even():
    cs = char_set(PV("0000"))
    # c = 2^4 - 3^0 = 15: the m = 0 case still subtracts 3^0 = 1
    assert (cs.n, cs.m, cs.P, cs.c, cs.N0) == (4, 0, 0, 15, 16)
    assert cs.a is None and cs.b is None and cs.X is None and cs.Y is None
    assert cs.alpha == 0 and cs.beta == 0 and cs.A == 0 and cs.B == 0
    assert cs.r0 == 1
    cs.check()


def test_p_recurrence_examples():
    assert p_recurrence(PV("1101001")) == (1, 5, 5, 23, 23, 23, 133)
    assert p_recurrence(PV("11010")) == (1, 5, 5, 23, 23)
    assert p_recurrence(PV("00000")) == (0, 0, 0, 0, 0)


def test_p_closed_form_examples():
    assert p_closed_form(PV("1011010111")) == (
        3**6 + 3**5 * 2**2 + 3**4 * 2**3 + 3**3 * 2**5
        + 3**2 * 2**7 + 3 * 2**8 + 2**9
    ) == 5645
    for n in range(1, 9):
        for j in range(1, n + 1):
            bits = [0] * n
            bits[j - 1] = 1
            assert p_closed_form(ParityVector(tuple(bits))) == 2 ** (j - 1)


def test_p_closed_form_equals_recurrence_exhaustive():
    for n in range(1, 11):
        for mask in range(1 << n):
            v = ParityVector(tuple((mask >> i) & 1 for i in range(n)))
            assert p_closed_form(v) == p_recurrence(v)[-1]


def test_ab_recurrence_example_3_1():
    table = ab_recurrence(7, 10)
    assert [a for a, _ in table] == [1, 1, 5, 13, 29, 29, 93, 221, 221, 221]
    assert [b for _, b in table] == [1094, 547, 1367, 1777, 1982, 991, 1589, 1888, 944, 472]


def test_ab_recurrence_first_step():
    for m in (1, 2, 7, 13):
        assert ab_recurrence(m, 1) == [(1, (3**m + 1) // 2)]


def test_ab_recurrence_rejects_m_zero():
    with pytest.raises(ValueError):
        ab_recurrence(0, 5)


def test_ab_recurrence_matches_modular_inverse():
    # oracle: a = -(3^m)^(-1) mod 2^n, b the exact cofactor
    for m in range(1, 25):
        for n in range(1, 25):
            a, b = ab_recurrence(m, n)[-1]
            pow2 = 1 << n
            a_oracle = pow2 - pow(3, -m, pow2)
            assert a == a_oracle
            assert b == (3**m * a_oracle + 1) >> n
            assert 3**m * a + 1 == pow2 * b
            assert a < pow2 and b < 3**m


def test_solve_a_matches_the_halving_recurrence_up_to_200():
    # the Newton-Hensel inverse against the paper's recurrence, for every
    # 1 <= m <= n <= 200; row n of ab_recurrence(m, 200) is the last row of
    # ab_recurrence(m, n), the recurrence's solution for that n; b is read
    # off a as the callers that need it read it
    for m in range(1, 201):
        table = ab_recurrence(m, 200)
        for n in range(m, 201):
            a = characteristics._solve_a(m, n)
            assert (a, (3**m * a + 1) >> n) == table[n - 1]


def test_ab_family_member():
    assert ab_family_member(7, 10, 0) == (221, 472)
    assert ab_family_member(7, 10, 1) == (1245, 2659)
    for m, n, j in [(7, 10, 1), (7, 10, -1), (3, 5, 4), (12, 9, -3)]:
        a, b = ab_family_member(m, n, j)
        assert 3**m * a + 1 == (1 << n) * b


def test_g_of_examples():
    v = PV("11010")
    assert g_of(v, 5) == Fraction(79, 16)
    assert g_of(v, 11) == 10
    for n in range(1, 8):
        assert g_of(ParityVector((0,) * n), 1 << n) == 1


def test_is_member_examples():
    v = PV("11010")
    assert is_member(v, 11) and not is_member(v, 5)
    # realizers form the arithmetic progression N0 + 2^n k
    rng = random.Random(1)
    for _ in range(50):
        v = random_vector(rng, rng.randint(1, 12))
        n0 = solve_n0(v)
        for k in range(4):
            N = n0 + (1 << v.n) * k
            assert is_member(v, N)
            assert parity_vector(N, v.n) == v


def test_apply_vector_examples():
    assert apply_vector(PV("1101001"), 11) == 8
    assert apply_vector(PV("1011010111"), 1247545) == 2664440
    for n in range(1, 8):
        assert apply_vector(ParityVector((0,) * n), 1 << n) == 1


def test_apply_vector_equals_iterated_steps():
    rng = random.Random(2)
    for _ in range(60):
        v = random_vector(rng, rng.randint(1, 32))
        N = nth_realizer(v, rng.randint(0, 5))
        x = N
        for _ in range(v.n):
            x = collatz_step(x)
        assert apply_vector(v, N) == x


def test_apply_vector_rejects_non_member():
    with pytest.raises(ValueError, match="mod 2"):
        apply_vector(PV("11010"), 5)


def test_solve_n0_examples():
    assert solve_n0(PV("101110")) == 9
    assert solve_n0(PV("1011010111")) == 313


def test_solve_n0_brute_force_small():
    for n in range(1, 9):
        for mask in range(1 << n):
            v = ParityVector(tuple((mask >> i) & 1 for i in range(n)))
            assert solve_n0(v) == brute_force_n0(v)


def test_nth_realizer_examples():
    v = PV("1011010111")
    assert [nth_realizer(v, j) for j in range(5)] == [313, 1337, 2361, 3385, 4409]
    assert nth_realizer(v, 0) == solve_n0(v)


def test_xy_points():
    v = PV("1011010111")
    X, Y = xy_points(v)
    assert X == 1247545 and Y == 2664440
    assert is_member(v, X) and apply_vector(v, X) == Y
    assert xy_points(PV("1")) == (1, 2)
    with pytest.raises(ValueError):
        xy_points(PV("000"))


def test_xstar_paper_example():
    dec = xstar_decompose(PV("1011010111"))
    assert [r.theta for r in dec.rows] == [341, 199, 109, 15, 5, 3, 1]
    assert [r.z for r in dec.rows] == [341, 796, 872, 480, 640, 768, 512]
    assert [r.t for r in dec.rows] == [1, 7, 23, 38, 152, 547, 1094]
    assert dec.Xstar == 4409 and dec.Ystar == 9422
    assert dec.J == (1247545 - 4409) // 1024 == 1214
    dec.check(PV("1011010111"))


def test_xstar_single_bit():
    dec = xstar_decompose(PV("1"))
    assert len(dec.rows) == 1
    assert dec.rows[0].theta == 1 and dec.rows[0].t == 2
    assert dec.Xstar == 1 and dec.Ystar == 2
    with pytest.raises(ValueError):
        xstar_decompose(PV("00"))


def test_xstar_properties_random():
    rng = random.Random(3)
    for _ in range(60):
        v = random_vector(rng, rng.randint(1, 32), force_one=True)
        dec = xstar_decompose(v)
        dec.check(v)
        assert is_member(v, dec.Xstar)
        assert apply_vector(v, dec.Xstar) == dec.Ystar
        X, _ = xy_points(v)
        assert (X - dec.Xstar) % (1 << v.n) == 0
        # (theta_k, t_k) is the (a, b) pair of (k, n - j_k + 1)
        for r in dec.rows:
            assert (r.theta, r.t) == ab_recurrence(r.k, v.n - r.j + 1)[-1]


# The length is drawn first, as in test_trajectory.py: plain st.lists averages
# about 6 bits, far too short for the theta chain to run long.
bit_lists = st.integers(1, 400).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(bit_lists)
def test_xstar_rows_match_the_closed_form_solve(bits):
    # each theta_k comes from the one before; the oracle solves each alone
    v = ParityVector(tuple(bits))
    cs = char_set(v)
    if cs.m == 0:
        with pytest.raises(ValueError):
            xstar_decompose(v)
        return
    dec = xstar_decompose(v)
    for r in dec.rows:
        L = v.n - r.j + 1
        assert r.theta == characteristics._solve_a(r.k, L)
        assert r.t == (3**r.k * r.theta + 1) >> L
        assert r.z == r.theta << (r.j - 1)
    assert apply_vector(v, dec.Xstar) == dec.Ystar
    # X* sits over N0, and J = (X - X*)/2^n against X = P*a
    assert (dec.Xstar - cs.N0) % (1 << v.n) == 0
    assert cs.X == dec.Xstar + (dec.J << v.n)


# long vectors of sparse, even and dense ones: t_k comes from t_{k-1} and the
# bits theta_{k-1} loses to the mask, never from 3^k theta_k itself
long_vectors = st.builds(
    lambda n, density, rng: ParityVector(tuple(int(rng.random() < density) for _ in range(n))),
    st.integers(64, 2048), st.sampled_from([0.1, 0.5, 0.9]), st.randoms(use_true_random=False))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(long_vectors)
def test_xstar_cofactors_match_their_definition(v):
    ones = v.one_positions()
    if not ones:
        return
    dec = xstar_decompose(v)
    assert [(r.k, r.j) for r in dec.rows] == list(enumerate(ones, start=1))
    for r in dec.rows:
        L = v.n - r.j + 1
        lifted = 3**r.k * r.theta + 1
        assert 0 < r.theta < 1 << L and lifted % (1 << L) == 0
        assert r.t == lifted >> L


def test_xstar_rows_match_ab_recurrence_n_le_10():
    for n in range(1, 11):
        for mask in range(1, 1 << n):
            v = ParityVector(tuple((mask >> i) & 1 for i in range(n)))
            for r in xstar_decompose(v).rows:
                assert (r.theta, r.t) == ab_recurrence(r.k, n - r.j + 1)[-1]


def test_xstar_ystar_kstar_qstar_share_one_loop(monkeypatch):
    calls = []
    loop = characteristics._xstar_terms

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(characteristics, "_xstar_terms", counted)
    v = PV("1011010111")
    dec = xstar_decompose(v)
    kstar = (dec.Xstar - char_set(v).N0) >> v.n
    qstar = Fraction(dec.Xstar, 1 << v.n)
    assert (dec.Xstar, dec.Ystar, kstar, qstar) == (4409, 9422, 4, Fraction(4409, 1024))
    assert len(calls) == 1


def test_p_three_forms_agree():
    rng = random.Random(17)
    vectors = [ParityVector((0,) * n) for n in (1, 2, 400)]
    vectors += [ParityVector(tuple(int(i == j) for i in range(n)))
                for n, j in ((1, 0), (2, 0), (2, 1), (257, 128), (400, 0), (400, 399))]
    vectors += [random_vector(rng, rng.randint(1, 400)) for _ in range(200)]
    for v in vectors:
        assert char_set(v).P == p_closed_form(v) == p_recurrence(v)[-1]


def test_byte_table_entries_are_char_sets_of_length_8_vectors():
    # residue r's 8 bits v_r, m, 3^m and T^8(r); the vector-indexed view
    # holds (3^m, P) with P = 2^8 T^8(r) - 3^m r, and r realizes v_r
    assert len(_BYTE_STEPS) == len(_BYTE_P) == 256
    for r, (bits, m, pow3, t) in enumerate(_BYTE_STEPS):
        v = ParityVector(tuple(bits))
        cs = char_set(v)
        assert v == parity_vector(r or 256, 8)
        assert (cs.m, cs.P, cs.N0) == (m, (t << 8) - pow3 * r, r or 256)
        assert pow3 == 3**m and _BYTE_P[sum(e << i for i, e in enumerate(bits))] == (pow3, cs.P)
        x = r + 256   # T^8(r + 2^8) = 3^m + T^8(r), by plain steps
        for _ in range(8):
            x = collatz_step(x)
        assert x == pow3 + t


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_byte_horner_equals_the_weighted_sum(bits):
    v = ParityVector(tuple(bits))
    assert core._horner_p(v.bits) == p_closed_form(v)


def test_byte_horner_on_runs_and_trailing_zeros():
    rng = random.Random(35)
    vectors = []
    for n in (*range(1, 42), 255, 256, 257, 2047, 2048, 2049):
        vectors += [(0,) * n, (1,) * n]
        head = tuple(rng.randint(0, 1) for _ in range(n)) + (1,)
        vectors += [head + (0,) * zeros for zeros in (0, 1, 7, 8, 9, 16)]
    assert core._horner_p(()) == 0
    for bits in vectors:
        assert core._horner_p(bits) == p_closed_form(ParityVector(bits))


def test_library_functions_sum_p_by_horner(monkeypatch):
    # the weighted sum makes one power of 3 per one; it is the tests' oracle only
    def oracle_only(v):
        raise AssertionError("p_closed_form called outside the tests")

    monkeypatch.setattr(characteristics, "p_closed_form", oracle_only)
    v = PV("1101001")
    assert g_of(v, 11) == 8 and is_member(v, 11) and apply_vector(v, 11) == 8
    assert compose_p(PV("1101"), PV("001")) == 133
    assert repeat_p(PV("100"), 2) == 11
    assert cycle_fixed_point(PV("100")) == Fraction(1, 5)
    assert congruence_witness(v, v, 11, 139) == 133


def test_compose_p():
    assert compose_p(PV("1101"), PV("001")) == 133
    assert 3 * 23 + 16 * 4 == 133  # the two parts of the example
    v = PV("1101")
    assert compose_p(v, PV("0000")) == p_closed_form(v)
    rng = random.Random(4)
    for _ in range(80):
        v1 = random_vector(rng, rng.randint(1, 10))
        v2 = random_vector(rng, rng.randint(1, 10))
        assert compose_p(v1, v2) == p_recurrence(v1.concat(v2))[-1]


def test_repeat_p():
    for k in range(1, 9):
        assert repeat_p(PV("10"), k) == 2 ** (2 * k) - 3**k
    assert repeat_p(PV("100"), 2) == 11
    assert repeat_p(PV("100"), 2) == p_recurrence(PV("100100"))[-1]
    rng = random.Random(5)
    for _ in range(40):
        u = random_vector(rng, rng.randint(1, 8))
        k = rng.randint(1, 5)
        assert repeat_p(u, k) == p_recurrence(u.repeat(k))[-1]
        assert repeat_p(u, 1) == p_closed_form(u)


def test_omega_extremes_examples():
    ext = omega_extremes(10, 7)
    assert ext.min_p == 2059 and ext.max_p == 16472
    assert str(ext.min_vector) == "1111111000" and str(ext.max_vector) == "0001111111"
    for n in range(1, 8):
        ext = omega_extremes(n, n)
        assert ext.min_p == ext.max_p == 3**n - 2**n
        ext = omega_extremes(n, 1)
        assert ext.min_p == 1 and ext.max_p == 2 ** (n - 1)
    ext = omega_extremes(5, 0)
    assert ext.min_p == ext.max_p == 0
    with pytest.raises(ValueError):
        omega_extremes(4, 5)


def test_cycle_fixed_point():
    assert cycle_fixed_point(PV("100")) == Fraction(1, 5)
    assert cycle_fixed_point(PV("10")) == 1
    assert cycle_fixed_point(PV("11010")) == Fraction(23, 5)
    assert cycle_fixed_point(PV("000")) == 0


def test_congruence_witness():
    v = PV("1101001")
    assert congruence_witness(v, v, 11, 139) == 133
    assert congruence_witness(v, v, 11, 11) == 0
    # x2 = N1 pairs with x1 = N0: the witness is exactly P(v)
    rng = random.Random(6)
    for _ in range(30):
        w = random_vector(rng, rng.randint(1, 12))
        n0 = solve_n0(w)
        assert congruence_witness(w, w, n0, n0 + (1 << w.n)) == p_closed_form(w)


def test_congruence_witness_mixed_vectors():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 14)
        v1 = random_vector(rng, n)
        v2 = random_vector(rng, n)
        if v2.ones < v1.ones:
            v1, v2 = v2, v1
        x1 = nth_realizer(v1, rng.randint(0, 3))
        x2 = nth_realizer(v2, rng.randint(0, 3))
        j = congruence_witness(v1, v2, x1, x2)
        num = 3 ** (v2.ones - v1.ones) * x2 * p_closed_form(v1) - x1 * p_closed_form(v2)
        assert num == (1 << n) * j


def test_congruence_witness_rejects():
    with pytest.raises(ValueError):
        congruence_witness(PV("11"), PV("111"), 3, 7)
    with pytest.raises(ValueError):
        congruence_witness(PV("111"), PV("100"), 7, 4)
    with pytest.raises(ValueError):
        congruence_witness(PV("11010"), PV("11010"), 5, 11)


def test_euclidean_splits():
    rng = random.Random(8)
    for _ in range(100):
        v = random_vector(rng, rng.randint(1, 24))
        cs = char_set(v)
        assert cs.P == 3**cs.m * cs.alpha + cs.beta and 0 <= cs.beta < 3**cs.m
        assert cs.P == (1 << cs.n) * cs.A + cs.B and 0 <= cs.B < (1 << cs.n)


def test_omega_shares_characteristic_equation():
    # every vector of the same (n, m) has the same (a, b): the modular pair
    # must agree with the halving recurrence for every bit layout
    for n in range(1, 11):
        for mask in range(1 << n):
            v = ParityVector(tuple((mask >> i) & 1 for i in range(n)))
            if v.ones == 0:
                continue
            cs = char_set(v)
            a_rec, b_rec = ab_recurrence(v.ones, n)[-1]
            assert (cs.a, cs.b) == (a_rec, b_rec)


def test_exhaustive_invariants_n_le_12():
    # every vector up to length 12: particular points realize the vector,
    # applying it lands on Y / Y*, X - X* is a multiple of 2^n, and the
    # offset-ratio bound holds in exact rationals
    for n in range(1, 13):
        pow2 = 1 << n
        for mask in range(1, 1 << n):
            v = ParityVector(tuple((mask >> i) & 1 for i in range(n)))
            m = v.ones
            X, Y = xy_points(v)
            assert is_member(v, X) and apply_vector(v, X) == Y
            dec = xstar_decompose(v)
            assert is_member(v, dec.Xstar)
            assert apply_vector(v, dec.Xstar) == dec.Ystar
            assert (X - dec.Xstar) % pow2 == 0
            assert Fraction(p_closed_form(v), pow2 * 3**m) <= (
                Fraction(1, 2**m) - Fraction(1, 3**m)
            )


def test_char_set_invariants_random():
    rng = random.Random(9)
    for _ in range(120):
        v = random_vector(rng, rng.randint(1, 40))
        cs = char_set(v)
        cs.check()
        if cs.m >= 1:
            # Collatz-number bound in exact rationals
            assert Fraction(cs.P, (1 << cs.n) * 3**cs.m) <= (
                Fraction(1, 2**cs.m) - Fraction(1, 3**cs.m)
            )
