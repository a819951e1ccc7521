"""Characteristic numbers, characteristic equations, and particular points.

Every length-n parity vector v with m ones determines the affine action
T^n(N) = (3^m N + P) / 2^n on its realizers.  The numbers computed here are
all exact integers or rationals attached to v:

    n, m      length and number of ones
    P         affine offset, via recurrence or closed form over one-positions
    c         2^n - 3^m
    a, b      the unique pair with 3^m a + 1 = 2^n b, 0 < a < 2^n, 0 < b < 3^m
    alpha,beta / A,B   Euclidean splits of P by 3^m and by 2^n
    N0        smallest positive realizer of v (unique in [1, 2^n])
    r0        N0 / 2^n
    X, Y      P*a and P*b; X realizes v and T^n(X) = Y
    X*, Y*    the odd-residue decomposition over one-positions; X* realizes v

A CharacteristicSet stores n, m, P and N0, and the rest derive from them.  X*
and Y* need the one-positions, so they come from the vector, by
`xstar_decompose(v)`.  a, and with it N0, comes from one closed-form solve,
`_solve_ab`, with the paper's halving recurrence `ab_recurrence` as its
oracle; b is read off a.  One generator, `_xstar_terms`, makes X*'s rows for
`xstar_decompose` and for the table writers in report.py: it takes each
theta_k from the one before by an exact division by 3, and each cofactor t_k
from the one before and the bits theta_{k-1} drops, with no product of 3^k
and a whole theta.  Every function here sums P by Horner over the bytes of
the vector, one step per 8 bits, P(u || w) = 3^{m(w)} P(u) + 2^{n(u)} P(w),
with each byte's (3^{m(w)}, P(w)) from core's table of the 256 length-8
vectors (`_horner_p`), and the weighted sum `p_closed_form` as its oracle.
Realizers of v are exactly N0 + 2^n * k.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction

from .core import _BYTE_P, _DIGITS, ParityVector, Record


class CharacteristicSet(Record):
    """The characteristic set of a finite parity vector, or of a stream's length-n prefix.

    Only n, m, P and N0 are stored; every other number, b among them, is
    computed on read.  a is kept in the `_a` slot: `char_set`,
    `iter_trajectory` and `classify` fill it as they make the set, and any
    other set solves once on first read.  A copy or a pickle keeps it, or
    its absence.  a, b and the numbers that need them are None when m = 0
    (the equation needs m >= 1).  X* needs the one-positions, so
    `xstar_decompose` reads it from the vector.
    """

    __slots__ = ("n", "m", "P", "N0", "_a")

    def __init__(self, n: int, m: int, P: int, N0: int):
        self._init(n, m, P, N0)

    def __reduce__(self):
        try:
            return _set_with_a, (*self._values(), self._a)
        except AttributeError:  # not solved yet
            return self.__class__, self._values()

    @property
    def c(self) -> int:
        return (1 << self.n) - 3**self.m

    @property
    def a(self) -> int | None:
        try:
            return self._a
        except AttributeError:  # not read yet
            a = _solve_ab(self.m, self.n)[0] if self.m else None
            object.__setattr__(self, "_a", a)
            return a

    @property
    def b(self) -> int | None:
        return None if self.a is None else (3**self.m * self.a + 1) >> self.n

    @property
    def alpha(self) -> int:
        return self.P // 3**self.m

    @property
    def beta(self) -> int:
        return self.P % 3**self.m

    @property
    def A(self) -> int:
        return self.P >> self.n

    @property
    def B(self) -> int:
        return self.P & ((1 << self.n) - 1)

    @property
    def X(self) -> int | None:
        return None if self.a is None else self.P * self.a

    @property
    def Y(self) -> int | None:
        return None if self.a is None else self.P * self.b

    @property
    def K(self) -> int | None:
        """X = N0 + 2^n K."""
        return None if self.a is None else (self.X - self.N0) >> self.n

    @property
    def f1(self) -> int | None:
        return None if self.a is None else (self.B * self.a) >> self.n

    @property
    def f2(self) -> int | None:
        """B*a = 2^n f1 + f2 with 0 <= f2 < 2^n."""
        return None if self.a is None else (self.B * self.a) & ((1 << self.n) - 1)

    @property
    def r0(self) -> Fraction:
        return Fraction(self.N0, 1 << self.n)

    @property
    def q(self) -> Fraction | None:
        return None if self.a is None else Fraction(self.X, 1 << self.n)

    @property
    def m_over_n(self) -> Fraction:
        return Fraction(self.m, self.n)

    @property
    def P_over_2n(self) -> Fraction:
        return Fraction(self.P, 1 << self.n)

    @property
    def P_over_3m(self) -> Fraction:
        return Fraction(self.P, 3**self.m)

    @property
    def P_over_2n3m(self) -> Fraction:
        return Fraction(self.P, (1 << self.n) * 3**self.m)

    @property
    def alpha_over_2n(self) -> Fraction:
        return Fraction(self.alpha, 1 << self.n)

    @property
    def A_over_3m(self) -> Fraction:
        return Fraction(self.A, 3**self.m)

    @property
    def f2_over_2n(self) -> Fraction | None:
        return None if self.a is None else Fraction(self.f2, 1 << self.n)

    @property
    def ab_gap(self) -> Fraction | None:
        """|a/2^n - b/3^m| = 1/(2^n 3^m) by 3^m a + 1 = 2^n b: the ratios become equivalent."""
        return None if self.m == 0 else Fraction(1, (1 << self.n) * 3**self.m)

    def check(self) -> None:
        """Re-verify the identities that tie the stored fields together; raises AssertionError."""
        pow2 = 1 << self.n
        pow3 = 3**self.m
        assert 1 <= self.N0 <= pow2 and (pow3 * self.N0 + self.P) % pow2 == 0
        if self.m == 0:
            assert self.P == 0 and self.a is None
        else:
            assert 0 < self.a < pow2 and (pow3 * self.a + 1) % pow2 == 0
            assert 0 < self.b < pow3
            assert pow3 - 2**self.m <= self.P <= (1 << (self.n - self.m)) * (pow3 - 2**self.m)


def _solve_ab(m: int, n: int) -> tuple[int, int]:
    """The least positive solution (a, b) of 3^m a + 1 = 2^n b, for m, n >= 1.

    a = -3^-m mod 2^n, with the inverse x of 3^m mod 2^n by Newton-Hensel
    steps: if 3^m x = 1 mod 2^k, then x (2 - 3^m x) is the inverse mod 2^2k.
    """
    pow3 = 3**m
    inv, k = 1, 1   # the inverse mod 2^k; 3^m is odd
    while k < n:
        k = min(2 * k, n)
        mask = (1 << k) - 1
        inv = inv * (2 - (pow3 & mask) * inv) & mask
    a = (1 << n) - inv
    return a, (pow3 * a + 1) >> n


XStarRow = namedtuple("XStarRow", [
    "k",      # 1-based index of the one among the ones
    "j",      # 1-based position of that one in the vector
    "theta",  # least positive solution of 3^k * theta = -1 (mod 2^(n-j+1)); odd
    "z",      # 2^(j-1) * theta
    "t",      # (3^k * theta + 1) / 2^(n-j+1)
])


class XStarDecomposition(Record):
    """Per-one-position decomposition of the particular point X*; X = X* + 2^n J."""

    __slots__ = ("rows", "Xstar", "Ystar", "J")

    def __init__(self, rows: tuple[XStarRow, ...], Xstar: int, Ystar: int, J: int):
        self._init(rows, Xstar, Ystar, J)

    def check(self, v: ParityVector) -> None:
        n = v.n
        pow2 = 1 << n
        for row in self.rows:
            assert row.theta & 1 == 1
            assert 3**row.k * row.theta + 1 == (1 << (n - row.j + 1)) * row.t
            assert row.z == (1 << (row.j - 1)) * row.theta
        assert self.Xstar == sum(r.z for r in self.rows)
        m = len(self.rows)
        assert self.Ystar == sum(3 ** (m - r.k) * r.t for r in self.rows)
        lifted = 3**m * self.Xstar + p_closed_form(v)
        assert lifted % pow2 == 0 and lifted // pow2 == self.Ystar


def _xstar_terms(v: ParityVector) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield (k, j_k, theta_k, t_k, s_k) for each one-position j_k of v, in order.

    theta_k is -3^-k mod 2^L with L = n - j_k + 1, and L falls as k rises, so
    each theta comes from the one before with no modular power: drop the
    bits h = theta_(k-1) >> L, then divide by 3 exactly mod 2^L, adding
    r * 2^L with r in {0, 1, 2} so that the sum is a multiple of 3.  So 3
    theta_k = theta_(k-1) + s_k 2^L with s_k = r - h, from theta_0 = -1; r
    comes from theta_(k-1) mod 3 and h, as 2^L = (-1)^L mod 3.  Then t_k =
    (3^k theta_k + 1) / 2^L is t_(k-1) 2^(j_k - j_(k-1)) + 3^(k-1) s_k, from
    t_0 = 0 and j_0 = 0: no product of 3^k with a whole theta.  Only the
    last theta, t and 3^(k-1) are kept, so a pass holds O(n) bits.
    """
    ones = v.one_positions()
    if not ones:
        raise ValueError("X* needs at least one 1 bit (m >= 1)")
    n = v.n
    pow3 = 1  # 3^(k-1)
    theta = -1
    t = 0
    last = 0  # j_(k-1)
    for k, j in enumerate(ones, start=1):
        L = n - j + 1
        h = theta >> L
        s = (h + theta % 3 if L & 1 else h - theta % 3) % 3 - h
        theta = (theta + (s << L)) // 3
        t = (t << (j - last)) + pow3 * s
        pow3 *= 3
        last = j
        yield k, j, theta, t, s


def _xstar_totals(v: ParityVector, each_row: Callable | None = None) -> tuple[int, int, int]:
    """X*, Y* and J = a Y* - b X* of v from one pass of `_xstar_terms`.

    Each row (k, j_k, theta_k, z_k, t_k, s_k) goes to `each_row`, if given, as it is made.
    """
    Xstar = Ystar = 0
    for k, j, theta, t, s in _xstar_terms(v):
        z = theta << (j - 1)
        Xstar += z
        Ystar = 3 * Ystar + t
        if each_row is not None:
            each_row(k, j, theta, z, t, s)
    a, b = _solve_ab(k, v.n)
    return Xstar, Ystar, a * Ystar - b * Xstar


def p_recurrence(v: ParityVector) -> tuple[int, ...]:
    """The sequence (P_1, ..., P_n): P_j = P_{j-1} on a 0 bit, 3*P_{j-1} + 2^{j-1} on a 1."""
    out = []
    P = 0
    pw = 1
    for e in v.bits:
        if e:
            P = 3 * P + pw
        out.append(P)
        pw <<= 1
    return tuple(out)


def _horner_p(bits: tuple[int, ...]) -> int:
    """P of a bit tuple, possibly empty, by Horner over its bytes: P = 3^{m(w)} P + 2^{8i} P(w).

    The bits are packed into one int, first bit lowest, and cut into bytes
    by one to_bytes; byte i, its bits w, gives (3^{m(w)}, P(w)) from core's
    `_BYTE_P`.  A last byte short of 8 bits reads as padded with zeros,
    which leave P unchanged.
    """
    if not bits:
        return 0
    packed = int(bytes(bits)[::-1].translate(_DIGITS), 2)
    P = shift = 0
    for byte in packed.to_bytes((len(bits) + 7) >> 3, "little"):
        pow3, p = _BYTE_P[byte]
        P = pow3 * P + (p << shift)
        shift += 8
    return P


def p_closed_form(v: ParityVector) -> int:
    """P as the weighted sum 3^{m-i} * 2^{j_i - 1} over the one-positions j_1 < ... < j_m."""
    ones = v.one_positions()
    m = len(ones)
    return sum(3 ** (m - i) * (1 << (j - 1)) for i, j in enumerate(ones, start=1))


def ab_recurrence(m: int, n: int) -> list[tuple[int, int]]:
    """The (a_{m,i}, b_{m,i}) table for i = 1..n, built by the halving recurrence.

    Start from a = 1, b = (3^m + 1)/2.  While b is even the power of two in
    3^m a + 1 rises for free (halve b); when b is odd, adding 2^{i-1} to a
    makes b + 3^m even again.  The final pair satisfies 3^m a + 1 = 2^n b.
    """
    if m < 1:
        raise ValueError(f"ab_recurrence requires m >= 1, got {m}")
    if n < 1:
        raise ValueError(f"ab_recurrence requires n >= 1, got {n}")
    pow3 = 3**m
    a = 1
    b = (pow3 + 1) >> 1
    table = [(a, b)]
    for i in range(2, n + 1):
        if b & 1 == 0:
            b >>= 1
        else:
            a += 1 << (i - 1)
            b = (b + pow3) >> 1
        table.append((a, b))
    return table


def ab_family_member(m: int, n: int, j: int) -> tuple[int, int]:
    """The j-th member (a + 2^n j, b + 3^m j) of the solution family of 3^m a + 1 = 2^n b."""
    if m < 1 or n < 1:
        raise ValueError(f"ab_family_member requires m, n >= 1, got ({m}, {n})")
    a, b = _solve_ab(m, n)
    return a + (j << n), b + 3**m * j


def g_of(v: ParityVector, N: int) -> Fraction:
    """The affine value (3^m N + P) / 2^n as an exact reduced rational."""
    if N < 1:
        raise ValueError(f"g_of requires N >= 1, got {N}")
    return Fraction(3**v.ones * N + _horner_p(v.bits), 1 << v.n)


def is_member(v: ParityVector, N: int) -> bool:
    """Whether the length-n sequence starting at N has parity vector v.

    Holds iff (3^m N + P) is divisible by 2^n, i.e. g_of(v, N) is an integer.
    """
    if N < 1:
        raise ValueError(f"is_member requires N >= 1, got {N}")
    return (3**v.ones * N + _horner_p(v.bits)) & ((1 << v.n) - 1) == 0


def apply_vector(v: ParityVector, N: int) -> int:
    """T^n(N) = (3^m N + P) / 2^n for a realizer N of v."""
    pow2 = 1 << v.n
    num = 3**v.ones * N + _horner_p(v.bits)
    if N < 1 or num % pow2 != 0:
        n0 = solve_n0(v)
        raise ValueError(
            f"N={N} does not realize the vector: N mod 2^{v.n} = {N % pow2}, "
            f"members satisfy N mod 2^{v.n} = {n0 % pow2}"
        )
    return num // pow2


def solve_n0(v: ParityVector) -> int:
    """Smallest positive realizer of v: N0 = -P * (3^m)^{-1} mod 2^n, with 0 mapped to 2^n."""
    return char_set(v).N0


def nth_realizer(v: ParityVector, j: int) -> int:
    """The j-th realizer N_j = N0 + 2^n * j."""
    if j < 0:
        raise ValueError(f"realizer index must be >= 0, got {j}")
    return solve_n0(v) + (1 << v.n) * j


def xy_points(v: ParityVector) -> tuple[int, int]:
    """The particular points X = P*a and Y = P*b; X realizes v and T^n(X) = Y."""
    cs = char_set(v)
    if cs.m == 0:
        raise ValueError("xy_points requires at least one 1 bit (m >= 1)")
    return cs.X, cs.Y


def xstar_decompose(v: ParityVector) -> XStarDecomposition:
    """Decompose X* = sum 2^{j_k - 1} theta_k over the one-positions of v.

    theta_k is the least positive solution of 3^k theta = -1 (mod 2^{n-j_k+1}),
    which the congruence forces to be odd; t_k is the matching cofactor, and
    Y* = sum 3^{m-k} t_k satisfies T^n(X*) = Y*.
    """
    rows: list[XStarRow] = []
    totals = _xstar_totals(v, lambda k, j, theta, z, t, s: rows.append(XStarRow(k, j, theta, z, t)))
    return XStarDecomposition(tuple(rows), *totals)


def _concat_p(P1: int, n1: int, P2: int, m2: int) -> int:
    """P of v1 || v2 from P1 = P(v1), n1 = n(v1), P2 = P(v2), m2 = m(v2): 3^{m2} P1 + 2^{n1} P2."""
    return 3**m2 * P1 + (P2 << n1)


def _repeat_p(P: int, m: int, n: int, k: int) -> int:
    """P of u repeated k >= 0 times from P = P(u), m = m(u), n = n(u).

    P(u^k) = P(u) * (3^{km} - 2^{kn}) / (3^m - 2^n), an exact division.
    """
    num = P * (3 ** (k * m) - (1 << (k * n)))
    den = 3**m - (1 << n)  # never zero: powers of 2 and 3 only meet at 1
    q, r = divmod(num, den)
    assert r == 0
    return q


def compose_p(v1: ParityVector, v2: ParityVector) -> int:
    """P of the concatenation v1 || v2, from the parts: 3^{m(v2)} P(v1) + 2^{n(v1)} P(v2)."""
    return _concat_p(_horner_p(v1.bits), v1.n, _horner_p(v2.bits), v2.ones)


def repeat_p(u: ParityVector, k: int) -> int:
    """P of u repeated k times: P(u) * (3^{km} - 2^{kn}) / (3^m - 2^n)."""
    if k < 1:
        raise ValueError(f"repeat count must be >= 1, got {k}")
    return _repeat_p(_horner_p(u.bits), u.ones, u.n, k)


OmegaExtremes = namedtuple("OmegaExtremes", ["min_vector", "min_p", "max_vector", "max_p"])


def omega_extremes(n: int, m: int) -> OmegaExtremes:
    """Extremes of P over all length-n vectors with m ones.

    The minimum 3^m - 2^m is attained by 1^m 0^{n-m} (ones packed left); the
    maximum 2^{n-m} (3^m - 2^m) by 0^{n-m} 1^m (ones packed right).
    """
    if n < 1:
        raise ValueError(f"omega_extremes requires n >= 1, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"omega_extremes requires 0 <= m <= n, got m={m}, n={n}")
    if m == 0:
        zeros = ParityVector((0,) * n)
        return OmegaExtremes(zeros, 0, zeros, 0)
    spread = 3**m - 2**m
    vmin = ParityVector((1,) * m + (0,) * (n - m))
    vmax = ParityVector((0,) * (n - m) + (1,) * m)
    return OmegaExtremes(vmin, spread, vmax, (1 << (n - m)) * spread)


def cycle_fixed_point(u: ParityVector) -> Fraction:
    """The unique rational fixed by x -> (3^m x + P) / 2^n, i.e. P / (2^n - 3^m).

    An infinite repetition of u is realizable by an integer only if this value
    is a positive integer.  m = 0 gives 0: no positive fixed point.
    """
    return Fraction(_horner_p(u.bits), (1 << u.n) - 3**u.ones)


def congruence_witness(v1: ParityVector, v2: ParityVector, x1: int, x2: int) -> int:
    """The integer j with 3^{m2-m1} x2 P(v1) - x1 P(v2) = 2^n j, for realizers x1, x2.

    Requires n(v1) = n(v2) and m(v2) >= m(v1); the equal-m case reduces to
    P(v1) x2 - P(v2) x1 = 2^n j.
    """
    if v1.n != v2.n:
        raise ValueError(f"vectors must share a length, got {v1.n} and {v2.n}")
    if v2.ones < v1.ones:
        raise ValueError(f"need m(v2) >= m(v1), got {v2.ones} < {v1.ones}")
    if not is_member(v1, x1):
        raise ValueError(f"x1={x1} does not realize v1")
    if not is_member(v2, x2):
        raise ValueError(f"x2={x2} does not realize v2")
    num = 3 ** (v2.ones - v1.ones) * x2 * _horner_p(v1.bits) - x1 * _horner_p(v2.bits)
    q, r = divmod(num, 1 << v1.n)
    assert r == 0, "congruence witness must be an exact integer"
    return q


def char_set(v: ParityVector) -> CharacteristicSet:
    """The characteristic set of v.

    P by Horner over the bytes of v (`_horner_p`), and N0 = P * a
    mod 2^n (0 mapped to 2^n) from one solve for a; N0 = 2^n when m = 0.
    The solved a fills the set's cache.
    """
    return _solved_set(v.n, v.ones, _horner_p(v.bits))


def _solved_set(n: int, m: int, P: int, N0: int | None = None) -> CharacteristicSet:
    """The set of a length-n vector with m ones and offset P, its a cache filled.

    One solve gives a; N0 is P * a mod 2^n (0 mapped to 2^n) unless the
    caller knows it, taken by masks: `%` by 2^n would be a long division.
    """
    a = _solve_ab(m, n)[0] if m else None
    if N0 is None:
        mask = (1 << n) - 1
        N0 = (P & mask) * (a or 0) & mask or mask + 1
    return _set_with_a(n, m, P, N0, a)


def _set_with_a(n: int, m: int, P: int, N0: int, a: int | None) -> CharacteristicSet:
    """The set with fields n, m, P and N0 whose a is known: None when m = 0."""
    cs = CharacteristicSet(n, m, P, N0)
    object.__setattr__(cs, "_a", a)
    return cs
