"""Shortcut Collatz map, parity vectors, and infinite-vector prefix generators.

The shortcut map consumes exactly one division by 2 per step:

    T(N) = N/2        if N is even
    T(N) = (3N+1)/2   if N is odd

A parity vector records the parities (odd = 1) of consecutive iterates.
All arithmetic is exact; integers are unbounded everywhere.

Eight steps take one lookup.  Every N = r + 2^8 h with r = N mod 2^8 has the
parity vector v_r of r's first 8 steps, and T^8(N) = 3^m h + T^8(r), m being
the ones of v_r (Terras 1976; Lagarias 1985, section 2).  `_BYTE_STEPS`
holds (v_r, m, 3^m, T^8(r)) for the 256 residues, built once at import:
`IntegerGenerator.bits` walks an orbit by it, and `_steps` counts an orbit's
odd terms by it.  Its inverse view `_BYTE_P`, indexed by the 8-bit vector,
gives (3^m, P(v)) with P(v_r) = 2^8 T^8(r) - 3^m r, for `_horner_p`, the
byte-wise Horner sum of P that `characteristics` uses too.  `collatz_step`,
the one step, is the oracle of both.

`classify` needs only the H-bit prefix's m_H, P_H and N0_H, and the 1 bits
in its last W, and each generator gives them by `_prefix_state`.  Any source
draws its first H bits, held as one tuple, sums P_H by `_horner_p` and
leaves N0_H to a solve.  The two spec types whose bits have a closed form
draw no bit at all:
  * `int:N`: one pass of the orbit N, T(N), ..., T^H(N), 8 steps per
    lookup (`_steps`), counts m_H and the window's ones; T^H(N) = (3^m N +
    P_H)/2^H gives P_H, and N, which realizes every prefix, gives N0_H =
    ((N - 1) mod 2^H) + 1 with no solve;
  * head+cycle: the prefix is h || c^k || c[:r], so P_H joins P(h), P(c^k)
    and P(c[:r]) by `_concat_p`, each part's P by `_horner_p` of its bit
    tuple and P(c^k) from P(c) by `_repeat_p`, and m counts come from the
    parts; N0_H = P_H a_H mod 2^H is left to the solve.

The package's value types derive from `Record`, a plain immutable
`__slots__` base: its classes are cheap to define at import time, and its
instances cheap to construct.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from itertools import compress, islice


class BitStreamExhausted(ValueError):
    """A finite bit source ran out before the requested position.

    `position` is the number of bits that were actually delivered.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields in `__slots__`; a slot whose name starts
    with an underscore is a cache, not a field.  Its `__init__` validates
    and stores the fields with `_init`, in `__slots__` order.  A record
    compares equal only to a record of the same class with equal fields,
    hashes its fields, has the repr `Name(field=value, ...)`, and rejects
    assignment and deletion.  Copies and pickles are rebuilt by calling the
    class on the fields, since slot state cannot be restored through the
    refusing `__setattr__`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = [name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_")]
        cls._fields = cls._fields + tuple(own)
        # a slot descriptor's __set__ skips __setattr__, and is the cheapest way in
        cls._setters = cls._setters + tuple(cls.__dict__[name].__set__ for name in own)

    def _init(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


def parity(N: int) -> int:
    """The parity map: 1 if N is odd, 0 if N is even."""
    return N & 1


def collatz_step(N: int) -> int:
    """One application of the shortcut map T."""
    if N < 1:
        raise ValueError(f"collatz_step requires N >= 1, got {N}")
    return N >> 1 if N & 1 == 0 else (3 * N + 1) >> 1


def collatz_sequence(N: int, n: int) -> tuple[int, ...]:
    """The sequence (N, T(N), ..., T^{n-1}(N)), exactly n terms."""
    if N < 1:
        raise ValueError(f"collatz_sequence requires N >= 1, got {N}")
    if n < 1:
        raise ValueError(f"collatz_sequence requires n >= 1, got {n}")
    terms = [N]
    for _ in range(n - 1):
        terms.append(collatz_step(terms[-1]))
    return tuple(terms)


# the bytes of "0" and "1" to the bit values 0 and 1, and back
_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _byte_tables() -> tuple[list[tuple[bytes, int, int, int]], list[tuple[int, int]]]:
    """(v_r, m, 3^m, T^8(r)) for r = 0..255, and (3^m, P(v)) indexed by the 8-bit vector v.

    v_r is a bytes of 8 bit values.  Both tables are built by doubling from
    one bit.  The steps of 2k bits come from those of k: with r = lo + 2^k
    hi, T^k(r) = y = 3^m(lo) hi + T^k(lo), and T^2k(r) = T^k(y), looked up
    again by y mod 2^k.  A vector of 2k bits, u || w with u and w of k bits,
    has P = 3^m(w) P(u) + 2^k P(w); it is indexed with its first bit lowest.
    """
    steps = [(b"\x00", 0, 1, 0), (b"\x01", 1, 3, 2)]   # one step of r = 0 and r = 1
    by_vector = [(1, 0), (3, 1)]
    for k in (1, 2, 4):
        low = (1 << k) - 1
        doubled = []
        for r in range(1 << 2 * k):
            bits, m, pow3, y = steps[r & low]
            y += pow3 * (r >> k)
            more, m_more, pow3_more, t = steps[y & low]
            doubled.append((bits + more, m + m_more, pow3 * pow3_more,
                            pow3_more * (y >> k) + t))
        steps = doubled
        by_vector = [(pow3_u * pow3_w, pow3_w * p_u + (p_w << k))
                     for pow3_w, p_w in by_vector for pow3_u, p_u in by_vector]
    return steps, by_vector


_BYTE_STEPS, _BYTE_P = _byte_tables()


def _steps(x: int, count: int) -> tuple[int, int]:
    """T^count(x), and how many of x, T(x), ..., T^(count-1)(x) are odd; x >= 1.

    Eight steps at a time: with r = x mod 2^8, `_BYTE_STEPS` gives the odd
    terms m among r's 8 steps, 3^m and T^8(r), and T^8(x) = 3^m (x >> 8) +
    T^8(r).  Only the last count mod 8 steps go through `collatz_step`.
    """
    odd = 0
    for _ in range(count >> 3):
        _, m, pow3, t = _BYTE_STEPS[x & 255]
        odd += m
        x = pow3 * (x >> 8) + t
    for _ in range(count & 7):
        odd += x & 1
        x = collatz_step(x)
    return x, odd


def _horner_p(bits: tuple[int, ...]) -> int:
    """P of a bit tuple, possibly empty, by Horner over its bytes: P = 3^{m(w)} P + 2^{8i} P(w).

    The bits are packed into one int, first bit lowest, and cut into bytes
    by one to_bytes; byte i, its bits w, gives (3^{m(w)}, P(w)) from
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


class ParityVector(Record):
    """A finite, ordered sequence of bits; bit positions are 1-based."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        if len(bits) == 0:
            raise ValueError("parity vector must be nonempty")
        if not {0, 1}.issuperset(bits):
            raise ValueError("parity vector bits must be 0 or 1")
        self._init(bits)

    @classmethod
    def from_string(cls, s: str) -> "ParityVector":
        if not s or s.strip("01"):
            raise ValueError(f"invalid bitstring {s!r}: need nonempty string of '0'/'1'")
        # the strip has checked every bit, so `__init__` need not check them again
        v = object.__new__(cls)
        v._init(tuple(s.encode().translate(_BITS)))
        return v

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def ones(self) -> int:
        return sum(self.bits)

    def one_positions(self) -> tuple[int, ...]:
        """1-based positions j with e_j = 1, ascending."""
        return tuple(compress(range(1, len(self.bits) + 1), self.bits))

    def concat(self, other: "ParityVector") -> "ParityVector":
        return ParityVector(self.bits + other.bits)

    def repeat(self, k: int) -> "ParityVector":
        if k < 1:
            raise ValueError(f"repeat count must be >= 1, got {k}")
        return ParityVector(self.bits * k)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def parity_vector(N: int, n: int) -> ParityVector:
    """Parity vector of the length-n sequence starting at N: bit j = parity of T^{j-1}(N)."""
    if N < 1:
        raise ValueError(f"parity_vector requires N >= 1, got {N}")
    if n < 1:
        raise ValueError(f"parity_vector requires n >= 1, got {n}")
    return IntegerGenerator(N).prefix(n)


def _check_prefix_length(j: int) -> None:
    if not 1 <= j <= sys.maxsize:  # islice takes no stop past sys.maxsize
        raise ValueError(f"prefix length must be 1 to sys.maxsize ({sys.maxsize}), got {j}")


class PrefixGenerator(Record):
    """Immutable spec for an infinite (or finite) stream of parity bits.

    `bits()` returns a fresh iterator each call, so re-running a spec
    reproduces the identical stream and concurrent consumers never share
    iterator state.

    `_prefix_state(H, W)`, for 1 <= W <= H, gives (m_H, P_H, N0_H, ones) of
    the stream's first H bits, ones being the 1 bits among the last W, and
    N0_H None when it is left to a solve; it agrees with `bits()`.  This
    base draws the H bits from `bits()` and raises BitStreamExhausted when
    they run out, so a subclass that defines only `bits()` is read that
    way.  A subclass whose bits have a closed form overrides it and draws
    no bit.
    """

    __slots__ = ()

    def bits(self) -> Iterator[int]:
        raise NotImplementedError

    def _prefix_state(self, horizon: int, window: int) -> tuple[int, int, int | None, int]:
        bits = self.prefix(horizon).bits
        return sum(bits), _horner_p(bits), None, sum(bits[horizon - window:])

    def prefix(self, j: int) -> ParityVector:
        """The first j bits as a parity vector."""
        _check_prefix_length(j)
        bits = tuple(islice(self.bits(), j))
        if len(bits) < j:
            raise BitStreamExhausted(
                f"bit source exhausted at position {len(bits)} (requested {j})", len(bits))
        return ParityVector(bits)

    def spec_string(self) -> str:
        raise NotImplementedError


class IntegerGenerator(PrefixGenerator):
    """Emits the parity vector of the infinite sequence starting at N."""

    __slots__ = ("N",)

    def __init__(self, N: int):
        if N < 1:
            raise ValueError(f"from-integer generator requires N >= 1, got {N}")
        self._init(N)

    def bits(self) -> Iterator[int]:
        x = self.N
        while True:   # 8 steps per lookup: N = r + 2^8 h gives T^8(N) = 3^m h + T^8(r)
            bits, _, pow3, t = _BYTE_STEPS[x & 255]
            yield from bits
            x = pow3 * (x >> 8) + t

    def _prefix_state(self, horizon: int, window: int) -> tuple[int, int, int, int]:
        """One orbit pass by `_steps`, up to the window and through it: P_H = 2^H T^H(N) - 3^m N."""
        x, front = _steps(self.N, horizon - window)
        x, ones = _steps(x, window)
        m = front + ones
        return m, (x << horizon) - 3**m * self.N, ((self.N - 1) & ((1 << horizon) - 1)) + 1, ones

    def spec_string(self) -> str:
        return f"int:{self.N}"


class HeadCycleGenerator(PrefixGenerator):
    """A finite head (possibly empty) followed by a cycle repeated forever."""

    __slots__ = ("cycle", "head")

    def __init__(self, cycle: ParityVector, head: ParityVector | None = None):
        self._init(cycle, head)

    def bits(self) -> Iterator[int]:
        if self.head is not None:
            yield from self.head.bits
        while True:
            yield from self.cycle.bits

    def _prefix_state(self, horizon: int, window: int) -> tuple[int, int, None, int]:
        """P_H and m_H from the parts of h || c^k || c[:r], h the head cut to H bits."""
        head = () if self.head is None else self.head.bits
        cycle, m_cycle = self.cycle.bits, self.cycle.ones

        def ones(j: int) -> int:   # the 1 bits among the first j of the stream
            if j <= len(head):
                return sum(head[:j])
            k, r = divmod(j - len(head), len(cycle))
            return sum(head) + k * m_cycle + sum(cycle[:r])

        cut = head[:horizon]
        k, r = divmod(horizon - len(cut), len(cycle))
        P = _concat_p(_horner_p(cut), len(cut),
                      _repeat_p(_horner_p(cycle), m_cycle, len(cycle), k), k * m_cycle)
        P = _concat_p(P, horizon - r, _horner_p(cycle[:r]), sum(cycle[:r]))
        m = ones(horizon)
        return m, P, None, m - ones(horizon - window)

    def spec_string(self) -> str:
        if self.head is None:
            return f"cycle:{self.cycle}"
        return f"head:{self.head};cycle:{self.cycle}"


class BitStreamGenerator(PrefixGenerator):
    """A finite, explicitly listed bit stream (from a literal or a file)."""

    __slots__ = ("data", "origin")

    def __init__(self, data: tuple[int, ...], origin: str = "bits"):
        if len(data) == 0:
            raise ValueError("bit-stream generator requires at least one bit")
        if not {0, 1}.issuperset(data):
            raise ValueError("bit-stream data must be 0/1")
        self._init(data, origin)

    def bits(self) -> Iterator[int]:
        return iter(self.data)

    def spec_string(self) -> str:
        if self.origin.startswith("file:"):
            return self.origin
        return "bits:" + "".join(str(b) for b in self.data)


def parse_generator(spec: str) -> PrefixGenerator:
    """Parse a generator spec string.

    Grammar: `int:<decimal N>`, `bits:<bitstring>`, `cycle:<bitstring>`,
    `head:<bitstring>;cycle:<bitstring>`, `file:<path>` (whitespace in files
    is ignored).
    """
    if spec.startswith("int:"):
        body = spec[4:]
        if not (body.isascii() and body.isdigit()):   # int() takes other scripts' digits too
            raise ValueError(f"invalid integer in generator spec {spec!r}")
        return IntegerGenerator(int(body))
    if spec.startswith("bits:"):
        return BitStreamGenerator(ParityVector.from_string(spec[5:]).bits)
    if spec.startswith("cycle:"):
        return HeadCycleGenerator(cycle=ParityVector.from_string(spec[6:]))
    if spec.startswith("head:"):
        body = spec[5:]
        head_part, sep, rest = body.partition(";")
        if not sep or not rest.startswith("cycle:"):
            raise ValueError(f"head spec must be 'head:<bits>;cycle:<bits>', got {spec!r}")
        cycle = ParityVector.from_string(rest[6:])
        head = ParityVector.from_string(head_part) if head_part else None
        return HeadCycleGenerator(cycle=cycle, head=head)
    if spec.startswith("file:"):
        path = spec[5:]
        if not os.path.exists(path):
            raise ValueError(f"bit file not found: {path}")
        # read whole before the CLI's first write, which may rewrite this file in place (--out)
        with open(path, "r", encoding="ascii") as fh:
            text = "".join(fh.read().split())
        if not text:
            raise ValueError(f"bit file {path} contains no bits")
        return BitStreamGenerator(ParityVector.from_string(text).bits, origin=f"file:{path}")
    raise ValueError(
        f"unrecognized generator spec {spec!r}; expected int:/bits:/cycle:/head:/file: prefix"
    )
