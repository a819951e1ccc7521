"""Shortcut Collatz map, parity vectors, and infinite-vector prefix generators.

The shortcut map consumes exactly one division by 2 per step:

    T(N) = N/2        if N is even
    T(N) = (3N+1)/2   if N is odd

A parity vector records the parities (odd = 1) of consecutive iterates.
All arithmetic is exact; integers are unbounded everywhere.

Eight steps take one lookup.  Every N = r + 2^8 h with r = N mod 2^8 has the
parity vector v_r of r's first 8 steps, and T^8(N) = 3^m h + T^8(r), m being
the ones of v_r (Terras 1976; Lagarias 1985, section 2).  `_BYTE_STEPS`
holds (v_r, m, 3^m, T^8(r)) for the 256 residues, built once at import, and
`IntegerGenerator.bits` walks an orbit by it.  Its inverse view `_BYTE_P`,
indexed by the 8-bit vector, gives (3^m, P(v)) with P(v_r) = 2^8 T^8(r) -
3^m r, for the byte-wise Horner sum of P in `characteristics`.
`collatz_step`, the one step, is the oracle of both.

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
    """

    __slots__ = ()

    def bits(self) -> Iterator[int]:
        raise NotImplementedError

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
