"""Shortcut Collatz map, parity vectors, and infinite-vector prefix generators.

The shortcut map consumes exactly one division by 2 per step:

    T(N) = N/2        if N is even
    T(N) = (3N+1)/2   if N is odd

A parity vector records the parities (odd = 1) of consecutive iterates.
All arithmetic is exact; integers are unbounded everywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator


class BitStreamExhausted(ValueError):
    """A finite bit source ran out before the requested position.

    `position` is the number of bits that were actually delivered.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


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


@dataclass(frozen=True)
class ParityVector:
    """A finite, ordered sequence of bits; bit positions are 1-based."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("parity vector must be nonempty")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("parity vector bits must be 0 or 1")

    @classmethod
    def from_string(cls, s: str) -> "ParityVector":
        if not s or any(ch not in "01" for ch in s):
            raise ValueError(f"invalid bitstring {s!r}: need nonempty string of '0'/'1'")
        return cls(tuple(int(ch) for ch in s))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def ones(self) -> int:
        return sum(self.bits)

    def one_positions(self) -> tuple[int, ...]:
        """1-based positions j with e_j = 1, ascending."""
        return tuple(i for i, b in enumerate(self.bits, start=1) if b)

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


class PrefixGenerator:
    """Immutable spec for an infinite (or finite) stream of parity bits.

    `bits()` returns a fresh iterator each call, so re-running a spec
    reproduces the identical stream and concurrent consumers never share
    iterator state.
    """

    def bits(self) -> Iterator[int]:
        raise NotImplementedError

    def prefix(self, j: int) -> ParityVector:
        """The first j bits as a parity vector."""
        if j < 1:
            raise ValueError(f"prefix length must be >= 1, got {j}")
        out = []
        it = self.bits()
        for k in range(j):
            try:
                out.append(next(it))
            except StopIteration:
                raise BitStreamExhausted(
                    f"bit source exhausted at position {k} (requested {j})", k
                ) from None
        return ParityVector(tuple(out))

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class IntegerGenerator(PrefixGenerator):
    """Emits the parity vector of the infinite sequence starting at N."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"from-integer generator requires N >= 1, got {self.N}")

    def bits(self) -> Iterator[int]:
        x = self.N
        while True:
            yield x & 1
            x = collatz_step(x)

    def spec_string(self) -> str:
        return f"int:{self.N}"


@dataclass(frozen=True)
class HeadCycleGenerator(PrefixGenerator):
    """A finite head (possibly empty) followed by a cycle repeated forever."""

    cycle: ParityVector
    head: ParityVector | None = None

    def bits(self) -> Iterator[int]:
        if self.head is not None:
            yield from self.head.bits
        while True:
            yield from self.cycle.bits

    def spec_string(self) -> str:
        if self.head is None:
            return f"cycle:{self.cycle}"
        return f"head:{self.head};cycle:{self.cycle}"


@dataclass(frozen=True)
class BitStreamGenerator(PrefixGenerator):
    """A finite, explicitly listed bit stream (from a literal or a file)."""

    data: tuple[int, ...]
    origin: str = "bits"

    def __post_init__(self):
        if len(self.data) == 0:
            raise ValueError("bit-stream generator requires at least one bit")
        if any(b not in (0, 1) for b in self.data):
            raise ValueError("bit-stream data must be 0/1")

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
        if not body.isdigit():
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
        with open(path, "r", encoding="ascii") as fh:
            text = "".join(fh.read().split())
        if not text:
            raise ValueError(f"bit file {path} contains no bits")
        return BitStreamGenerator(ParityVector.from_string(text).bits, origin=f"file:{path}")
    raise ValueError(
        f"unrecognized generator spec {spec!r}; expected int:/bits:/cycle:/head:/file: prefix"
    )
