"""The benchmark's workloads: seeded CLI calls, each with its output check.

One round of a workload is the fixed list of calls below, made once each.
The seed only draws the random integers, bit heads, cycles and vectors; the
sizes, horizons and densities are fixed, so that the work in a round, and
with it every per-call figure, varies little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

PRECISION = 12

# trajectory-int: the parity stream of one starting integer of each size.
TRAJECTORY_HORIZON = 192
TRAJECTORY_SIZES = (4, 16, 64, 128, 256, 512, 1024, 2048)  # bits

# classify-cycle: int:N specs, head+cycle specs realized by an integer (the
# head is its path down to 1, the cycle "10"), and random head+cycle specs.
CLASSIFY_HORIZON = 192
CLASSIFY_WINDOW = 32
CLASSIFY_INT_SIZES = (24, 64, 128)           # bits; below horizon - window
CLASSIFY_REALIZED_SIZES = (20, 40)           # bits of the realizing integer
CLASSIFY_CYCLES = ((3, 1), (5, 3), (8, 4))   # (length, ones) of each random cycle
CLASSIFY_HEAD_MAX = 24

# finite-vectors: each size of vector, with exactly half of its bits set.
# X = P*a has about 0.69 n decimal digits, far below Python's 4300-digit
# limit on int-to-str conversion.
VECTOR_SIZES = (1024, 1536, 2048)
SOLVE_COUNT = 8


@dataclass(frozen=True)
class Call:
    """One CLI call: its arguments before --out, its input bits, its check."""

    argv: tuple[str, ...]
    bits: int
    check: Callable[[str], str]


def _sized(rng: random.Random, size: int) -> int:
    """A random integer of exactly `size` bits."""
    return rng.getrandbits(size) | (1 << (size - 1))


def trajectory_int(rng: random.Random) -> list[Call]:
    H = TRAJECTORY_HORIZON
    calls = []
    for size in TRAJECTORY_SIZES:
        N = _sized(rng, size)
        argv = ("trajectory", f"int:{N}", "--horizon", str(H), "--precision", str(PRECISION))
        calls.append(Call(argv, H, partial(checks.trajectory_csv, N, H, PRECISION)))
    return calls


def _path_to_one(N: int) -> str:
    bits = []
    while N != 1:
        bits.append(str(N & 1))
        N = checks.step(N)
    return "".join(bits)


def _classify_call(spec: str, stream: list[int], candidate: int | None) -> Call:
    H, W = CLASSIFY_HORIZON, CLASSIFY_WINDOW
    argv = ("classify", spec, "--horizon", str(H), "--window", str(W), "--json",
            "--precision", str(PRECISION))
    return Call(argv, H, partial(checks.classify_json, stream[:H], H, W, PRECISION, candidate))


def classify_cycle(rng: random.Random) -> list[Call]:
    H = CLASSIFY_HORIZON
    calls = []
    for size in CLASSIFY_INT_SIZES:
        N = _sized(rng, size)
        calls.append(_classify_call(f"int:{N}", checks.parity_bits(N, H), N))
    for size in CLASSIFY_REALIZED_SIZES:
        N = _sized(rng, size)
        head = _path_to_one(N)
        stream = [int(ch) for ch in head] + [1, 0] * H
        calls.append(_classify_call(f"head:{head};cycle:10", stream, N))
    for length, ones in CLASSIFY_CYCLES:
        head = "".join(rng.choice("01") for _ in range(rng.randint(1, CLASSIFY_HEAD_MAX)))
        positions = set(rng.sample(range(length), ones))
        cycle = "".join("1" if i in positions else "0" for i in range(length))
        stream = [int(ch) for ch in head] + [int(ch) for ch in cycle] * H
        calls.append(_classify_call(f"head:{head};cycle:{cycle}", stream, None))
    return calls


def finite_vectors(rng: random.Random) -> list[Call]:
    calls = []
    for n in VECTOR_SIZES:
        positions = set(rng.sample(range(n), n // 2))
        v = "".join("1" if i in positions else "0" for i in range(n))
        calls.append(Call(("analyze", v), n, partial(checks.analyze_json, v)))
        calls.append(Call(("solve", v, "--count", str(SOLVE_COUNT)), n,
                          partial(checks.solve_text, v, SOLVE_COUNT)))
        calls.append(Call(("xstar", v, "--json"), n, partial(checks.xstar_json, v)))
    return calls


WORKLOADS = {
    "trajectory-int": trajectory_int,
    "classify-cycle": classify_cycle,
    "finite-vectors": finite_vectors,
}


def make_calls(workload: str, seed: int) -> list[Call]:
    """The round of calls of `workload`; the same seed gives the same calls."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
