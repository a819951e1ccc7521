#!/usr/bin/env python3
"""Walkthrough: order-j characteristic rows of an infinite bit stream.

Each prefix of an infinite vector has a smallest realizer N0_j.  Extending
the prefix by one bit either keeps N0 or lifts it by 2^j, which makes the
ratio r0_j = N0_j / 2^j either halve or halve-plus-one-half at every step.
"""

import io

from collatz_parity import iter_trajectory, lemma51_check, parse_generator
from collatz_parity.report import write_trajectory_csv

gen = parse_generator("bits:11010011010010")
print(f"stream: {gen.spec_string()}")

print("\n-- the first eight rows --")
rows = list(iter_trajectory(gen, 8))
print(f"  {'j':>2} {'prefix realizer N0_j':>21} {'r0_j':>9}  step")
prev = None
for row in rows:
    step = "" if prev is None else lemma51_check(prev, row)
    print(f"  {row.n:>2} {row.N0:>21} {str(row.r0):>9}  {step}")
    prev = row
print("the N0 column is the classic table row 1, 3, 3, 11, 11, 11, 11, 139")

print("\n-- every row satisfies the order-j identities --")
for row in rows:
    if row.m == 0:
        continue
    assert row.q == row.r0 + row.K
    assert 3**row.m * row.a + 1 == (1 << row.n) * row.b
print("q_j = r0_j + K_j and the characteristic equation hold exactly; checked.")

print("\n-- the same rows as CSV (what the `trajectory` subcommand streams) --")
buf = io.StringIO()
write_trajectory_csv(gen, 8, buf, digits=6)
print(buf.getvalue().rstrip())
