#!/usr/bin/env python3
"""Walkthrough: horizon-bounded realizability diagnostics.

An infinite vector is realizable iff its prefix realizers N0_j stay bounded.
Limits cannot be decided from finitely many bits, so the classifier reports
what a finite horizon supports: N0_j stabilized over the final window, or it
was still growing inside it.
"""

from collatz_parity import (
    ParityVector,
    asymptotic_report,
    classify,
    cycle_fixed_point,
    iter_trajectory,
    parse_generator,
)


def show(spec: str, horizon: int, window: int) -> None:
    verdict = classify(parse_generator(spec), horizon, window)
    cs = verdict.prefix_set  # the characteristic set of the horizon-bit prefix
    print(f"\n{spec}  (horizon {horizon}, window {window})")
    print(f"  verdict: {verdict.kind} [horizon-bounded]")
    if verdict.kind == "stabilized":
        print(f"  candidate realizer: {verdict.candidate} (stable since row {verdict.stable_since})")
    elif verdict.kind == "growing":
        print(f"  distinct N0 values so far: {verdict.distinct_count}")
    if cs is not None:
        print(f"  final row: m/n = {cs.m_over_n} ~ {float(cs.m_over_n):.4f}, "
              f"P/2^n ~ {float(cs.P_over_2n):.4f}")
        # q = X/2^n and q* = X*/2^n differ from r0 = N0/2^n by integers
        distance = min(cs.r0 % 1, 1 - cs.r0 % 1)
        print(f"  nearest-integer distance of q and q*: {float(distance):.3e}")


print("== a stream that is realized by 27 ==")
show("int:27", 80, 20)

print("\n== the repeating cycle (1,0,0): not realizable ==")
u = ParityVector.from_string("100")
print(f"  fixed point of one cycle pass: {cycle_fixed_point(u)} (not a positive integer)")
show("cycle:100", 40, 10)

print("\n== a head followed by the alternating (0,1) tail ==")
show("head:1101;cycle:01", 40, 10)

print("\n== decay of the offset ratio for a realizable stream ==")
rows = list(iter_trajectory(parse_generator("int:27"), 200))
rep = asymptotic_report(rows)
for j in (10, 50, 100, 200):
    r = rows[j - 1]
    print(f"  j={j:>3}  P/(2^n 3^m) ~ {float(r.P_over_2n3m):.3e}   alpha/2^n ~ "
          f"{float(r.alpha_over_2n):.3e}   A/3^m ~ {float(r.A_over_3m):.3e}")
print(f"  max over the final half of the rows: "
      f"P/(2^n 3^m) <= {float(rep.max_over_tail['P_over_2n3m']):.3e}")
print("  (all comparisons inside the library are exact rationals; floats are display only)")
