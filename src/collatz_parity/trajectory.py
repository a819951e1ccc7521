"""Order-j characteristic sequences of infinite vectors, and the realizability classifier.

For an infinite bit stream V the length-j prefix has its own characteristic
set; those values as functions of j are the order-j characteristic numbers.
Each row is a CharacteristicSet with n = j, the same type `char_set` returns
for a finite vector.  Its stored fields are updated incrementally:

  * P_j by the one-step recurrence,
  * N0_j by lifting the residue from mod 2^j to mod 2^{j+1}: the lift that
    matches the parity of T^j(N0_j) keeps the vector realized (the dichotomy
    N0_{j+1} in {N0_j, N0_j + 2^j}),
  * the inverse of 3^{m_j} mod 2^j by one Newton step per row (times the
    inverse of 3 when a new one arrives), giving a_j,
  * the one-positions, extended on a 1 bit.

That is O(1) big-int operations per row.  The other numbers are computed
when read; reading X*_j (or K*_j, q*_j) costs m_j modular inverses, so a
caller that reads it on every row does O(j) inverses per row.

True limits are never computed; everything here is horizon-bounded, and the
classifier says only what the computed rows support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import BitStreamExhausted, PrefixGenerator, collatz_step
from .characteristics import CharacteristicSet

HALVED = "halved"
HALVED_PLUS_HALF = "halved-plus-half"

STABILIZED = "stabilized"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"

DEFAULT_HORIZON = 256
DEFAULT_WINDOW = 32


def iter_trajectory(gen: PrefixGenerator, horizon: int) -> Iterator[CharacteristicSet]:
    """Stream rows for j = 1..horizon: the characteristic set of each length-j prefix.

    A finite bit source that runs dry raises BitStreamExhausted whose
    `position` is the last complete row index; rows up to it have already
    been yielded.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    bits = gen.bits()
    P = 0
    pow3m = 1
    pow2 = 1          # 2^{j-1} while processing row j
    N0 = 1
    u = 1             # T^{j}(N0_j) after each row
    inv3 = 1          # 3^{-1} mod 2^j
    inv3m = 1         # (3^m)^{-1} mod 2^j
    ones: tuple[int, ...] = ()
    for j in range(1, horizon + 1):
        try:
            e = next(bits)
        except StopIteration:
            raise BitStreamExhausted(
                f"bit source exhausted after {j - 1} complete rows "
                f"(requested horizon {horizon})",
                j - 1,
            ) from None
        if (u & 1) != e:
            N0 += pow2
            u += pow3m
        u = collatz_step(u)
        newpow2 = pow2 << 1
        mask = newpow2 - 1
        if j > 1:
            inv3 = (inv3 * (2 - 3 * inv3)) & mask
            inv3m = (inv3m * (2 - pow3m * inv3m)) & mask
        if e:
            P = 3 * P + pow2
            pow3m *= 3
            ones += (j,)
            inv3m = (inv3m * inv3) & mask
        pow2 = newpow2
        yield CharacteristicSet(n=j, one_positions=ones, P=P, N0=N0,
                                a=pow2 - inv3m if ones else None)


def lemma51_check(prev: CharacteristicSet, cur: CharacteristicSet) -> str:
    """Which of the two consecutive-row relations holds for r0.

    Returns "halved" when r0_{j+1} = r0_j / 2 (N0 unchanged) and
    "halved-plus-half" when r0_{j+1} = r0_j / 2 + 1/2 (N0 lifted by 2^j).
    Exactly one must hold.
    """
    if cur.n != prev.n + 1:
        raise ValueError(f"rows must be consecutive, got j={prev.n} then j={cur.n}")
    if cur.r0 == prev.r0 / 2:
        return HALVED
    if cur.r0 == prev.r0 / 2 + Fraction(1, 2):
        return HALVED_PLUS_HALF
    raise AssertionError(
        f"r0 dichotomy violated between rows {prev.n} and {cur.n}: "
        f"{prev.r0} -> {cur.r0}"
    )


@dataclass(frozen=True)
class ClassifierDiagnostics:
    """Final-row diagnostics attached to a verdict.

    q/qstar distances are the exact distance of X_j/2^j and X*_j/2^j to the
    nearest integer; ones_in_window counts 1 bits inside the final window
    (zero suggests an all-zero tail, outside the infinite-ones assumption).
    """

    final_j: int
    q_distance: Fraction | None
    qstar_distance: Fraction | None
    m_over_n: Fraction
    P_over_2n: Fraction
    ones_in_window: int


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Horizon-bounded verdict on the prefix-realizer sequence N0_j.

    stabilized: N0_j constant over the final `window` rows (candidate = that value).
    growing:    N0_j still changed inside the final window; distinct_count is the
                number of distinct values seen (N0_j is non-decreasing).
    inconclusive: the bit source ran dry before `horizon` rows; rows_computed is
                the number of rows it delivered.  The verdicts are about infinite
                streams, so a finite source gets none and no diagnostics.
    """

    kind: str
    horizon: int
    window: int
    rows_computed: int
    candidate: int | None = None
    stable_since: int | None = None
    distinct_count: int | None = None
    diagnostics: ClassifierDiagnostics | None = None


def classify(gen: PrefixGenerator, horizon: int = DEFAULT_HORIZON,
             window: int = DEFAULT_WINDOW) -> RealizabilityVerdict:
    """Classify the N0_j behavior of a stream over a finite horizon.

    The verdict claims nothing beyond the computed rows: a stream may change
    N0 right after the horizon, so "stabilized" is evidence, not proof, and a
    source that runs dry before `horizon` rows is "inconclusive".  The rows
    are streamed; only the last one and a few counters are kept.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > horizon:
        raise ValueError(f"window ({window}) must not exceed horizon ({horizon})")
    changes = 0
    last_change = None
    m_before_window = 0
    last = None
    try:
        for row in iter_trajectory(gen, horizon):
            # N0_j is non-decreasing; a change at row j means N0_j != N0_{j-1}.
            if last is not None and row.N0 != last.N0:
                changes += 1
                last_change = row.n
            if row.n == horizon - window:
                m_before_window = row.m
            last = row
    except BitStreamExhausted as exc:
        return RealizabilityVerdict(
            kind=INCONCLUSIVE, horizon=horizon, window=window, rows_computed=exc.position
        )
    diag = ClassifierDiagnostics(
        final_j=last.n,
        q_distance=last.q_int_distance,
        qstar_distance=last.qstar_int_distance,
        m_over_n=last.m_over_n,
        P_over_2n=last.P_over_2n,
        ones_in_window=last.m - m_before_window,
    )
    if last_change is not None and last_change > horizon - window:
        return RealizabilityVerdict(
            kind=GROWING, horizon=horizon, window=window, rows_computed=horizon,
            distinct_count=changes + 1, diagnostics=diag,
        )
    return RealizabilityVerdict(
        kind=STABILIZED, horizon=horizon, window=window, rows_computed=horizon,
        candidate=last.N0, stable_since=last_change or 1, diagnostics=diag,
    )


ASYMPTOTIC_FIELDS = (
    "P_over_2n3m", "P_over_3m", "alpha_over_2n", "A_over_3m",
    "ab_gap", "m_over_n", "P_over_2n", "f2_over_2n",
)


@dataclass(frozen=True)
class AsymptoticReport:
    """Exact per-row decay diagnostics plus last-row and max-over-tail summaries.

    The tail is the second half of the rows; max_over_tail ignores rows where
    a diagnostic is undefined (m = 0).
    """

    rows: tuple[CharacteristicSet, ...]
    tail_start: int
    last: dict
    max_over_tail: dict


def asymptotic_report(rows: Iterable[CharacteristicSet]) -> AsymptoticReport:
    rows = tuple(rows)
    if len(rows) < 2:
        raise ValueError("asymptotic_report needs at least 2 rows")
    tail_start = len(rows) // 2
    tail = rows[tail_start:]
    last = {name: getattr(rows[-1], name) for name in ASYMPTOTIC_FIELDS}
    max_over_tail = {}
    for name in ASYMPTOTIC_FIELDS:
        values = [getattr(r, name) for r in tail if getattr(r, name) is not None]
        max_over_tail[name] = max(values) if values else None
    return AsymptoticReport(rows=rows, tail_start=tail_start + 1, last=last,
                            max_over_tail=max_over_tail)
