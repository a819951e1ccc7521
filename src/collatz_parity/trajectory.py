"""Order-j characteristic sequences of infinite vectors, and the realizability classifier.

For an infinite bit stream V the length-j prefix has its own characteristic
set; those values as functions of j are the order-j characteristic numbers.
Each row is a CharacteristicSet with n = j, the same type `char_set` returns
for a finite vector; a row stores only n, m_j, P_j and N0_j:

  * P_j by the one-step recurrence,
  * N0_j by lifting the residue from mod 2^j to mod 2^{j+1}: the lift that
    matches the parity of T^j(N0_j) keeps the vector realized (the dichotomy
    N0_{j+1} in {N0_j, N0_j + 2^j}),
  * m_j as a counter, one more on a 1 bit.

`iter_trajectory` carries P_j, 3^{m_j}, 2^j, N0_j and T^j(N0_j) from row to
row (a row holds O(j) bits).  Neither `classify` nor the CSV writer reads
its rows: N0_j = ((N0_W - 1) mod 2^j) + 1 for every j <= W, so they read N0
off one N0_W, of the horizon or of a block of bits.  a_j and b_j cost one
Newton-Hensel inverse of 3^{m_j} mod 2^j on first read.  X*_j needs the
one-positions, so it comes from `xstar_decompose(gen.prefix(j))`;
the classifier does without it, since X_j and X*_j are both N0_j mod 2^j.
The CSV reads none of these closed forms; `write_trajectory_csv` states how
it carries a_j, b_j and K*_j and what that costs.

True limits are never computed; everything here is horizon-bounded, and the
classifier says only what the bits it read support.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from .core import BitStreamExhausted, PrefixGenerator, Record, collatz_step
from .characteristics import CharacteristicSet, _int_distance, char_set

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
    m = 0
    for j in range(1, horizon + 1):
        try:
            e = next(bits)
        except StopIteration:
            raise BitStreamExhausted(
                f"bit source exhausted after {j - 1} complete rows "
                f"(requested horizon {horizon})",
                j - 1,
            ) from None
        if (u & 1) != e:  # lift N0 by 2^{j-1}
            N0 += pow2
            u += pow3m
        u = collatz_step(u)
        if e:
            P = 3 * P + pow2
            pow3m *= 3
            m += 1
        pow2 <<= 1
        yield CharacteristicSet(j, m, P, N0)


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


class ClassifierDiagnostics(Record):
    """Final-row diagnostics attached to a verdict.

    int_distance is the exact distance of q_j = X_j/2^j and q*_j = X*_j/2^j
    to the nearest integer, None when m_j = 0.  Both differ from r0_j =
    N0_j/2^j by an integer, so it is read off r0_j.  ones_in_window counts 1
    bits inside the final window (zero suggests an all-zero tail, outside the
    infinite-ones assumption).
    """

    __slots__ = ("final_j", "int_distance", "m_over_n", "P_over_2n", "ones_in_window")

    def __init__(self, final_j: int, int_distance: Fraction | None, m_over_n: Fraction,
                 P_over_2n: Fraction, ones_in_window: int):
        self._init(final_j, int_distance, m_over_n, P_over_2n, ones_in_window)


class RealizabilityVerdict(Record):
    """Horizon-bounded verdict on the prefix-realizer sequence N0_j.

    stabilized: N0_j constant over the final `window` rows (candidate = that value).
    growing:    N0_j still changed inside the final window; distinct_count is the
                number of distinct values seen (N0_j is non-decreasing).
    inconclusive: the bit source ran dry before `horizon` rows; rows_computed is
                the number of rows it delivered.  The verdicts are about infinite
                streams, so a finite source gets none and no diagnostics.
    """

    __slots__ = ("kind", "horizon", "window", "rows_computed", "candidate", "stable_since",
                 "distinct_count", "diagnostics")

    def __init__(self, kind: str, horizon: int, window: int, rows_computed: int,
                 candidate: int | None = None, stable_since: int | None = None,
                 distinct_count: int | None = None,
                 diagnostics: ClassifierDiagnostics | None = None):
        self._init(kind, horizon, window, rows_computed, candidate, stable_since,
                   distinct_count, diagnostics)


def classify(gen: PrefixGenerator, horizon: int = DEFAULT_HORIZON,
             window: int = DEFAULT_WINDOW) -> RealizabilityVerdict:
    """Classify the N0_j behavior of a stream over a finite horizon.

    The verdict claims nothing beyond the first `horizon` bits: a stream may
    change N0 right after the horizon, so "stabilized" is evidence, not proof,
    and a source that runs dry before `horizon` bits is "inconclusive".  No
    row is computed: the lift at row j is bit j - 1 of N0_H - 1, with N0_H
    from the `char_set` of the H-bit prefix, which is held as one tuple.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > horizon:
        raise ValueError(f"window ({window}) must not exceed horizon ({horizon})")
    try:
        v = gen.prefix(horizon)
    except BitStreamExhausted as exc:
        return RealizabilityVerdict(kind=INCONCLUSIVE, horizon=horizon, window=window,
                                    rows_computed=exc.position)
    last = char_set(v)
    # bit j - 2 is set when N0_j != N0_{j-1}; row 1's lift from N0_0 = 1 is no change
    changed = (last.N0 - 1) >> 1
    last_change = changed.bit_length() + 1  # 1 when N0 never changed
    diag = ClassifierDiagnostics(
        final_j=last.n,
        int_distance=_int_distance(last.r0) if last.m else None,
        m_over_n=last.m_over_n,
        P_over_2n=last.P_over_2n,
        ones_in_window=sum(v.bits[horizon - window:]),
    )
    if changed and last_change > horizon - window:
        return RealizabilityVerdict(
            kind=GROWING, horizon=horizon, window=window, rows_computed=horizon,
            distinct_count=changed.bit_count() + 1, diagnostics=diag,
        )
    return RealizabilityVerdict(
        kind=STABILIZED, horizon=horizon, window=window, rows_computed=horizon,
        candidate=last.N0, stable_since=last_change, diagnostics=diag,
    )


ASYMPTOTIC_FIELDS = (
    "P_over_2n3m", "P_over_3m", "alpha_over_2n", "A_over_3m",
    "ab_gap", "m_over_n", "P_over_2n", "f2_over_2n",
)


class AsymptoticReport(Record):
    """Last-row and max-over-tail summaries of exact per-row decay diagnostics.

    The tail is the second half of the rows, from row `tail_start`;
    max_over_tail ignores rows where a diagnostic is undefined (m = 0).
    """

    __slots__ = ("tail_start", "last", "max_over_tail")

    def __init__(self, tail_start: int, last: dict, max_over_tail: dict):
        self._init(tail_start, last, max_over_tail)


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
    return AsymptoticReport(tail_start=tail_start + 1, last=last, max_over_tail=max_over_tail)
