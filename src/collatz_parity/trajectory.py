"""Order-j characteristic sequences of infinite vectors, and the realizability classifier.

For an infinite bit stream V the length-j prefix has its own characteristic
set; those values as functions of j are the order-j characteristic numbers.
Each row is a CharacteristicSet with n = j, the same type `char_set` returns
for a finite vector; a row stores only n, m_j, P_j and N0_j.

One engine, `_rows`, works out every row's state: it reads the bits a block
at a time and takes N0, K* and a of each row from per-block counts of the
X* terms, as its docstring states.  `iter_trajectory` wraps its rows in
CharacteristicSets and the CSV writer in `report` renders them.  Each
set gets the row's a_j in its a cache, so reading a_j, or b_j = (3^{m_j}
a_j + 1)/2^j, solves nothing; X*_j needs the one-positions, so it comes
from `xstar_decompose(gen.prefix(j))`.

`classify` reads no rows: it needs only the H-bit prefix's m_H, P_H and
N0_H, and the 1 bits in its last W, and the generator gives them by its
`_prefix_state` (core's docstring says how each spec type takes them).  The
verdict keeps the prefix's one CharacteristicSet as `verdict.prefix_set`; a
set whose N0 took a solve keeps the a_H it solved for, and an `int:` set
solves on first read.

True limits are never computed; everything here is horizon-bounded, and the
classifier says only what the bits it read support.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import compress, islice

from .core import _BITS, BitStreamExhausted, PrefixGenerator, Record, _check_prefix_length
from .characteristics import CharacteristicSet, _set_with_a, _solved_set

HALVED = "halved"
HALVED_PLUS_HALF = "halved-plus-half"

STABILIZED = "stabilized"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"

DEFAULT_HORIZON = 256
DEFAULT_WINDOW = 32
# the first block of bits `_rows` reads: later blocks double it, capped at the horizon
_FIRST_BLOCK = 256


def _add_columns(counts: list[int], z: int) -> None:
    """Add z to the bit-sliced column counts: bit c of counts[i] is bit i of column c's count."""
    for i, level in enumerate(counts):   # ripple carry: the sum bit stays, the carry goes up
        counts[i] = level ^ z
        z &= level
        if not z:
            return
    counts.append(z)


def _rows(gen: PrefixGenerator, horizon: int) -> Iterator[tuple]:
    """Yield (n, m, P, 2^n, 3^m, N0, K*, a) for rows n = 1..horizon of `gen`, horizon >= 1.

    a is None until m >= 1.  The bits are read a block at a time.  A block
    ends at row W: W = min(256, horizon), then doubled and capped at the
    horizon, so at most max(256, 2n) bits are read by row n.  Each block
    takes one pass over the one-positions j_k up to W: w_k = -3^-k mod 2^W
    comes from w_(k-1) by one exact division by 3, and z_k = 2^(j_k - 1) w_k
    mod 2^W, the X* term theta_k cut to W bits, is added to bit-sliced
    column counts (bit c of counts[i] is bit i of column c's count).  Then:
      * N0_W - 1 = X*_W - 1 mod 2^W, X*_W being the sum of the counts[i] 2^i;
        row n's N0 - 1 is its low n bits, and N0 lifted at row n (d) when
        its bit n - 1 is set.  No row lifts N0.
      * K*, where X* = N0 + 2^n K*: z_k mod 2^n gains only bit n - 1 at row
        n, so if L of the z_k have that bit (a new one among them), K* =
        (K* + L - d)/2.  The counts are transposed once per block into one
        field per column, each level spread to the fields by format() and
        summed weighted by 2^i, so L is one lookup per row.
      * a = w_m cut to n bits, the least positive solution of 3^m a + 1 =
        2^n b, goes on by one division per one from w_m at the block start,
        3^(m_W - m) w_(m_W) as w_(k-1) = 3 w_k.  `ab_recurrence` is the
        test oracle.
    A block costs O(W log m) bit operations per one-position; a row costs
    O(1) operations on ints of at most W bits, with no modular power.

    A finite source that runs dry raises BitStreamExhausted after the last
    row it completed, with that row as its `position`.
    """
    bits = gen.bits()
    kstar = -1               # X*_0 = 0 = N0_0 - 1
    ones: list[int] = []     # the one-positions j_k
    n, m, P, pow2, pow3, a = 0, 0, 0, 1, 1, None
    while n < horizon:
        wanted = min(max(2 * n, _FIRST_BLOCK), horizon) - n
        block = tuple(islice(bits, wanted))
        start, width = n, n + len(block)
        mask = (1 << width) - 1
        ones += compress(range(start + 1, width + 1), block)
        counts, w = [], -1
        for j in ones:
            # exact w/3 mod 2^width as in `_xstar_terms`: 2^width = (-1)^width mod 3 gives r
            w = (w + ((w if width & 1 else -w) % 3 << width)) // 3
            _add_columns(counts, w << (j - 1) & mask)
        w = w * 3 ** (len(ones) - m) & mask   # w_m at the block start, as w_(k-1) = 3 w_k
        # column c's count in field width - 1 - c, and X*_width - 1 = N0_width - 1 mod 2^width
        size, code = (1, "B") if width < 1 << 8 else (2, "H") if width < 1 << 16 else (4, "I")
        spread, fields, lifted = bytearray(width * size), 0, -1
        for i, level in enumerate(counts):
            spread[(sys.byteorder == "big") * (size - 1)::size] = (
                format(level, f"0{width}b").encode().translate(_BITS))
            fields += int.from_bytes(spread, sys.byteorder) << i
            lifted += level << i
        table = memoryview(fields.to_bytes(width * size, sys.byteorder)).cast(code)
        lifted &= mask           # bit n - 1 is set when N0 lifted at row n
        for n, e in enumerate(block, start + 1):
            if e:
                P = 3 * P + pow2
                pow3 *= 3
                m += 1
                w = (w + ((w if width & 1 else -w) % 3 << width)) // 3
            pow2 <<= 1
            low = pow2 - 1
            kstar = (kstar + table[width - n] - (lifted >> (n - 1) & 1)) >> 1
            if m:
                a = w & low   # w_m mod 2^n, as width >= n
            yield n, m, P, pow2, pow3, (lifted & low) + 1, kstar, a
        if len(block) < wanted:
            raise BitStreamExhausted(
                f"bit source exhausted after {n} complete rows (requested horizon {horizon})", n)


def iter_trajectory(gen: PrefixGenerator, horizon: int) -> Iterator[CharacteristicSet]:
    """Stream rows for j = 1..horizon: the characteristic set of each length-j prefix.

    The rows come from `_rows`, which reads the bits in blocks, so by the time
    row j is yielded at most max(256, 2j) bits have been drawn from `gen`.
    A finite bit source that runs dry raises BitStreamExhausted whose
    `position` is the last complete row index; rows up to it have already
    been yielded.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for n, m, P, _, _, N0, _, a in _rows(gen, horizon):
        yield _set_with_a(n, m, P, N0, a)


def lemma51_check(prev: CharacteristicSet, cur: CharacteristicSet) -> str:
    """Which of the two consecutive-row relations holds for r0.

    Returns "halved" when r0_{j+1} = r0_j / 2 (N0 unchanged) and
    "halved-plus-half" when r0_{j+1} = r0_j / 2 + 1/2 (N0 lifted by 2^j).
    Exactly one must hold.
    """
    if cur.n != prev.n + 1:
        raise ValueError(f"rows must be consecutive, got j={prev.n} then j={cur.n}")
    if cur.N0 == prev.N0:
        return HALVED
    if cur.N0 == prev.N0 + (1 << prev.n):
        return HALVED_PLUS_HALF
    raise AssertionError(
        f"r0 dichotomy violated between rows {prev.n} and {cur.n}: "
        f"{prev.r0} -> {cur.r0}"
    )


class RealizabilityVerdict(Record):
    """Horizon-bounded verdict on the prefix-realizer sequence N0_j.

    stabilized: N0_j constant over the final `window` rows (candidate = that value).
    growing:    N0_j still changed inside the final window; distinct_count is the
                number of distinct values seen (N0_j is non-decreasing).
    inconclusive: the bit source ran dry before `horizon` rows; rows_computed is
                the number of rows it delivered.  The verdicts are about infinite
                streams, so a finite source gets none, and prefix_set and
                ones_in_window are None.

    prefix_set is the CharacteristicSet of the H-bit prefix, built from the
    generator's `_prefix_state`: its n, m/n, P/2^n and r0 are the final row's.
    It keeps a when its N0 took a solve, and solves on first read when the
    generator gave N0 (an `int:` spec's).
    ones_in_window counts the 1 bits inside the final window (zero suggests an
    all-zero tail, outside the infinite-ones assumption).
    """

    __slots__ = ("kind", "horizon", "window", "rows_computed", "candidate", "stable_since",
                 "distinct_count", "prefix_set", "ones_in_window")

    def __init__(self, kind: str, horizon: int, window: int, rows_computed: int,
                 candidate: int | None = None, stable_since: int | None = None,
                 distinct_count: int | None = None,
                 prefix_set: CharacteristicSet | None = None, ones_in_window: int | None = None):
        self._init(kind, horizon, window, rows_computed, candidate, stable_since,
                   distinct_count, prefix_set, ones_in_window)


def classify(gen: PrefixGenerator, horizon: int = DEFAULT_HORIZON,
             window: int = DEFAULT_WINDOW) -> RealizabilityVerdict:
    """Classify the N0_j behavior of a stream over a finite horizon.

    The verdict claims nothing beyond the first `horizon` bits: a stream may
    change N0 right after the horizon, so "stabilized" is evidence, not proof,
    and a source that runs dry before `horizon` bits is "inconclusive".  No
    row is computed: the lift at row j is bit j - 1 of N0_H - 1, with N0_H
    from the characteristic set of the H-bit prefix, the verdict's
    `prefix_set`.  One call of the generator's `_prefix_state` gives m_H,
    P_H, the window's ones and, for an `int:` spec, N0_H: an `int:` or
    head+cycle spec takes them in closed form, with no bit drawn, and any
    other source from its first H bits.  Where N0_H is not given, one solve
    for a gives it and the set keeps a; an `int:` set solves on first read.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > horizon:
        raise ValueError(f"window ({window}) must not exceed horizon ({horizon})")
    _check_prefix_length(horizon)
    try:
        m, P, N0, ones_in_window = gen._prefix_state(horizon, window)
    except BitStreamExhausted as exc:
        return RealizabilityVerdict(kind=INCONCLUSIVE, horizon=horizon, window=window,
                                    rows_computed=exc.position)
    last = _solved_set(horizon, m, P) if N0 is None else CharacteristicSet(horizon, m, P, N0)
    # bit j - 2 is set when N0_j != N0_{j-1}; row 1's lift from N0_0 = 1 is no change
    changed = (last.N0 - 1) >> 1
    last_change = changed.bit_length() + 1  # 1 when N0 never changed
    if changed and last_change > horizon - window:
        return RealizabilityVerdict(
            kind=GROWING, horizon=horizon, window=window, rows_computed=horizon,
            distinct_count=changed.bit_count() + 1, prefix_set=last,
            ones_in_window=ones_in_window,
        )
    return RealizabilityVerdict(
        kind=STABILIZED, horizon=horizon, window=window, rows_computed=horizon,
        candidate=last.N0, stable_since=last_change, prefix_set=last,
        ones_in_window=ones_in_window,
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
