"""The program's expected output, computed from the paper's definitions alone.

Standard library only (Python 3.10 or later), importing nothing of the
package, so the tests and tools/smoke.py compare the program against values
that share no code with it.  For n bits with ones at j_1 < ... < j_m:
P = sum 3^(m - k) 2^(j_k - 1), the weighted sum, and c = 2^n - 3^m; when
m >= 1, a = -3^-m mod 2^n by pow() and b = (3^m a + 1) / 2^n; N0 is the
least N >= 1 with those parity bits, lifted row by row and checked by plain
Collatz iteration; X = P a = N0 + 2^n K, and X* = sum 2^(j_k - 1) theta_k =
N0 + 2^n K* with theta_k = -3^-k mod 2^(n - j_k + 1).  Ratios are Fractions,
printed through round(), which rounds a Fraction half to even; every
rational printed here is at least 0.  A spec's bits come by plain iteration
or repetition.
"""

import json
from fractions import Fraction

PRECISION = 12
CSV_HEADER = ("j,n_j,m_j,P_j,c_j,a_j,b_j,N0_j,r0_j,q_j,K_j,Kstar_j,"
              "m_over_n,P_over_2n,P_over_2n3m,alpha_over_2n,A_over_3m,f2_over_2n")
CSV_COLUMNS = ("n", "n", "m", "P", "c", "a", "b", "N0", "r0", "q", "K", "Kstar", "m_over_n",
               "P_over_2n", "P_over_2n3m", "alpha_over_2n", "A_over_3m", "f2_over_2n")


def T(x: int) -> int:
    return x // 2 if x % 2 == 0 else (3 * x + 1) // 2


def spec_bits(spec: str, count: int) -> list[int]:
    """The first `count` bits of an int:, bits:, cycle: or head:...;cycle: spec, or fewer."""
    kind, _, body = spec.partition(":")
    if kind == "int":
        x, bits = int(body), []
        for _ in range(count):
            bits.append(x % 2)
            x = T(x)
        return bits
    if kind == "bits":
        return [int(ch) for ch in body[:count]]
    head, _, cycle = body.partition(";cycle:") if kind == "head" else ("", "", body)
    return [int(ch) for ch in (head + cycle * (count // len(cycle) + 1))[:count]]


def realizers(bits: list[int]) -> list[int]:
    """N0 of every prefix, from N0_0 = 1: N0_j is whichever of N0_(j-1) and
    N0_(j-1) + 2^(j-1) has bit j as the parity of its T^(j-1)."""
    N0 = u = 1   # u is T^(j-1)(N0), iterated again from N0 after a lift
    found = []
    for j, e in enumerate(bits, start=1):
        if u % 2 != e:
            N0 += 2 ** (j - 1)
            u = N0
            for _ in range(j - 1):
                u = T(u)
        found.append(N0)
        u = T(u)
    return found


def _ones(bits) -> list[int]:
    return [j for j, e in enumerate(bits, start=1) if e]


def _P(ones: list[int]) -> int:
    P, pow3 = 0, 1   # 3^(m - k), from k = m down
    for j in reversed(ones):
        P += pow3 * 2 ** (j - 1)
        pow3 *= 3
    return P


def _a(m: int, n: int) -> int:
    return 2**n - pow(3, -m, 2**n)


def minus_inverses(bits: list[int]) -> list[int]:
    """-3^-k mod 2^n for k = 1..m; cut to L <= n bits, each is -3^-k mod 2^L."""
    return [-pow(3, -k, 2 ** len(bits)) % 2 ** len(bits) for k in range(1, sum(bits) + 1)]


def row(prefix: list[int], N0: int, w: list[int]) -> dict:
    """Every number of the CSV row of `prefix`, whose least realizer is N0, and X and X*.

    w is `minus_inverses` of the prefix or of a longer vector.  a, b, X, K,
    X*, K*, q and f2/2^n are None when m = 0.
    """
    n, ones = len(prefix), _ones(prefix)
    m, P = len(ones), _P(ones)
    pow2, pow3 = 2**n, 3**m
    values = {"n": n, "m": m, "P": P, "c": pow2 - pow3, "N0": N0, "r0": Fraction(N0, pow2),
              "m_over_n": Fraction(m, n), "P_over_2n": Fraction(P, pow2),
              "P_over_2n3m": Fraction(P, pow2 * pow3),
              "alpha_over_2n": Fraction(P // pow3, pow2), "A_over_3m": Fraction(P // pow2, pow3)}
    if not m:
        return {**dict.fromkeys(("a", "b", "X", "K", "Xstar", "Kstar", "q", "f2_over_2n")),
                **values}
    a = _a(m, n)
    X = P * a
    Xstar = sum(w[k - 1] % (1 << n - j + 1) << j - 1 for k, j in enumerate(ones, start=1))
    return dict(values, a=a, b=(pow3 * a + 1) // pow2, X=X, K=(X - N0) // pow2,
                Xstar=Xstar, Kstar=(Xstar - N0) // pow2, q=Fraction(X, pow2),
                f2_over_2n=Fraction(P % pow2 * a % pow2, pow2))


def rows(bits: list[int]) -> list[dict]:
    w = minus_inverses(bits)
    return [row(bits[:n], N0, w) for n, N0 in enumerate(realizers(bits), start=1)]


def text(x, digits: int = PRECISION, exact: bool = False) -> str:
    """A cell: "" for None, str() of an int, and a Fraction as p/q or to `digits` places."""
    if x is None:
        return ""
    if isinstance(x, int) or exact:
        return str(x)
    whole, fraction = divmod(round(x * 10**digits), 10**digits)
    return f"{whole}.{fraction:0{digits}d}" if digits else str(whole)


def trajectory_csv(rows: list[dict], digits: int = PRECISION, exact: bool = False) -> str:
    """The `trajectory` CSV of `rows`, as `rows` gives them."""
    lines = [CSV_HEADER] + [",".join(text(r[name], digits, exact) for name in CSV_COLUMNS)
                            for r in rows]
    return "\n".join(lines) + "\n"


def _distance(x: int, n: int) -> Fraction:
    """The distance of x/2^n to the nearest integer."""
    fraction = Fraction(x % 2**n, 2**n)
    return min(fraction, 1 - fraction)


def classify(bits: list[int], horizon: int, window: int) -> dict:
    """Every field of `classify` on `bits`, a source's bits up to the horizon.

    Fewer bits is a source that ran dry; a lift at row 1, from N0_0 = 1, is no change.
    """
    verdict = {"kind": "inconclusive", "horizon": horizon, "window": window,
               "rows_computed": len(bits), "candidate": None, "stable_since": None,
               "distinct_count": None, "diagnostics": None}
    if len(bits) < horizon:
        return verdict
    N0 = realizers(bits)
    changes = [j for j in range(2, horizon + 1) if N0[j - 1] != N0[j - 2]]
    last = row(bits, N0[-1], minus_inverses(bits))
    verdict["diagnostics"] = {
        "final_j": horizon,
        "q_int_distance": _distance(last["X"], horizon) if last["m"] else None,
        "qstar_int_distance": _distance(last["Xstar"], horizon) if last["m"] else None,
        "m_over_n": last["m_over_n"], "P_over_2n": last["P_over_2n"],
        "ones_in_window": sum(bits[horizon - window:]),
    }
    if changes and changes[-1] > horizon - window:
        verdict.update(kind="growing", distinct_count=len(set(N0)))
    else:
        verdict.update(kind="stabilized", candidate=N0[-1],
                       stable_since=changes[-1] if changes else 1)
    return verdict


def classify_outputs(bits: list[int], horizon: int, window: int, digits: int = PRECISION,
                     exact: bool = False) -> tuple[str, str]:
    """The `classify` text and its --json document."""
    v = classify(bits, horizon, window)
    lines = [f"verdict: {v['kind']} (horizon-bounded; horizon={horizon}, window={window}, "
             f"rows={v['rows_computed']})"]
    if v["kind"] == "stabilized":
        lines.append(f"candidate: {v['candidate']} (stable since row {v['stable_since']})")
    elif v["kind"] == "growing":
        lines.append(f"distinct N0 values seen: {v['distinct_count']}")
    doc = {**v, "candidate": v["candidate"] and str(v["candidate"]),
           "note": "horizon-bounded verdict; limits are not decidable from finitely many bits"}
    del doc["diagnostics"]   # last, after the note
    if v["diagnostics"] is not None:
        d = doc["diagnostics"] = {key: text(x, digits, exact) if isinstance(x, Fraction) else x
                                  for key, x in v["diagnostics"].items()}
        lines.append(f"final row {d['final_j']}: m/n = {d['m_over_n']}, P/2^n = {d['P_over_2n']}")
        if d["q_int_distance"] is not None:
            lines.append(f"nearest-integer distance: q = {d['q_int_distance']}, "
                         f"q* = {d['qstar_int_distance']}")
        if d["ones_in_window"] == 0:
            lines.append("warning: no 1 bits inside the final window "
                         "(all-zero tail would break the infinite-ones assumption)")
    return "".join(line + "\n" for line in lines), json.dumps(doc, indent=2) + "\n"


def xstar(bits: list[int]) -> tuple[list[tuple], int, int, int]:
    """The X* table of a vector with a one: rows (k, j_k, theta_k, z_k, t_k), X*, Y* and J.

    z_k = 2^(j_k - 1) theta_k and 3^k theta_k + 1 = 2^(n - j_k + 1) t_k; X* and
    Y* = sum 3^(m - k) t_k are the sums, and J = (X - X*) / 2^n with X = P a.
    """
    n, ones = len(bits), _ones(bits)
    m = len(ones)
    table = []
    for k, j in enumerate(ones, start=1):
        L = n - j + 1
        theta = -pow(3, -k, 2**L) % 2**L
        table.append((k, j, theta, theta * 2 ** (j - 1), (3**k * theta + 1) // 2**L))
    Xstar = sum(z for _, _, _, z, _ in table)
    Ystar = sum(3 ** (m - k) * t for k, _, _, _, t in table)
    return table, Xstar, Ystar, (_P(ones) * _a(m, n) - Xstar) // 2**n


def xstar_outputs(bits: list[int]) -> tuple[str, str]:
    """The `xstar` text table and its --json document."""
    table, Xstar, Ystar, J = xstar(bits)
    lines = [f"{'k':>3} {'j_k':>5} {'theta_k':>24} {'z_k':>24} {'t_k':>24}"]
    lines += [f"{k:>3} {j:>5} {theta:>24} {z:>24} {t:>24}" for k, j, theta, z, t in table]
    lines += [f"Xstar = {Xstar}", f"Ystar = {Ystar}", f"J = {J}"]
    doc = {"rows": [{"k": k, "j": j, "theta": str(theta), "z": str(z), "t": str(t)}
                    for k, j, theta, z, t in table],
           "Xstar": str(Xstar), "Ystar": str(Ystar), "J": str(J)}
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2) + "\n"
