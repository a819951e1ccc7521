"""Output checks for the benchmark, computed apart from the program.

Every check takes what the benchmark knows about one CLI call and the text
the call wrote, and returns "" when the output is right or a one-line
description of the first problem found.  Nothing here imports
`collatz_parity`: the values are recomputed by plain Collatz iteration and
the benchmark's own integer arithmetic.
"""

from __future__ import annotations

import json

CSV_COLUMNS = (
    "j,n_j,m_j,P_j,c_j,a_j,b_j,N0_j,r0_j,q_j,K_j,Kstar_j,"
    "m_over_n,P_over_2n,P_over_2n3m,alpha_over_2n,A_over_3m,f2_over_2n"
)
# Columns that stay empty until the first 1 bit arrives.
ONE_BIT_COLUMNS = (5, 6, 9, 10, 11, 17)


def step(x: int) -> int:
    """One shortcut Collatz step."""
    return x >> 1 if x & 1 == 0 else (3 * x + 1) >> 1


def parity_bits(N: int, length: int) -> list[int]:
    """The first `length` parity bits of the sequence starting at N."""
    bits = []
    for _ in range(length):
        bits.append(N & 1)
        N = step(N)
    return bits


def run_vector(N: int, bits) -> int | None:
    """T^n(N) if N has parity vector `bits`, else None."""
    for e in bits:
        if N & 1 != e:
            return None
        N = step(N)
    return N


def fixed_point_text(num: int, den: int, digits: int) -> str:
    """num/den (both >= 0) rounded half-even to `digits` fractional digits."""
    scale = 10**digits
    q, r = divmod(num * scale, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    if digits == 0:
        return str(q)
    return f"{q // scale}.{q % scale:0{digits}d}"


def prefix_realizers(bits) -> list[int]:
    """N0_j for j = 1..len(bits), each lift chosen by iterating T^j directly.

    N0_{j+1} is N0_j or N0_j + 2^j, whichever has parity bit j+1 after j steps.
    """
    N0 = 1 if bits[0] else 2
    out = [N0]
    for j in range(1, len(bits)):
        x = N0
        for _ in range(j):
            x = step(x)
        if x & 1 != bits[j]:
            N0 += 1 << j
        out.append(N0)
    return out


def _int(cell: str) -> int:
    if not cell or not cell.isdigit():
        raise ValueError(f"not a non-negative integer: {cell!r}")
    return int(cell)


def trajectory_csv(N: int, horizon: int, digits: int, text: str) -> str:
    """Check `trajectory int:N --horizon H` CSV row by row."""
    lines = text.split("\n")
    if lines[0] != CSV_COLUMNS:
        return f"header is {lines[0][:80]!r}"
    if len(lines) != horizon + 2 or lines[-1] != "":
        return f"expected {horizon} rows, got {len(lines) - 2}"
    x, m, P = N, 0, 0
    for j in range(1, horizon + 1):
        e = x & 1
        x = step(x)
        if e:
            P = 3 * P + (1 << (j - 1))
            m += 1
        cells = lines[j].split(",")
        try:
            problem = _check_row(N, j, m, P, digits, cells)
        except ValueError as exc:
            problem = str(exc)
        if problem:
            return f"row {j}: {problem}"
    return ""


def _check_row(N: int, j: int, m: int, P: int, digits: int, cells: list[str]) -> str:
    if len(cells) != 18:
        return f"{len(cells)} cells"
    pow2, pow3 = 1 << j, 3**m
    expected = {0: j, 1: j, 2: m, 3: P, 4: pow2 - pow3}
    for col, want in expected.items():
        got = int(cells[col])
        if got != want:
            return f"column {col} is {got}, expected {want}"
    N0 = (N - 1) % pow2 + 1
    if _int(cells[7]) != N0:
        return f"N0_j is {cells[7]}, expected {N0}"
    r0 = fixed_point_text(N0, pow2, digits)
    if cells[8] != r0:
        return f"r0_j is {cells[8]}, expected {r0}"
    if m == 0:
        if any(cells[c] for c in ONE_BIT_COLUMNS):
            return "a one-bit column is filled while m = 0"
        return ""
    a, b = _int(cells[5]), _int(cells[6])
    if not 0 < a < pow2 or pow3 * a + 1 != pow2 * b:
        return f"a_j={a}, b_j={b} do not solve 3^m a + 1 = 2^j b"
    K = (P * a - N0) >> j
    if int(cells[10]) != K:
        return f"K_j is {cells[10]}, expected {K}"
    return ""


def classify_json(bits, horizon: int, window: int, digits: int,
                  candidate: int | None, text: str) -> str:
    """Check a `classify --json` verdict against N0 lifts found by iteration.

    `bits` is the first `horizon` bits of the stream; `candidate` is the
    integer an `int:N` stream must stabilize at, or None.
    """
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"not JSON: {exc}"
    N0 = prefix_realizers(bits)
    changes = [j + 1 for j in range(1, horizon) if N0[j] != N0[j - 1]]
    last_change = changes[-1] if changes else None
    m = sum(bits)
    want = {
        "horizon": horizon, "window": window, "rows_computed": horizon,
        "candidate": None, "stable_since": None, "distinct_count": None,
    }
    if last_change is not None and last_change >= horizon - window + 1:
        want["kind"] = "growing"
        want["distinct_count"] = len(changes) + 1
    else:
        want["kind"] = "stabilized"
        want["candidate"] = str(N0[-1])
        want["stable_since"] = last_change or 1
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key} is {got.get(key)!r}, expected {value!r}"
    if candidate is not None and got["candidate"] != str(candidate):
        return f"int stream stabilized at {got['candidate']}, expected {candidate}"
    diag = got.get("diagnostics") or {}
    want_diag = {
        "final_j": horizon,
        "m_over_n": fixed_point_text(m, horizon, digits),
        "ones_in_window": m - sum(bits[:horizon - window]),
    }
    for key, value in want_diag.items():
        if diag.get(key) != value:
            return f"diagnostics.{key} is {diag.get(key)!r}, expected {value!r}"
    return ""


def _p_of(vector: str) -> int:
    P = 0
    for j, ch in enumerate(vector):
        if ch == "1":
            P = 3 * P + (1 << j)
    return P


def analyze_json(vector: str, text: str) -> str:
    """Check `analyze <vector>`: base numbers, a/b, X/Y and a realizing N0."""
    bits = [int(ch) for ch in vector]
    n, m = len(bits), sum(bits)
    pow2, pow3 = 1 << n, 3**m
    P = _p_of(vector)
    try:
        d = {k: (None if v is None else int(v)) for k, v in json.loads(text).items()}
    except (json.JSONDecodeError, ValueError, AttributeError) as exc:
        return f"not a JSON object of decimal strings: {exc}"
    want = {
        "n": n, "m": m, "P": P, "c": pow2 - pow3,
        "alpha": P // pow3, "beta": P % pow3, "A": P // pow2, "B": P % pow2,
    }
    for key, value in want.items():
        if d.get(key) != value:
            return f"{key} differs from the recomputed value"
    a, b, N0 = d.get("a"), d.get("b"), d.get("N0")
    if a is None or b is None or not 0 < a < pow2 or pow3 * a + 1 != pow2 * b:
        return "a, b do not solve 3^m a + 1 = 2^n b with 0 < a < 2^n"
    if d.get("X") != P * a or d.get("Y") != P * b:
        return "X, Y differ from P*a, P*b"
    if N0 is None or not 1 <= N0 <= pow2 or run_vector(N0, bits) is None:
        return "N0 does not realize the vector within [1, 2^n]"
    if run_vector(P * a, bits) is None:
        return "X does not realize the vector"
    shift = (N0 & -N0).bit_length() - 1
    if (d.get("r0_num"), d.get("r0_den")) != (N0 >> shift, pow2 >> shift):
        return "r0 is not N0/2^n in lowest terms"
    return ""


def solve_text(vector: str, count: int, text: str) -> str:
    """Check `solve <vector> --count k`: N0 + j*2^n, each realizing the vector."""
    bits = [int(ch) for ch in vector]
    pow2 = 1 << len(bits)
    lines = text.split("\n")
    if len(lines) != count + 1 or lines[-1] != "":
        return f"expected {count} realizers, got {len(lines) - 1}"
    try:
        realizers = [_int(line) for line in lines[:-1]]
    except ValueError as exc:
        return str(exc)
    N0 = realizers[0]
    if not 1 <= N0 <= pow2:
        return "N0 is outside [1, 2^n]"
    for j, N in enumerate(realizers):
        if N != N0 + j * pow2:
            return f"realizer {j} is not N0 + {j}*2^n"
        if run_vector(N, bits) is None:
            return f"realizer {j} does not realize the vector"
    return ""


def xstar_json(vector: str, text: str) -> str:
    """Check `xstar <vector> --json`: odd theta_k, X* realizing v, T^n(X*) = Y*, X = X* + 2^n J."""
    bits = [int(ch) for ch in vector]
    n, m = len(bits), sum(bits)
    ones = [j for j, e in enumerate(bits, start=1) if e]
    try:
        d = json.loads(text)
        rows = [(r["k"], r["j"], int(r["theta"]), int(r["z"]), int(r["t"])) for r in d["rows"]]
        Xstar, Ystar, J = int(d["Xstar"]), int(d["Ystar"]), int(d["J"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"malformed xstar JSON: {exc}"
    if [(k, j) for k, j, *_ in rows] != list(enumerate(ones, start=1)):
        return "rows do not list the one-positions in order"
    for k, j, theta, z, t in rows:
        if theta & 1 == 0:
            return f"theta_{k} is even"
        if z != theta << (j - 1):
            return f"z_{k} is not 2^(j-1) theta"
        if 3**k * theta + 1 != t << (n - j + 1):
            return f"t_{k} does not solve 3^k theta + 1 = 2^(n-j+1) t"
    if Xstar != sum(z for _, _, _, z, _ in rows):
        return "X* is not the sum of z_k"
    if run_vector(Xstar, bits) != Ystar:
        return "T^n(X*) is not Y*, or X* does not realize the vector"
    pow2 = 1 << n
    X = _p_of(vector) * (-pow(3, -m, pow2) % pow2)
    if X - Xstar != J * pow2:
        return "X is not X* + 2^n J"
    return ""
