"""Constructive small solutions of a single integer linear form.

The pigeonhole construction: as y ranges over [0, C]^n the form sum(alpha_i y_i)
takes at most n*[C*B]+1 values, so with C = [(nB)^(1/(n-1))] two points collide
and their difference is a nonzero solution bounded by C.

For n = 3 with a3 != 0 one scan serves both searches: it walks (|z1|, |z2|) and
solves for z3.  `siegel_nonzero_coords` is the scalar all-nonzero search and
the oracle; `nonzero_vectors` makes the same selection by one array search over
the triples prop1 passes (coefficients >= 1, gcd(a2, a3) == 1): m1 in blocks of
four, pending rows in bounded chunks, solved rows retired.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, gcd
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceLimit

INT64_MAX = 2**63 - 1
SCAN_BUDGET = 1_000_000  # most points a scalar scan walks: y in [0, C]^n, or (|z1|, |z2|) cells for n = 3


@dataclass(frozen=True)
class SmallSolution:
    z: tuple[int, ...]
    bound: float

    def __post_init__(self):
        if all(v == 0 for v in self.z):
            raise DomainError("solution must be nonzero")
        if max(abs(v) for v in self.z) > self.bound + 1e-9:
            raise DomainError("solution exceeds its guaranteed bound")


def siegel_small_solution(alpha: tuple[int, ...], B: int) -> SmallSolution:
    """Nonzero integer z with sum(alpha_i z_i) = 0 and max|z_i| <= (nB)^(1/(n-1)).

    Deterministic: first collision in a lexicographic scan of y in [0, C]^n,
    which keeps one point index per value seen and lists no axis.
    For n = 3 with a3 != 0 the third coordinate is solved for instead: the
    least (|z1|, |z2|, |z3|, signs) solution, which pigeonhole puts in [-C, C]^3.
    Raises ResourceLimit when C + 1 exceeds SCAN_BUDGET, or the scan walks
    more than SCAN_BUDGET points.
    """
    n = len(alpha)
    if n < 2:
        raise DomainError("need n >= 2 coefficients")
    if B < 1:
        raise DomainError("B must be >= 1")
    if all(a == 0 for a in alpha):
        raise DomainError("alpha must not be all zero")
    if max(abs(a) for a in alpha) > B:
        raise DomainError("coefficients must be bounded by B")
    if n * B >= SCAN_BUDGET ** (n - 1):  # C + 1 > SCAN_BUDGET, in integers: a huge B overflows a float
        raise ResourceLimit(f"scan side (nB)^(1/(n-1)) + 1 beyond budget {SCAN_BUDGET}")
    bound = float(n * B) ** (1.0 / (n - 1))
    C = floor(bound)
    if n == 3 and alpha[2] != 0:
        return SmallSolution(_third_coordinate_scan(alpha, C, 0), bound)
    # point k of the scan is y = the n base-(C + 1) digits of k, most significant
    # first; the leading n - 1 digits are decoded once per run of C + 1 points
    side = C + 1
    seen: dict[int, int] = {}  # value -> index of the first point with it
    for k in range(min(side**n, SCAN_BUDGET)):
        last = k % side
        if not last:
            row = sum(a * yi for a, yi in zip(alpha, _digits(k // side, side, n - 1)))
        v = row + alpha[-1] * last
        if v in seen:
            y, prev = _digits(k, side, n), _digits(seen[v], side, n)
            return SmallSolution(tuple(yi - pi for yi, pi in zip(y, prev)), bound)
        seen[v] = k
    if len(seen) == SCAN_BUDGET:  # no collision, so each point walked left its own value
        raise ResourceLimit(f"collision scan beyond budget {SCAN_BUDGET} points")
    raise DomainError("pigeonhole scan found no collision; B out of contract")


def _digits(k: int, base: int, n: int) -> tuple[int, ...]:
    """The n base-`base` digits of k, most significant first."""
    digits = []
    for _ in range(n):
        k, d = divmod(k, base)
        digits.append(d)
    return tuple(digits[::-1])


def siegel_nonzero_coords(alpha: tuple[int, ...], cap: float) -> SmallSolution | None:
    """Every coordinate nonzero, a1 z1 + a2 z2 + a3 z3 = 0 and max|z_i| <= cap,
    for three coefficients with a3 != 0.

    Returns None when no such solution exists in the window.  Selection is the
    lexicographically smallest (|z_1|, |z_2|, |z_3|, sign pattern), signs
    ordered + before -.  Raises ResourceLimit when the scan walks more than
    SCAN_BUDGET points, which needs cap >= 1001.
    """
    if len(alpha) != 3 or alpha[2] == 0:
        raise DomainError("need three coefficients with a3 != 0")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    z = _third_coordinate_scan(alpha, floor(cap + 1e-12), 1)
    return None if z is None else SmallSolution(z, cap)


def _third_coordinate_scan(alpha: tuple[int, ...], M: int, low: int) -> tuple[int, int, int] | None:
    """The least (|z1|, |z2|, |z3|, z1 < 0, z2 < 0) nonzero solution with every
    low <= |z_i| <= M, or None; a3 != 0.  z3 is solved for, so its sign never
    decides.  low = 0 admits zero coordinates, low = 1 refuses them.  Walks
    rows of (m1, m2) cells, and refuses a row that would pass SCAN_BUDGET cells."""
    a1, a2, a3 = alpha
    for m1 in range(low, M + 1):
        if (m1 + 1 - low) * (M + 1 - low) > SCAN_BUDGET:
            raise ResourceLimit(f"scan beyond budget {SCAN_BUDGET} cells")
        for m2 in range(low, M + 1):
            best = None
            for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                z1, z2 = s1 * m1, s2 * m2
                rest = a1 * z1 + a2 * z2
                if rest % a3 or not (m1 or m2):
                    continue
                z3 = -rest // a3
                if low <= abs(z3) <= M:
                    cand = (abs(z3), s1 < 0, s2 < 0, (z1, z2, z3))
                    best = cand if best is None else min(best, cand)
            if best is not None:
                return best[3]
    return None


BLOCK = 4  # m1 values one block of `nonzero_vectors` walks
CHUNK = 2048  # most pending rows one block works on, so its cell arrays stay small
_S2 = np.array([1, -1])  # the sign of z2, ranked s2 > 0 first


def nonzero_vectors(a1_values: Sequence[int], pairs: Sequence[tuple[int, int]], M: int) -> tuple[np.ndarray, ...]:
    """(z, found) over the rows (a1, (a2, a3)), a1-major: row i * len(pairs) + k holds
    siegel_nonzero_coords((a1_values[i],) + pairs[k], M).z, or zeros where it is None.
    Takes what prop1 passes, M >= 1, coefficients >= 1 and gcd(a2, a3) == 1; DomainError else.

    Negating z keeps it a solution, so the selected z1 = m1 is positive.  For fixed
    (m1, s2) the m2 with s2*a2*m2 == -a1*m1 (mod a3) form one class mod a3, |z3| <= M
    cuts them to an interval and z3 = 0 holds at one m2 at most, so the first valid m2
    is the class start at or above the interval's low end, stepped once past z3 = 0.
    m1 is walked in blocks of BLOCK values over the pending rows, CHUNK rows at a time,
    and solved rows retire.  Rows whose arithmetic could leave int64 (the class start
    multiplies two residues mod a3, the interval ends reach (a1 + a2 + a3) * M) go to
    the scalar search.
    """
    a1_values, pairs, n = list(a1_values), list(pairs), len(pairs)
    if M < 1 or min(a1_values, default=1) < 1 or any(min(p) < 1 or gcd(*p) != 1 for p in pairs):
        raise DomainError("need M >= 1, coefficients >= 1 and gcd(a2, a3) == 1")
    limit = INT64_MAX // (M + 1)  # fast rows keep a1 + a2 + a3 <= limit
    # a pair or an a1 past the limit gets a stand-in that fits int64 and makes none of its rows fast
    columns = [(a2, a3, pow(a2, -1, a3)) if (a3 - 1) ** 2 <= INT64_MAX and a2 + a3 <= limit
               else (limit, 1, 0) for a2, a3 in pairs]
    a2, a3, inv = np.array(columns, dtype=np.int64).reshape(-1, 3).T
    a1 = np.array([min(a, limit + 1) for a in a1_values], dtype=np.int64)
    fast = (a1[:, None] <= limit - a2 - a3).reshape(-1)
    z, found = np.zeros((len(fast), 3), dtype=np.int64), np.zeros(len(fast), dtype=bool)
    pending = np.flatnonzero(fast)
    for first in range(1, M + 1, BLOCK):
        if not len(pending):
            break
        left = []
        for start in range(0, len(pending), CHUNK):
            rows = pending[start : start + CHUNK]
            k = rows % n
            solved, vectors = _block(a1[rows // n], a2[k], a3[k], inv[k], first, M)
            z[rows[solved]], found[rows[solved]] = vectors, True
            left.append(rows[~solved])
        pending = np.concatenate(left)
    for row in np.flatnonzero(~fast).tolist():
        sol = siegel_nonzero_coords((a1_values[row // n],) + tuple(pairs[row % n]), M)
        if sol is not None:
            z[row], found[row] = sol.z, True
    return z, found


def _block(a1, a2, a3, inv, first: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Which rows (a1[j], a2[j], a3[j]) have a vector with m1 in [first, first + BLOCK),
    and the first such vector of each; inv[j] is a2[j]^-1 mod a3[j]."""
    # axes: row, m1, s2; t = a1*m1 and its class have no s2 axis
    m1 = np.arange(first, min(first + BLOCK, M + 1))[:, None]
    a2, a3, inv = a2[:, None, None], a3[:, None, None], inv[:, None, None]
    t, c, bound = a1[:, None, None] * m1, _S2 * a2, M * a3
    # a2*m2 == -s2*a1*m1 (mod a3): m2 is the first member of that class at or
    # above the low end of |z3| <= M, and past the one m2 with z3 = 0.  An m2 past
    # M never ranks, so 0 stands in for it in v, which is then t >= 1, not 0
    m2 = np.clip(-((bound + _S2 * t) // a2), 1, M + 1)
    m2 += (-_S2 * (t % a3 * inv % a3) - m2) % a3
    v = t + c * np.where(m2 <= M, m2, 0)
    zero = v == 0
    m2 += zero * a3
    v = np.where(zero, c * a3, v)
    # the first m1, then the least m2, then the least |z3| (|v| / a3 on a row), then s2 > 0
    m2 = np.where(np.abs(v) <= bound, m2, M + 1)
    least = np.minimum(m2[..., 0], m2[..., 1])  # min(axis=2) over two columns is slower
    has = least <= M
    solved = has.any(axis=1)
    i, j = np.flatnonzero(solved), has.argmax(axis=1)[solved]
    s = np.where(m2[i, j] == least[i, j, None], np.abs(v[i, j]), INT64_MAX).argmin(axis=1)
    return solved, np.column_stack((m1[j, 0], _S2[s] * least[i, j], -v[i, j, s] // a3[i, 0, 0]))
