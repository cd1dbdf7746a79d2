"""Constructive small solutions of a single integer linear form.

The pigeonhole construction: as y ranges over [0, C]^n the form sum(alpha_i y_i)
takes at most n*[C*B]+1 values, so with C = [(nB)^(1/(n-1))] two points collide
and their difference is a nonzero solution bounded by C.

For n = 3 with a3 != 0 one scan serves both searches: it walks (|z1|, |z2|) and
solves for z3.  `siegel_nonzero_coords` is the scalar all-nonzero search and
the oracle; `NonzeroSearch` makes the same selection by one array search over
every (a1, a2, a3) triple, which is what prop1 runs: m1 in blocks of four,
pending rows in bounded chunks, solved rows retired.
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


class NonzeroSearch:
    """siegel_nonzero_coords((a1, a2, a3), cap).z over every a1 of a sequence
    and fixed pairs (a2, a3) with a3 != 0, as one array search.

    Negating z keeps it a solution, so the selected z1 = m1 is positive.  For
    fixed (m1, s2) the m2 with s2*a2*m2 == -a1*m1 (mod a3) form one class mod
    step = |a3| / gcd(a2, a3), |z3| <= M cuts them to an interval and z3 = 0
    holds at one m2 at most, so the first valid m2 is the class start at or
    above the interval's low end, stepped once past z3 = 0.  The inverse of
    a2/g mod step is computed once per pair.  One pending list holds every
    (a1, pair) row; m1 is walked in blocks of BLOCK values over the pending
    rows, CHUNK rows at a time, and solved rows retire.  Rows whose arithmetic
    could leave int64 (the class start multiplies two residues mod step, the
    interval ends reach (|a1| + |a2| + |a3|) * M) are left to the scalar search.
    """

    BLOCK = 4
    CHUNK = 2048  # most pending rows one block works on, so its cell arrays stay small
    S2 = np.array([1, -1])  # ranked s2 > 0 first

    def __init__(self, pairs: Sequence[tuple[int, int]], cap: float):
        if cap < 1:
            raise DomainError("cap must be >= 1")
        self.cap, self.M, self.pairs = cap, floor(cap + 1e-12), list(pairs)
        rows = []
        for a2, a3 in self.pairs:
            if a3 == 0:
                raise DomainError("a3 must be nonzero")
            g = gcd(a2, a3)
            step, reach = abs(a3) // g, abs(a2) + abs(a3)
            if (step - 1) ** 2 > INT64_MAX or reach > INT64_MAX:  # a placeholder row, never fast
                rows.append((0, 1, 1, 1, 0, INT64_MAX))
            else:
                rows.append((a2, a3, g, step, pow(a2 // g, -1, step), reach))
        self.a2, self.a3, self.g, self.step, self.inv, self.reach = np.array(rows, dtype=np.int64).reshape(-1, 6).T

    def __call__(self, a1_values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(z, found) over the rows (a1, pair), a1-major: row i * len(pairs) + k is the vector
        selected for (a1_values[i],) + pairs[k], or zeros where no all-nonzero vector lies in the window."""
        a1_values, n = list(a1_values), len(self.pairs)
        limits = [INT64_MAX // (self.M + 1) - abs(a1) for a1 in a1_values]
        fast = np.array([self.reach <= limit for limit in limits], dtype=bool).reshape(-1)
        # no fast row reads an a1 past its limit, which may not fit int64: 0 stands in
        a1 = np.array([a1 if limit >= 0 else 0 for a1, limit in zip(a1_values, limits)], dtype=np.int64)
        z, found = np.zeros((len(fast), 3), dtype=np.int64), np.zeros(len(fast), dtype=bool)
        pending = np.flatnonzero(fast)
        for first in range(1, self.M + 1, self.BLOCK):
            if not len(pending):
                break
            left = []
            for start in range(0, len(pending), self.CHUNK):
                rows = pending[start : start + self.CHUNK]
                solved, vectors = self._block(a1[rows // n], rows % n, first)
                z[rows[solved]], found[rows[solved]] = vectors, True
                left.append(rows[~solved])
            pending = np.concatenate(left)
        for row in np.flatnonzero(~fast).tolist():
            sol = siegel_nonzero_coords((a1_values[row // n],) + tuple(self.pairs[row % n]), self.cap)
            if sol is not None:
                z[row], found[row] = sol.z, True
        return z, found

    def _block(self, a1: np.ndarray, k: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
        """Which rows (a1[j],) + pairs[k[j]] have a vector with m1 in
        [first, first + BLOCK), and the first such vector of each."""
        M = self.M
        # axes: row, m1, s2; t = a1*m1, its divisibility and its class have no s2 axis
        m1 = np.arange(first, min(first + self.BLOCK, M + 1))[:, None]
        a2, a3, g, step, inv = (v[k, None, None] for v in (self.a2, self.a3, self.g, self.step, self.inv))
        t, c, bound = a1[:, None, None] * m1, self.S2 * a2, M * np.abs(a3)
        # (a2/g)*m2 == -s2*(a1*m1/g) (mod step), solvable when g | a1*m1: m2 is the
        # first member of that class at or above the low end of |z3| <= M
        r = t // g % step * inv % step
        m2 = np.clip(-((bound + t * np.sign(c)) // np.maximum(np.abs(c), 1)), 1, M + 1)
        m2 += (-self.S2 * r - m2) % step
        ok = (t % g == 0) & (m2 <= M)
        v = t + c * np.where(ok, m2, 0)
        zero = ok & (v == 0)
        m2 += zero * step
        ok &= m2 <= M
        v = np.where(zero, c * step, v)
        ok &= (v != 0) & (np.abs(v) <= bound)
        # the first m1, then the least m2, then the least |z3| (|v| / |a3| on a row), then s2 > 0
        m2 = np.where(ok, m2, M + 1)
        least = np.minimum(m2[..., 0], m2[..., 1])  # min(axis=2) over two columns is slower
        has = least <= M
        solved = has.any(axis=1)
        i, j = np.flatnonzero(solved), has.argmax(axis=1)[solved]
        s = np.where(m2[i, j] == least[i, j, None], np.abs(v[i, j]), INT64_MAX).argmin(axis=1)
        return solved, np.column_stack((m1[j, 0], self.S2[s] * least[i, j], -v[i, j, s] // a3[i, 0, 0]))
