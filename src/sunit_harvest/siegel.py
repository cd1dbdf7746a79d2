"""Constructive small solutions of a single integer linear form.

The pigeonhole construction: as y ranges over [0, C]^n the form sum(alpha_i y_i)
takes at most n*[C*B]+1 values, so with C = [(nB)^(1/(n-1))] two points collide
and their difference is a nonzero solution bounded by C.

For n = 3 with a3 != 0 one scan serves both searches: it walks (|z1|, |z2|) and
solves for z3.  `siegel_nonzero_coords` is the scalar all-nonzero search and
the oracle; `NonzeroSearch` makes the same selection as one array pass over
many (a2, a3) pairs per a1, which is what prop1 runs.
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
    """siegel_nonzero_coords((a1, a2, a3), cap).z over fixed pairs (a2, a3)
    with a3 != 0, for one a1 at a time, as arrays.

    Negating z keeps it a solution, so the selected z1 = m1 is positive.  For
    fixed (m1, s2) the m2 with s2*a2*m2 == -a1*m1 (mod a3) form one class mod
    step = |a3| / gcd(a2, a3), |z3| <= M cuts them to an interval and z3 = 0
    holds at one m2 at most, so the first valid m2 is the class start at or
    above the interval's low end, stepped once past z3 = 0.  The inverse of
    a2/g mod step is computed once per pair; m1 is walked in blocks and solved
    pairs retire.  Pairs whose arithmetic could leave int64 (the class start
    multiplies two residues mod step, the interval ends reach
    (|a1| + |a2| + |a3|) * M) are left to the scalar search.
    """

    BLOCK = 4
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

    def __call__(self, a1: int) -> tuple[np.ndarray, np.ndarray]:
        """(z, found): row k is the vector selected for (a1,) + pairs[k], or
        zeros where no all-nonzero vector lies in the window."""
        z = np.zeros((len(self.pairs), 3), dtype=np.int64)
        found = np.zeros(len(self.pairs), dtype=bool)
        fast = self.reach <= INT64_MAX // (self.M + 1) - abs(a1)
        pending = np.flatnonzero(fast)
        for first in range(1, self.M + 1, self.BLOCK):
            if not len(pending):
                break
            solved, vectors = self._block(a1, first, pending)
            z[pending[solved]], found[pending[solved]] = vectors, True
            pending = pending[~solved]
        for k in np.flatnonzero(~fast).tolist():
            sol = siegel_nonzero_coords((a1,) + tuple(self.pairs[k]), self.cap)
            if sol is not None:
                z[k], found[k] = sol.z, True
        return z, found

    def _block(self, a1: int, first: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of the pairs rows have a vector with m1 in [first, first + BLOCK),
        and the first such vector of each."""
        M, s2 = self.M, self.S2
        # axes: pair, m1, s2
        m1 = np.arange(first, min(first + self.BLOCK, M + 1))[None, :, None]
        a2, a3, g, step, inv = (v[rows, None, None] for v in (self.a2, self.a3, self.g, self.step, self.inv))
        t, c, bound = a1 * m1, s2 * a2, M * np.abs(a3)
        # (a2/g)*m2 == -s2*(a1*m1/g) (mod step), solvable when g | a1*m1
        cls = -s2 * (t // g % step * inv % step) % step
        lo = np.clip(-((bound + t * np.sign(c)) // np.maximum(np.abs(c), 1)), 1, M + 1)
        m2 = lo + (cls - lo) % step
        ok = (t % g == 0) & (m2 <= M)
        v = t + c * np.where(ok, m2, 0)
        m2 = m2 + np.where(ok & (v == 0), step, 0)
        ok &= m2 <= M
        v = t + c * np.where(ok, m2, 0)
        ok &= (v != 0) & (np.abs(v) <= bound)
        # the first m1, then the least m2, the least |z3| and s2 > 0
        m2 = np.where(ok, m2, M + 1)
        least = m2.min(axis=2)
        z3 = -v // a3
        k = np.where(m2 == least[:, :, None], np.abs(z3), M + 1).argmin(axis=2)
        has = least <= M
        solved = has.any(axis=1)
        i, j = np.flatnonzero(solved), has.argmax(axis=1)[solved]
        k = k[i, j]
        return solved, np.column_stack((m1[0, j, 0], s2[k] * least[i, j], z3[i, j, k]))
