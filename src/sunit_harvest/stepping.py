"""The residue-progression kernel: {(c, shift, w) : c*w == shift (mod a), 1 <= w <= W}.

One rule decides which c take part: only the units c mod a are listed or
counted, and a c that shares a factor with a is left out, never refused.  One
array Euler power c^(phi(a) - 1) mod a, with no per-c Python loop, is c^-1
exactly where c*c^(phi(a) - 1) == 1, so one pass yields the inverses and the
unit mask; with a <= #C it runs once per residue mod a.  Two walks list the
same rows.  The start walk (`_starts`) steps each cell (c, shift) along w0,
w0 + a, ... from w0 == shift * c^-1 (mod a), at O(#units * #shifts + hits)
instead of the naive O(#C * #shifts * W).  The dual walk (`_join`) joins the
residue (c mod a)*w mod a of every (c, w) with w <= W against the shifts
grouped by residue, at O(#units * W + a + #shifts + hits).  `progressions`
takes the smaller grid: the join for many shifts and a short w range (thm2),
the start walk for one shift or a long w range (thm1).  `count_hits`, the
decompositions' exact count of c*w == 1 (mod a), weights each distinct
residue by how many c share it and counts each unit's one progression from
`_starts`.  Either walk lists the rows grouped by c, within one c in
(shift, w) or (w, shift) order; no caller reads that order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .arith import multiplicative_functions
from .errors import DomainError, ResourceLimit


def _check_moduli(a_values: Sequence[int]) -> None:
    """DomainError unless every modulus is >= 1."""
    if min(a_values) < 1:
        raise DomainError(f"modulus {min(a_values)} must be >= 1")


def _int64(c_values, shifts: Sequence[int], W: int) -> np.ndarray:
    """c_values as an int64 array.  Raises ResourceLimit unless
    max|c| * W + max|shift| < 2^63, since callers form c*w - shift."""
    if isinstance(c_values, np.ndarray):
        top = max(-int(c_values.min()), int(c_values.max())) if c_values.size else 0
    else:
        top = max(map(abs, c_values), default=0)
    if int(top) * max(W, 1) + int(max(map(abs, shifts), default=0)) >= 2**63:
        raise ResourceLimit(f"residue stepping up to W = {W} beyond int64")
    return np.asarray(c_values, dtype=np.int64)


def _powmod(x: np.ndarray, e: int, m) -> np.ndarray:
    """x^e mod m elementwise by square-and-multiply, for int64 residues x in [0, m)
    and m a Python int or an int64 array with m^2 < 2^63.  Products reduce as
    y - y // m * m, not y % m: numpy floor-divides by a Python-int scalar at
    about 1 ns an element, where `%` takes about 4 ns."""
    out = np.ones_like(x)
    for bit in bin(e)[2:]:  # at least one bit, so even x^0 is reduced: 0 when m == 1
        out *= out
        out -= out // m * m
        if bit == "1":
            out *= x
            out -= out // m * m
    return out


def _unit_inverse(x: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(inv, unit) for an int64 array x of residues in [0, a): inv = x^(phi(a) - 1)
    mod a is x^-1 mod a exactly where unit, x*inv == 1 (mod a), so units need no
    gcd.  Refuses a^2 >= 2^63 (ResourceLimit) before factoring a for phi(a)."""
    if int(a) ** 2 >= 2**63:
        raise ResourceLimit(f"residue stepping mod {a} beyond int64")
    inv = _powmod(x, multiplicative_functions(a)[0] - 1, a)
    return inv, x * inv % a == 1 % a


def _starts(a: int, inv: np.ndarray, shifts: Sequence[int], W: int):
    """int64 grids (w0, n) over the cells (c, shift) of units c mod a with
    inverses inv: the first term in [1, a] of each progression w == shift/c
    (mod a) of step a, and its number of terms up to W.  Each product of two
    residues stays below a^2 < 2^63, which _unit_inverse checked."""
    w0 = (np.array(shifts, dtype=np.int64)[None, :] % a * inv[:, None] - 1) % a + 1
    return w0, np.where(w0 <= W, (W - w0) // a + 1, 0)


def _join(a: int, c: np.ndarray, shifts: Sequence[int], W: int):
    """int64 arrays (i, j, w) by the dual walk: the residue r = (c mod a)*w mod a
    of every (c, w) with 1 <= w <= W, joined against the shifts grouped by
    residue mod a (one stable argsort, one bincount), the matches of each
    (c, w) spread by one repeat.  Rows come grouped by ascending i, in (w, j)
    order within i.

    r multiplies a residue by w, below a*W, never two residues.  The join runs
    only when #units * W + a < #units * #shifts, so W < #shifts, and after
    `_unit_inverse` checked a^2 < 2^63, a*W < 2^63 while #shifts < 2^31.
    """
    sh = np.array(shifts, dtype=np.int64) % a
    order = np.argsort(sh, kind="stable")
    counts = np.bincount(sh, minlength=a)
    r = ((c % a)[:, None] * np.arange(1, W + 1) % a).ravel()
    n = counts[r]
    cell = np.repeat(np.arange(r.size), n)
    # the k-th match of cell (c, w) is the k-th shift of the group of its residue
    j = ((np.cumsum(counts) - counts)[r] - (np.cumsum(n) - n))[cell]
    j += np.arange(cell.size)
    i = np.empty_like(cell)  # the remainder then overwrites cell
    np.divmod(cell, max(W, 1), out=(i, cell))
    return i, order[j], np.add(cell, 1, out=cell)


def progressions(a: int, c_values: Sequence[int] | np.ndarray, shifts: Sequence[int], W: int):
    """int64 arrays (i, j, w), one row per solution of c_values[i]*w == shifts[j]
    (mod a) with 1 <= w <= W and c_values[i] a unit mod a, grouped by ascending
    i; a c that shares a factor with a has no row.

    The Euler power refuses a^2 >= 2^63 (ResourceLimit) before any array of
    length a is built.  The join runs when #units * W + a < #units * #shifts,
    in (w, j) order within each i; otherwise the start walk, in (j, w) order.
    c_values[i]*w - shifts[j] fits in int64.  DomainError unless a >= 1.
    """
    _check_moduli([a])
    c = _int64(c_values, shifts, W)
    x = c % a  # with a <= #C, each of the a residues is inverted once, into a table that x indexes
    inv, unit = (v[x] for v in _unit_inverse(np.arange(a), a)) if a <= x.size else _unit_inverse(x, a)
    units = np.flatnonzero(unit)
    if units.size * W + a < units.size * len(shifts):
        i, j, w = _join(a, c[units], shifts, W)
    else:
        w0, n = _starts(a, inv[units], shifts, W)
        n = n.ravel()
        cell = np.repeat(np.arange(n.size), n)
        i, j = np.divmod(cell, w0.shape[1])
        term = np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n)
        w = w0.ravel()[cell] + term * a
    return units[i], j, w


def _interval_counts(a: int, W: int) -> np.ndarray:
    """counts[r] = #{1 <= w <= W : w == r (mod a)}, as floats."""
    full, rem = divmod(max(W, 0), a)
    counts = np.full(a, float(full))
    counts[1 : rem + 1] += 1
    return counts


def count_hits(a_values: Iterable[int], c_values: Iterable[int] | np.ndarray, W: int) -> int:
    """Exact number of triples (a, c, w) with c*w == 1 (mod a) and 1 <= w <= W.

    c_values is checked and converted to int64 once, not once per modulus; with
    no modulus there is nothing to step, and nothing is refused.  Each modulus
    inverts the distinct residues of c mod a, weighted by their multiplicities,
    and refuses a^2 >= 2^63.  DomainError unless every modulus is >= 1.
    """
    a_values = list(a_values)
    if not a_values:
        return 0
    _check_moduli(a_values)
    c = _int64(c_values if isinstance(c_values, np.ndarray) else list(c_values), [1], W)
    total = 0
    for a in a_values:
        r, k = np.unique(c % a, return_counts=True)
        inv, unit = _unit_inverse(r, a)
        # only a unit residue reaches 1, on one progression of step a
        total += int(k[unit] @ _starts(a, inv[unit], [1], W)[1][:, 0])
    return total
