"""The residue-progression kernel: {(c, shift, w) : c*w == shift (mod a), 1 <= w <= W}.

Two walks list the same rows.  The start walk (`_starts`): for each cell
(c, shift) the admissible w form the progression w0, w0 + a/g, ... with
g = gcd(c, a), so one modulus costs O(#C * #shifts + hits) instead of the
naive O(#C * #shifts * W).  The start w0 needs the inverse of c/g mod a/g;
all of them come from one array extended-Euclid pass, with no per-c Python
loop.  The dual walk (`_join`) lists the residue (c mod a)*w mod a of every
(c, w) with w <= W and joins it against the shifts grouped by residue, at
O(#C * W + a + #shifts + hits).  `progressions` takes the join exactly when
its grid is the smaller one, #C * W + a < #C * #shifts: many shifts and a
short w range, as in thm2.  One shift or a long w range (thm1) stays on
the start walk.  `count_hits`, the decompositions' exact count, takes the
start walk over the distinct residues of C mod a only, each weighted by how
many c share it, so one modulus steps at most min(a, #C) cells.  Either walk
lists the rows grouped by c; within one c the start walk orders them by
(shift, w) and the join by (w, shift).  No caller reads that order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

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


def _gcd_inverse(c: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 arrays (g, inv) with g = gcd(c, a) and inv = pow(c // g, -1, a // g)
    elementwise (0 where a // g == 1), for an int64 array c of any sign.

    One extended Euclid on (a, c % a) runs over every c at once and keeps
    t with c*t == r (mod a) for each remainder r; at the last nonzero
    remainder g, (c/g)*t == 1 (mod a/g).  A pair leaves the working arrays
    when its next remainder is 0.  Each |t| stays within a and each q*r
    within the remainder before it, so nothing leaves int64.
    """
    g, inv = np.empty_like(c), np.empty_like(c)
    live = np.arange(c.size)
    r0, r1 = np.full_like(c, a), c % a
    t0, t1 = np.zeros_like(c), np.ones_like(c)
    while live.size:
        done = np.flatnonzero(r1 == 0)
        if done.size:
            at = live.take(done)
            g[at], inv[at] = r0.take(done), t0.take(done)
            keep = np.flatnonzero(r1)
            live, r0, r1, t0, t1 = (v.take(keep) for v in (live, r0, r1, t0, t1))
            if not live.size:
                break
        q, r = np.divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    return g, inv % (a // g)


def _starts(a: int, c: np.ndarray, shifts: Sequence[int], W: int):
    """int64 grids (w0, step, n) over the cells (c, shift): the first term, step
    and number of terms up to W of each progression (n = 0 unless g | shift).

    g and the inverse of c/g mod step = a/g come from _gcd_inverse.  c comes
    from _int64, which checked c*w - shift.  Raises ResourceLimit when a^2
    reaches 2^63, since the start multiplies two residues mod a.
    """
    if int(a) ** 2 >= 2**63:
        raise ResourceLimit(f"residue stepping mod {a} beyond int64")
    sh = np.array(shifts, dtype=np.int64)[None, :]
    g, inv = _gcd_inverse(c, a)
    step = a // g
    g, step = g[:, None], step[:, None]
    w0 = sh // g % step * inv[:, None] % step
    w0 = np.where(w0 == 0, step, w0)
    n = np.where((sh % g == 0) & (w0 <= W), (W - w0) // step + 1, 0)
    return w0, step, n


def _join(a: int, c: np.ndarray, shifts: Sequence[int], W: int):
    """int64 arrays (i, j, w) by the dual walk: the residue r = (c mod a)*w mod a
    of every (c, w) with 1 <= w <= W, joined against the shifts grouped by
    residue mod a (one stable argsort, one bincount), the matches of each
    (c, w) spread by one repeat.  Rows come grouped by ascending i, in (w, j)
    order within i.

    r multiplies a residue by w, below a*W, never two residues.
    `progressions` takes this walk only when #C * W + a < #C * #shifts, the
    start walk's cell count, so a and W are both below that count and a*W
    below its square.  thm2's hit cap bounds the count (5e7 by default, a
    square of 2.5e15), so the join needs no int64 guard of its own.
    """
    sh = np.array(shifts, dtype=np.int64) % a
    order = np.argsort(sh, kind="stable")
    counts = np.bincount(sh, minlength=a)
    r = ((c % a)[:, None] * np.arange(1, W + 1) % a).ravel()
    n = counts[r]
    cell = np.repeat(np.arange(r.size), n)
    # the k-th match of cell (c, w) is the k-th shift of the group of its residue
    skip = (np.cumsum(counts) - counts)[r] - (np.cumsum(n) - n)
    i, w = np.divmod(cell, max(W, 1))
    return i, order[np.arange(cell.size) + skip[cell]], w + 1


def progressions(a: int, c_values: Sequence[int] | np.ndarray, shifts: Sequence[int], W: int):
    """int64 arrays (i, j, w), one row per solution of c_values[i]*w == shifts[j]
    (mod a) with 1 <= w <= W, grouped by ascending i.

    The dual walk `_join` runs when #C * W + a < #C * #shifts, and the rows
    within each i are in (w, j) order; otherwise the start walk `_starts`
    runs, in (j, w) order, and refuses a^2 >= 2^63.  Either costs the size of
    its grid plus the hits.  c_values[i]*w - shifts[j] is guaranteed to fit
    in int64.  DomainError unless a >= 1.
    """
    _check_moduli([a])
    c = _int64(c_values, shifts, W)
    if c.size * W + a < c.size * len(shifts):
        return _join(a, c, shifts, W)
    w0, step, n = _starts(a, c, shifts, W)
    n = n.ravel()
    cell = np.repeat(np.arange(n.size), n)
    i, j = np.divmod(cell, w0.shape[1])
    term = np.arange(cell.size) - np.repeat(np.cumsum(n) - n, n)
    return i, j, w0.ravel()[cell] + term * step[i, 0]


def _interval_counts(a: int, W: int) -> np.ndarray:
    """counts[r] = #{1 <= w <= W : w == r (mod a)}."""
    counts = np.zeros(a)
    if W <= 0:
        return counts
    full, rem = divmod(W, a)
    counts += full
    if rem:
        counts[1 : rem + 1] += 1
    return counts


def count_hits(a_values: Iterable[int], c_values: Iterable[int] | np.ndarray, W: int, shift: int = 1) -> int:
    """Exact number of triples (a, c, w) with c*w == shift (mod a) and 1 <= w <= W.

    c_values is checked and converted to int64 once, not once per modulus; with
    no modulus there is nothing to step, and nothing is refused.  Each modulus
    walks the distinct residues of c mod a, weighted by their multiplicities.
    DomainError unless every modulus is >= 1.
    """
    a_values = list(a_values)
    if not a_values:
        return 0
    _check_moduli(a_values)
    c = _int64(c_values if isinstance(c_values, np.ndarray) else list(c_values), [shift], W)
    total = 0
    for a in a_values:
        r, k = np.unique(c % a, return_counts=True)
        total += int(k @ _starts(a, r, [shift], W)[2][:, 0])
    return total
