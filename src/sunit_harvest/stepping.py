"""The residue-progression kernel: {(c, shift, w) : c*w == shift (mod a), 1 <= w <= W}.

For each cell (c, shift) the admissible w form the progression w0, w0 + a/g,
... with g = gcd(c, a), so one modulus costs O(#C * #shifts + hits) instead of
the naive O(#C * #shifts * W).  The pipelines and the decompositions share it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimit


def _starts(a: int, c_values: Sequence[int], shifts: Sequence[int], W: int):
    """int64 grids (w0, step, n) over the cells (c, shift): the first term, step
    and number of terms up to W of each progression (n = 0 unless g | shift).

    One modular inverse per c.  Raises ResourceLimit where int64 could overflow:
    callers form c*w - shift, and the start multiplies two residues mod a.
    """
    reach = int(max(map(abs, c_values), default=0)) * max(W, 1) + int(max(map(abs, shifts), default=0))
    if reach >= 2**63 or int(a) ** 2 >= 2**63:
        raise ResourceLimit(f"residue stepping mod {a} up to W = {W} beyond int64")
    c = np.array(c_values, dtype=np.int64)
    sh = np.array(shifts, dtype=np.int64)[None, :]
    g = np.gcd(c, a)
    step = a // g
    inv = np.array([pow(x, -1, s) for x, s in zip((c // g).tolist(), step.tolist())], dtype=np.int64)
    g, step = g[:, None], step[:, None]
    w0 = sh // g % step * inv[:, None] % step
    w0 = np.where(w0 == 0, step, w0)
    n = np.where((sh % g == 0) & (w0 <= W), (W - w0) // step + 1, 0)
    return w0, step, n


def progressions(a: int, c_values: Sequence[int], shifts: Sequence[int], W: int):
    """int64 arrays (i, j, w), one row per solution of c_values[i]*w == shifts[j]
    (mod a) with 1 <= w <= W, ordered by i, then j, then w.

    c_values[i]*w - shifts[j] is guaranteed to fit in int64.
    """
    w0, step, n = _starts(a, c_values, shifts, W)
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


def count_hits(a_values: Iterable[int], c_values: Iterable[int], W: int, shift: int = 1) -> int:
    """Exact number of triples (a, c, w) with c*w == shift (mod a) and 1 <= w <= W."""
    c_values = list(c_values)
    return sum(int(_starts(a, c_values, [shift], W)[2].sum()) for a in a_values)
