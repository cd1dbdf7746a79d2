"""The residue-progression kernel: {(c, shift, w) : c*w == shift (mod a), 1 <= w <= W}.

Only the units c mod a are listed or counted; a c that shares a factor with a
is left out, never refused.  One array power c^(lambda(a) - 1), lambda the
Carmichael exponent (`_unit_inverse`), yields the inverses and the unit mask
for both walks, the exact count and the additive spectrum.  When a <= #c it
runs once over the a residues, and the table is kept for the next call with
the same a (`_kept`, the library's one store of tables of every kind, bounded
by TABLE_BYTES = 1 MiB, least recently used out first).  Two walks write the
same hits into the caller's array, one key per hit in its dtype (int32 or
int64), W*r_j*(c*w // a) + e_j + (w - 1) for the caller's per-shift e and r:
with e_j = W*(d_j - u_lo) it is the packed (u, w) key W*(u - u_lo) + (w - 1) of
u = r_j*(c*w // a) + d_j.  Neither walk forms a row of u or w, or an index of c
or shift per row, and neither writes unless its hits are exactly as many as
the array holds.  The start walk (`_start`) lists the terms w0 + a*k,
k < ceil(W / a), of every cell (c, shift) from w0 == shift * c^-1 (mod a), as
one grid of keys masked by w <= W, at O(#units * #shifts + hits) instead of the
naive O(#C * #shifts * W).  The join (`_join`) matches the residue c*w mod a of
every (c, w) with w <= W to the shifts of that residue, at
O(#units * W + a + #shifts + hits): the shifts, ordered by (count of their
residue, residue) by one value sort, form one block per count k, and each
cell's keys are one row of its block gathered and one add of W*(c*w // a) +
(w - 1).  `progressions` takes the smaller grid: the join for many shifts and a
short w range (thm2's b + 1, thm1's r^-1 mod a), the start walk for few shifts
or a long w range.  `count_hits` counts the rows on that grid, at its cost and
not the hits', the join's from the residues the join itself forms (`_cells`).
No caller reads the order of the rows.  `_int64` bounds |c|*W + |shift|, so
c*w fits int64 for every w <= W; e and r keep the key there.
"""

from __future__ import annotations

from collections import OrderedDict
from math import lcm
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .arith import trial_factor
from .errors import DomainError, ResourceLimit

TABLE_BYTES = 2**20  # the bytes of tables kept between calls, every kind together
# oldest first: a -> the inverse table (inv, unit) mod a; (kind, a) -> a table of another kind
_TABLES: OrderedDict[Hashable, object] = OrderedDict()
_held = 0  # the bytes _TABLES holds


def _check_moduli(a_values: Sequence[int]) -> None:
    """DomainError unless every modulus is >= 1."""
    if min(a_values) < 1:
        raise DomainError(f"modulus {min(a_values)} must be >= 1")


def _int64(c_values, shifts, W: int) -> np.ndarray:
    """c_values as an int64 array.  Raises ResourceLimit unless max|c| * W + max|shift|
    < 2^63, since callers form c*w - shift; an array is bounded by its numpy min and max."""
    def top(v) -> int:
        return max(-int(v.min()), int(v.max())) if isinstance(v, np.ndarray) and v.size else max(map(abs, v), default=0)

    if top(c_values) * max(W, 1) + top(shifts) >= 2**63:
        raise ResourceLimit(f"residue stepping up to W = {W} beyond int64")
    return np.asarray(c_values, dtype=np.int64)


def _powmod(x: np.ndarray, e: int, m: int) -> np.ndarray:
    """x^e mod m elementwise by square-and-multiply, for residues x in [0, m) and a
    Python int m; exact in x's dtype (int32 or int64) when its largest product,
    (m - 1)^2, fits.  Products reduce as y - y // m * m, not y % m: numpy
    floor-divides by a Python-int scalar at about 1 ns an element, where `%` takes about 4 ns."""
    out = np.ones_like(x)
    for bit in bin(e)[2:]:  # at least one bit, so even x^0 is reduced: 0 when m == 1
        out *= out
        out -= out // m * m
        if bit == "1":
            out *= x
            out -= out // m * m
    return out


def _carmichael(a: int) -> int:
    """Carmichael's lambda(a), the least e >= 1 with x^e == 1 (mod a) for every unit x:
    the lcm over p^k || a of (p - 1)*p^(k - 1), halved for 2^k with k >= 3."""
    return lcm(*((p - 1) * p ** (k - 1) // (2 if p == 2 and k >= 3 else 1) for p, k in trial_factor(a)))


def _invert(x: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(inv, unit) for residues x mod a: inv = x^(lambda(a) - 1) mod a is x^-1 mod a
    exactly where unit, x*inv == 1 (mod a), so units need no gcd.  Its products, at
    most (a - 1)^2, are exact in int32 while (a - 1)^2 < 2^31 (a <= 46,341), else in
    int64, the dtype of inv."""
    x = x.astype(np.int32 if (a - 1) ** 2 < 2**31 else np.int64, copy=False)
    inv = _powmod(x, _carmichael(a) - 1, a)
    return inv, x * inv % a == 1 % a


def _arrays(table) -> list[np.ndarray]:
    """The arrays of a kept table: a tuple's items, or an object's array attributes."""
    items = table if isinstance(table, tuple) else vars(table).values()
    return [t for t in items if isinstance(t, np.ndarray)]


def _kept(key: Hashable, build: Callable[[], object]):
    """The table under key in _TABLES, else build(), made read-only and kept while it
    fits TABLE_BYTES with the others; the least recently used tables go first, and a
    table past the budget is not kept.  Only the arrays the table holds when build()
    returns are counted and made read-only."""
    global _held
    if key in _TABLES:
        _TABLES.move_to_end(key)
        return _TABLES[key]
    table = build()
    size = sum(t.nbytes for t in _arrays(table))
    if size <= TABLE_BYTES:
        for t in _arrays(table):
            t.flags.writeable = False
        _TABLES[key] = table
        _held += size
        while _held > TABLE_BYTES:
            _held -= sum(t.nbytes for t in _arrays(_TABLES.popitem(last=False)[1]))
    return table


def _unit_inverse(c: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """(inv, unit) of `_invert` for c mod a, an int64 array c.  With a <= #c the power
    runs once over the a residues, into a table that c mod a indexes and that
    `_kept` keeps for the next call with this a; otherwise over c mod a itself.
    Refuses a^2 >= 2^63 (ResourceLimit) before factoring a or building any array
    of length a."""
    if int(a) ** 2 >= 2**63:
        raise ResourceLimit(f"residue stepping mod {a} beyond int64")
    x, a = c % a, int(a)
    if a <= x.size:
        inv, unit = _kept(a, lambda: _invert(np.arange(a), a))
        return inv[x], unit[x]
    return _invert(x, a)


def _cells(a: int, c: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, c*w mod a) of every cell (c, w), 1 <= w <= W, flat in (c, w) order, with q = c*w // a;
    the residue is reduced as cw - q*a, as `_powmod` reduces."""
    cw = (c[:, None] * np.arange(1, W + 1)).ravel()
    q = cw // a
    cw -= q * a
    return q, cw


def _join(a: int, c: np.ndarray, rho: np.ndarray, W: int, e: np.ndarray, r, out: np.ndarray) -> int:
    """Keys by the dual walk, written into out: q = c*w // a and c*w mod a of every cell (c, w),
    1 <= w <= W, joined against the columns of that residue.  The columns no cell reaches
    are dropped; the others, ordered by (count of their residue, residue), make one
    (residues x k) block of e, and of r, per class of residues with k columns.  One stable
    (radix) sort of a uint16 class id groups the cells by class, and each class writes
    np.take(block, row of each cell's residue, axis=0) + (W*q + w - 1) into its slice of out,
    in out's dtype: per key one row gather and one add (for r != 1, W*q is multiplied by r's
    gather and w - 1 added apart).  Sums and products in that dtype are exact modulo its
    width, so a key that fits it is exact.  Rows come by class, then by cell, then by
    column.  Returns the number of keys; none is written unless it is out.size."""
    q, res = _cells(a, c, W)
    reached = np.zeros(a, dtype=bool)
    reached[res] = True
    keep = np.flatnonzero(reached.take(rho))  # the columns some cell reaches
    rho, m = rho.take(keep), keep.size
    counts = np.bincount(rho, minlength=a)
    # class 0 holds the residues with no column, class i those with the i-th least count k_i;
    # k_1 + ... + k_t <= m < 2^31, so t(t + 1)/2 < 2^31 and the ids 0..t fit uint16
    residues_of = np.bincount(counts)  # residues_of[k]: the residues with k columns
    sizes = np.flatnonzero(residues_of[1:]) + 1
    ids = np.zeros(residues_of.size, dtype=np.uint16)
    ids[sizes] = np.arange(1, sizes.size + 1)
    cls = ids.take(counts)
    rank = np.empty(a, dtype=np.int64)  # each residue's place in (class, residue) order
    rank[np.argsort(cls, kind="stable")] = np.arange(a)
    per_class = np.bincount(cls, minlength=sizes.size + 1)  # residues per class
    row = rank - (np.cumsum(per_class) - per_class).take(cls)  # a residue's row in its class block
    # the columns in (class, residue) order by one value sort of rank*m + k, each index k
    # below m: rank*m + k < a*m < 2^63, as a < 2^31.5 (a^2 < 2^63) and m < 2^31 (16 GiB of int64 columns)
    order = np.sort(rank.take(rho) * m + np.arange(m))
    order -= order // m * m
    col = keep.take(order)
    e_col = e.take(col).astype(out.dtype, copy=False)
    cell_cls = cls.take(res)
    by = np.argsort(cell_cls, kind="stable")  # the cells (flat index c*W + w - 1) by class
    cells = np.bincount(cell_cls, minlength=sizes.size + 1)  # cells per class
    total = int(cells[1:] @ sizes)
    if total != out.size:
        return total
    rows = row.take(res.take(by))
    q *= W
    if np.ndim(r):
        r_col, w1 = r.take(col).astype(out.dtype, copy=False), (by - by // max(W, 1) * W).astype(out.dtype)
    else:
        q.reshape(c.size, W)[:] += np.arange(W)  # W*q + (w - 1), once per cell
    wq = q.take(by).astype(out.dtype, copy=False)
    at, first, block = 0, int(cells[0]), 0  # class 0's cells come first and match nothing
    for k, n, held in zip(sizes.tolist(), cells[1:].tolist(), per_class[1:].tolist()):
        view, span = out[at : at + n * k].reshape(n, k), slice(first, first + n)
        columns = slice(block, block + held * k)
        np.take(e_col[columns].reshape(held, k), rows[span], axis=0, out=view, mode="clip")
        if np.ndim(r):
            view += np.take(r_col[columns].reshape(held, k), rows[span], axis=0, mode="clip") * wq[span, None]
            view += w1[span, None]
        else:
            view += wq[span, None]
        at, first, block = at + n * k, first + n, block + held * k
    return total


def _start(a: int, c: np.ndarray, inv: np.ndarray, rho: np.ndarray, W: int, e: np.ndarray, r, out: np.ndarray) -> int:
    """Keys by the start walk, written into out: the terms w0 + a*k, k < ceil(W / a), of every
    cell (c, column) from its first term w0 == rho * c^-1 (mod a) in [1, a], kept where
    w0 + a*k <= W.  As c*w = c*w0 + a*c*k, the key grid is base + (W*r*c + a)*k with base the
    key of w0; a cell with w0 > W keeps no term, and takes W for w0.  A term past W, up to
    w < W + a, may key past int64 and wrap; it is dropped, and a kept key, exact mod 2^64 and
    inside int64, is exact.  Rows come grouped by c, in (column, w) order within c.  Returns
    the number of keys; none is written unless it is out.size."""
    k = np.arange(-(-W // a))
    w0 = (rho * inv[:, None] - 1) % a + 1  # rho * inv < a^2 < 2^63
    key = np.multiply((W * c[:, None] * r + a)[:, :, None], k, out=np.empty(w0.shape + k.shape, dtype=np.int64))
    first = np.minimum(w0, W)
    key += (W * (c[:, None] * first // a * r) + e + first - 1)[:, :, None]
    kept = k <= ((W - w0) // a)[:, :, None]  # w0 + a*k <= W
    total = int(np.count_nonzero(kept))
    if total == out.size:  # the kept keys go over 2^16 grid terms at a time: no copy of them all is made
        key, kept, at = key.ravel(), kept.ravel(), 0
        for lo in range(0, key.size, 2**16):
            part = key[lo : lo + 2**16][kept[lo : lo + 2**16]]
            out[at : at + part.size] = part
            at += part.size
    return total


def progressions(
    a: int, c_values: Sequence[int] | np.ndarray, shifts: Sequence[int], W: int, e: np.ndarray, r, out: np.ndarray
) -> int:
    """Writes one key per solution of c_values[i]*w == shifts[j] (mod a) with 1 <= w <= W and
    c_values[i] a unit mod a into out, and returns their number; nothing is written unless
    that number is out.size.  key = W*r[j]*(c_values[i]*w // a) + e[j] + (w - 1) for int64
    arrays e and r, or r = 1.  With e[j] = W*(d[j] - u_lo) the key is the (u, w) packing
    W*(u - u_lo) + (w - 1) of u = r[j]*(c_values[i]*w // a) + d[j]; d[j] = -(shifts[j] // a)
    and r = 1 give a*u + shifts[j] = c_values[i]*w, so divmod(key, W) is (u - u_lo, w - 1).
    The join lists the rows when #units * W + a < #units * #shifts, the start walk
    otherwise; no caller reads their order.  ResourceLimit when a^2 >= 2^63, before any
    array of length a, or when c_values[i]*w - shifts[j] passes int64; a key is exact when
    it fits out's dtype (int32 or int64).  DomainError unless a >= 1."""
    _check_moduli([a])
    c = _int64(c_values, shifts, W)
    inv, unit = _unit_inverse(c, a)
    c, rho = c[unit], np.array(shifts, dtype=np.int64)
    rho -= rho // a * a  # shifts mod a, reduced as `_powmod` reduces
    if c.size * W + a < c.size * rho.size:
        return _join(a, c, rho, W, e, r, out)
    return _start(a, c, inv[unit], rho, W, e, r, out)


def _interval_counts(a: int, W: int) -> np.ndarray:
    """counts[r] = #{1 <= w <= W : w == r (mod a)}, as floats."""
    full, rem = divmod(max(W, 0), a)
    counts = np.full(a, float(full))
    counts[1 : rem + 1] += 1
    return counts


def count_hits(a_values: Iterable[int], c_values: Iterable[int] | np.ndarray, W: int, shifts=(1,)) -> int:
    """Exact number of rows progressions(a, c_values, shifts, W) lists, summed over
    a in a_values, counted on the grid that walk would take.  c_values is checked
    and converted to int64 once; with no modulus nothing is refused.  Refuses
    a^2 >= 2^63.  DomainError unless every modulus is >= 1."""
    a_values = list(a_values)
    if not a_values:
        return 0
    _check_moduli(a_values)
    c = _int64(c_values if isinstance(c_values, np.ndarray) else list(c_values), shifts, W)
    sh = np.asarray(shifts, dtype=np.int64)
    total = 0
    for a in a_values:
        inv, unit = _unit_inverse(c, a)
        inv = inv[unit]
        if inv.size * W + a < inv.size * sh.size:  # the join, as `progressions` decides
            res = _cells(a, c[unit], W)[1]  # the join's residues, as it forms them
            total += int(np.bincount(res, minlength=a) @ np.bincount(sh % a, minlength=a))
            continue
        # the cell (c, shift) steps from x = shift * c^-1 mod a, or a for x = 0: `full` terms, one more for x <= rem
        x = inv if sh.size == 1 and sh[0] == 1 else sh % a * inv[:, None] % a
        full, rem = divmod(max(W, 0), a)
        total += full * x.size + int(np.count_nonzero((x > 0) & (x <= rem)))
    return total
