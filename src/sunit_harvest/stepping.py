"""The residue-progression kernel: {(c, shift, w) : c*w == shift (mod a), 1 <= w <= W}.

Only the units c mod a are listed or counted; a c that shares a factor with a
is left out, never refused.  One array power c^(lambda(a) - 1), lambda the
Carmichael exponent (`_unit_inverse`), yields the inverses and the unit mask
for both walks, the exact count and the additive spectrum.  When a <= #c it
runs once over the a residues, and the table is kept for the next call with
the same a (`_kept`, the library's one store of tables of every kind, bounded
by TABLE_BYTES = 1 MiB, least recently used out first).  Two walks list the
same hits, one int64 key per hit, W*r_j*(c*w // a) + e_j + (w - 1) for the
caller's per-shift e and r: with e_j = W*(d_j - u_lo) it is the packed (u, w)
key W*(u - u_lo) + (w - 1) of u = r_j*(c*w // a) + d_j.  Neither walk forms a
row of u or w, or an index of c or shift per row.  The start walk (`_start`)
lists the terms w0 + a*k, k < ceil(W / a), of every cell (c, shift) from
w0 == shift * c^-1 (mod a), as one grid of keys masked by w <= W, at
O(#units * #shifts + hits) instead of the naive O(#C * #shifts * W).  The join
(`_join`) matches the residue c*w mod a of every (c, w) with w <= W to the shifts
grouped by residue, at O(#units * W + a + #shifts + hits).  `progressions` takes
the smaller grid: the join for many shifts and a short w range (thm2's b + 1,
thm1's r^-1 mod a), the start walk for few shifts or a long w range.
`count_hits` counts the rows on that grid, at its cost and not the hits', the
join's from the residues the join itself forms (`_cells`).  Either walk groups
the rows by c; no caller reads their order within one c.  `_int64` bounds
|c|*W + |shift|, so c*w fits int64 for every w <= W; e and r keep the key there.
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


def _join(a: int, c: np.ndarray, rho: np.ndarray, W: int, e: np.ndarray, r) -> np.ndarray:
    """Keys by the dual walk: q = c*w // a and c*w mod a of every cell (c, w), 1 <= w <= W,
    joined against the columns grouped by residue rho (one value sort, one bincount).
    Each cell's W*q + (w - 1) is spread over its matches by one repeat and e is gathered
    in residue order; for r != 1, W*q and w - 1 are spread apart and W*q takes r.  Rows come
    grouped by c, in (w, column) order within c, and the columns of one residue in their
    given order."""
    m = rho.size
    # the stable argsort of rho by one value sort of rho*m + k, each index k below its residue:
    # rho*m + k < a*m < 2^63, as a < 2^31.5 (a^2 < 2^63) and m < 2^31 (16 GiB of int64 columns)
    order = np.sort(rho * m + np.arange(m))
    order -= order // m * m
    counts = np.bincount(rho, minlength=a)
    q, res = _cells(a, c, W)
    n = counts[res]
    # the k-th match of cell (c, w) is the k-th column of its residue's group, in residue order
    at = np.repeat((np.cumsum(counts) - counts)[res] - (np.cumsum(n) - n), n)
    at += np.arange(at.size)
    q *= W
    if np.ndim(r):
        key = np.repeat(q, n)
        key *= r[order][at]
        key += np.repeat(np.tile(np.arange(W), c.size), n)
    else:
        q.reshape(c.size, W)[:] += np.arange(W)  # W*q + (w - 1), once per cell
        key = np.repeat(q, n)
    key += e[order][at]
    return key


def _start(a: int, c: np.ndarray, inv: np.ndarray, rho: np.ndarray, W: int, e: np.ndarray, r) -> np.ndarray:
    """Keys by the start walk: the terms w0 + a*k, k < ceil(W / a), of every cell (c, column)
    from its first term w0 == rho * c^-1 (mod a) in [1, a], kept where w0 + a*k <= W.  As
    c*w = c*w0 + a*c*k, the key grid is base + (W*r*c + a)*k with base the key of w0; a
    cell with w0 > W keeps no term, and takes W for w0.  A term past W, up to w < W + a,
    may key past int64 and wrap; it is dropped, and a kept key, exact mod 2^64 and inside
    int64, is exact.  Rows come grouped by c, in (column, w) order within c."""
    k = np.arange(-(-W // a))
    w0 = (rho * inv[:, None] - 1) % a + 1  # rho * inv < a^2 < 2^63
    key = np.multiply((W * c[:, None] * r + a)[:, :, None], k, out=np.empty(w0.shape + k.shape, dtype=np.int64))
    first = np.minimum(w0, W)
    key += (W * (c[:, None] * first // a * r) + e + first - 1)[:, :, None]
    return key[k <= ((W - w0) // a)[:, :, None]]  # w0 + a*k <= W


def progressions(a: int, c_values: Sequence[int] | np.ndarray, shifts: Sequence[int], W: int, e: np.ndarray, r):
    """One int64 key per solution of c_values[i]*w == shifts[j] (mod a) with 1 <= w <= W and
    c_values[i] a unit mod a: key = W*r[j]*(c_values[i]*w // a) + e[j] + (w - 1) for int64
    arrays e and r, or r = 1.  With e[j] = W*(d[j] - u_lo) the key is the (u, w) packing
    W*(u - u_lo) + (w - 1) of u = r[j]*(c_values[i]*w // a) + d[j]; d[j] = -(shifts[j] // a)
    and r = 1 give a*u + shifts[j] = c_values[i]*w, so divmod(key, W) is (u - u_lo, w - 1).
    Rows come grouped by ascending i: in (w, j) order by the join when
    #units * W + a < #units * #shifts, else in (j, w) order by the start walk.  ResourceLimit
    when a^2 >= 2^63, before any array of length a, or when c_values[i]*w - shifts[j] passes
    int64; a key fits when e and r keep it there.  DomainError unless a >= 1."""
    _check_moduli([a])
    c = _int64(c_values, shifts, W)
    inv, unit = _unit_inverse(c, a)
    c, rho = c[unit], np.array(shifts, dtype=np.int64)
    rho -= rho // a * a  # shifts mod a, reduced as `_powmod` reduces
    if c.size * W + a < c.size * rho.size:
        return _join(a, c, rho, W, e, r)
    return _start(a, c, inv[unit], rho, W, e, r)


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
