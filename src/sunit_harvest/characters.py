"""Dirichlet characters to squarefree moduli, and the inequality checks built on them.

Representation: a squarefree modulus a = p_1 * ... * p_k has cyclic unit groups
mod each p_j, so a character is a tuple of exponents e_j in [0, p_j - 2] against
fixed primitive roots g_j (smallest per prime).  Values are complex floats:

    chi(x) = exp(2 pi i * sum_j e_j * log_j(x mod p_j) / (p_j - 1)),

zero when gcd(x, a) > 1.  Characters are indexed by their exponent tuple in
lexicographic order (e_1 most significant), so index 0 is principal, and a
character is its row index in the arrays of its CharacterTable: values,
exponents, conductors and Gauss sums.

Only squarefree moduli are supported: that is what makes cond(chi) equal to
the product of the primes where chi is twisted, and |tau(chi)|^2 = cond(chi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import isqrt, lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .arith import trial_factor, multiplicative_functions
from .errors import DomainError, ResourceLimit
from .stepping import _int64, _interval_counts, _kept, count_hits

_TWO_PI = 2.0 * np.pi
TABLE_CAP = 2_000_000  # largest modulus multiplicative_decomposition builds a table for


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    fac = [q for q, _ in trial_factor(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise DomainError(f"no primitive root mod {p}")  # unreachable for prime p


def _squarefree_primes(a: int) -> tuple[int, ...]:
    if a < 2:
        raise DomainError("modulus must be >= 2")
    fac = trial_factor(a)
    if any(e > 1 for _, e in fac):
        raise DomainError(f"modulus {a} is not squarefree")
    return tuple(p for p, _ in fac)


class CharacterTable:
    """All phi(a) characters mod a squarefree a, as arrays with one row per character."""

    def __init__(self, a: int):
        self.modulus = a
        self.primes = _squarefree_primes(a)
        self.orders = tuple(p - 1 for p in self.primes)
        self.phi = prod(self.orders)
        # residue x -> its unit-grid slot (the raveled tuple of logs of x mod each p)
        x = np.arange(a)
        logs, self._coprime = [], np.ones(a, dtype=bool)
        for p in self.primes:
            g, powers = _primitive_root(p), np.ones(1, dtype=np.int64)
            while powers.size < p - 1:  # g^0..g^(2s-1) from g^0..g^(s-1), s = powers.size
                powers = np.concatenate([powers, powers * pow(g, powers.size, p) % p])
            t = np.zeros(p, dtype=np.int64)
            t[powers[: p - 1]] = np.arange(p - 1)
            r = x % p
            self._coprime &= r != 0  # gcd(x, a) == 1 for squarefree a: no p divides x
            logs.append(t[r])
        self._slot = np.ravel_multi_index(logs, self.orders)
        self._exponents = self._conductors = None  # each computed when first read

    def __len__(self) -> int:
        return self.phi

    def exponents(self) -> np.ndarray:
        """Int [phi, k] array E: row i is the exponent tuple of chi_i."""
        if self._exponents is None:
            self._exponents = np.stack(np.unravel_index(np.arange(self.phi), self.orders), axis=1)
        return self._exponents

    def conductors(self) -> np.ndarray:
        """cond(chi_i) for every i: the product of the primes where chi_i is twisted."""
        if self._conductors is None:
            self._conductors = np.prod(np.where(self.exponents() != 0, self.primes, 1), axis=1)
        return self._conductors

    def gauss_sums(self) -> np.ndarray:
        """tau(chi_i) = sum_x chi_i(x) e(x / a) for every i; |tau|^2 == cond."""
        return self.sums_over_counts(np.exp(1j * _TWO_PI * np.arange(self.modulus) / self.modulus))

    def value_matrix(self, rows: slice | Sequence[int] = slice(None)) -> np.ndarray:
        """Complex array V with V[k, x] = chi_i(x) for the k-th index i in rows;
        by default every row, in index order, so V is [phi, a]."""
        # chi_i(x) = w^(phase mod L) with w = e(1 / L), L = lcm(orders), in exact integers
        L = lcm(*self.orders)
        logs = np.stack(np.unravel_index(self._slot, self.orders))
        phase = (self.exponents()[rows] * (L // np.array(self.orders))) @ logs % L
        V = np.exp(1j * _TWO_PI * np.arange(L) / L)[phase]
        V[:, ~self._coprime] = 0.0
        return V

    def sums_over_counts(self, counts_by_residue: np.ndarray) -> np.ndarray:
        """F[..., i] = sum_x counts[..., x] * chi_i(x) for every character at once; the
        counts are any real or complex array whose last axis is indexed by the
        residues 0 <= x < a, so a (..., a) stack is transformed in one call.

        Scatters the coprime residues onto the unit-group grid and takes a
        multidimensional inverse DFT over its last k axes, which matches the chi
        orientation above.  Residues with gcd > 1 are ignored (chi is zero there).
        The axes go last first, as `np.fft.ifftn` takes them, bit for bit; the
        axis of p = 2 has length 1, where the inverse DFT is the identity.
        """
        counts = np.asarray(counts_by_residue)
        lead = counts.shape[:-1]
        grid = np.zeros(lead + (self.phi,), dtype=complex)
        grid[..., self._slot[self._coprime]] = counts[..., self._coprime]
        grid = grid.reshape(lead + self.orders)
        for axis in range(grid.ndim - 1, len(lead) - 1, -1):
            if grid.shape[axis] > 1:
                grid = np.fft.ifft(grid, axis=axis)
        return grid.reshape(lead + (self.phi,)) * self.phi


def all_characters(a: int) -> CharacterTable:
    """The full dual group mod squarefree a, DomainError otherwise: built once with its
    exponents and conductors, then read-only and kept with the inverse tables
    (`stepping._kept`) while they fit the budget."""
    def build() -> CharacterTable:
        table = CharacterTable(a)
        table.conductors()  # and the exponents, so both are kept with the table
        return table

    return _kept(("characters", int(a)), build)


@dataclass(frozen=True)
class PolyaVinogradovReport:
    q: int
    scan_M: int  # the windows swept are 0 <= M < scan_M, 1 <= N <= scan_N; both are q
    scan_N: int
    max_ratio: float
    argmax_character: int
    argmax_abs_sum: float
    argmax_bound: float
    rows: tuple[tuple[int, float, float, float], ...]  # (char index, max |sum|, bound, ratio)
    _prefix: np.ndarray = field(compare=False, repr=False)  # the argmax character's S(0..q-1)

    @property
    def passes(self) -> bool:
        return self.max_ratio <= 1.0

    argmax_M = property(lambda self: self._window[0])
    argmax_N = property(lambda self: self._window[1])

    @cached_property
    def _window(self) -> tuple[int, int]:
        """(M, N) of the argmax character's first window in (M, N) order within 1e-9 of
        its max |sum|, located when first read.  A window from M reaches top only if
        |S(M) - c| + max_x |S(x) - c| >= top, c the centroid of the prefix points."""
        q, top = self.q, self.argmax_abs_sum - 1e-9
        P = np.tile(self._prefix, 2)  # S over two periods: M + N wraps
        rho = np.abs(P[:q] - P[:q].mean())
        starts = np.flatnonzero(rho + rho.max() >= top * (1 - 1e-9))
        ends = np.lib.stride_tricks.sliding_window_view(P[1:], q)[starts]  # P[M + N], N = 1..q
        d = np.sqrt((ends.real - P.real[starts, None]) ** 2 + (ends.imag - P.imag[starts, None]) ** 2)
        k, n = divmod(int(np.argmax(d >= top)), q)
        return int(starts[k]), n + 1


def polya_vinogradov_check(q: int) -> PolyaVinogradovReport:
    """Scan every non-principal chi mod q and every window 0 <= M < q, 1 <= N <= q.

    Ratio recorded is  |sum_{n=M+1}^{M+N} chi(n)|  /  (d(q/r) sqrt(r) log r)
    with r the conductor of chi; the check passes iff the max ratio is <= 1.

    A non-principal chi sums to 0 over a period, so its prefix sums S(n) have
    period q and a window sum is S((M + N) mod q) - S(M): these windows give
    every window sum, one for each pair of the q prefix points.
    S(q - 1 - n) = -chi(-1) S(n) folds those points onto S(0..h-1),
    h = (q + 1) // 2: an even chi's points are symmetric about 0, so its
    largest window is 2 max |S(n)|, and an odd chi's points are S(0..h-1)
    itself, so its largest window is their diameter (_max_window_sq).
    conj(chi) has the same window sums, so one character of each conjugate
    pair is swept.
    Ties: ratios within 1e-9 relative go to the smallest character index, then
    windows within 1e-9 of that character's max |sum| to the smallest M, then N;
    the report locates that window only when argmax_M or argmax_N is read.
    """
    if q < 3:
        raise DomainError("need q >= 3")
    table = all_characters(q)
    E = table.exponents()[1:]
    conj = np.ravel_multi_index((-E % table.orders).T, table.orders)
    swept, pair = np.unique(np.minimum(np.arange(1, table.phi), conj), return_inverse=True)
    S = table.value_matrix(swept)
    odd = S[:, q - 1].real < 0  # chi(-1) = -1
    np.cumsum(S, axis=1, out=S)  # the prefix sums S(0..q-1)
    re, im, h = S.real, S.imag, (q + 1) // 2
    best = np.empty(len(S))
    best[~odd] = 4.0 * (re[~odd, :h] ** 2 + im[~odd, :h] ** 2).max(axis=1)
    best[odd] = _max_window_sq(re[odd, :h], im[odd, :h])
    # q squarefree: d(q/r) = 2^(untwisted primes)
    r = table.conductors()[1:]
    bound = 2.0 ** (len(table.primes) - (E != 0).sum(axis=1)) * np.sqrt(r) * np.log(r)
    max_abs = np.sqrt(best[pair])
    ratio = max_abs / bound
    i = int(np.argmax(ratio >= ratio.max() * (1 - 1e-9)))
    rows = tuple(zip(range(1, table.phi), max_abs.tolist(), bound.tolist(), ratio.tolist()))
    return PolyaVinogradovReport(q, q, q, rows[i][3], i + 1, *rows[i][1:3], rows, S[pair[i]].copy())


_BLOCK = 65_536  # pair cells compared at once by _max_window_sq
_PAD = 4_096  # pad cells a block may add before a new block costs less


def _max_window_sq(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Per row, the max of (re[x] - re[y])^2 + (im[x] - im[y])^2 over every pair of
    columns: the squared diameter of the row's points S, bit for bit as a sweep
    over every pair gives it, comparing only the points that can end a diameter.

    With a the point farthest from column 0 and b the one farthest from a,
    low = |S(a) - S(b)|^2 is a pair value.  Take c = (S(a) + S(b)) / 2,
    rho_x = |S(x) - c| and R = max rho: a pair (x, y) at least as far apart
    as low has sqrt(low) <= |S(x) - S(y)| <= rho_x + rho_y <= rho_x + R, so
    both ends keep rho_x + R >= sqrt(low).  rho comes from the differences
    S(x) - S(a), so its rounding is relative to the diameter (at most
    2 sqrt(low)), far inside the 1e-9 slack.  The survivors are compared in
    blocks of at most _BLOCK pair cells, rows padded with their own a (a pad
    adds only real pair values); a block takes rows in ascending survivor
    count while widening it adds at most _PAD cells.
    """
    n, h = re.shape
    rows = np.arange(n)[:, None]
    a = (np.square(re - re[:, :1]) + np.square(im - im[:, :1])).argmax(axis=1)[:, None]
    du, dv = re - re[rows, a], im - im[rows, a]
    d2 = np.square(du) + np.square(dv)
    b = d2.argmax(axis=1)[:, None]
    rho = np.sqrt(np.square(du - du[rows, b] / 2) + np.square(dv - dv[rows, b] / 2))
    r, c = np.nonzero(rho + rho.max(axis=1, keepdims=True) >= np.sqrt(d2[rows, b]) * (1 - 1e-9))
    count = np.bincount(r, minlength=n)
    cols = np.repeat(a, count.max(initial=0), axis=1)  # each row's survivors, then pads
    cols[r, np.arange(len(r)) - (np.cumsum(count) - count)[r]] = c
    best = np.zeros(n)
    order = np.argsort(count, kind="stable")
    width = count[order].tolist()
    start = 0
    while start < n:
        stop = start + 1
        while (
            stop < n
            and (stop + 1 - start) * width[stop] ** 2 <= _BLOCK
            and (stop - start) * (width[stop] ** 2 - width[stop - 1] ** 2) <= _PAD
        ):
            stop += 1
        block, k = order[start:stop], width[stop - 1]
        x, y = re[block[:, None], cols[block, :k]], im[block[:, None], cols[block, :k]]
        step = max(1, _BLOCK // (len(block) * k))  # below k only for a lone row of k^2 > _BLOCK cells
        for i in range(0, k, step):
            d2 = np.square(x[:, i : i + step, None] - x[:, None])
            d2 += np.square(y[:, i : i + step, None] - y[:, None])
            best[block] = np.maximum(best[block], d2.max(axis=(1, 2)))
        start = stop
    return best


def large_sieve_check(
    Q_set: Sequence[int], Y: int, Z: int, a_n: Sequence[complex]
) -> tuple[float, float, bool]:
    """Gauss-sum-weighted character-average bound with the explicit constant 7.

    lhs = sum_q (1/phi(q)) sum_chi |tau(chi)|^2 |sum_{Y<n<=Z} a_n chi(n)|^2
    rhs = 7 * max d(q) * max{Z - Y, (max q)^2} * sum d(n) |a_n|^2

    |tau(chi)|^2 is read as cond(chi), exact for the squarefree q taken.
    """
    if len(Q_set) == 0:
        raise DomainError("need a nonempty Q_set")
    if Y >= Z:
        raise DomainError("need Y < Z")
    if Y < 0:
        raise DomainError("need Y >= 0")
    if len(a_n) != Z - Y:
        raise DomainError("a_n must be indexed by n in (Y, Z]")
    n = np.arange(Y + 1, Z + 1)
    coeffs = np.asarray(a_n, dtype=complex)
    lhs = 0.0
    for q in Q_set:
        table = all_characters(q)  # DomainError on non-squarefree q
        folded = np.empty(q, dtype=complex)
        folded.real, folded.imag = np.bincount(n % q, coeffs.real, q), np.bincount(n % q, coeffs.imag, q)
        sums = table.sums_over_counts(folded)
        lhs += float(np.sum(table.conductors() * np.abs(sums) ** 2)) / table.phi
    max_d = max(multiplicative_functions(q)[2] for q in Q_set)
    max_q = max(Q_set)
    weight = float(_divisor_counts(Y, Z) @ np.abs(coeffs) ** 2)
    rhs = 7.0 * max_d * max(Z - Y, max_q**2) * weight
    return lhs, rhs, lhs <= rhs + 1e-9


def _divisor_counts(Y: int, Z: int) -> np.ndarray:
    """d(n) for Y < n <= Z, from the factor pairs n = k*m with k <= m (so k <= sqrt Z)."""
    k = np.arange(1, isqrt(Z) + 1)
    first = np.maximum(Y // k + 1, k)  # the least m with k*m > Y and m >= k
    reps = np.maximum(Z // k - first + 1, 0)
    kk = np.repeat(k, reps)
    m = np.repeat(first - np.cumsum(reps) + reps, reps) + np.arange(kk.size)
    return np.bincount(kk * m - Y - 1, weights=np.where(m > kk, 2.0, 1.0), minlength=Z - Y)


def fourth_moment_ratio(q: int, N: int) -> float:
    """[(1/phi(q)) sum_{chi != chi0} |sum_{n<=N} chi(n)|^4] / N^2; report-only."""
    if q < 3:
        raise DomainError("need q >= 3")
    if N < 1:
        raise DomainError("need N >= 1")
    table = all_characters(q)
    sums = table.sums_over_counts(_interval_counts(q, N))
    fourth = float(np.sum(np.abs(sums[1:]) ** 4))
    return fourth / table.phi / N**2


def primitive_decomposition_check(a: int, y: int, index: int, W: int) -> tuple[complex, complex, bool]:
    """Sieve the coprimality condition out of an incomplete character sum.

    With chi mod a induced by the primitive chi* = chi_index mod y (y | a):
        sum_{w<=W} chi(w)  ==  sum_{d|a} mu(d) sum_{v<=W/d} chi*(v d)
    Both sides are summed from row index of the value matrix mod y; equal
    within 1e-9 absolute.
    """
    if a % y:
        raise DomainError(f"conductor modulus {y} does not divide {a}")
    table = all_characters(y)
    if not 0 <= index < table.phi:
        raise DomainError(f"character index {index} out of range")
    if table.conductors()[index] != y:
        raise DomainError(f"character {index} mod {y} is not primitive (twisted at every prime)")
    primes_a = _squarefree_primes(a)
    chi = table.value_matrix([index])[0]
    w = np.arange(1, W + 1)
    lhs = complex(chi[w[np.gcd(w, a) == 1] % y].sum())
    rhs = 0.0 + 0.0j
    for k in range(len(primes_a) + 1):
        for ps in combinations(primes_a, k):
            d = prod(ps)
            rhs += (-1) ** k * complex(chi[np.arange(d, W + 1, d) % y].sum())
    return lhs, rhs, abs(lhs - rhs) <= 1e-9


def multiplicative_decomposition(A: Iterable[int], C: Iterable[int], W: int) -> tuple[float, float, int]:
    """Split the count of {(a, c, w <= W) : c w == 1 (mod a)} into main + remainder.

    main is the principal-character term sum_a #{c coprime} #{w coprime} / phi(a);
    remainder collects every non-principal character product.  The exact count
    comes independently from the residue-stepping enumerator, and
    main + remainder == exact_count up to floating error.  Every modulus must
    be squarefree and >= 2: its character table refuses it before any counting.
    """
    a_values = sorted(A)
    # checked first: for a nonempty A, C past int64 is refused
    c = _int64(list(C) if a_values else (), [1], W)
    if a_values and a_values[-1] > TABLE_CAP:  # before any table is built
        raise ResourceLimit(f"modulus {a_values[-1]} beyond table cap {TABLE_CAP}")
    main = 0.0
    remainder = 0.0 + 0.0j
    for a in a_values:
        table = CharacterTable(a)  # not kept: these moduli rarely repeat
        Fc, Fw = table.sums_over_counts(np.stack([np.bincount(c % a, minlength=a), _interval_counts(a, W)]))
        prod = Fc * Fw / table.phi
        main += prod[0].real
        remainder += np.sum(prod[1:])
    return main, float(remainder.real), count_hits(a_values, c, W)
