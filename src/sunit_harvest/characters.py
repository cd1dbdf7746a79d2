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

from dataclasses import dataclass
from itertools import combinations
from math import isqrt, prod
from typing import Iterable, Sequence

import numpy as np

from .arith import trial_factor, multiplicative_functions
from .errors import DomainError, ResourceLimit
from .stepping import _int64, _interval_counts, count_hits

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
        logs = []
        for p in self.primes:
            g, t, acc = _primitive_root(p), [0] * p, 1
            for e in range(p - 1):
                t[acc] = e
                acc = acc * g % p
            logs.append(np.asarray(t)[x % p])
        self._slot = np.ravel_multi_index(logs, self.orders)
        self._coprime = np.gcd(x, a) == 1
        self._value_matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return self.phi

    def exponents(self) -> np.ndarray:
        """Int [phi, k] array E: row i is the exponent tuple of chi_i."""
        return np.stack(np.unravel_index(np.arange(self.phi), self.orders), axis=1)

    def conductors(self) -> np.ndarray:
        """cond(chi_i) for every i: the product of the primes where chi_i is twisted."""
        return np.prod(np.where(self.exponents() != 0, self.primes, 1), axis=1)

    def gauss_sums(self) -> np.ndarray:
        """tau(chi_i) = sum_x chi_i(x) e(x / a) for every i; |tau|^2 == cond."""
        return self.sums_over_counts(np.exp(1j * _TWO_PI * np.arange(self.modulus) / self.modulus))

    def value_matrix(self) -> np.ndarray:
        """Complex [phi, a] array V with V[i, x] = chi_i(x); rows in index order."""
        if self._value_matrix is None:
            E = self.exponents()
            logs = np.stack(np.unravel_index(self._slot, self.orders))
            V = np.exp(1j * _TWO_PI * (E.astype(float) @ (logs / np.array(self.orders)[:, None])))
            V[:, ~self._coprime] = 0.0
            self._value_matrix = V
        return self._value_matrix

    def sums_over_counts(self, counts_by_residue: np.ndarray) -> np.ndarray:
        """F[i] = sum_x counts[x] * chi_i(x) for every character at once; the
        counts are any real or complex vector indexed by the residues 0 <= x < a.

        Scatters the coprime residues onto the unit-group grid and takes a
        multidimensional inverse DFT, which matches the chi orientation above.
        Residues with gcd > 1 are ignored (chi is zero there).
        """
        grid = np.zeros(self.phi, dtype=complex)
        grid[self._slot[self._coprime]] = np.asarray(counts_by_residue)[self._coprime]
        return np.fft.ifftn(grid.reshape(self.orders)).reshape(-1) * self.phi


def all_characters(a: int) -> CharacterTable:
    """The full dual group mod squarefree a; DomainError otherwise."""
    return CharacterTable(a)


@dataclass(frozen=True)
class PolyaVinogradovReport:
    q: int
    scan_M: int
    scan_N: int
    max_ratio: float
    argmax_character: int
    argmax_M: int
    argmax_N: int
    argmax_abs_sum: float
    argmax_bound: float
    rows: tuple[tuple[int, float, float, float], ...]  # (char index, max |sum|, bound, ratio)

    @property
    def passes(self) -> bool:
        return self.max_ratio <= 1.0


def polya_vinogradov_check(q: int, scan_M: int, scan_N: int) -> PolyaVinogradovReport:
    """Scan every non-principal chi mod q and every window 0 <= M < scan_M, 1 <= N <= scan_N.

    Ratio recorded is  |sum_{n=M+1}^{M+N} chi(n)|  /  (d(q/r) sqrt(r) log r)
    with r the conductor of chi; the check passes iff the max ratio is <= 1.

    A non-principal chi sums to 0 over a period, so its prefix sums S(n) have
    period q and a window sum is S((M + N) mod q) - S(M).  Only M < min(scan_M, q)
    and N <= min(scan_N, q) are swept, as a running max per offset N over all
    characters at once, and only N <= q // 2 when both scans cover a period (N
    and q - N give the same pairs).  conj(chi) has the same window sums, so one
    character of each conjugate pair is swept.
    Ties: ratios within 1e-9 relative go to the smallest character index, then
    windows within 1e-9 of that character's max |sum| to the smallest M, then N.
    """
    if q < 3:
        raise DomainError("need q >= 3")
    if scan_M < 1 or scan_N < 1:
        raise DomainError("need scan_M >= 1 and scan_N >= 1")
    table = all_characters(q)
    E = table.exponents()[1:]
    conj = np.ravel_multi_index((-E % table.orders).T, table.orders)
    swept, pair = np.unique(np.minimum(np.arange(1, table.phi), conj), return_inverse=True)
    V = table.value_matrix()[swept]
    # S over two periods (column M + N wraps), real and imaginary parts apart
    re, im = (np.tile(np.cumsum(part, axis=1), 2) for part in (V.real, V.imag))
    Mm, Nn = min(scan_M, q), min(scan_N, q)
    best = np.zeros(len(V))
    d2, e2 = np.empty((len(V), Mm)), np.empty((len(V), Mm))  # reused, so each pass stays in cache
    for k in range(1, (q // 2 if Mm == Nn == q else Nn) + 1):
        np.square(np.subtract(re[:, k : k + Mm], re[:, :Mm], out=d2), out=d2)
        d2 += np.square(np.subtract(im[:, k : k + Mm], im[:, :Mm], out=e2), out=e2)
        np.maximum(best, d2.max(axis=1), out=best)
    # q squarefree: d(q/r) = 2^(untwisted primes)
    r = table.conductors()[1:]
    bound = 2.0 ** (len(table.primes) - (E != 0).sum(axis=1)) * np.sqrt(r) * np.log(r)
    max_abs = np.sqrt(best[pair])
    ratio = max_abs / bound
    i = int(np.argmax(ratio >= ratio.max() * (1 - 1e-9)))
    M, N, j = np.arange(Mm)[:, None], np.arange(1, Nn + 1), pair[i]
    d = np.sqrt((re[j, M + N] - re[j, M]) ** 2 + (im[j, M + N] - im[j, M]) ** 2)
    m, n = divmod(int(np.argmax(d >= max_abs[i] - 1e-9)), Nn)
    rows = tuple(zip(range(1, table.phi), max_abs.tolist(), bound.tolist(), ratio.tolist()))
    return PolyaVinogradovReport(q, scan_M, scan_N, rows[i][3], i + 1, m, n + 1, *rows[i][1:3], rows)


def large_sieve_check(
    Q_set: Sequence[int], Y: int, Z: int, a_n: Sequence[complex]
) -> tuple[float, float, bool]:
    """Gauss-sum-weighted character-average bound with the explicit constant 7.

    lhs = sum_q (1/phi(q)) sum_chi |tau(chi)|^2 |sum_{Y<n<=Z} a_n chi(n)|^2
    rhs = 7 * max d(q) * max{Z - Y, (max q)^2} * sum d(n) |a_n|^2
    """
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
        folded = np.zeros(q, dtype=complex)
        np.add.at(folded, n % q, coeffs)
        sums = table.sums_over_counts(folded)
        lhs += float(np.sum(np.abs(table.gauss_sums()) ** 2 * np.abs(sums) ** 2)) / table.phi
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
    chi = table.value_matrix()[index]
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
        table = all_characters(a)
        Fc = table.sums_over_counts(np.bincount(c % a, minlength=a))
        Fw = table.sums_over_counts(_interval_counts(a, W))
        prod = Fc * Fw / table.phi
        main += prod[0].real
        remainder += np.sum(prod[1:])
    return main, float(remainder.real), count_hits(a_values, c, W, shift=1)
