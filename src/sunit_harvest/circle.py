"""The additive-character side: Kloosterman sums and fractions, interval weights,
and the exact spectrum decomposition of the congruence count

    #{(a, w <= mu*a, c) : c w == 1 (mod a)}.

For each modulus the frequency h runs over the symmetric window -a/2 < h <= a/2;
the h = 0 term is the main term [mu*a] * #C / a and the rest is an oscillatory
spectrum that recombines exactly (additive orthogonality is an identity, not an
estimate).  Truncation diagnostics use the cutoff lambda*mu*Z with
lambda = 1/log Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, log, pi, sqrt
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .smooth import SmoothSet
from .stepping import _gcd_inverse, _int64, _interval_counts, count_hits

_TWO_PI = 2.0 * np.pi


def _floor_mu_a(mu: float, a: int) -> int:
    # [mu a] with a hair of slack so that e.g. (2/7)*7 floors to 2, not 1
    return int(mu * a + 1e-9)


def kloosterman_sum(m: int, n: int, c: int) -> complex:
    """S(m, n; c) = sum over x coprime to c of e((m x + n x^-1)/c).

    The value is real by conjugate pairing; the imaginary part is kept so
    callers can audit the numerics.
    """
    if c < 1:
        raise DomainError("need c >= 1")
    if c == 1:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for x in range(1, c):
        if gcd(x, c) != 1:
            continue
        xinv = pow(x, -1, c)
        total += np.exp(1j * _TWO_PI * ((m * x + n * xinv) % c) / c)
    return complex(total)


def s_mu_weight(h: int | np.ndarray, mu: float) -> complex | np.ndarray:
    """The archimedean weight (e(-h mu) - 1) / (-2 pi i h) of one frequency, or
    an array of them for an integer array h.

    Satisfies |s_mu(h)| <= min(mu, 1/(pi |h|)).
    """
    h = np.asarray(h)
    if (h == 0).any():
        raise DomainError("h = 0 is the main term, handled separately")
    if not 0.0 < mu <= 1.0:
        raise DomainError("need 0 < mu <= 1")
    w = (np.exp(-1j * _TWO_PI * h * mu) - 1.0) / (-2j * pi * h)
    return complex(w) if w.ndim == 0 else w


@dataclass(frozen=True)
class WeightedFractionSum:
    a: int
    h: int
    value: complex
    used: int  # elements with gcd(c, a) = 1
    skipped: int  # elements dropped by the coprimality audit


def fraction_sum(C: SmoothSet | Sequence[int], h: int, a: int) -> WeightedFractionSum:
    """sum over c in C, gcd(c, a) = 1 of e(h * c^-1 / a)."""
    if a < 2:
        raise DomainError("need a >= 2")
    values = C.values() if isinstance(C, SmoothSet) else tuple(C)
    total = 0.0 + 0.0j
    used = skipped = 0
    for c in values:
        if gcd(c, a) != 1:
            skipped += 1
            continue
        used += 1
        total += np.exp(1j * _TWO_PI * (h * pow(c, -1, a) % a) / a)
    return WeightedFractionSum(a, h, complex(total), used, skipped)


@dataclass
class AdditiveDecomposition:
    """Main term, per-frequency spectrum, exact count, truncation diagnostics."""

    mu: float
    Z: int
    main: float
    exact_count: int
    # aggregated over moduli: spectrum[h] = sum_a (1/a) W_a(h) F_a(h)
    spectrum: dict[int, complex]
    # per-modulus rows (a, h, |s_mu(h)|, |fraction sum|, Re term) for CSV dumps
    rows: list[tuple[int, int, float, float, float]]
    lambda_cut: float
    cutoff: float
    truncated_sum: float  # main + spectrum restricted to |h| <= cutoff
    tail_sum: float
    error_reference: dict = field(default_factory=dict)

    @property
    def recombined(self) -> float:
        return self.main + sum(v.real for v in self.spectrum.values())


def additive_decomposition(
    A: SmoothSet | Sequence[int], C: SmoothSet | Sequence[int], mu: float
) -> AdditiveDecomposition:
    """Exact additive-character decomposition of the residue count.

    exact_count comes from residue stepping; the full spectrum over the
    symmetric window recombines to it within floating tolerance.  The main
    term uses the per-modulus coprime count of C, which equals #C whenever the
    coprimality assumption holds; a c sharing a factor with a has no inverse
    and drops out of that modulus's terms.  The identity is exact for any mu
    and moduli: the [3Z/4, Z] window and mu >= 1/sqrt(Z) only matter for the
    asymptotic error terms.
    """
    a_values = A.values() if isinstance(A, SmoothSet) else tuple(sorted(A))
    c_values = C.values() if isinstance(C, SmoothSet) else tuple(sorted(C))
    if not a_values:
        raise DomainError("empty modulus set")
    if not 0.0 < mu <= 1.0:
        raise DomainError("need 0 < mu <= 1")
    Z = max(a_values)
    # checked first: C past int64 is refused at the largest bound [mu Z] on w;
    # w is bounded per modulus (w <= [mu a]), so step each modulus separately
    c = _int64(c_values, [1], _floor_mu_a(mu, Z))
    exact = sum(count_hits([a], c, _floor_mu_a(mu, a), shift=1) for a in a_values)

    # the frequencies h != 0 of the window -a/2 < h <= a/2 of Z; every modulus's
    # window nests in it, starting (Z - 1) // 2 - (a - 1) // 2 places in
    h = np.arange(Z // 2 - Z + 1, Z // 2 + 1)
    h = h[h != 0]
    smu = np.abs(s_mu_weight(h, mu))
    spectrum_sum = np.zeros(h.size, dtype=complex)
    main = 0.0
    rows: list[tuple[int, int, float, float, float]] = []
    for a in a_values:
        wa = _floor_mu_a(mu, a)
        # c^-1 mod a for each c coprime to a; a c with gcd(c, a) > 1 has none
        g, inv = _gcd_inverse(c, a)
        inv = inv[g == 1]
        main += wa * len(inv) / a
        # F[h] = sum_c e(h c^-1 / a) and Wsum[h] = sum_{w=1..wa} e(-h w / a), all h mod a
        F = np.fft.ifft(np.bincount(inv, minlength=a)) * a
        terms = np.fft.fft(_interval_counts(a, wa)) * F / a
        start = (Z - 1) // 2 - (a - 1) // 2
        window = slice(start, start + a - 1)
        k = h[window] % a
        spectrum_sum[window] += terms[k]
        rows += zip([a] * (a - 1), h[window].tolist(), smu[window].tolist(),
                    np.abs(F[k]).tolist(), terms[k].real.tolist())
    spectrum = dict(zip(h.tolist(), spectrum_sum.tolist()))

    lam = 1.0 / log(Z) if Z > 1 else 1.0
    cutoff = lam * mu * Z
    inside = np.abs(h) <= cutoff
    truncated = main + float(spectrum_sum.real[inside].sum())
    tail = float(spectrum_sum.real[~inside].sum())
    nA = len(a_values)
    nC = len(c_values)
    X = max(c_values) if c_values else 0
    err_ref = {
        "main_term_relative": 1.0 / log(Z) if Z > 1 else float("inf"),
        "tail_bound_shape": nA * sqrt(nC * X * log(Z) / (mu * Z)) if Z > 1 and nC else 0.0,
    }
    return AdditiveDecomposition(
        mu=mu,
        Z=Z,
        main=main,
        exact_count=exact,
        spectrum=spectrum,
        rows=rows,
        lambda_cut=lam,
        cutoff=cutoff,
        truncated_sum=truncated,
        tail_sum=tail,
        error_reference=err_ref,
    )


def trilinear_kloosterman_bound(C: float, D: float, N: float, R: float) -> float:
    """K with K^2 = C(R+N)(C+DR) + C^2 D sqrt((R+N)R) + D^2 N R."""
    if min(C, D, N, R) < 0.5:
        raise DomainError("arguments must be >= 1/2")
    k2 = C * (R + N) * (C + D * R) + C * C * D * sqrt((R + N) * R) + D * D * N * R
    return sqrt(k2)


def trilinear_ratio_probe(
    C: int, D: int, N: int, R: int, b: Callable[[int, int], complex]
) -> dict:
    """Exploratory: the trilinear Kloosterman-fraction sum against K * sqrt(sum |b|^2).

    Evaluates  sum_{R<r<=2R} sum_{0<n<=N} b(n,r) sum_{c,d, (rd,c)=1} e(n (rd)^-1 / c)
    with sharp cutoffs c in (C, 2C], d in (D, 2D].  Implicit constants are
    unknown, so the ratio is reported, never asserted.
    """
    total = 0.0 + 0.0j
    bsq = 0.0
    for r in range(R + 1, 2 * R + 1):
        for n in range(1, N + 1):
            coeff = b(n, r)
            bsq += abs(coeff) ** 2
            if not coeff:
                continue
            inner = 0.0 + 0.0j
            for c in range(C + 1, 2 * C + 1):
                for d in range(D + 1, 2 * D + 1):
                    if gcd(r * d, c) != 1:
                        continue
                    inv = pow(r * d, -1, c) if c > 1 else 0
                    inner += np.exp(1j * _TWO_PI * (n * inv % c) / c)
            total += coeff * inner
    bound = trilinear_kloosterman_bound(C, D, N, R) * sqrt(bsq) if bsq else 0.0
    return {
        "sum_abs": abs(total),
        "bound": bound,
        "ratio": abs(total) / bound if bound else 0.0,
        "C": C,
        "D": D,
        "N": N,
        "R": R,
    }
