"""The additive-character side: the archimedean interval weight and the exact
spectrum decomposition of the congruence count

    #{(a, w <= mu*a, c) : c w == 1 (mod a)}.

For each modulus the frequency h runs over the symmetric window -a/2 < h <= a/2;
the h = 0 term is the main term [mu*a] * #C / a and the rest is an oscillatory
spectrum that recombines exactly (additive orthogonality is an identity, not an
estimate).  Truncation diagnostics use the cutoff lambda*mu*Z with
lambda = 1/log Z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log, pi
from typing import Iterable

import numpy as np

from .errors import DomainError
from .stepping import _check_moduli, _gcd_inverse, _int64, _interval_counts, count_hits

_TWO_PI = 2.0 * np.pi


def _floor_mu_a(mu: float, a: int) -> int:
    # [mu a] with a hair of slack so that e.g. (2/7)*7 floors to 2, not 1
    return int(mu * a + 1e-9)


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


@dataclass
class AdditiveDecomposition:
    """Main term, per-frequency spectrum, exact count, truncation diagnostics."""

    mu: float
    Z: int
    main: float
    exact_count: int
    # aggregated over moduli: spectrum[h] = sum_a (1/a) W_a(h) F_a(h)
    spectrum: dict[int, complex]
    lambda_cut: float
    cutoff: float
    truncated_sum: float  # main + spectrum restricted to |h| <= cutoff
    tail_sum: float
    # the per-modulus CSV columns a, h, |s_mu(h)|, |fraction sum|, Re term, one
    # array each; left out of == (compare rows instead)
    columns: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    @property
    def recombined(self) -> float:
        return self.main + sum(v.real for v in self.spectrum.values())

    @property
    def rows(self) -> list[tuple[int, int, float, float, float]]:
        """The CSV rows (a, h, |s_mu(h)|, |fraction sum|, Re term), built when read."""
        return list(zip(*(col.tolist() for col in self.columns)))


def additive_decomposition(A: Iterable[int], C: Iterable[int], mu: float) -> AdditiveDecomposition:
    """Exact additive-character decomposition of the residue count.

    exact_count comes from residue stepping; the full spectrum over the
    symmetric window recombines to it within floating tolerance.  The main
    term uses the per-modulus coprime count of C, which equals #C whenever the
    coprimality assumption holds; a c sharing a factor with a has no inverse
    and drops out of that modulus's terms.  The identity is exact for any mu
    and moduli: the [3Z/4, Z] window and mu >= 1/sqrt(Z) only matter for the
    asymptotic error terms.
    """
    a_values, c_values = sorted(A), sorted(C)
    if not a_values:
        raise DomainError("empty modulus set")
    _check_moduli(a_values)
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
    parts = []
    for a in a_values:
        wa = _floor_mu_a(mu, a)
        # r^-1 mod a for each distinct residue r of C coprime to a, mult[i] c's at
        # r[i]; a c with gcd(c, a) > 1 has no inverse
        r, mult = np.unique(c % a, return_counts=True)
        g, inv = _gcd_inverse(r, a)
        unit = g == 1
        main += wa * int(mult[unit].sum()) / a
        # F[h] = sum_c e(h c^-1 / a) and Wsum[h] = sum_{w=1..wa} e(-h w / a), all h mod a
        F = np.fft.ifft(np.bincount(inv[unit], weights=mult[unit], minlength=a)) * a
        terms = np.fft.fft(_interval_counts(a, wa)) * F / a
        start = (Z - 1) // 2 - (a - 1) // 2
        window = slice(start, start + a - 1)
        k = h[window] % a
        spectrum_sum[window] += terms[k]
        parts.append((np.full(a - 1, a), h[window], smu[window], np.abs(F[k]), terms[k].real))
    spectrum = dict(zip(h.tolist(), spectrum_sum.tolist()))

    lam = 1.0 / log(Z) if Z > 1 else 1.0
    cutoff = lam * mu * Z
    inside = np.abs(h) <= cutoff
    truncated = main + float(spectrum_sum.real[inside].sum())
    tail = float(spectrum_sum.real[~inside].sum())
    return AdditiveDecomposition(
        mu=mu,
        Z=Z,
        main=main,
        exact_count=exact,
        spectrum=spectrum,
        lambda_cut=lam,
        cutoff=cutoff,
        truncated_sum=truncated,
        tail_sum=tail,
        columns=tuple(np.concatenate(col) for col in zip(*parts)),
    )
