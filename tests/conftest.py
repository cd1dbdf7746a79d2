import cmath
import sys
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sunit_harvest import stepping  # noqa: E402


@pytest.fixture
def empty_tables(monkeypatch):
    """An empty table store, for inverse and character tables alike; the module's own
    is back after the test."""
    monkeypatch.setattr(stepping, "_TABLES", OrderedDict())
    monkeypatch.setattr(stepping, "_held", 0)


def brute_trial_division(n: int) -> list[tuple[int, int]]:
    """Independent naive factorization used as an oracle."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def _discrete_logs(p: int) -> dict[int, int]:
    """x -> log_g(x) mod p for g the smallest primitive root, by a pow loop."""
    for g in range(1, p):
        logs = {pow(g, k, p): k for k in range(p - 1)}
        if len(logs) == p - 1:
            return logs


def oracle_character(a: int, index: int):
    """(chi, conductor) of character `index` mod squarefree a, chi evaluated term by
    term; indices list exponent tuples with e_1 (smallest prime) most significant."""
    primes, exps = [p for p, _ in brute_trial_division(a)], []
    for p in reversed(primes):
        index, e = divmod(index, p - 1)
        exps.insert(0, e)

    def chi(n: int) -> complex:
        if gcd(n, a) > 1:
            return 0j
        phase = sum(e * _discrete_logs(p)[n % p] / (p - 1) for p, e in zip(primes, exps))
        return cmath.exp(2j * cmath.pi * phase)

    return chi, prod(p for p, e in zip(primes, exps) if e)


def oracle_gauss_sum(a: int, index: int) -> tuple[complex, int]:
    """(tau, conductor) of character `index` mod a, tau = sum_x chi(x) e(x / a) term by term."""
    chi, cond = oracle_character(a, index)
    return sum(chi(x) * cmath.exp(2j * cmath.pi * x / a) for x in range(a)), cond


def max_window_sq_oracle(re, im):
    """Per row, the max of |S(m + k) - S(m)|^2 over every pair of columns m < m + k:
    one pass per offset k over all rows at once, comparing every pair."""
    h = re.shape[1]
    best = np.zeros(len(re))
    for k in range(1, h):
        d2 = np.square(re[:, k:] - re[:, : h - k])
        d2 += np.square(im[:, k:] - im[:, : h - k])
        np.maximum(best, d2.max(axis=1), out=best)
    return best


@dataclass(frozen=True)
class WeightedFractionSum:
    a: int
    h: int
    value: complex
    used: int  # elements with gcd(c, a) = 1
    skipped: int  # elements dropped by the coprimality audit


def fraction_sum(C, h: int, a: int) -> WeightedFractionSum:
    """sum over c in C, gcd(c, a) = 1 of e(h * c^-1 / a), term by term: the scalar
    oracle of the additive spectrum."""
    total = 0j
    used = skipped = 0
    for c in C:
        if gcd(c, a) != 1:
            skipped += 1
            continue
        used += 1
        total += cmath.exp(2j * cmath.pi * (h * pow(c, -1, a) % a) / a)
    return WeightedFractionSum(a, h, total, used, skipped)
