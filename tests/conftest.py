import cmath
import sys
from functools import lru_cache
from math import gcd, prod
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sunit_harvest.arith import FactoredInt, PrimeSet, trial_factor
from sunit_harvest.smooth import SmoothSet


def smoothset(values) -> SmoothSet:
    """Wrap explicit integers into a SmoothSet for decomposition entry points."""
    values = sorted(values)
    members = tuple(FactoredInt(v, trial_factor(v)) for v in values)
    primes = sorted({p for m in members for p, _ in m.factors})
    return SmoothSet(PrimeSet(tuple(primes)), values[0], values[-1], members)


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
