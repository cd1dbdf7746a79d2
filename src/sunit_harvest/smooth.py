"""Squarefree smooth-number enumeration over explicit prime sets, and the
counting floor that justifies how large those sets get.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, floor, log, sqrt
from typing import Iterator

from .arith import FactoredInt, PrimeSet, primes_in_range
from .errors import DomainError, EnumerationCap, InsufficientPrimes

_E_TO_E = exp(1.0) ** exp(1.0)  # domain edge for log log x > 1
DEFAULT_CAP = 2_000_000  # most members enumerate_squarefree_smooth lists


@dataclass(frozen=True)
class SmoothSet:
    """Squarefree integers in [lo, hi] over source, iterated as plain ints; only
    perfbench's `_smoothset` builds one, the decompositions take any ints."""

    source: PrimeSet
    lo: int
    hi: int
    members: tuple[FactoredInt, ...]

    def __iter__(self) -> Iterator[int]:
        return (m.value for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


def enumerate_squarefree_smooth(T: PrimeSet, lo: int, hi: int, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """The sorted squarefree products of primes of T in [lo, hi], by exhaustive
    depth-first enumeration of subset products.

    The integer 1 (empty product) is included only when lo <= 1.  Memory is
    proportional to the output, never to the range, so hi may be large as long
    as the member count stays below `cap`.
    """
    if lo > hi:
        raise DomainError(f"empty range [{lo}, {hi}]")
    primes = T.primes
    out: list[int] = []

    def grow(value: int, start: int):
        if len(out) > cap:
            raise EnumerationCap(f"more than {cap} squarefree smooth numbers in range")
        if value >= lo:
            out.append(value)
        for i in range(start, len(primes)):
            nxt = value * primes[i]
            if nxt > hi:
                break  # primes sorted, so all later branches overflow too
            grow(nxt, i + 1)

    grow(1, 0)  # 1 is listed only when lo <= 1
    out.sort()
    return tuple(out)


def smooth_count_lower_bound(
    x: float, a: float, b: float | None = None, T_count: int | None = None
) -> tuple[float, int, float]:
    """Counting floor for squarefree T-smooth numbers up to x.

    Returns (floor value, k, b) where k = [log x / (a log log x)].  Either pass
    b directly or pass T_count and have b derived from
    #T = (log x)^(b+1) / (a log log x).
    """
    if x <= _E_TO_E:
        raise DomainError("x must exceed e^e so that log log x > 1")
    if not 1 <= a <= 100:
        raise DomainError("a must lie in [1, 100]")
    L, LL = log(x), log(log(x))
    if b is None:
        if T_count is None:
            raise DomainError("pass either b or T_count")
        if T_count < 1:
            raise DomainError("T_count must be >= 1")
        b = log(T_count * a * LL) / LL - 1.0
    k = floor(L / (a * LL))
    value = x ** (b / a + 1.0 / (2.0 * a * LL)) / (6.0 * L ** (b + 1.0))
    return value, k, b


def binomial_lower_bound_check(T_count: int, k: int) -> tuple[int, float, bool]:
    """Exact C(T_count, k) against the floor (T_count/k)^k * e^(k/2) / (3 sqrt k)."""
    if not 1 <= k <= T_count:
        raise DomainError("need 1 <= k <= T_count")
    lhs = comb(T_count, k)
    rhs = (T_count / k) ** k * exp(k / 2.0) / (3.0 * sqrt(k))
    return lhs, rhs, lhs >= rhs


def split_disjoint_prime_sets(
    interval_lo: int, interval_hi: int, m: int
) -> list[PrimeSet]:
    """Partition the primes of [interval_lo, interval_hi] into m sets, round-robin.

    Deterministic: set j receives the primes with index == j (mod m) in the
    sorted interval listing.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    primes = primes_in_range(interval_lo, interval_hi).primes
    if len(primes) < m:
        raise InsufficientPrimes(
            f"[{interval_lo}, {interval_hi}] holds {len(primes)} primes, need {m}"
        )
    return [PrimeSet._proven(primes[j::m]) for j in range(m)]
