"""Exact integer arithmetic: primes, restricted factorization, multiplicative functions.

Everything here is pure and exact (Python integers), so products like c*w or
a*u that exceed 64 bits are handled without any special casing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import DomainError, FactorizationLimit, ResourceLimit

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24; the bases
# 2, 7 and 61 suffice below 4,759,123,141, their least common strong pseudoprime.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

TRIAL_EFFORT = 10**6  # largest divisor trial_factor tries before the primality check
SIEVE_CAP = 10**6  # largest hi primes_in_range sieves to: 78,498 primes in about 0.07 s, none proven again


def is_prime(n: int) -> bool:
    """Deterministic primality test for the supported integer width."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61) if n < 4_759_123_141 else _MR_WITNESSES:
        if a % n == 0:  # n = 61 passes the trial loop, and a base n divides proves nothing
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeSet:
    """A finite, strictly increasing tuple of primes; the constructor proves each one."""

    primes: tuple[int, ...]

    def __post_init__(self):
        prev = 1
        for p in self.primes:
            if p <= prev:
                raise DomainError(f"primes not strictly increasing at {p}")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            prev = p

    @classmethod
    def _proven(cls, primes: tuple[int, ...]) -> "PrimeSet":
        """A set of primes already known increasing and prime, built without the proof."""
        self = object.__new__(cls)
        object.__setattr__(self, "primes", primes)
        return self

    def __iter__(self):
        return iter(self.primes)

    def union(self, *others: "PrimeSet") -> "PrimeSet":
        return PrimeSet._proven(tuple(sorted(set(self.primes).union(*(o.primes for o in others)))))


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer together with its full prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent >= 1), primes increasing

    def __post_init__(self):
        if self.value < 1:
            raise DomainError("FactoredInt value must be positive")
        prod, prev = 1, 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise DomainError("factors must have increasing primes, exponents >= 1")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise DomainError(f"factorization product {prod} != value {self.value}")


def primes_in_range(lo: int, hi: int) -> PrimeSet:
    """All primes p with lo <= p <= hi (one sieve of [0, hi]).  ResourceLimit
    past hi = SIEVE_CAP, before any sieve is built."""
    if hi > SIEVE_CAP:
        raise ResourceLimit(f"sieving primes up to {hi} beyond {SIEVE_CAP}")
    lo = max(lo, 2)
    if hi < lo:
        return PrimeSet._proven(())
    flags = bytearray([1]) * (hi + 1)
    for p in range(2, isqrt(hi) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((hi - p * p) // p + 1)
    return PrimeSet._proven(tuple(p for p in range(lo, hi + 1) if flags[p]))  # the sieve is exact


def factor_over(n: int, T: PrimeSet) -> FactoredInt | None:
    """Factor n over the prime set T, or None if some prime factor lies outside.

    n = 1 yields the empty factorization: 1 is a smooth unit for every T.
    """
    if n < 1:
        raise DomainError("factor_over requires n >= 1")
    rem = n
    factors = []
    for p in T.primes:
        if rem == 1:
            break
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e:
            factors.append((p, e))
    if rem != 1:
        return None
    return FactoredInt(n, tuple(factors))


def trial_factor(n: int) -> tuple[tuple[int, int], ...]:
    """Full factorization by trial division up to TRIAL_EFFORT, then a primality check.

    Raises FactorizationLimit when the unfactored remainder is composite with
    no factor below the effort bound.
    """
    if n < 1:
        raise DomainError("trial_factor requires n >= 1")
    factors = []
    rem = n
    d = 2
    effort = TRIAL_EFFORT  # a local: the loop compares it once per divisor
    while d * d <= rem and d <= effort:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rem > 1:
        if d * d <= rem and not is_prime(rem):  # d * d > rem: the trial division proved rem prime
            raise FactorizationLimit(f"{n}: remainder {rem} composite beyond effort {effort}")
        factors.append((rem, 1))
    return tuple(sorted(factors))


def prime_support(n: int) -> tuple[int, ...]:
    """Distinct prime factors of |n|; empty for n in {-1, 1}."""
    n = abs(n)
    if n == 1:
        return ()
    return tuple(p for p, _ in trial_factor(n))


def multiplicative_functions(n: int) -> tuple[int, int, int]:
    """(Euler phi, Moebius mu, divisor count) of n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    phi, mu, d = 1, 1, 1
    for p, e in trial_factor(n):
        phi *= (p - 1) * p ** (e - 1)
        mu = 0 if e > 1 else -mu
        d *= e + 1
    return phi, mu, d
