import random

import pytest

from conftest import brute_trial_division
from sunit_harvest.arith import (
    FactoredInt,
    PrimeSet,
    factor_over,
    is_prime,
    multiplicative_functions,
    primes_in_range,
    trial_factor,
)
from sunit_harvest.errors import DomainError


def test_primes_in_range_examples():
    assert primes_in_range(2, 10).primes == (2, 3, 5, 7)
    assert primes_in_range(90, 100).primes == (97,)
    assert primes_in_range(24, 28).primes == ()
    assert primes_in_range(5, 1).primes == ()  # hi below lo: empty, not an error


def test_primes_in_range_vs_naive():
    naive = tuple(n for n in range(1000, 1200) if is_prime(n))
    assert primes_in_range(1000, 1199).primes == naive


def test_is_prime_matches_the_sieve():
    # 61, a base of the small-n test, passes the trial loop: the base it divides is skipped
    N = 3 * 10**5
    assert [n for n in range(N + 1) if is_prime(n)] == list(primes_in_range(0, N))


def test_is_prime_at_the_small_base_bound():
    n = 4_759_123_141
    assert n == 48_781 * 97_561  # the least strong pseudoprime to 2, 7 and 61
    assert not is_prime(n)
    assert is_prime(7) and is_prime(61) and not is_prime(61 * 61)
    assert is_prime(4_759_123_151)  # the least prime past the bound, tested with 12 bases


def test_primeset_union_of_several_sets():
    T = PrimeSet((2, 5)).union(PrimeSet((3, 5)), PrimeSet((7,)), PrimeSet((2, 11)))
    assert T == PrimeSet((2, 3, 5, 7, 11))
    assert PrimeSet((3,)).union() == PrimeSet((3,))
    with pytest.raises(DomainError):  # union takes only PrimeSets, so a composite is refused where it enters
        PrimeSet((2,)).union(PrimeSet((9,)))


def test_primeset_invariants():
    with pytest.raises(DomainError):
        PrimeSet((4,))
    with pytest.raises(DomainError):
        PrimeSet((3, 3))
    with pytest.raises(DomainError):
        PrimeSet((5, 3))
    T = PrimeSet((2, 3, 5))
    assert 3 in T and 4 not in T and 7 not in T


def test_factor_over_examples():
    T = PrimeSet((2, 3, 5))
    f = factor_over(60, T)
    assert f == FactoredInt(60, ((2, 2), (3, 1), (5, 1)))
    assert factor_over(14, T) is None
    assert factor_over(1, PrimeSet(())) == FactoredInt(1, ())


def test_factor_over_vs_trial_division():
    rng = random.Random(42)
    pool = primes_in_range(2, 60).primes
    sets = [
        (PrimeSet(t := tuple(sorted(rng.sample(pool, k=rng.randint(1, 8))))), set(t))
        for _ in range(64)
    ]
    for n in range(1, 100_001):
        T, support = sets[n & 63]
        got = factor_over(n, T)
        brute = brute_trial_division(n)
        assert (got is not None) == all(p in support for p, _ in brute)
        if got is not None:
            assert tuple(brute) == got.factors


def test_multiplicative_functions_examples():
    assert multiplicative_functions(12) == (4, 0, 6)
    assert multiplicative_functions(1) == (1, 1, 1)
    assert multiplicative_functions(30) == (8, -1, 8)


def _divisors(n):
    fac = brute_trial_division(n)
    divs = [1]
    for p, e in fac:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def test_mobius_and_phi_divisor_sums():
    # sum_{d|n} mu(d) = [n == 1] and sum_{d|n} phi(d) = n, exhaustively to 1e4
    for n in range(1, 10_001):
        mu_sum = 0
        phi_sum = 0
        for d in _divisors(n):
            phi, mu, _ = multiplicative_functions(d)
            mu_sum += mu
            phi_sum += phi
        assert mu_sum == (1 if n == 1 else 0)
        assert phi_sum == n


def test_trial_factor_matches_oracle():
    for n in (2, 97, 2**20, 3 * 5 * 7 * 11 * 13, 104729 * 2):
        assert trial_factor(n) == tuple(brute_trial_division(n))


def test_factorization_effort_limit():
    from sunit_harvest.errors import FactorizationLimit

    semiprime = (10**9 + 7) * (10**9 + 9)  # both factors beyond the trial bound
    with pytest.raises(FactorizationLimit):
        multiplicative_functions(semiprime)
    # a big prime remainder is fine: the deterministic test certifies it
    assert multiplicative_functions(2 * (10**9 + 7)) == (10**9 + 6, 1, 4)


def test_big_exact_products():
    # pipeline certifications multiply past 64 bits; everything stays exact
    a = 2**70 + 1
    f = trial_factor(5**40)
    assert f == ((5, 40),)
    assert a * a // a == a
