from math import exp, log, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunit_harvest.arith import PrimeSet, primes_in_range, trial_factor
from sunit_harvest.errors import DomainError, EnumerationCap, InsufficientPrimes
from sunit_harvest.smooth import (
    binomial_lower_bound_check,
    enumerate_squarefree_smooth,
    smooth_count_lower_bound,
    split_disjoint_prime_sets,
)


def brute_squarefree_smooth(primes, lo, hi):
    out = []
    for n in range(max(1, lo), hi + 1):
        m = n
        square_free = True
        for p in primes:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    square_free = False
                    break
        if square_free and m == 1:
            out.append(n)
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sets(st.sampled_from(primes_in_range(2, 40).primes), max_size=6).map(sorted),
    st.integers(1, 400),
    st.integers(0, 400),
)
@example([2, 3, 5], 1, 30)
@example([], 1, 10)  # only the empty product
@example([7], 8, 8)  # nothing in range
@example([37], 37, 37)
def test_enumeration_property_vs_brute(primes, lo, width):
    hi = lo + width
    got = enumerate_squarefree_smooth(PrimeSet(tuple(primes)), lo, hi)
    assert got == tuple(brute_squarefree_smooth(primes, lo, hi))
    # an independent factorization: every member is squarefree over the primes
    assert all(all(p in primes and e == 1 for p, e in trial_factor(v)) for v in got)


def test_enumeration_examples():
    assert enumerate_squarefree_smooth(PrimeSet((2, 3, 5)), 2, 30) == (2, 3, 5, 6, 10, 15, 30)
    assert enumerate_squarefree_smooth(PrimeSet((7,)), 1, 6) == (1,)
    assert enumerate_squarefree_smooth(PrimeSet((2, 3)), 5, 6) == (6,)
    assert all(type(v) is int for v in enumerate_squarefree_smooth(PrimeSet((2, 3)), 1, 6))


def test_enumeration_vs_brute():
    for primes, lo, hi in [((2, 3, 5, 7), 1, 500), ((3, 11, 13), 10, 400), ((2,), 1, 64)]:
        got = enumerate_squarefree_smooth(PrimeSet(primes), lo, hi)
        assert got == tuple(brute_squarefree_smooth(primes, lo, hi))


def test_enumeration_counts_all_subsets():
    # when the range holds every subset product, the count is exactly 2^#T
    for k in (3, 6, 9, 12):
        T = primes_in_range(2, 40).primes[:k]
        full = prod(T)
        got = enumerate_squarefree_smooth(PrimeSet(T), 1, full)
        assert len(got) == 2**k


def test_enumeration_cap():
    T = primes_in_range(2, 60)
    with pytest.raises(EnumerationCap):
        enumerate_squarefree_smooth(T, 1, 10**12, cap=100)


def test_members_are_sorted_squarefree_in_range():
    vals = enumerate_squarefree_smooth(PrimeSet((2, 5, 11, 13)), 10, 2000)
    assert list(vals) == sorted(set(vals))
    for v in vals:
        assert all(p in (2, 5, 11, 13) and e == 1 for p, e in trial_factor(v))
        assert 10 <= v <= 2000


def test_lower_bound_example():
    value, k, b = smooth_count_lower_bound(1e6, 2.0, 1.0)
    assert value == pytest.approx(3.2536520371, rel=1e-9)
    assert k == 2
    assert b == 1.0


def test_lower_bound_derived_b():
    # b is recovered from #T = (log x)^(b+1) / (a log log x)
    x, a, T_count = 1e6, 2.0, 42
    _, _, b = smooth_count_lower_bound(x, a, T_count=T_count)
    L, LL = log(x), log(log(x))
    assert L ** (b + 1) / (a * LL) == pytest.approx(T_count, rel=1e-9)


def test_lower_bound_domain_edge():
    with pytest.raises(DomainError):
        smooth_count_lower_bound(exp(exp(1.0)) - 0.1, 2.0, 1.0)
    # just above the edge is fine
    smooth_count_lower_bound(exp(exp(1.0)) + 1.0, 2.0, 1.0)


def test_lower_bound_grid_vs_enumeration():
    # where the hypotheses make sense at desk scale the floor must hold;
    # unsatisfiable configurations are recorded as skips, never failures
    skipped = []
    checked = 0
    for x in (1e4, 1e5, 1e6):
        for a in (1.5, 2.0, 2.5):
            T = primes_in_range(2, int(log(x) ** a))
            if len(T.primes) == 0:
                skipped.append((x, a, "empty prime set"))
                continue
            floor_value, _, b = smooth_count_lower_bound(x, a, T_count=len(T.primes))
            if b <= 0:
                skipped.append((x, a, "nonpositive b"))
                continue
            count = len(enumerate_squarefree_smooth(T, 1, int(x)))
            assert count >= floor_value, (x, a, count, floor_value)
            checked += 1
    assert checked > 0


def test_binomial_floor_examples():
    lhs, rhs, holds = binomial_lower_bound_check(20, 5)
    assert lhs == 15504
    assert rhs == pytest.approx(1859.644391, rel=1e-6)
    assert holds
    lhs, rhs, holds = binomial_lower_bound_check(10, 1)
    assert (lhs, holds) == (10, True)
    assert rhs == pytest.approx(10 * exp(0.5) / 3, rel=1e-9)
    # ratio-1 edge: C(k, k) = 1 and the floor exceeds it once e^(k/2) > 3 sqrt k
    lhs, rhs, holds = binomial_lower_bound_check(4, 4)
    assert lhs == 1 and not holds


def test_binomial_floor_holds_at_three_to_one():
    for k in range(1, 40):
        _, _, holds = binomial_lower_bound_check(3 * k, k)
        assert holds, k


def test_split_examples():
    s1, s2 = split_disjoint_prime_sets(2, 13, 2)
    assert s1.primes == (2, 5, 11)
    assert s2.primes == (3, 7, 13)
    (a,) , (b,) = split_disjoint_prime_sets(2, 3, 2)
    assert (a, b) == (2, 3)
    with pytest.raises(InsufficientPrimes):
        split_disjoint_prime_sets(24, 28, 1)


def test_split_disjoint_and_covering():
    parts = split_disjoint_prime_sets(2, 200, 5)
    union = sorted(p for part in parts for p in part.primes)
    assert tuple(union) == primes_in_range(2, 200).primes
    for i, p1 in enumerate(parts):
        for p2 in parts[i + 1 :]:
            assert not set(p1.primes) & set(p2.primes)
    whole = parts[0].union(*parts[1:])
    assert whole == primes_in_range(2, 200)
    # the parts and their union are built unproven: the proving constructor accepts each
    for part in (*parts, whole):
        assert part == PrimeSet(part.primes)
