"""Property tests: the harvest core against a brute-force (u, w) tally.

The brute tally tries every w <= W for every coefficient combination, so it
shares no residue stepping with the pipelines.  Examples are derandomized and
bounded so the suite stays deterministic and quick.
"""

from collections import Counter
from itertools import count
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_trial_division
from sunit_harvest.arith import PrimeSet
from sunit_harvest.errors import EmptyHarvest
from sunit_harvest.oracle import brute_linear_count
from sunit_harvest.pipelines import thm1_harvest, thm2_harvest, verify_sunit_solution

PROFILE = settings(derandomize=True, max_examples=60, deadline=None)

moduli = st.sets(st.integers(2, 30), min_size=1, max_size=5).map(sorted)
coefficients = st.sets(st.integers(2, 80), min_size=1, max_size=8).map(sorted)
w_bounds = st.integers(1, 40)


@st.composite
def thm2_sets(draw):
    """(A, B, C, W) with every c coprime to every a, as disjoint prime sets give."""
    a_values = draw(moduli)
    P = prod(a_values)
    c_values = {next(v for v in count(c) if gcd(v, P) == 1) for c in draw(coefficients)}
    b_values = draw(st.sets(st.integers(1, 80), min_size=1, max_size=8).map(sorted))
    return a_values, b_values, sorted(c_values), draw(w_bounds)


def brute_tally(a_values, c_values, W, shifts) -> tuple[Counter, int]:
    """(u, w) counts over every (a, c, shift, w <= W) with c*w - shift = a*u, u != 0."""
    tally, u_zero = Counter(), 0
    for a in a_values:
        for c in c_values:
            for shift in shifts:
                for w in range(1, W + 1):
                    u, r = divmod(c * w - shift, a)
                    if r:
                        continue
                    if u:
                        tally[(u, w)] += 1
                    else:
                        u_zero += 1
    return tally, u_zero


def primes_of(*value_sets) -> PrimeSet:
    primes = {p for vs in value_sets for v in vs for p, _ in brute_trial_division(v)}
    return PrimeSet(tuple(sorted(primes)))


def assert_matches_tally(rep, tally: Counter):
    stats = rep.bucket_stats
    assert stats["total_hits"] == sum(tally.values())
    assert stats["nonempty_buckets"] == len(tally)
    assert stats["max_load"] == max(tally.values())
    assert rep.popular_key == min(tally, key=lambda k: (-tally[k], k))
    # S' holds every coefficient prime, so each hit of the popular bucket verifies
    assert rep.audits["verify_failures"] == 0
    assert len(rep.solution_rows) == stats["max_load"]
    S = PrimeSet(rep.s_full)
    for sol, row in zip(rep.solutions, rep.solution_rows, strict=True):
        assert verify_sunit_solution(sol, rep.equation, S)
        assert row[: len(sol)] == sol
        assert row[-2:] == rep.popular_key


@PROFILE
@given(moduli, coefficients, w_bounds)
def test_thm1_matches_brute_tally(a_values, c_values, W):
    tally, _ = brute_tally(a_values, c_values, W, [1])
    S = primes_of(a_values, c_values)
    if not tally:
        with pytest.raises(EmptyHarvest):
            thm1_harvest(a_values, c_values, W, S)
        return
    rep = thm1_harvest(a_values, c_values, W, S)
    assert_matches_tally(rep, tally)
    assert rep.bucket_stats["total_hits"] == brute_linear_count(a_values, c_values, W, 1).count
    for A, C, a, c, u, w in rep.solution_rows:
        assert (A, C) == (a * u, c * w)


@PROFILE
@given(thm2_sets())
def test_thm2_matches_brute_tally(sets):
    a_values, b_values, c_values, W = sets
    tally, u_zero = brute_tally(a_values, c_values, W, [b + 1 for b in b_values])
    S = primes_of(a_values, b_values, c_values)
    if not tally:
        with pytest.raises(EmptyHarvest):
            thm2_harvest(a_values, b_values, c_values, W, S)
        return
    rep = thm2_harvest(a_values, b_values, c_values, W, S)
    assert_matches_tally(rep, tally)
    assert rep.audits["u_zero_discards"] == u_zero
    oracle = sum(brute_linear_count(a_values, c_values, W, b + 1).count for b in b_values)
    assert rep.bucket_stats["total_hits"] + rep.audits["u_zero_discards"] == oracle
    for A, B, C, a, b, c, u, w in rep.solution_rows:
        assert (A, B, C) == (a * u, b, c * w)
