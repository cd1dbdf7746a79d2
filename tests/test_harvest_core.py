"""Property tests: the harvest core and the residue-progression kernel against
brute force.

The brute tallies try every w <= W for every coefficient combination, so they
share no residue stepping with the kernel.  Examples are derandomized and
bounded so the suite stays deterministic and quick.
"""

from collections import Counter
from itertools import count, product
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_trial_division
from sunit_harvest.arith import PrimeSet
from sunit_harvest.characters import multiplicative_decomposition
from sunit_harvest.circle import additive_decomposition
from sunit_harvest.errors import DomainError, EmptyHarvest, ResourceLimit
from sunit_harvest.oracle import brute_linear_count
from sunit_harvest.pipelines import (
    pair_collision_stats,
    thm1_harvest,
    thm2_harvest,
    verify_sunit_solution,
)
from sunit_harvest.smooth import enumerate_squarefree_smooth
from sunit_harvest import pipelines, stepping
from sunit_harvest.stepping import _gcd_inverse, count_hits, progressions

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
@example([3], [1, 4], 5)  # c = 1: the u = 0 hit c*w = 1 is not keyed
def test_thm1_matches_brute_tally(a_values, c_values, W):
    tally, u_zero = brute_tally(a_values, c_values, W, [1])
    S = primes_of(a_values, c_values)
    if not tally:
        with pytest.raises(EmptyHarvest):
            thm1_harvest(a_values, c_values, W, S)
        return
    rep = thm1_harvest(a_values, c_values, W, S)
    assert_matches_tally(rep, tally)
    assert rep.bucket_stats["total_hits"] + u_zero == brute_linear_count(a_values, c_values, W, 1).count
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


@PROFILE
@given(moduli, st.sets(st.integers(1, 80), min_size=1, max_size=8).map(sorted), coefficients, w_bounds)
@example([6], [9, 18, 22, 29, 31], [7, 11, 16, 18], 2)  # u < 0, W below a; (6, 29, 18) skipped: 6 | 30
@example([4, 10], [4, 23, 25, 27, 33], [2, 7, 13, 18], 15)  # u < 0, W above a; (10, 23, 2) skipped
@example([12, 13], [13, 14, 31, 36], [9, 14, 15], 3)  # u > 0, W below a; (12, 14, 9) skipped: 3 | 15
@example([3], [4], [1, 4], 5)  # c = 1: thm1's u = 0 hit c*w = 1 is not keyed, and its bucket is (1, 1)
def test_thm2_rows_match_brute_triples(a_values, b_values, c_values, W):
    # c may share a factor g with a, and g | b + 1 then solves the equation
    # although the walk skips c: the listed bucket must skip it too.  thm1 is
    # the same harvest at B = {0}, and its rows lack the b columns
    for harvest, sets, B in (
        (thm2_harvest, (a_values, b_values, c_values), b_values),
        (thm1_harvest, (a_values, c_values), [0]),
    ):
        tally = Counter()
        for a, b, c in product(a_values, B, c_values):
            for w in range(1, W + 1):
                u, r = divmod(c * w - b - 1, a)
                if not r and u and gcd(c, a) == 1:
                    tally[(u, w)] += 1
        S = primes_of(*sets)
        if not tally:
            with pytest.raises(EmptyHarvest):
                harvest(*sets, W, S)
            continue
        rep = harvest(*sets, W, S)
        u, w = rep.popular_key
        assert rep.popular_key == min(tally, key=lambda k: (-tally[k], k))
        assert rep.bucket_stats["max_load"] == tally[(u, w)]
        brute = [
            (a * u, b, c * w, a, b, c, u, w)
            for a, b, c in product(a_values, B, c_values)
            if a * u + b + 1 == c * w and gcd(c, a) == 1
        ]
        if harvest is thm1_harvest:
            brute = [(A, C, a, c, u, w) for A, _, C, a, _, c, u, w in brute]
        assert rep.solution_rows == tuple(sorted(brute))


@pytest.mark.parametrize(
    "harvest, sets, name, value",
    [
        (thm1_harvest, ([3, 3], [2, 5]), "A", 3),  # counted and listed twice
        (thm1_harvest, ([3], [2, 5, 2]), "C", 2),  # counted twice, listed once
        (thm2_harvest, ([3], [1, 1], [2, 5]), "B", 1),  # counted twice, listed once
        (thm2_harvest, ([3], [1], [2, 5, 5]), "C", 5),  # counted and listed twice
    ],
)
def test_repeated_coefficients_refused(harvest, sets, name, value):
    with pytest.raises(DomainError, match=f"^{name} repeats {value}$"):
        harvest(*sets, 6, primes_of(*sets))


@pytest.mark.parametrize(
    "harvest, sets",
    [(thm1_harvest, ([3, 5], [2, 7, 11])), (thm2_harvest, ([3, 5], [1, 4, 6], [2, 7, 11]))],
)
def test_count_checked_against_listing(monkeypatch, harvest, sets):
    # every hit walked twice: the count doubles, the bucket listed from the key does not
    real = pipelines.progressions
    monkeypatch.setattr(pipelines, "progressions", lambda *args: tuple(np.tile(v, 2) for v in real(*args)))
    with pytest.raises(RuntimeError, match="counted .* listed"):
        harvest(*sets, 10, primes_of(*sets))


@PROFILE
@given(
    st.integers(1, 30),
    st.lists(st.integers(1, 60), max_size=6),
    st.lists(st.integers(-40, 40), max_size=40),
    st.one_of(st.integers(0, 8), st.integers(0, 70)),  # W below and above #shifts
)
@example(6, [4, 9], [2, 3], 20)  # start walk: gcd(c, a) > 1, with and without g | shift
@example(7, [3, 5], [-5, -14], 20)  # start walk: negative shifts
@example(25, [3, 7], [1, 4], 5)  # start walk: W below a
@example(4, [3, 7], [1, 4], 60)  # start walk: W above a
@example(5, [], [1], 10)  # no c at all
# join: gcd(c, a) > 1, negative shifts, shifts sharing a residue, W below #shifts
@example(6, [4, 9, 5], [2, -4, 8, 3, -3, 9, 1, 0, 6, -6, 2], 5)
@example(4, [3, 6], [1, 5, -3, 2, 9], 3)  # 2*3 + 4 == 2*5: the boundary takes the start walk
@example(4, [3, 6], [1, 5, -3, 2, 9, 4], 3)  # one shift more: the join
def test_progressions_match_brute(a, c_values, shifts, W):
    brute = [
        (i, j, w)
        for i, c in enumerate(c_values)
        for j, shift in enumerate(shifts)
        for w in range(1, W + 1)
        if (c * w - shift) % a == 0
    ]
    i, j, w = progressions(a, c_values, shifts, W)
    # the multiset of rows; no caller reads their order, which differs between the walks
    assert sorted(zip(i.tolist(), j.tolist(), w.tolist())) == brute
    for shift in shifts:
        assert count_hits([a], c_values, W, shift) == brute_linear_count([a], c_values, W, shift).count


@pytest.mark.parametrize("shifts, joins", [([1, 5, -3, 2, 9], False), ([1, 5, -3, 2, 9, 4], True)])
def test_progressions_strategy_boundary(monkeypatch, shifts, joins):
    # the join runs exactly when #C * W + a < #C * #shifts, here 2*3 + 4 against
    # 2 * #shifts; test_progressions_match_brute checks the rows of both cases
    join, calls = stepping._join, []
    monkeypatch.setattr(stepping, "_join", lambda *args: calls.append(args) or join(*args))
    progressions(4, [3, 6], shifts, 3)
    assert bool(calls) == joins


@st.composite
def moduli_and_coefficients(draw):
    """(a, c_values): a from 1 up; c of any sign, multiples of a and of its divisors."""
    a = draw(st.integers(1, 300))
    d = draw(st.sampled_from([d for d in range(1, a + 1) if a % d == 0]))
    c = st.one_of(
        st.integers(-(10**6), 10**6),
        st.integers(-50, 50).map(lambda k: k * a),
        st.integers(-500, 500).map(lambda k: k * d),
    )
    return a, draw(st.lists(c, max_size=40))


@PROFILE
@given(moduli_and_coefficients())
@example((1, [-3, 0, 5]))  # a == 1: every step is 1 and every inverse 0
@example((12, [-7, -12, 0, 24, 36]))  # negative c; c a multiple of a (step == 1)
@example((30, [6, 10, 15, -21, 7, 29]))  # gcd(c, a) > 1
@example((7, []))
def test_gcd_inverse_matches_pow(case):
    a, c_values = case
    g, inv = _gcd_inverse(np.array(c_values, dtype=np.int64), a)
    assert g.tolist() == [gcd(c, a) for c in c_values]
    assert inv.tolist() == [pow(c // gcd(c, a), -1, a // gcd(c, a)) for c in c_values]


def progression_rows(a, c_values, shifts, W):
    """The rows of progressions(a, c_values, shifts, W) in Python ints, one
    pow per (c, shift) cell."""
    rows = []
    for i, c in enumerate(c_values):
        g = gcd(c, a)
        step = a // g
        for j, shift in enumerate(shifts):
            if shift % g == 0:
                w0 = shift // g * pow(c // g, -1, step) % step or step
                rows += [(i, j, w) for w in range(w0, W + 1, step)]
    return rows


def test_kernel_at_largest_modulus():
    # the largest a with a^2 < 2^63, where the Euclid's q*r and q*t products
    # are largest (c = 1 gives q = a); a = 13 * 233,615,423
    a = 3_037_000_499
    assert a**2 < 2**63 <= (a + 1) ** 2
    # c*w - shift stays within int64 for w <= W = a and |c| < a
    c_values = [1, 2, -1, a - 1, -(a - 2), a * 1000 // 1618, 13, 13 * 7, -13 * 233_615_422, 2**31 - 1]
    shifts = [1, a - 1, -(a - 2), 13 * 5]
    i, j, w = progressions(a, c_values, shifts, a)
    rows = sorted(zip(i.tolist(), j.tolist(), w.tolist()))
    assert rows == progression_rows(a, c_values, shifts, a)
    assert all((c_values[r[0]] * r[2] - shifts[r[1]]) % a == 0 for r in rows)
    # step 13 cells: counted, never listed
    counted = c_values + [233_615_423 * 2, -233_615_423 * 3]
    for shift in (1, 13 * 5, 233_615_423):
        as_list = count_hits([a], counted, a, shift)
        assert count_hits([a], np.array(counted, dtype=np.int64), a, shift) == as_list
        # w <= W = a holds g terms of each progression of step a / g
        assert as_list == sum(gcd(c, a) for c in counted if shift % gcd(c, a) == 0)
    with pytest.raises(ResourceLimit):
        progressions(a + 1, [1], [1], 1)
    # an int64 array is range-checked as a list is, down to -2^63
    for c in (2**62 + 1, -(2**62) - 1, -(2**63)):
        with pytest.raises(ResourceLimit):
            count_hits([3], np.array([c], dtype=np.int64), 2)
    assert count_hits([3], np.array([2**62, -(2**62)], dtype=np.int64), 1, 0) == 0


@PROFILE
@given(st.lists(st.integers(-20, 40), max_size=30))
@example([3, 3, 5, 5, 7, 7])
def test_pair_collision_stats_matches_brute(values):
    vals = sorted(values)
    tally = Counter(c - cp for i, c in enumerate(vals) for cp in vals[:i] if c != cp)
    best = min(tally, key=lambda n: (-tally[n], n), default=0)
    assert pair_collision_stats(values) == (tally[best], best)


def test_int64_limit():
    # c*w - 1 passes int64 at w = 2, so the kernel refuses rather than wrap
    S = primes_of([2, 3], [2**62 + 1])
    with pytest.raises(ResourceLimit):
        thm1_harvest([3], [2**62 + 1], 2, S)
    with pytest.raises(ResourceLimit):
        count_hits([3], [2**62 + 1], 2)
    with pytest.raises(ResourceLimit):
        progressions(2**32, [3], [1], 1)  # a^2 passes int64
    # both decompositions count with the kernel before C reaches an int64 array
    with pytest.raises(ResourceLimit):
        multiplicative_decomposition([3], [2**63 + 1], 2)
    with pytest.raises(ResourceLimit):
        additive_decomposition([3], [2**63 + 1], 0.5)
    # one step below the limit the exact harvest still runs: 2 * 2**61 + 1 = 2**62 + 1
    rep = thm1_harvest([2], [2**62 + 1], 1, S)
    assert rep.popular_key == (2**61, 1)
    assert rep.solutions == ((2**62, 2**62 + 1),)


def test_decompositions_take_any_iterable_of_ints():
    # a sorted list, an unsorted tuple and a SmoothSet of the same values give
    # identical results: both decompositions sort the moduli they sum over
    T = PrimeSet((2, 3, 5, 7, 11, 13))
    A, C = enumerate_squarefree_smooth(T, 60, 200), enumerate_squarefree_smooth(T, 2, 400)
    inputs = [(A, C), (list(A), list(C)), (tuple(reversed(A.values())), tuple(reversed(C.values())))]
    mult = [multiplicative_decomposition(a, c, 150) for a, c in inputs]
    add = [additive_decomposition(a, c, 0.5) for a, c in inputs]
    assert mult[0][2] > 0 and add[0].exact_count > 0
    assert mult[0] == mult[1] == mult[2]
    assert add[0] == add[1] == add[2]


def test_empty_coefficient_sets():
    S = PrimeSet((2, 3, 5))
    with pytest.raises(EmptyHarvest):
        thm1_harvest([], [3], 4, S)
    with pytest.raises(EmptyHarvest):
        thm1_harvest([5], [], 4, S)
    with pytest.raises(EmptyHarvest):
        thm2_harvest([5], [], [3], 10, S)
