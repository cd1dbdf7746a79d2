"""Property tests: the harvest core and the residue-progression kernel against
brute force.

The brute tallies try every w <= W for every coefficient combination, so they
share no residue stepping with the kernel.  Examples are derandomized and
bounded so the suite stays deterministic and quick.
"""

from collections import Counter
from itertools import count, product
from math import ceil, floor, gcd, prod, sqrt

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
    KeyPacking,
    _linear_harvest,
    pair_collision_stats,
    prop1_config,
    prop1_run,
    thm1_harvest,
    thm2_harvest,
    verify_sunit_solution,
)
from sunit_harvest.siegel import siegel_nonzero_coords
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


def assert_stats_match_tally(stats: dict, tally: Counter, possible_buckets: int):
    """The bucket statistics of a harvest against a naive tally of its keys."""
    total = sum(tally.values())
    assert stats == {
        "total_hits": total,
        "nonempty_buckets": len(tally),
        "max_load": max(tally.values()),
        "pigeonhole_floor": ceil(total / len(tally)),
        "possible_buckets": possible_buckets,
        "expected_load": total / possible_buckets,
        "degenerate": max(tally.values()) == 1,
    }


@PROFILE
@given(moduli, st.sets(st.integers(0, 80), min_size=1, max_size=8).map(sorted), coefficients, w_bounds)
@example([2], [0], [3, 5], 4)  # thm1's B = {0}
@example([3], [2], [1, 4], 5)  # c = 1
def test_linear_harvest_packed_key_matches_tuple_counter(a_values, b_values, c_values, W):
    # the packed (u, w) keys against a Counter of (u, w) tuples, c coprime to a
    shifts = [b + 1 for b in b_values]
    tally = Counter()
    for a, s, c in product(a_values, shifts, c_values):
        for w in range(1, W + 1):
            u, r = divmod(c * w - s, a)
            if not r and u and gcd(c, a) == 1:
                tally[(u, w)] += 1
    if not tally:
        with pytest.raises(EmptyHarvest):
            _linear_harvest(a_values, shifts, c_values, W)
        return
    span, stats, key, bucket, _ = _linear_harvest(a_values, shifts, c_values, W)
    assert key == min(tally, key=lambda k: (-tally[k], k))
    u_lo, u_hi = -(max(shifts) // min(a_values)) - 1, max(c_values) * W // min(a_values)
    assert u_lo <= min(tally)[0] and max(tally)[0] <= u_hi
    assert_stats_match_tally(stats, tally, (u_hi - u_lo) * W)
    assert span == (min(tally), max(tally))
    assert len(bucket) == tally[key]


@st.composite
def prop1_prime_sets(draw):
    """Three nonempty disjoint prime sets from the primes up to 13, and x."""
    primes = draw(st.permutations([2, 3, 5, 7, 11, 13]))
    i = draw(st.integers(1, 4))
    j = draw(st.integers(i + 1, 5))
    return [PrimeSet(tuple(sorted(part))) for part in (primes[:i], primes[i:j], primes[j:])], draw(st.integers(6, 300))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(prop1_prime_sets())
@example(([PrimeSet((2,)), PrimeSet((3,)), PrimeSet((5,))], 30))
@example(([PrimeSet((2, 7)), PrimeSet((3, 11)), PrimeSet((5, 13))], 300))
def test_prop1_packed_key_matches_tuple_counter(case):
    # the packed kernel vectors against a Counter of the scalar search's (z1, z2, z3)
    prime_sets, x = case
    sets = [
        [v for v in range(2, x + 1) if all(e == 1 and p in t.primes for p, e in brute_trial_division(v))]
        for t in prime_sets
    ]
    cap = sqrt(3.0 * x)
    tally = Counter()
    for alpha in product(*sets):
        sol = siegel_nonzero_coords(alpha, cap)
        if sol is not None:
            tally[sol.z] += 1
    config = prop1_config(x, *prime_sets)
    if not tally:
        with pytest.raises(EmptyHarvest):
            prop1_run(config)
        return
    rep = prop1_run(config)
    assert rep.popular_key == min(tally, key=lambda k: (-tally[k], k))
    M = floor(cap + 1e-12)
    assert_stats_match_tally(rep.bucket_stats, tally, M * (2 * M) ** 2)
    assert rep.audits["skipped_triples"] == prod(map(len, sets)) - sum(tally.values())


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
    "harvest, sets, message",
    [
        (thm1_harvest, ([0, 3], [2, 5]), "A holds 0, below 1"),
        (thm1_harvest, ([3], [-2, 5]), "C holds -2, below 1"),
        (thm2_harvest, ([3], [-1, 4], [2, 5]), "B holds -1, below 0"),
    ],
)
def test_coefficients_below_the_packed_range_refused(harvest, sets, message):
    # the (u, w) packing bounds u from the sets only for a, c >= 1 and b >= 0
    with pytest.raises(DomainError, match=f"^{message}$"):
        harvest(*sets, 6, PrimeSet((2, 3, 5)))


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


@PROFILE
@given(moduli_and_coefficients(), st.integers(0, 400), st.integers(0, 10**6))
@example((6, [5, 11, -1, 17, 5]), 20, 0)  # one residue: its weight 5 multiplies, not 1
@example((12, [0, 24, -36, 6, 9, -4]), 30, 3)  # c == 0 (mod a) and gcd(c, a) > 1
@example((1, [-3, 0, 5]), 4, 0)  # a == 1: every (c, w) is a hit
@example((7, []), 10, 0)
def test_count_hits_matches_brute(case, W, pick):
    # the distinct-residue walk weights each residue by its multiplicity
    a, c_values = case
    divisors = [d for d in range(1, a + 1) if a % d == 0]
    d = divisors[pick % len(divisors)]
    for shift in (0, 1, d, -d, -(pick % 50) - 1):
        assert count_hits([a], c_values, W, shift) == brute_linear_count([a], c_values, W, shift).count


@pytest.mark.filterwarnings("error")  # a numpy warning would mean the kernel saw the modulus
def test_kernel_refuses_moduli_below_1():
    for a in (0, -5):
        with pytest.raises(DomainError):
            count_hits([7, a], [3, 4], 10)
        with pytest.raises(DomainError):
            progressions(a, [3], [1], 5)
        with pytest.raises(DomainError):
            progressions(a, [3, 4], list(range(20)), 1)  # many shifts: the join walk


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


@pytest.mark.parametrize(
    "a_values, c_values, W, key",
    [
        # u in [-2, 2^63 - 4]: (u_hi - u_lo + 1) * W = 2^63 values exactly
        ([1], [2**63 - 3], 1, (2**63 - 4, 1)),
        # (2^62 - 1) * 2 = 2^63 - 2 values, for u in [-1, 2^62 - 3]
        ([2], [2**62 - 3], 2, (2**61 - 2, 1)),
    ],
)
def test_pack_range_at_int64_limit_runs(a_values, c_values, W, key):
    _, stats, popular, bucket, _ = _linear_harvest(a_values, [1], c_values, W)
    assert popular == key and bucket == [(a_values[0], 1, c_values[0])]
    assert stats["total_hits"] == stats["max_load"] == 1


@pytest.mark.parametrize(
    "a_values, c_values, W",
    [
        ([1], [2**63 - 2], 1),  # 2^63 + 1 values
        ([2], [2**62 - 1], 2),  # 2^63 + 2 values
        ([2], [2**40 + 1], 2**22),  # c*W = 2^62 + 2^22 fits in int64, the 2^83 packed values do not
    ],
)
def test_pack_range_past_int64_refused(a_values, c_values, W):
    # the residue kernel accepts each of these (max c * W + 1 < 2^63); the packing refuses
    with pytest.raises(ResourceLimit, match=r"^\(u, w\) keys pack into \d+ values, beyond int64$"):
        _linear_harvest(a_values, [1], c_values, W)


def test_prop1_pack_range_past_int64_refused():
    # M * (2M + 1)^2 kernel-vector keys: 2^63 falls between M = 1,321,122 and 1,321,123
    M = 1_321_122
    KeyPacking((1, -M, -M), (M, 2 * M + 1, 2 * M + 1), "kernel vector")
    with pytest.raises(ResourceLimit, match="beyond int64"):
        KeyPacking((1, -M - 1, -M - 1), (M + 1, 2 * M + 3, 2 * M + 3), "kernel vector")
    # prop1 at floor(sqrt(3x)) = M + 1 is refused before any search
    x = (M + 1) ** 2 // 3 + 1
    with pytest.raises(ResourceLimit, match="^kernel vector keys pack into"):
        prop1_run(prop1_config(x, PrimeSet((2,)), PrimeSet((3,)), PrimeSet((5,))))


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
    assert add[0].rows == add[1].rows == add[2].rows


def test_empty_coefficient_sets():
    S = PrimeSet((2, 3, 5))
    with pytest.raises(EmptyHarvest):
        thm1_harvest([], [3], 4, S)
    with pytest.raises(EmptyHarvest):
        thm1_harvest([5], [], 4, S)
    with pytest.raises(EmptyHarvest):
        thm2_harvest([5], [], [3], 10, S)
