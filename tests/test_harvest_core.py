"""Property tests: the harvest core and the residue-progression kernel against
brute force.

The brute tallies try every w <= W for every coefficient combination, so they
share no residue stepping with the kernel.  Examples are derandomized and
bounded so the suite stays deterministic and quick.
"""

import re
import tracemalloc
from collections import Counter
from itertools import count, product
from math import ceil, floor, gcd, lcm, prod, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_trial_division
from sunit_harvest.arith import FactoredInt, PrimeSet, multiplicative_functions, trial_factor
from sunit_harvest.characters import multiplicative_decomposition
from sunit_harvest.circle import additive_decomposition
from sunit_harvest.errors import DomainError, EmptyHarvest, ResourceLimit
from sunit_harvest.oracle import brute_linear_count
from sunit_harvest.pipelines import (
    HarvestConfig,
    KeyPacking,
    _linear_harvest,
    pair_collision_stats,
    popular_bucket,
    prop1_config,
    prop1_run,
    thm1_harvest,
    thm2_harvest,
    verify_sunit_solution,
)
from sunit_harvest.siegel import siegel_nonzero_coords
from sunit_harvest.smooth import SmoothSet, enumerate_squarefree_smooth
from sunit_harvest import pipelines, stepping
from sunit_harvest.stepping import _powmod, _unit_inverse, count_hits, progressions

PROFILE = settings(derandomize=True, max_examples=60, deadline=None)
CAP = HarvestConfig.hit_cap  # the hit cap of a run with none configured

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
@given(moduli, coefficients, st.sets(st.integers(1, 30), min_size=1, max_size=5).map(sorted), w_bounds)
@example([3], [1, 4], [1], 5)  # c = 1: the u = 0 hit c*w = 1 is not keyed
@example([4, 9], [5, 7], [2, 3, 5], 12)  # r = 2 is no unit mod 4, r = 3 none mod 9
@example([5], [2, 3], [2, 3], 8)  # 2*3 = 3*2: one product from two pairs, a hit for each
def test_thm1_matches_brute_tally(a_values, q_values, r_values, W):
    # the brute tally runs over the products c = q*r, one per pair (q, r)
    c_values = [q * r for q in q_values for r in r_values]
    tally, u_zero = brute_tally(a_values, c_values, W, [1])
    S = primes_of(a_values, q_values, r_values)
    if not tally:
        with pytest.raises(EmptyHarvest):
            thm1_harvest(a_values, q_values, r_values, W, S, CAP)
        return
    rep = thm1_harvest(a_values, q_values, r_values, W, S, CAP)
    stats = rep.bucket_stats
    assert (stats["total_hits"], stats["nonempty_buckets"]) == (sum(tally.values()), len(tally))
    assert stats["max_load"] == max(tally.values())
    assert rep.popular_key == min(tally, key=lambda k: (-tally[k], k))
    assert stats["total_hits"] + u_zero == brute_linear_count(a_values, c_values, W, 1).count
    # two pairs with one product list one solution
    u, w = rep.popular_key
    brute = {(a * u, c * w, a, c, u, w) for a in a_values for c in c_values if a * u + 1 == c * w}
    assert rep.solution_rows == tuple(sorted(brute)) and rep.audits["verify_failures"] == 0


@PROFILE
@given(thm2_sets())
def test_thm2_matches_brute_tally(sets):
    a_values, b_values, c_values, W = sets
    tally, u_zero = brute_tally(a_values, c_values, W, [b + 1 for b in b_values])
    S = primes_of(a_values, b_values, c_values)
    if not tally:
        with pytest.raises(EmptyHarvest):
            thm2_harvest(a_values, b_values, c_values, W, S, CAP)
        return
    rep = thm2_harvest(a_values, b_values, c_values, W, S, CAP)
    assert_matches_tally(rep, tally)
    assert rep.audits["u_zero_discards"] == u_zero
    oracle = sum(brute_linear_count(a_values, c_values, W, b + 1).count for b in b_values)
    assert rep.bucket_stats["total_hits"] + rep.audits["u_zero_discards"] == oracle
    # the np.gcd audit against one math.gcd per (a, b)
    coprime_b = min(sum(gcd(b + 1, a) == 1 for b in b_values) for a in a_values)
    assert rep.audits["coprime_b_min_fraction"] == coprime_b / len(b_values)
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
        (thm1_harvest, (a_values, c_values, [1]), [0]),
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
                harvest(*sets, W, S, CAP)
            continue
        rep = harvest(*sets, W, S, CAP)
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


def loop_listing(a_values, shifts, c_values, r_values, key) -> list:
    """The linear harvest's bucket of key by one exact divmod per (a, s), in that order."""
    u, w = key
    small, large = sorted((c_values, r_values), key=len)
    large = set(large)
    bucket = []
    for a, s in product(a_values, shifts):
        m, rem = divmod(a * u + s, w)
        if not rem and gcd(m, a) == 1:
            bucket += [(a, s, m) for d in small if m % d == 0 and m // d in large]
    return bucket


@PROFILE
@given(
    st.sets(st.integers(1, 30), min_size=1, max_size=5).map(sorted),
    st.lists(st.integers(-40, 80), min_size=1, max_size=10),  # unsorted, shifts <= 0 among them
    st.sets(st.integers(1, 80), min_size=1, max_size=8).map(sorted),
    st.sets(st.integers(1, 12), min_size=1, max_size=4).map(sorted),
    st.tuples(st.one_of(st.integers(-20, 60), st.integers(-(2**70), 2**70)), st.integers(1, 40)),
)
@example([2, 3], [5, -3, 1], [7], [1], (2**62, 1))  # 2 * 2^62 passes int64; no shift is in either window
@example([2, 3], [9, 1, 5], [4, 5], [1], (-(2**62), 3))  # the window lies above every shift
@example([5], [4, 9, -1, 4], [2, 3], [2, 3, 6], (2, 3))  # a repeated shift
@example([1, 7], [15, 0, 6, -6, 18], [3, 9], [2, 5], (0, 1))  # a = 1, shifts <= 0, three listed out of order
@example([3], [4, 1], [1, 4], [1], (-1, 1))  # a*u + s = 1, the window's least value
@example([3], [4, 1], [5, 7], [1, 2], (8, 2))  # a*u + s = 28 = c_max*r_max*w, its greatest
def test_listing_matches_the_loop(a_values, shifts, c_values, r_values, key):
    # the listing `_linear_harvest` hands to `_harvest`, on any key, against the divmod loop
    with mock.patch.object(pipelines, "_harvest", lambda keys, listing, *rest: (listing,)):
        listing, _ = _linear_harvest(a_values, shifts, c_values, r_values, 40, CAP)
    assert listing(key) == loop_listing(a_values, shifts, c_values, r_values, key)


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
@given(
    moduli,
    st.sets(st.integers(-60, 81), min_size=1, max_size=8).map(sorted),
    coefficients,
    st.sets(st.integers(1, 12), min_size=1, max_size=4).map(sorted),
    w_bounds,
)
@example([2], [1], [3, 5], [1], 4)  # thm1's shift 1, R = {1}
@example([3], [3], [1, 4], [1], 5)  # c = 1
@example([4, 9], [2, 6], [5, 7], [2, 3], 12)  # 2 | s = 2 and 2 | r: still no hit mod 4
@example([5], [1, 4], [2, 3], [2, 3], 8)  # 2*3 = 3*2: one product from two pairs
@example([1, 30], [-5], [1], [1], 40)  # a shift < 0: at a = 1, u = w + 5 reaches 45, past c_max*W // a_min = 40
def test_linear_harvest_packed_key_matches_tuple_counter(a_values, shifts, c_values, r_values, W):
    # the packed (u, w) keys against a Counter of (u, w) tuples, c*r coprime to a;
    # the hit cap bounds the exact count of hits, the u = 0 hits included.  thm1 and
    # thm2 pass shifts >= 1; shifts <= 0 check the u range at both ends
    tally, hits = Counter(), 0
    for a, s, c, r in product(a_values, shifts, c_values, r_values):
        for w in range(1, W + 1):
            u, rem = divmod(c * r * w - s, a)
            if not rem and gcd(c * r, a) == 1:
                hits += 1
                if u:
                    tally[(u, w)] += 1
    if hits:
        with pytest.raises(ResourceLimit, match=f"^{hits} hits beyond hit cap {hits - 1}$"):
            _linear_harvest(a_values, shifts, c_values, r_values, W, hits - 1)
    if not tally:
        with pytest.raises(EmptyHarvest):
            _linear_harvest(a_values, shifts, c_values, r_values, W, hits)
        return
    span, stats, key, bucket, u_zero = _linear_harvest(a_values, shifts, c_values, r_values, W, hits)
    assert key == min(tally, key=lambda k: (-tally[k], k))
    m_max, s_lo, s_hi = max(c_values) * max(r_values) * W, min(0, *shifts), max(0, *shifts)
    u_lo, u_hi = -(s_hi // min(a_values)) - 1, (m_max - s_lo) // min(a_values)
    assert u_lo <= min(tally)[0] and max(tally)[0] <= u_hi
    assert_stats_match_tally(stats, tally, (u_hi - u_lo) * W)
    assert span == (min(tally), max(tally)) and u_zero == hits - sum(tally.values())
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
        (thm1_harvest, ([3, 3], [2, 5], [7]), "A", 3),  # counted and listed twice
        (thm1_harvest, ([3], [2, 5, 2], [7]), "Q", 2),  # counted twice, listed once
        (thm2_harvest, ([3], [1, 1], [2, 5]), "B", 1),  # counted twice, listed once
        (thm2_harvest, ([3], [1], [2, 5, 5]), "C", 5),  # counted and listed twice
        (thm1_harvest, ([3], [2], [5, 7, 5]), "R", 5),  # counted twice, listed once
    ],
)
def test_repeated_coefficients_refused(harvest, sets, name, value):
    with pytest.raises(DomainError, match=f"^{name} repeats {value}$"):
        harvest(*sets, 6, primes_of(*sets), CAP)


@pytest.mark.parametrize(
    "harvest, sets, message",
    [
        (thm1_harvest, ([0, 3], [2, 5], [7]), "A holds 0, below 1"),
        (thm1_harvest, ([3], [-2, 5], [7]), "Q holds -2, below 1"),
        (thm2_harvest, ([3], [-1, 4], [2, 5]), "B holds -1, below 0"),
        (thm1_harvest, ([3], [2, 5], [0, 7]), "R holds 0, below 1"),
    ],
)
def test_coefficients_below_the_packed_range_refused(harvest, sets, message):
    # the (u, w) packing bounds u from the sets only for a, c, r >= 1 and b >= 0
    with pytest.raises(DomainError, match=f"^{message}$"):
        harvest(*sets, 6, PrimeSet((2, 3, 5, 7)), CAP)


@pytest.mark.parametrize(
    "harvest, sets",
    [(thm1_harvest, ([3, 5], [2, 7], [11, 13])), (thm2_harvest, ([3, 5], [1, 4, 6], [2, 7, 11]))],
)
def test_count_checked_against_listing(monkeypatch, harvest, sets):
    # every hit walked twice: the walk of the first modulus does not match its count
    real = pipelines.progressions
    monkeypatch.setattr(pipelines, "progressions", lambda *args: tuple(np.tile(v, 2) for v in real(*args)))
    with pytest.raises(RuntimeError, match=r"^modulus 3: counted \d+ hits, walked \d+$") as fault:
        harvest(*sets, 10, primes_of(*sets), CAP)
    counted, walked = map(int, re.findall(r"\d+", str(fault.value))[1:])
    assert walked == 2 * counted > 0


def test_kernel_repeating_a_row_is_caught_before_any_key(monkeypatch):
    # A = {5, 7}, C = {2}, W = 5: one hit per modulus; a kernel that repeats its
    # first row is caught at a = 5, before that modulus writes a key
    real = pipelines.progressions
    monkeypatch.setattr(pipelines, "progressions", lambda *args: tuple(np.append(v, v[:1]) for v in real(*args)))
    monkeypatch.setattr(KeyPacking, "pack", lambda *args, **kwargs: pytest.fail("a key was written"))
    with pytest.raises(RuntimeError, match=r"^modulus 5: counted 1 hits, walked 2$"):
        _linear_harvest([5, 7], [1], [2], [1], 5, CAP)


@pytest.mark.parametrize(
    "run",
    [
        lambda: thm1_harvest([3, 5], [2, 7], [11, 13], 10, primes_of([3, 5], [2, 7], [11, 13]), CAP),
        lambda: thm2_harvest([3, 5], [1, 4, 6], [2, 7, 11], 10, primes_of([3, 5], [1, 4, 6], [2, 7, 11]), CAP),
        lambda: prop1_run(prop1_config(30, PrimeSet((2,)), PrimeSet((3,)), PrimeSet((5,)))),
    ],
    ids=["thm1", "thm2", "prop1"],
)
def test_listing_checked_against_count(monkeypatch, run):
    # a tally that counts one hit more than the bucket listed from its key holds
    real = pipelines.popular_bucket

    def overcounted(keys, unpack):
        key, stats = real(keys, unpack)
        return key, {**stats, "max_load": stats["max_load"] + 1}

    monkeypatch.setattr(pipelines, "popular_bucket", overcounted)
    with pytest.raises(RuntimeError, match=r"^popular key .*: counted \d+ hits, listed \d+$"):
        run()


def test_linear_harvest_makes_no_second_key_array(monkeypatch):
    # the keys go into one array of exactly the hit count, int32 as their range fits;
    # beside it, the walk holds only arrays of one modulus's rows, never a second array of every key
    a_values = list(range(60, 121))
    c_values = [c for c in range(127, 400) if all(c % p for p in range(2, 20))]  # coprime to every a
    shifts, W = list(range(1, 31)), 600
    row_bytes = max(solutions(a, c_values, shifts, W)[0].nbytes for a in a_values)
    dtypes, tally = [], pipelines.popular_bucket
    monkeypatch.setattr(pipelines, "popular_bucket", lambda keys, *rest: dtypes.append(keys.dtype) or tally(keys, *rest))
    tracemalloc.start()
    try:
        _, stats, *_, u_zero = _linear_harvest(a_values, shifts, c_values, [1], W, CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dtypes == [np.int32]
    key_bytes = (stats["total_hits"] + u_zero) * dtypes[0].itemsize
    assert key_bytes > 16 * row_bytes  # a second key array would show
    assert peak <= key_bytes + 16 * row_bytes, (peak, key_bytes, row_bytes)


def test_column_offsets_at_the_int64_edge(monkeypatch):
    # d = (r*rho - s) / a forms r*rho, up to r_max*(a - 1): the linear harvest runs while
    # r_max * a_max < 2^63, at a = 2^31 - 1 while r_max <= 2a + 4.  Here r = 2a + 4 == 4
    # meets the shift a - 4 at rho = a - 1, where r*rho = 2^63 - 2^32 - 4
    a = 2**31 - 1
    q_values, shifts = [2**29, a - 1], [1, a - 4]
    assert (2 * a + 4) * a < 2**63 <= (2 * a + 5) * a
    r_values = [2 * a - 1, 2 * a + 4]  # -1 and 4 (mod a)
    _, stats, key, _, u_zero = _linear_harvest([a], shifts, q_values, r_values, 1, CAP)
    tally, zero = brute_tally([a], [q * r for q in q_values for r in r_values], 1, shifts)
    assert (stats["total_hits"], stats["nonempty_buckets"], u_zero) == (sum(tally.values()), len(tally), zero)
    assert stats["total_hits"] == 3 and key == min(tally, key=lambda k: (-tally[k], k))
    # one past the edge c_max*r_max*W + s_max = 2^63 - 11 still passes `_int64`,
    # but r*rho is refused before any count or walk
    for name in ("count_hits", "progressions"):
        monkeypatch.setattr(pipelines, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    with pytest.raises(ResourceLimit, match=r"^residue columns .* beyond int64$"):
        _linear_harvest([a], shifts, q_values, [2 * a - 1, 2 * a + 5], 1, CAP)


@PROFILE
@given(
    st.integers(1, 30),
    st.lists(st.integers(1, 60), max_size=6),
    st.lists(st.integers(-40, 40), max_size=40),
    st.one_of(st.integers(0, 8), st.integers(0, 70)),  # W below and above #shifts
)
@example(6, [1, 5, 7], [2, 3, 0, -1], 20)  # start walk: shifts sharing a factor with a
@example(6, [4, 9, 5], [2, 3], 20)  # start walk: the non-units 4 and 9 list no rows
@example(6, [4, 9], [2, 3], 20)  # no unit at all
@example(7, [3, 5], [-5, -14], 20)  # start walk: negative shifts
@example(25, [3, 7], [1, 4], 5)  # start walk: W below a
@example(4, [3, 7], [1, 4], 60)  # start walk: W above a
@example(7, [3, 5, 14], [1, -2], 21)  # start walk: W == 3a, a grid with no partial column
@example(1, [3, 0, -4], [2, -1], 6)  # start walk: a == 1, every (c, shift, w) is a row
@example(7, [3, 5], [1], 0)  # W == 0: an empty grid
@example(5, [], [1], 10)  # no c at all
# join: gcd(c, a) > 1 listing no rows, negative shifts, shifts sharing a residue, W below #shifts
@example(6, [4, 9, 5], [2, -4, 8, 3, -3, 9, 1, 0, 6, -6, 2], 5)
@example(4, [3, 7], [1, 5, -3, 2, 9], 3)  # 2*3 + 4 == 2*5: the boundary takes the start walk
@example(4, [3, 7], [1, 5, -3, 2, 9, 4], 3)  # one shift more: the join
@example(4, [2, 3, 6, 7], [1, 5, -3, 2, 9, 4], 3)  # the join, with non-units between the units
def test_progressions_match_brute(a, c_values, shifts, W):
    assert count_hits([a], c_values, W) == brute_linear_count([a], c_values, W, 1).count
    # either walk lists the units c mod a only, each row with a*u + shift = c*w
    assert_rows(solutions(a, c_values, shifts, W), brute_rows(a, c_values, [(s, 1) for s in shifts], W))


def solutions(a, c_values, shifts, W):
    """progressions with d = -(shift // a) and r = 1: the rows (u, w) of a*u + shift = c*w."""
    return progressions(a, c_values, shifts, W, -(np.asarray(shifts, dtype=np.int64) // a), 1)


def brute_rows(a, c_values, pairs, W):
    """The (u, w) rows of the units c mod a, one list per c: u = (c*r*w - s) / a for
    every (s, r) of pairs and w <= W with c*r*w == s (mod a), in Python ints."""
    return [
        [((c * r * w - s) // a, w) for s, r in pairs for w in range(1, W + 1) if (c * r * w - s) % a == 0]
        for c in c_values
        if gcd(c, a) == 1
    ]


def assert_rows(rows, want):
    """rows, int64 arrays (u, w), are want's lists one after another, each in any order:
    no caller reads the order within one c, which differs between the walks."""
    u, w = rows
    assert u.dtype == w.dtype == np.int64
    got, start = list(zip(u.tolist(), w.tolist())), 0
    assert len(got) == sum(map(len, want))
    for group in want:
        assert sorted(got[start : start + len(group)]) == sorted(group)
        start += len(group)


def columns_of(a, pairs):
    """int64 arrays (rho, d, r) of the (s, r) pairs, each r a unit mod a, as the linear
    harvest passes them: rho = s*r^-1 mod a and d = (r*rho - s) / a."""
    rho = [s * pow(r, -1, a) % a for s, r in pairs]
    d = [(r * x - s) // a for (s, r), x in zip(pairs, rho)]
    return tuple(np.array(v, dtype=np.int64) for v in (rho, d, [r for _, r in pairs]))


@PROFILE
@given(
    st.integers(1, 30),
    st.lists(st.integers(-60, 60), max_size=6),
    st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12)), max_size=12),
    st.integers(0, 70),
)
@example(6, [5, 4, 9, 7], [(2, 5), (3, 1), (0, 7), (-1, 11)], 20)  # non-units 4 and 9, r != 1, shifts <= 0
@example(1, [3, 0, -4], [(2, 3), (-1, 1), (0, 5)], 6)  # a == 1: every (c, shift, w) is a row
@example(7, [3, 5, 6], [(1, 2), (1, 3), (-13, 4), (8, 2)], 3)  # W below a
@example(5, [2, 3], [(-5, 2), (0, 3), (4, 4)], 0)  # W == 0
def test_both_walks_list_the_brute_rows(a, c_values, pairs, W):
    # each walk forced over the same columns, and progressions' choice over all of c_values
    pairs = [(s, r) for s, r in pairs if gcd(r, a) == 1]
    want = brute_rows(a, c_values, pairs, W)
    rho, d, r = columns_of(a, pairs)
    units = [c for c in c_values if gcd(c, a) == 1]
    c, inv = (np.array(v, dtype=np.int64) for v in (units, [pow(x, -1, a) for x in units]))
    assert_rows(stepping._join(a, c, rho, W, d, r), want)
    assert_rows(stepping._start(a, c, inv, rho, W, d, r), want)
    assert_rows(progressions(a, c_values, rho, W, d, r), want)
    if all(r == 1):  # thm2's r = 1, which gathers nothing
        assert_rows(progressions(a, c_values, rho, W, d, 1), want)


@pytest.mark.parametrize("shifts, joins", [([1, 5, -3, 2, 9], False), ([1, 5, -3, 2, 9, 4], True)])
def test_progressions_strategy_boundary(monkeypatch, shifts, joins):
    # the join runs exactly when #units * W + a < #units * #shifts, here 2*3 + 4
    # against 2 * #shifts, whether or not the non-unit 2 is passed too;
    # test_progressions_match_brute checks the rows of both cases
    calls = []
    for name in ("_join", "_start"):
        walk = getattr(stepping, name)
        monkeypatch.setattr(stepping, name, lambda *args, name=name, walk=walk: calls.append(name) or walk(*args))
    for c_values in ([3, 7], [2, 3, 7]):
        calls.clear()
        solutions(4, c_values, shifts, 3)
        assert calls == ["_join" if joins else "_start"], c_values


def test_start_walk_lists_no_non_units():
    # stepping by a from c^-1 has no meaning for gcd(c, a) > 1: such a c lists no rows
    assert_rows(solutions(6, [5, 4, 9], [2], 20), progression_rows(6, [5], [2], 20))
    u, w = solutions(3_037_000_499, [1, -13], [1], 5)  # 13 divides this a
    assert (u.tolist(), w.tolist()) == ([0], [1])


def test_start_walk_peak_is_three_row_arrays():
    # one shift and a long w range take the start walk; at its peak it holds its
    # grids of u and w, their mask and the rows of u, beside no other row-sized array
    c = np.array([c for c in range(1, 40_000) if c % 7], dtype=np.int64)  # 34,285 units mod 7
    tracemalloc.start()
    try:
        u, w = solutions(7, c, [1], 700)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.size == c.size * 100
    assert peak <= 3.25 * u.nbytes, peak / u.nbytes


def test_join_refuses_moduli_past_int64_before_any_walk(monkeypatch):
    # many shifts and a short w range; the join's bincount would have length a,
    # but a^2 >= 2^63 is refused before the Euler power or either walk runs
    for name in ("_join", "_start", "_powmod"):
        monkeypatch.setattr(stepping, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    with pytest.raises(ResourceLimit, match="beyond int64"):
        solutions(2**32, [3, 4], range(20), 1)


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


@st.composite
def moduli_and_residues(draw):
    """(a, x): a = 1, a prime power, or the largest a with a^2 < 2^63; residues x mod a."""
    prime_power = st.tuples(st.sampled_from([2, 3, 7, 101, 46_337]), st.integers(1, 6)).map(lambda pe: pe[0] ** pe[1])
    a = draw(st.one_of(st.just(1), prime_power.filter(lambda a: a * a < 2**63), st.just(3_037_000_499)))
    return a, draw(st.lists(st.one_of(st.integers(0, a - 1), st.sampled_from([0, 1, a - 1])), max_size=30))


@PROFILE
@given(moduli_and_residues())
@example((1, [0, 0]))  # every residue is 0, a unit whose inverse is 0
@example((2, [0, 1]))  # phi(2) - 1 = 0: x^0 is 1, and 0 is no unit
@example((3_037_000_499, [1, 2, 13, 233_615_423, 3_037_000_498]))  # products near 2^63
@example((46_341, [0, 1, 2, 46_339, 46_340]))  # the last int32 modulus: (a - 1)^2 < 2^31
@example((46_342, [0, 1, 2, 46_340, 46_341]))  # the first int64 one: (a - 1)^2 passes 2^31
@example((8, [0, 1, 2, 3, 4, 5, 6, 7]))  # lambda(8) = 2 < phi(8) = 4: 2^1 = 2 but 2^3 = 0 mod 8
@example((16, [0, 2, 3, 8, 15]))
@example((30_030, [0, 1, 2, 13, 17, 30_029]))  # lambda = 60 against phi = 5,760
def test_powmod_inverts_units(case):
    a, x = case
    xs = np.array(x, dtype=np.int64)
    e = multiplicative_functions(a)[0] - 1
    expected = [pow(v, -1, a) if gcd(v, a) == 1 else pow(v, e, a) for v in x]
    assert _powmod(xs, e, a).tolist() == expected
    # the kernel raises to lambda(a) - 1, not phi(a) - 1, so it pins only the inverses of units
    inv, unit = _unit_inverse(xs, a)
    assert unit.tolist() == [gcd(v, a) == 1 for v in x]
    assert inv[unit].tolist() == [pow(v, -1, a) for v in x if gcd(v, a) == 1]


@pytest.mark.parametrize("a", [1, 2, 4, 8, 16, 2 * 3 * 5 * 7 * 11 * 13, 46_341, 46_342])
def test_unit_inverse_matches_pow_on_every_residue(a):
    # every residue, once by the table (a <= #c) and once directly (#c < a), against pow(x, -1, a)
    x = np.arange(a, dtype=np.int64)
    for c in (x, x[1:]):
        inv, unit = _unit_inverse(c, a)
        units = [v for v in c.tolist() if gcd(v, a) == 1]
        assert c[unit].tolist() == units and inv[unit].tolist() == [pow(v, -1, a) for v in units]


def test_carmichael_is_the_exponent_of_the_unit_group():
    # lambda(a) is the lcm of the orders of the units mod a; x^(lambda - 1) inverts them
    for a in range(1, 130):
        units = [x for x in range(a) if gcd(x, a) == 1]
        orders = [next(k for k in count(1) if pow(x, k, a) == 1 % a) for x in units]
        assert stepping._carmichael(a) == lcm(*orders), a


def test_inverse_tables_cold_and_warm_agree(empty_tables):
    c = np.arange(-500, 2_500, 7, dtype=np.int64)  # 429 values: every a <= 429 takes the table
    for a in (1, 2, 8, 30, 97, 210, 420):
        cold = _unit_inverse(c, a)
        assert a in stepping._TABLES
        warm = _unit_inverse(c, a)
        assert all(np.array_equal(u, v) and u.dtype == v.dtype for u, v in zip(cold, warm)), a


def test_inverse_tables_are_read_only(empty_tables):
    c = np.arange(100, dtype=np.int64)
    inv, unit = _unit_inverse(c, 30)
    held = stepping._TABLES[30]
    assert not any(t.flags.writeable for t in held)
    with pytest.raises(ValueError):
        held[0][7] = 0
    inv[:], unit[:] = 0, False  # the caller's copies
    inv, unit = _unit_inverse(c, 30)
    assert unit.tolist() == [gcd(x, 30) == 1 for x in range(100)]
    assert inv[unit].tolist() == [pow(x, -1, 30) for x in range(100) if gcd(x, 30) == 1]


def test_inverse_tables_stay_within_their_budget(empty_tables):
    # past a = 46,341 a table is int64 and bool, 9 bytes a residue: three fill 1 MiB
    for a in range(50_000, 100_000, 7_001):
        _unit_inverse(np.arange(a, dtype=np.int64), a)
        held = [t.nbytes for table in stepping._TABLES.values() for t in table]
        assert stepping._held == sum(held) <= stepping.TABLE_BYTES, a
        assert next(reversed(stepping._TABLES)) == a  # the newest is kept, the oldest went first
    oversized, held = stepping.TABLE_BYTES // 9 + 1, list(stepping._TABLES)
    inv, unit = _unit_inverse(np.arange(oversized, dtype=np.int64), oversized)
    assert list(stepping._TABLES) == held  # neither kept nor pushing the kept tables out
    assert inv[unit][:3].tolist() == [1, pow(2, -1, oversized), pow(3, -1, oversized)]


def test_decompositions_invert_each_modulus_once(monkeypatch, empty_tables):
    # both decompositions and both count_hits passes share one table per modulus, #C >= a
    powered = []
    powmod = stepping._powmod
    monkeypatch.setattr(stepping, "_powmod", lambda x, e, m: powered.append(m) or powmod(x, e, m))
    A, C = [30, 77, 105, 105, 143, 210], list(range(2, 800, 3))
    multiplicative_decomposition(A, C, 60)
    additive_decomposition(A, C, 0.5)
    assert sorted(powered) == sorted(set(A))


@PROFILE
@given(
    st.integers(1, 40),
    st.lists(st.integers(-60, 60), min_size=1, max_size=30),
    st.lists(st.integers(-100, 100), min_size=1, max_size=5),
    st.integers(1, 6),
)
@example(7, [3], [1, 2], 4)  # one shift
@example(5, [4, 4, 4, 4], [1, 3], 6)  # all shifts equal
@example(5, [4, 9, -1, 2, 7, 4], [2, 5], 3)  # repeated residues, repeated shifts
@example(99_991, [99_990, -1, 0, 99_990, 1], [1, -1, 99_990], 2)  # residues near a: sh*n + k near a*n
def test_join_groups_shifts_as_the_stable_argsort(a, shifts, c_values, W):
    # every (c, w) cell matches its shifts in the order of the stable argsort of the
    # residues, each row's u = r*(c*w // a) + d from its own shift's d and r
    order = np.argsort(np.array(shifts) % a, kind="stable").tolist()
    d, r = [100 * j - 7 for j in range(len(shifts))], [j % 3 + 1 for j in range(len(shifts))]
    want = [
        (r[j] * (c * w // a) + d[j], w)
        for c in c_values
        for w in range(1, W + 1)
        for j in order
        if (c * w - shifts[j]) % a == 0
    ]
    rho, d, r = (np.array(v, dtype=np.int64) for v in (np.array(shifts) % a, d, r))
    u, w = stepping._join(a, np.array(c_values, dtype=np.int64), rho, W, d, r)
    assert list(zip(u.tolist(), w.tolist())) == want


@pytest.mark.parametrize("a, dtype", [(46_341, np.int32), (46_342, np.int64)])
def test_unit_inverse_and_count_hits_at_the_int32_edge(a, dtype):
    # the Euler power runs in int32 exactly while (a - 1)^2 < 2^31: (a - 1)^2 is the
    # square of x = a - 1, which wraps int32 at a = 46,342, so a guard one off fails
    x = [0, 1, 2, a - 2, a - 1]
    direct = np.array(x, dtype=np.int64)  # #c < a: the power runs over c mod a
    table = np.resize(direct, a) + a * np.arange(a)  # #c == a: over the a residues
    W = 2 * a + 3  # two full residue classes and part of a third
    for c in (direct, table):
        inv, unit = _unit_inverse(c, a)
        assert inv.dtype == dtype
        want = [pow(v, -1, a) if gcd(v, a) == 1 else None for v in c.tolist()]
        assert [v if u else None for v, u in zip(inv.tolist(), unit.tolist())] == want
        closed = sum(W // a + (1 <= v <= W % a) for v in want if v is not None)
        assert count_hits([a], c, W) == closed
    assert count_hits([a], x, W) == brute_linear_count([a], x, W, 1).count


def test_powmod_zero_exponent_is_reduced():
    # x^0 is 1 mod m: 0 when m == 1
    assert _powmod(np.array([0, 0]), 0, 1).tolist() == [0, 0]
    assert _powmod(np.array([0, 1]), 0, 2).tolist() == [1, 1]


def test_count_hits_refuses_moduli_past_int64():
    # a^2 >= 2^63: refused before a is factored, with or without a coefficient
    for c_values in ([3], []):
        with pytest.raises(ResourceLimit):
            count_hits([2**32], c_values, 1)
    with pytest.raises(ResourceLimit):
        additive_decomposition([2**32], [3], 0.5)


@PROFILE
@given(moduli_and_coefficients(), st.integers(-50, 400))
@example((6, [5, 11, -1, 17, 5]), 20)  # one residue, five c: each c counts
@example((12, [0, 24, -36, 6, 9, -4, 5]), 30)  # c == 0 (mod a) and gcd(c, a) > 1
@example((1, [-3, 0, 5]), 4)  # a == 1: every (c, w) is a hit
@example((7, [3, 5, 6]), 21)  # W a multiple of a: no partial residue class
@example((7, [3, 5, 6]), 4)  # W below a
@example((7, [3, 5, 6]), 0)
@example((7, [3, 5, 6]), -3)  # W < 0 counts nothing, as W == 0 does
@example((1, [2, 4]), -1)
@example((7, []), 10)
def test_count_hits_matches_brute(case, W):
    # the closed form counts each unit's one progression w == c^-1 (mod a)
    a, c_values = case
    assert count_hits([a], c_values, W) == brute_linear_count([a], c_values, W, 1).count
    # c*w == 1 (mod a) makes c a unit: the others count nothing
    assert count_hits([a], [c for c in c_values if gcd(c, a) > 1], W) == 0


@pytest.mark.filterwarnings("error")  # a numpy warning would mean the kernel saw the modulus
def test_kernel_refuses_moduli_below_1():
    for a in (0, -5):
        with pytest.raises(DomainError):
            count_hits([7, a], [3, 4], 10)
        with pytest.raises(DomainError):
            progressions(a, [3], [1], 5, np.zeros(1, dtype=np.int64), 1)
        with pytest.raises(DomainError):
            progressions(a, [3, 4], list(range(20)), 1, np.zeros(20, dtype=np.int64), 1)  # many shifts: the join


def progression_rows(a, c_values, shifts, W):
    """The (u, w) rows of solutions(a, c_values, shifts, W) for units c mod a, one
    list per c, in Python ints, one pow per (c, shift) cell."""
    return [
        [((c * w - shift) // a, w) for shift in shifts for w in range(shift * pow(c, -1, a) % a or a, W + 1, a)]
        for c in c_values
    ]


def test_kernel_at_largest_modulus():
    # the largest a with a^2 < 2^63, where the Euler power's products of two
    # residues come closest to int64; a = 13 * 233,615,423
    a = 3_037_000_499
    assert a**2 < 2**63 <= (a + 1) ** 2
    # c*w - shift stays within int64 for w <= W = a and |c| < a
    c_values = [1, 2, -1, a - 1, -(a - 2), a * 1000 // 1618, 14, 2**31 - 1]
    shifts = [1, a - 1, -(a - 2), 13 * 5, 233_615_423]
    assert_rows(solutions(a, c_values, shifts, a), progression_rows(a, c_values, shifts, a))
    # the non-units are counted, never listed, and reach 1 at no w
    counted = c_values + [13, 13 * 7, -13 * 233_615_422, 233_615_423 * 2, -233_615_423 * 3]
    as_list = count_hits([a], counted, a)
    assert count_hits([a], np.array(counted, dtype=np.int64), a) == as_list
    # w <= W = a holds one term of each unit's progression of step a
    assert as_list == sum(gcd(c, a) == 1 for c in counted)
    with pytest.raises(ResourceLimit):
        solutions(a + 1, [1], [1], 1)
    # an int64 array is range-checked as a list is, down to -2^63
    for c in (2**62 + 1, -(2**62) - 1, -(2**63)):
        with pytest.raises(ResourceLimit):
            count_hits([3], np.array([c], dtype=np.int64), 2)
    assert count_hits([3], np.array([2**62, -(2**62)], dtype=np.int64), 1) == 1  # 2^62 == 1 (mod 3)


@pytest.mark.parametrize("form", [list, lambda v: np.array(v, dtype=np.int64)], ids=["list", "ndarray"])
def test_shifts_refused_at_the_same_int64_edge(form):
    # c*w - shift must fit in int64: with c*W = 2 a shift may reach 2^63 - 3 in size,
    # whether the shifts come as a list or as an int64 array bounded by its min and max
    for shifts in ([5, 2**63 - 3], [-(2**63) + 3, 1]):
        assert count_hits([3], [2], 1, form(shifts)) == len(solutions(3, [2], form(shifts), 1)[0])
    for shifts in ([5, 2**63 - 2], [-(2**63) + 2, 1], [-(2**63)]):
        with pytest.raises(ResourceLimit, match="beyond int64"):
            count_hits([3], [2], 1, form(shifts))
        with pytest.raises(ResourceLimit, match="beyond int64"):
            solutions(3, [2], form(shifts), 1)


@PROFILE
@given(st.lists(st.integers(-20, 40), max_size=30))
@example([3, 3, 5, 5, 7, 7])
def test_pair_collision_stats_matches_brute(values):
    vals = sorted(values)
    tally = Counter(c - cp for i, c in enumerate(vals) for cp in vals[:i] if c != cp)
    best = min(tally, key=lambda n: (-tally[n], n), default=0)
    assert pair_collision_stats(values) == (tally[best], best)


@st.composite
def key_arrays(draw):
    """(dtype, keys): int32 or int64 keys, the dtype's least and greatest values among the draws."""
    info = np.iinfo(draw(st.sampled_from([np.int32, np.int64])))
    keys = st.lists(st.one_of(st.integers(-6, 6), st.sampled_from([info.min, info.max])), min_size=1, max_size=40)
    return info.dtype, draw(keys)


I64, I32 = np.dtype(np.int64), np.dtype(np.int32)


@PROFILE
@given(key_arrays())
@example((I64, [7]))
@example((I64, [3] * 9))
@example((I64, [1, 1, 1, 2, 3, 3]))  # the longest run at the start
@example((I64, [1, 2, 2, 3, 3, 3]))  # and at the end
@example((I64, [5, 5, -2, -2, 9]))  # a tie: the smaller key wins
@example((I64, [2**63 - 1, -(2**63), 2**63 - 1, 0]))
@example((I32, [2**31 - 1, -(2**31), 2**31 - 1, 0, -(2**31)]))  # a tie at the int32 ends
def test_popular_bucket_matches_counter(case):
    dtype, keys = case
    tally = Counter(keys)
    best = min(tally, key=lambda k: (-tally[k], k))
    array = np.array(keys, dtype=dtype)
    key, stats = popular_bucket(array, lambda k: (k,))
    assert key == (best,)
    assert (stats["max_load"], stats["nonempty_buckets"], stats["total_hits"]) == (tally[best], len(tally), len(keys))
    assert array.tolist() == sorted(keys)  # sorted in place


def test_int64_limit():
    # c*w - 1 passes int64 at w = 2, so the kernel refuses rather than wrap, also
    # for c = q*r with neither factor near the limit: 2^62 + 1 = 5 * 922,337,203,685,477,581
    S = primes_of([2, 3], [2**62 + 1])
    r = (2**62 + 1) // 5
    with pytest.raises(ResourceLimit):
        thm1_harvest([3], [2**62 + 1], [1], 2, S, CAP)
    with pytest.raises(ResourceLimit):
        thm1_harvest([3], [5], [r], 2, S, CAP)
    with pytest.raises(ResourceLimit):
        count_hits([3], [2**62 + 1], 2)
    with pytest.raises(ResourceLimit):
        solutions(2**32, [3], [1], 1)  # a^2 passes int64
    # both decompositions count with the kernel before C reaches an int64 array
    with pytest.raises(ResourceLimit):
        multiplicative_decomposition([3], [2**63 + 1], 2)
    with pytest.raises(ResourceLimit):
        additive_decomposition([3], [2**63 + 1], 0.5)
    # one step below the limit the exact harvest still runs: 2 * 2**61 + 1 = 2**62 + 1
    for q_values, r_values in (([2**62 + 1], [1]), ([5], [r])):
        rep = thm1_harvest([2], q_values, r_values, 1, S, CAP)
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
    _, stats, popular, bucket, _ = _linear_harvest(a_values, [1], c_values, [1], W, CAP)
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
        _linear_harvest(a_values, [1], c_values, [1], W, CAP)


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


def smooth_set(values):
    """A SmoothSet of explicit sorted values, each member trial-factored, as
    perfbench's `_smoothset` builds one."""
    members = tuple(FactoredInt(v, trial_factor(v)) for v in values)
    primes = sorted({p for m in members for p, _ in m.factors})
    return SmoothSet(PrimeSet(tuple(primes)), values[0], values[-1], members)


def test_decompositions_take_any_iterable_of_ints():
    # a sorted tuple, a list, an unsorted tuple and a SmoothSet of the same
    # values give identical results: both decompositions sort the moduli they sum over
    T = PrimeSet((2, 3, 5, 7, 11, 13))
    A, C = enumerate_squarefree_smooth(T, 60, 200), enumerate_squarefree_smooth(T, 2, 400)
    inputs = [(A, C), (list(A), list(C)), (A[::-1], C[::-1]), (smooth_set(A), smooth_set(C))]
    mult = [multiplicative_decomposition(a, c, 150) for a, c in inputs]
    add = [additive_decomposition(a, c, 0.5) for a, c in inputs]
    assert mult[0][2] > 0 and add[0].exact_count > 0
    assert mult[0] == mult[1] == mult[2] == mult[3]
    assert add[0] == add[1] == add[2] == add[3]
    assert add[0].rows == add[1].rows == add[2].rows == add[3].rows


def test_empty_coefficient_sets():
    S = PrimeSet((2, 3, 5))
    for sets in (([], [3], [2]), ([5], [], [2]), ([5], [3], [])):
        with pytest.raises(EmptyHarvest):
            thm1_harvest(*sets, 4, S, CAP)
    with pytest.raises(EmptyHarvest):
        thm2_harvest([5], [], [3], 10, S, CAP)
