import itertools
import random
from math import floor, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sunit_harvest import siegel
from sunit_harvest.errors import DomainError, ResourceLimit
from sunit_harvest.siegel import (
    INT64_MAX,
    SCAN_BUDGET,
    nonzero_vectors,
    siegel_nonzero_coords,
    siegel_small_solution,
)

PROFILE = settings(derandomize=True, max_examples=60, deadline=None)


def exhaustive_solutions(alpha, bound):
    """Every nonzero z with |z_i| <= bound and sum alpha_i z_i = 0."""
    n = len(alpha)
    C = floor(bound)
    sols = set()
    for z in itertools.product(range(-C, C + 1), repeat=n):
        if any(z) and sum(a * zi for a, zi in zip(alpha, z)) == 0:
            sols.add(z)
    return sols


def rank(z):
    """Magnitudes first, then signs, + before -."""
    return tuple(abs(v) for v in z) + tuple(v < 0 for v in z)


def test_examples():
    s = siegel_small_solution((1, -1), 1)
    assert s.z == (1, 1) and s.bound == 2.0
    s = siegel_small_solution((3, 5, 7), 7)
    assert s.z in exhaustive_solutions((3, 5, 7), s.bound)
    s = siegel_small_solution((1, 1, 1), 1)
    assert s.z in exhaustive_solutions((1, 1, 1), 3**0.5)


def test_preconditions():
    with pytest.raises(DomainError):
        siegel_small_solution((10, 1), 5)  # |alpha| > B
    with pytest.raises(DomainError):
        siegel_small_solution((0, 0), 3)
    with pytest.raises(DomainError):
        siegel_small_solution((1,), 3)


def test_scan_side_budget():
    # n = 3: the side C + 1 = floor(sqrt(3B)) + 1 reaches the budget, and the
    # scan stops in its first row; one more B is refused before any scan
    B = (SCAN_BUDGET**2 - 1) // 3
    assert siegel_small_solution((1, 1, 1), B).z == (0, 1, -1)
    with pytest.raises(ResourceLimit):
        siegel_small_solution((1, 1, 1), B + 1)
    # n = 2: the side 2B + 1 reaches the budget, and the scan collides at its second point;
    # past it the side is refused before any point is walked
    assert siegel_small_solution((1, 0), (SCAN_BUDGET - 1) // 2).z == (0, 1)
    for B in (SCAN_BUDGET // 2, 10**12, 10**400):
        with pytest.raises(ResourceLimit):
            siegel_small_solution((1, 2), B)


@pytest.mark.parametrize(
    "alpha, B, walked",
    [
        ((1, 2), 3, 15),  # y = (0, 0..6) and (1, 0..6) differ in value, then (2, 0) meets (0, 1)
        ((1, 5, 7), 7, 10),  # C = 4: the rows m1 = 0 and m1 = 1 of (m1, m2) cells
    ],
)
def test_scan_walk_budget(monkeypatch, alpha, B, walked):
    # the scan counts its points as it walks: a budget of exactly its walk runs, one less stops it
    monkeypatch.setattr(siegel, "SCAN_BUDGET", walked)
    sol = siegel_small_solution(alpha, B)
    assert sum(a * z for a, z in zip(alpha, sol.z)) == 0
    monkeypatch.setattr(siegel, "SCAN_BUDGET", walked - 1)
    with pytest.raises(ResourceLimit):
        siegel_small_solution(alpha, B)


def product_scan(alpha, B):
    """The collision scan over itertools.product of [0, C]^n, keeping one y tuple per value."""
    n = len(alpha)
    seen = {}
    for y in itertools.product(range(floor((n * B) ** (1 / (n - 1))) + 1), repeat=n):
        v = sum(a * yi for a, yi in zip(alpha, y))
        if v in seen:
            return tuple(yi - pi for yi, pi in zip(y, seen[v]))
        seen[v] = y


@pytest.mark.parametrize("n, B", [(2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (4, 2), (4, 3)])
def test_collision_scan_matches_product_scan(n, B):
    # every alpha in [-B, B]^n (a3 = 0 for n = 3, which takes the collision scan):
    # the index walk returns the z the tuple-keeping product scan did
    checked = 0
    for alpha in itertools.product(range(-B, B + 1), repeat=n):
        if not any(alpha) or (n == 3 and alpha[2]):
            continue
        assert siegel_small_solution(alpha, B).z == product_scan(alpha, B), alpha
        checked += 1
    assert checked >= 2 * B


def test_random_instances_respect_contract():
    rng = random.Random(2024)
    for _ in range(1500):
        n = rng.choice((2, 3, 4))
        B = rng.randint(1, 50)
        while True:
            alpha = tuple(rng.randint(-B, B) for _ in range(n))
            if any(alpha):
                break
        sol = siegel_small_solution(alpha, B)
        assert sum(a * z for a, z in zip(alpha, sol.z)) == 0
        assert any(sol.z)
        assert max(abs(z) for z in sol.z) <= (n * B) ** (1 / (n - 1)) + 1e-9


def test_n3_fast_path_in_oracle_set():
    # the least solution in [-C, C]^3 by rank when a3 != 0, else the collision (0, 0, 1)
    rng = random.Random(99)
    a3_zero = 0
    for _ in range(300):
        B = rng.randint(1, 20)
        while True:
            alpha = tuple(rng.randint(-B, B) for _ in range(3))
            if any(alpha):
                break
        sol = siegel_small_solution(alpha, B)
        window = exhaustive_solutions(alpha, (3 * B) ** 0.5)
        assert sol.z in window
        if alpha[2]:
            assert rank(sol.z) == min(map(rank, window)), alpha
        else:
            assert sol.z == (0, 0, 1), alpha
            a3_zero += 1
    assert a3_zero


def test_nonzero_coords_examples():
    sol = siegel_nonzero_coords((2, 3, 5), 5.0)
    assert sol.z == (1, 1, -1)
    # z1 = -5 z3 leaves the window: no all-nonzero solution
    assert siegel_nonzero_coords((1, 0, 5), 4.0) is None


@pytest.mark.parametrize(
    "alpha, cap",
    [((1, -1), 1.0), ((1, 2, 3, 4), 4.0), ((1, 0, 0), 4.0), ((2, 3, 0), 4.0), ((2, 3, 5), 0.5)],
)
def test_nonzero_coords_domain(alpha, cap):
    # three coefficients with a3 != 0 and cap >= 1; nonzero_vectors takes only prop1's part of it
    with pytest.raises(DomainError):
        siegel_nonzero_coords(alpha, cap)


def test_nonzero_coords_contract():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.choice((2, 3))
        alpha = tuple(rng.randint(-20, 20) for _ in range(n))
        if not any(alpha):
            continue
        cap = rng.uniform(1.0, 8.0)
        if n != 3 or alpha[2] == 0:
            continue
        sol = siegel_nonzero_coords(alpha, cap)
        window = exhaustive_solutions(alpha, cap)
        window = {z for z in window if all(z)}
        if sol is None:
            assert not window
        else:
            assert sol.z in window


def test_nonzero_coords_selection_is_minimal():
    # the chosen tuple is lexicographically smallest by magnitudes then signs
    rng = random.Random(17)
    for _ in range(150):
        alpha = tuple(rng.randint(-12, 12) for _ in range(3))
        if 0 in alpha or not any(alpha):
            continue
        sol = siegel_nonzero_coords(alpha, 6.0)
        if sol is None:
            continue
        window = {z for z in exhaustive_solutions(alpha, 6.0) if all(z)}
        assert rank(sol.z) == min(rank(z) for z in window)


@st.composite
def forms(draw):
    """(alpha, B): 2 to 4 coefficients bounded by B, not all zero."""
    n = draw(st.integers(2, 4))
    B = draw(st.integers(1, 40))
    alpha = draw(st.lists(st.integers(-B, B), min_size=n, max_size=n).filter(any))
    return tuple(alpha), B


@PROFILE
@given(forms())
@example(((1, -1), 1))
@example(((0, 0, 3), 3))  # n = 3 with the fast path's a3 != 0
@example(((2, 3, 0), 3))  # a3 == 0: (0, 0, 1)
@example(((40, -40, 40, 39), 40))
def test_small_solution_bound_property(case):
    alpha, B = case
    n = len(alpha)
    sol = siegel_small_solution(alpha, B)
    assert any(sol.z)
    assert sum(a * z for a, z in zip(alpha, sol.z)) == 0
    assert max(map(abs, sol.z)) <= (n * B) ** (1 / (n - 1)) + 1e-9


# positive coefficients up to 10^6, small ones weighted so that most rows have a vector
coefficient = st.integers(1, 40) | st.integers(1, 10**6)


@st.composite
def searches(draw):
    """([a1, ...], [(a2, a3), ...], M): one to four a1, coefficients >= 1, coprime (a2, a3)."""
    a1_values = draw(st.lists(coefficient, min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(coefficient, coefficient).filter(lambda p: gcd(*p) == 1), min_size=1, max_size=6))
    return a1_values, pairs, draw(st.integers(1, 60))


def assert_matches_oracle(a1_values, pairs, M):
    """nonzero_vectors selects, row by (a1, pair) row in a1-major order, what the
    scalar search selects."""
    z, found = nonzero_vectors(a1_values, pairs, M)
    rows = [(a1,) + tuple(pair) for a1 in a1_values for pair in pairs]
    assert z.shape == (len(rows), 3) and found.shape == (len(rows),)
    for r, alpha in enumerate(rows):
        sol = siegel_nonzero_coords(alpha, M)
        assert found[r] == (sol is not None), alpha
        assert tuple(z[r].tolist()) == (sol.z if sol else (0, 0, 0)), alpha


@PROFILE
@given(searches())
@example(([1], [(1, 5), (1, 1)], 1))  # M = 1; 1 +- 1 +- 5 != 0 leaves no vector
@example(([1, 3], [(1, 1), (3, 1)], 2))  # equal coefficients
@example(([6], [(3, 2)], 5))  # z3 = 0 at the class's first member
@example(([40], [(40, 1), (39, 40)], 13))
@example(([999_983], [(1_000_000, 999_999), (1, 10**6)], 60))
@example(([1, 4, 5, 2], [(5, 53), (4, 45), (1, 45), (1, 53), (2, 7), (1, 29)], 9))  # rows solved at different m1 blocks
def test_batched_search_matches_scalar_oracle(case):
    assert_matches_oracle(*case)


def test_batched_search_spans_chunks(monkeypatch):
    # chunks of three rows: each block splits the pending rows over several chunks
    sizes = []
    block = siegel._block

    def spied(a1, *args):
        sizes.append(len(a1))
        return block(a1, *args)

    monkeypatch.setattr(siegel, "CHUNK", 3)
    monkeypatch.setattr(siegel, "_block", spied)
    rng = random.Random(11)
    for _ in range(40):
        a1_values = [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]
        pairs = []
        while len(pairs) < rng.randint(1, 12):
            a2, a3 = rng.randint(1, 40), rng.randint(1, 40)
            if gcd(a2, a3) == 1:
                pairs.append((a2, a3))
        assert_matches_oracle(a1_values, pairs, rng.randint(1, 14))
    assert max(sizes) == 3 and len(sizes) > 40 * 4


def test_batched_search_mixes_scalar_and_fast_rows(monkeypatch):
    # a1 = 2^64 sends its rows to the scalar search, and so does the pair with
    # a3 past int64 for every a1; the other rows of the same call stay fast
    calls = []

    def counted(*args):
        calls.append(args[0])
        return siegel_nonzero_coords(*args)

    monkeypatch.setattr(siegel, "siegel_nonzero_coords", counted)
    a1_values, pairs = [3, 2**64, 5], [(1, 2), (2, 3), (5, 2**64)]
    assert_matches_oracle(a1_values, pairs, 4)
    # in row order, a1-major
    assert calls == [(3, 5, 2**64), (2**64, 1, 2), (2**64, 2, 3), (2**64, 5, 2**64), (5, 5, 2**64)]


def test_batched_search_steps_past_z3_zero():
    for alpha, M, want in [
        ((3, 3, 2), 2, None),  # 3*2 - 3*m2 = 0 at m2 = 2; the next of its class, m2 = 4, is past M
        ((3, 3, 2), 3, (1, 1, -3)),  # 3*1 - 3*m2 = 0 at m2 = 1, and m2 = 1 with s2 > 0 ranks first
        ((6, 3, 2), 5, (1, -4, 3)),  # 6*1 - 3*m2 = 0 at m2 = 2, then m2 = 4 in steps of 2
        ((2, 2, 1), 2, (1, -2, 2)),  # 2*1 + 2*m2 needs |z3| >= 4 > M
    ]:
        a1, a2, a3 = alpha
        z, found = nonzero_vectors([a1], [(a2, a3)], M)
        assert found[0] == (want is not None), alpha
        assert tuple(z[0].tolist()) == (want or (0, 0, 0)), alpha
        assert_matches_oracle([a1], [(a2, a3)], M)


def test_batched_search_domain():
    # coefficients >= 1 with coprime (a2, a3), and M >= 1: what prop1 passes
    for a1_values, pairs, M in [
        ([3], [(1, 3), (2, 0)], 4),  # a3 = 0
        ([3], [(0, 5)], 4),  # a2 = 0
        ([0, 2], [(1, 3)], 4),  # a1 = 0
        ([3], [(-1, 3)], 4),
        ([3], [(1, -3)], 4),
        ([-3], [(1, 3)], 4),
        ([3], [(1, 3), (4, 6)], 4),  # gcd(a2, a3) = 2
        ([1], [(10, 15)], 5),
        ([3], [(1, 3)], 0),
    ]:
        with pytest.raises(DomainError):
            nonzero_vectors(a1_values, pairs, M)
    z, found = nonzero_vectors([3], [], 4)
    assert z.shape == (0, 3) and found.shape == (0,)
    z, found = nonzero_vectors([], [(1, 3)], 4)
    assert z.shape == (0, 3) and found.shape == (0,)


L = INT64_MAX // 4  # at M = 3 the interval ends reach (a1 + a2 + a3) * (M + 1): the fast rows' limit on the sum


@pytest.mark.parametrize(
    "alpha, scalar",
    [
        # a1 = 2*a2 + a3, so z = (1, -2, -1): the sum at L, then at L + 1
        ((2 * (L - 4) // 3 + 2, (L - 4) // 3, 2), False),
        ((2 * (L - 1) // 3 + 1, (L - 1) // 3, 1), True),
        ((2**64 + 1, 2**64, 1), True),  # past int64 altogether
        # a2 = 1: the class start multiplies two residues mod a3, up to (a3 - 1)^2
        ((3_037_000_499, 1, 3_037_000_500), False),
        ((3_037_000_500, 1, 3_037_000_501), True),
    ],
)
def test_batched_search_int64_limit(monkeypatch, alpha, scalar):
    want = siegel_nonzero_coords(alpha, 3).z
    calls = []

    def counted(*args):
        calls.append(args[0])
        return siegel_nonzero_coords(*args)

    monkeypatch.setattr(siegel, "siegel_nonzero_coords", counted)
    a1, a2, a3 = alpha
    z, found = nonzero_vectors([a1], [(a2, a3)], 3)
    assert found[0] and tuple(z[0].tolist()) == want
    assert calls == ([alpha] if scalar else [])
