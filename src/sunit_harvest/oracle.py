"""Brute-force ground truth for the pipelines and decompositions.

These enumerators are deliberately naive (nested exponent loops, triple loops,
no residue stepping, no characters) so that agreement with the fast paths is a
meaningful check rather than a shared failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .arith import PrimeSet
from .errors import DomainError, ResourceLimit

DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class OracleResult:
    query: str
    solutions: tuple
    count: int
    effort: int


def sunits_up_to(S: PrimeSet, bound: int, budget: int = DEFAULT_BUDGET) -> list[int]:
    """All S-units (products of powers of primes in S, including 1) up to bound."""
    units = [1]
    steps = 0
    for p in S.primes:
        extended = []
        for u in units:
            v = u * p
            while v <= bound:
                steps += 1
                if steps > budget:
                    raise ResourceLimit(f"S-unit enumeration beyond {budget} steps")
                extended.append(v)
                v *= p
        units.extend(extended)
    units.sort()
    return units


def brute_sunit_pairs(S: PrimeSet, bound: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """All pairs (A, A+1) with both sides S-units and A + 1 <= bound."""
    units = sunits_up_to(S, bound, budget)
    members = set(units)
    sols = tuple((A, A + 1) for A in units if A + 1 <= bound and A + 1 in members)
    return OracleResult(
        f"sunit_pairs primes={list(S.primes)} bound={bound}",
        sols,
        len(sols),
        len(units),
    )


def brute_linear_count(
    a_values: Sequence[int],
    c_values: Sequence[int],
    W: int,
    shift: int,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Triple loop counting c*w == shift (mod a) over all (a, c, w <= W)."""
    if any(a < 1 for a in a_values):
        raise DomainError("moduli must be >= 1")
    effort = len(a_values) * len(c_values) * max(W, 0)
    if effort > budget:
        raise ResourceLimit(f"triple loop of {effort} steps beyond budget {budget}")
    count = 0
    for a in a_values:
        for c in c_values:
            for w in range(1, W + 1):
                if (c * w - shift) % a == 0:
                    count += 1
    return OracleResult(
        f"linear_count #A={len(a_values)} #C={len(c_values)} W={W} shift={shift}",
        (),
        count,
        effort,
    )


def brute_prop1_triples(S: PrimeSet, bound: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """All coprime triples (a, b, c), a <= b, a + b = c <= bound, a b c S-units."""
    units = sunits_up_to(S, bound, budget)
    members = set(units)
    sols = []
    steps = 0
    for i, a in enumerate(units):
        if 2 * a > bound:
            break
        for b in units[i:]:
            c = a + b
            if c > bound:
                break
            steps += 1
            if steps > budget:
                raise ResourceLimit(f"pair loop beyond {budget} steps")
            if c in members and gcd(a, b) == 1:
                sols.append((a, b, c))
    sols.sort()
    return OracleResult(
        f"prop1_triples primes={list(S.primes)} bound={bound}",
        tuple(sols),
        len(sols),
        steps,
    )
