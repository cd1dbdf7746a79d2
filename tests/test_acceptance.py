"""Acceptance suite: one test per criterion, each printing a pass line with its
elapsed time and asserting the stated runtime budget.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time
from math import ceil, gcd

import numpy as np

from conftest import oracle_character, oracle_gauss_sum
from sunit_harvest.arith import PrimeSet, trial_factor
from sunit_harvest.characters import (
    all_characters,
    large_sieve_check,
    multiplicative_decomposition,
    polya_vinogradov_check,
    primitive_decomposition_check,
)
from sunit_harvest.circle import additive_decomposition
from sunit_harvest.exponents import (
    check_constraints,
    cubic_real_root,
    optimality_frontier,
)
from sunit_harvest.oracle import (
    brute_linear_count,
    brute_prop1_triples,
    brute_sunit_pairs,
)
from sunit_harvest.pipelines import (
    config_from_exponents,
    prop1_config,
    prop1_run,
    thm1_run,
    thm2_run,
    verify_sunit_solution,
)
from sunit_harvest.siegel import siegel_small_solution
from sunit_harvest.smooth import enumerate_squarefree_smooth, split_disjoint_prime_sets

SEED = 20240601

THM1_T1 = PrimeSet((2, 3, 17, 19, 23, 29, 31, 37, 41, 43))
THM1_T2 = PrimeSet((5, 7, 11, 13, 101, 103, 107, 109, 113, 127))
THM1_T3 = PrimeSet((53, 59, 61, 67, 71, 73, 79, 83, 89, 97))

THM2_T1 = PrimeSet((37, 41, 43, 47, 53, 59, 61, 1097, 1103, 1109))
THM2_T2 = PrimeSet((2, 3, 5, 7, 11, 13, 17, 19, 23, 31))
THM2_T3 = PrimeSet((67, 71, 73, 79, 83, 89, 97, 113, 127, 131))


def _passline(n: int, t0: float, budget: float, detail: str):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS criterion {n} ({elapsed:.2f}s): {detail}")


def _squarefree(q: int) -> bool:
    return all(e == 1 for _, e in trial_factor(q))


def thm1_desk_config():
    return config_from_exponents(
        "thm1", 10**6, 1 / 6, "unconditional", 0.1, THM1_T1, THM1_T2, THM1_T3
    )


def thm2_desk_config():
    return config_from_exponents(
        "thm2", 10**5, 0.52, "unconditional", 0.1, THM2_T1, THM2_T2, THM2_T3
    )


def test_criterion_1_cubic_roots():
    t0 = time.time()
    lam0 = cubic_real_root((4, -5, 9, -4), 0.0, 1.0)
    lam1 = cubic_real_root((1, -2, -1, 1), 0.5, 1.0)
    assert abs(lam0 - 0.53551) <= 5e-6
    assert abs(lam1 - 0.55496) <= 5e-6
    _passline(1, t0, 1.0, f"lambda0={lam0:.7f}, lambda1={lam1:.7f}")


def test_criterion_2_regime_thresholds():
    t0 = time.time()
    lam0 = cubic_real_root((4, -5, 9, -4), 0.0, 1.0)
    lam1 = cubic_real_root((1, -2, -1, 1), 0.5, 1.0)
    targets = {
        ("thm1", "conditional"): 0.2,
        ("thm1", "unconditional"): 1 / 6,
        ("thm2", "conditional"): lam1,
        ("thm2", "unconditional"): lam0,
    }
    step = 1e-3
    for (theorem, variant), threshold in targets.items():
        lo = 0.5 if theorem == "thm2" else step
        flip = None
        last_ok = None
        for i in range(int(0.5 / step) + 1):
            alpha = lo + i * step
            ok = all(s for _, _, s in check_constraints(theorem, variant, alpha))
            if last_ok and not ok:
                flip = alpha
                break
            last_ok = ok
        assert flip is not None, (theorem, variant)
        assert abs(flip - threshold) <= step + 1e-9, (theorem, variant, flip)
    _passline(2, t0, 1.0, "feasibility flips at 1/5, 1/6, lambda1, lambda0 within 1e-3")


def test_criterion_3_frontier():
    t0 = time.time()
    theta0, base = optimality_frontier(2, ())
    assert theta0 == 0.0 and base == 0.125
    count = 0
    for k in range(2, 13):
        indices = list(range(2, k + 1))
        for bits in range(1 << len(indices)):
            I = tuple(indices[j] for j in range(len(indices)) if bits >> j & 1)
            _, val = optimality_frontier(k, I)
            assert val < 0.2, (k, I, val)
            count += 1
    _passline(3, t0, 10.0, f"{count} (k, I) pairs all below 1/5; k=2 empty set gives exactly 1/8")


def test_criterion_4_oracle_fixture():
    t0 = time.time()
    res = brute_sunit_pairs(PrimeSet((2, 3)), 100)
    assert res.solutions == ((1, 2), (2, 3), (3, 4), (8, 9))
    _passline(4, t0, 1.0, "brute_sunit_pairs({2,3}, 100) == {(1,2),(2,3),(3,4),(8,9)}")


def test_criterion_5_character_identities():
    t0 = time.time()
    # orthogonality, both directions, every squarefree modulus <= 210
    for a in (q for q in range(2, 211) if _squarefree(q)):
        table = all_characters(a)
        V = table.value_matrix()
        G = V @ V.conj().T
        assert np.abs(G - table.phi * np.eye(table.phi)).max() <= 1e-6, a
        G2 = V.conj().T @ V
        coprime = [x for x in range(a) if gcd(x, a) == 1]
        sub = G2[np.ix_(coprime, coprime)]
        assert np.abs(sub - table.phi * np.eye(len(coprime))).max() <= 1e-6, a

    # |tau|^2 == conductor across >= 50 squarefree moduli <= 1000, all characters
    rng = random.Random(SEED)
    sf1000 = [q for q in range(2, 1001) if _squarefree(q)]
    moduli = sorted(rng.sample(sf1000, 55))
    for a in moduli:
        table = all_characters(a)
        taus, conds = table.gauss_sums(), table.conductors()
        assert np.abs(np.abs(taus) ** 2 - conds).max() <= 1e-6, a
        # the arrays the large sieve and the PV bound read, against the value matrix and the oracle
        V = table.value_matrix()
        assert np.abs(taus - V @ np.exp(2j * np.pi * np.arange(a) / a)).max() <= 1e-6, a
        assert conds.tolist() == [oracle_character(a, i)[1] for i in range(table.phi)], a
    # spot agreement of the vectorized route with the direct evaluator
    tau, cond = oracle_gauss_sum(5, 0)
    assert abs(tau - (-1.0)) <= 1e-9 and cond == 1
    assert abs(all_characters(5).gauss_sums()[0] - tau) <= 1e-9

    # Polya-Vinogradov with conductor refinement: all squarefree q <= 300
    pv_worst = 0.0
    for q in (q for q in range(3, 301) if _squarefree(q)):
        rep = polya_vinogradov_check(q, q, 2 * q)
        pv_worst = max(pv_worst, rep.max_ratio)
        assert rep.passes, q
    assert pv_worst <= 1.0

    # Gauss-weighted large sieve with the explicit constant 7: 100 seeded trials
    sf50 = [q for q in range(2, 51) if _squarefree(q)]
    for _ in range(100):
        qs = sorted(rng.sample(sf50, k=rng.randint(1, 4)))
        Y = rng.randint(0, 100)
        Z = Y + rng.randint(1, 200)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(Z - Y)]
        lhs, rhs, holds = large_sieve_check(qs, Y, Z, coeffs)
        assert holds, (qs, Y, Z)

    # sieve-type primitive decomposition identity: 100 seeded (a, chi*, W)
    sf = [a for a in range(6, 211) if _squarefree(a)]
    done = 0
    while done < 100:
        a = rng.choice(sf)
        divisors = [d for d in range(2, a + 1) if a % d == 0 and _squarefree(d)]
        y = rng.choice(divisors)
        table = all_characters(y)
        index = rng.randrange(table.phi)
        if oracle_character(y, index)[1] != y:
            continue
        W = rng.randint(1, 300)
        lhs, rhs, equal = primitive_decomposition_check(a, y, index, W)
        assert equal and abs(lhs - rhs) <= 1e-6, (a, y, W)
        done += 1

    _passline(5, t0, 300.0, f"orthogonality, tau/conductor, PV (worst {pv_worst:.4f}), sieve, primitive decomposition")


def test_criterion_6_decomposition_exactness():
    t0 = time.time()
    rng = random.Random(SEED)
    sf1000 = [q for q in range(2, 1001) if _squarefree(q)]
    for _ in range(50):
        a_vals = sorted(rng.sample(sf1000, k=rng.randint(1, 3)))
        c_vals = sorted(rng.sample(range(2, 1001), k=rng.randint(10, 150)))
        W = rng.randint(1, 1000)
        main, rem, exact = multiplicative_decomposition(a_vals, c_vals, W)
        brute = brute_linear_count(a_vals, c_vals, W, 1).count
        assert exact == brute
        assert abs(main + rem - exact) <= 1e-6 * max(1, exact)
    for _ in range(50):
        Z = rng.randint(100, 1000)
        lo = 3 * Z // 4
        a_vals = sorted(rng.sample(range(lo, Z + 1), k=rng.randint(1, 3)))
        c_vals = sorted(rng.sample(range(2, 1001), k=rng.randint(10, 150)))
        mu = rng.uniform(Z**-0.5, 1.0)
        dec = additive_decomposition(a_vals, c_vals, mu)
        brute = sum(
            brute_linear_count([a], c_vals, int(mu * a + 1e-9), 1).count for a in a_vals
        )
        assert dec.exact_count == brute
        assert abs(dec.recombined - brute) <= 1e-6 * max(1, brute)
    _passline(6, t0, 300.0, "50 + 50 seeded instances recombine to the brute-force counts")


def test_criterion_7_thm1_pipeline_soundness():
    t0 = time.time()
    cfg = thm1_desk_config()
    rep = thm1_run(cfg)
    assert rep.solutions, "empty harvest"
    S = PrimeSet(rep.s_full)
    for sol in rep.solutions:
        assert verify_sunit_solution(sol, "thm1", S)
    oracle = brute_sunit_pairs(S, cfg.x * cfg.w_max)
    oracle_set = set(oracle.solutions)
    for sol in rep.solutions:
        assert sol in oracle_set, sol
    stats = rep.bucket_stats
    assert stats["max_load"] >= ceil(stats["total_hits"] / stats["nonempty_buckets"])
    assert rep.s_bound["holds"], rep.s_bound
    _passline(
        7,
        t0,
        600.0,
        f"{len(rep.solutions)} verified solution(s), all in the oracle list of {oracle.count}",
    )


def test_criterion_8a_thm2_pipeline_soundness():
    t0 = time.time()
    cfg = thm2_desk_config()
    rep = thm2_run(cfg)
    assert rep.solutions, "empty harvest"
    S = PrimeSet(rep.s_full)
    for sol in rep.solutions:
        assert verify_sunit_solution(sol, "thm2", S)
        A, B, C = sol
        assert A != -1 and B != -1 and -C != -1
    stats = rep.bucket_stats
    assert stats["max_load"] >= ceil(stats["total_hits"] / stats["nonempty_buckets"])

    # hit totals agree with the per-shift naive oracle (u = 0 walks included)
    def window(scale):
        return max(2, ceil(scale ** (1 - cfg.delta))), int(scale)

    c_vals = list(enumerate_squarefree_smooth(cfg.t1, *window(cfg.x)).values())
    b_vals = list(enumerate_squarefree_smooth(cfg.t2, *window(cfg.y)).values())
    a_vals = list(enumerate_squarefree_smooth(cfg.t3, *window(cfg.z)).values())
    oracle_total = sum(
        brute_linear_count(a_vals, c_vals, cfg.w_max, b + 1).count for b in b_vals
    )
    assert stats["total_hits"] + rep.audits["u_zero_discards"] == oracle_total
    _passline(
        8,
        t0,
        600.0,
        f"thm2: {len(rep.solutions)} verified nondegenerate solutions, hits match oracle ({oracle_total})",
    )


def test_criterion_8b_prop1_pipeline_soundness():
    t0 = time.time()
    T1, T2, T3 = split_disjoint_prime_sets(2, 113, 3)
    rep = prop1_run(prop1_config(600, T1, T2, T3))
    assert rep.solutions, "empty harvest"
    S = PrimeSet(rep.s_full)
    assert rep.audits["reduced_duplicates"] == 0
    assert len(set(rep.solutions)) == len(rep.solutions)
    for a, b, c in rep.solutions:
        assert verify_sunit_solution((a, b, c), "prop1", S)
        assert gcd(a, gcd(b, c)) == 1
    oracle = brute_prop1_triples(S, max(c for _, _, c in rep.solutions))
    oracle_set = set(oracle.solutions)
    for sol in rep.solutions:
        assert sol in oracle_set, sol
    stats = rep.bucket_stats
    assert stats["max_load"] >= ceil(stats["total_hits"] / stats["nonempty_buckets"])
    _passline(
        8,
        t0,
        600.0,
        f"prop1: {len(rep.solutions)} distinct coprime triples, all in the oracle list of {oracle.count}",
    )


def test_criterion_9_determinism():
    t0 = time.time()
    # pipelines repeated: identical reports run to run
    assert thm1_run(thm1_desk_config()).as_dict() == thm1_run(thm1_desk_config()).as_dict()
    assert thm2_run(thm2_desk_config()).as_dict() == thm2_run(thm2_desk_config()).as_dict()
    prop1_cfg = prop1_config(400, *split_disjoint_prime_sets(2, 113, 3))
    assert prop1_run(prop1_cfg).as_dict() == prop1_run(prop1_cfg).as_dict()
    # decompositions repeated: identical outputs for identical seeds
    rng = random.Random(SEED)
    a_vals = sorted(rng.sample([q for q in range(2, 500) if _squarefree(q)], 3))
    c_vals = sorted(rng.sample(range(2, 800), 60))
    one = multiplicative_decomposition(a_vals, c_vals, 400)
    two = multiplicative_decomposition(a_vals, c_vals, 400)
    assert one == two
    d1 = additive_decomposition(a_vals, c_vals, 0.25)
    d2 = additive_decomposition(a_vals, c_vals, 0.25)
    assert d1.recombined == d2.recombined and d1.spectrum == d2.spectrum
    _passline(9, t0, 600.0, "reports identical run to run")


def test_criterion_10_siegel_suite():
    t0 = time.time()
    rng = random.Random(SEED)
    for _ in range(10_000):
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
    # n = 3 fast path lands inside the collision-scan oracle's solution set
    for _ in range(250):
        B = rng.randint(1, 20)
        while True:
            alpha = tuple(rng.randint(-B, B) for _ in range(3))
            if any(alpha):
                break
        sol = siegel_small_solution(alpha, B)
        C = int((3 * B) ** 0.5)
        members = {
            z
            for z in itertools.product(range(-C, C + 1), repeat=3)
            if any(z) and sum(a * zi for a, zi in zip(alpha, z)) == 0
        }
        assert sol.z in members, (alpha, B, sol.z)
    _passline(10, t0, 60.0, "1e4 seeded instances exact and bounded; fast path in oracle set")
