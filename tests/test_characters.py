import random
from math import gcd, log, sqrt

import numpy as np
import pytest

from conftest import oracle_character, oracle_gauss_sum
from sunit_harvest.arith import multiplicative_functions
from sunit_harvest import characters
from sunit_harvest.characters import (
    TABLE_CAP,
    all_characters,
    fourth_moment_ratio,
    large_sieve_check,
    multiplicative_decomposition,
    polya_vinogradov_check,
    primitive_decomposition_check,
)
from sunit_harvest.errors import DomainError, ResourceLimit


def char_sum(chi, values) -> complex:
    """The scalar oracle for character sums: chi summed term by term."""
    return sum((chi(v) for v in values), 0.0 + 0.0j)


SQUAREFREE_SMALL = [a for a in range(2, 211) if all(a % (p * p) for p in (2, 3, 5, 7, 11, 13))]


def test_all_characters_examples():
    assert len(all_characters(15)) == 8
    assert (all_characters(15).exponents() == 0).all(axis=1).tolist() == [True] + [False] * 7
    assert len(all_characters(2)) == 1
    with pytest.raises(DomainError):
        all_characters(12)


def test_character_values_multiplicative():
    V = all_characters(35).value_matrix()
    for i in (1, 7, 11):
        chi = oracle_character(35, i)[0]
        for m in range(1, 70):
            for n in range(1, 70, 3):
                assert chi(m * n) == pytest.approx(chi(m) * chi(n), abs=1e-9)
        for n in range(70):
            v = chi(n)
            assert V[i, n % 35] == pytest.approx(v, abs=1e-9)
            if gcd(n, 35) > 1:
                assert v == 0
            else:
                assert abs(v) == pytest.approx(1.0, abs=1e-12)


def test_char_sum_examples():
    assert char_sum(oracle_character(5, 0)[0], range(1, 6)) == pytest.approx(4.0)
    quad = oracle_character(5, 2)[0]
    assert [round(quad(n).real) for n in (1, 2, 3, 4)] == [1, -1, -1, 1]
    assert char_sum(quad, range(1, 5)) == pytest.approx(0.0, abs=1e-12)
    assert char_sum(quad, []) == 0


def test_orthogonality_both_directions_exhaustive():
    for a in SQUAREFREE_SMALL:
        t = all_characters(a)
        V = t.value_matrix()
        # characters against characters: <chi, chi'> = phi * [chi == chi']
        G = V @ V.conj().T
        assert np.abs(G - t.phi * np.eye(t.phi)).max() <= 1e-6
        # residues against residues: sum_chi chi(m) conj(chi(n)) = phi * [m == n]
        G2 = V.conj().T @ V
        coprime = [x for x in range(a) if gcd(x, a) == 1]
        sub = G2[np.ix_(coprime, coprime)]
        assert np.abs(sub - t.phi * np.eye(len(coprime))).max() <= 1e-6


def test_gauss_sum_examples():
    tau0, cond0 = oracle_gauss_sum(5, 0)
    assert tau0 == pytest.approx(-1.0, abs=1e-9)
    assert cond0 == 1
    for i in (1, 2, 3):
        tau, cond = oracle_gauss_sum(5, i)
        assert abs(tau) ** 2 == pytest.approx(5.0, abs=1e-9)
        assert cond == 5
    assert np.abs(all_characters(5).gauss_sums() - [oracle_gauss_sum(5, i)[0] for i in range(4)]).max() <= 1e-9
    # mod 15, index 2 has exponents (0, 2): twisted only at the 5-component
    t15 = all_characters(15)
    tau, cond = oracle_gauss_sum(15, 2)
    assert cond == 5
    assert abs(tau) ** 2 == pytest.approx(5.0, abs=1e-9)
    assert t15.exponents()[2].tolist() == [0, 2] and t15.conductors()[2] == 5
    assert abs(t15.gauss_sums()[2] - tau) <= 1e-9


def test_gauss_conductor_identity_sampled():
    rng = random.Random(3)
    moduli = rng.sample([a for a in range(2, 1001) if _squarefree(a)], 60)
    for a in moduli:
        t = all_characters(a)
        taus, conds = t.gauss_sums(), t.conductors()
        for idx in {0, 1, t.phi // 2, t.phi - 1}:
            tau, cond = oracle_gauss_sum(a, idx % t.phi)
            assert abs(abs(tau) ** 2 - cond) <= 1e-6, (a, idx)
            assert abs(taus[idx % t.phi] - tau) <= 1e-6 and conds[idx % t.phi] == cond, (a, idx)
        assert np.abs(np.abs(taus) ** 2 - conds).max() <= 1e-6, a


def _squarefree(a):
    return all(a % (p * p) for p in range(2, int(a**0.5) + 1))


def test_polya_vinogradov_q5_oracle_value():
    # exhaustive-scan oracle: the quadratic character's run chi(2) = chi(3) = -1
    # gives |sum| = 2, so the max ratio is 2 / (sqrt(5) log 5)
    rep = polya_vinogradov_check(5, 5, 10)
    assert rep.max_ratio == pytest.approx(2.0 / (sqrt(5) * log(5)), rel=1e-9)
    assert rep.passes
    rep3 = polya_vinogradov_check(3, 3, 6)
    assert rep3.max_ratio == pytest.approx(1.0 / (sqrt(3) * log(3)), rel=1e-9)


def test_polya_vinogradov_matches_direct_scan():
    for q in (5, 7, 15, 30):
        rep = polya_vinogradov_check(q, q, 2 * q)
        t = all_characters(q)
        best = 0.0
        for i in range(1, t.phi):
            chi, r = oracle_character(q, i)
            bound = multiplicative_functions(q // r)[2] * sqrt(r) * log(r)
            for M in range(q):
                total = 0.0 + 0.0j
                for n in range(M + 1, M + 2 * q + 1):
                    total += chi(n)
                    best = max(best, abs(total) / bound)
        assert rep.max_ratio == pytest.approx(best, rel=1e-9)


def test_complete_sum_vanishes():
    for q in (5, 13, 21):
        t = all_characters(q)
        for i in range(1, t.phi):
            assert abs(char_sum(oracle_character(q, i)[0], range(1, q + 1))) <= 1e-9


def test_large_sieve_example():
    lhs, rhs, holds = large_sieve_check([3], 0, 2, [1, 0])
    assert lhs == pytest.approx(2.0, abs=1e-9)
    assert rhs == pytest.approx(126.0)
    assert holds


def test_large_sieve_zero_coefficients():
    lhs, rhs, holds = large_sieve_check([3, 5], 0, 4, [0, 0, 0, 0])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == 0.0
    assert holds


def test_large_sieve_random_trials():
    rng = random.Random(20240601)
    sf = [q for q in range(2, 51) if _squarefree(q)]
    for _ in range(25):
        qs = sorted(rng.sample(sf, k=rng.randint(1, 4)))
        Y = rng.randint(0, 100)
        Z = Y + rng.randint(1, 200)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(Z - Y)]
        lhs, rhs, holds = large_sieve_check(qs, Y, Z, coeffs)
        assert holds, (qs, Y, Z)
    with pytest.raises(DomainError):
        large_sieve_check([4], 0, 2, [1, 0])


def test_large_sieve_vs_termwise_oracle():
    # the transform-routed sums, Gauss sums and divisor weights against scalar ones
    rng = random.Random(3)
    for Y in (0, 1, 15, 48):
        qs = sorted(rng.sample([3, 5, 6, 7, 10, 15, 21, 30], k=2))
        Z = Y + rng.randint(1, 80)
        ns = range(Y + 1, Z + 1)
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in ns]
        lhs, rhs, _ = large_sieve_check(qs, Y, Z, coeffs)
        want = 0.0
        for q in qs:
            t = all_characters(q)
            for i in range(t.phi):
                chi = oracle_character(q, i)[0]
                tau = oracle_gauss_sum(q, i)[0]
                s = sum(c * chi(n) for n, c in zip(ns, coeffs))
                want += abs(tau) ** 2 * abs(s) ** 2 / t.phi
        weight = sum(multiplicative_functions(n)[2] * abs(c) ** 2 for n, c in zip(ns, coeffs))
        max_d = max(multiplicative_functions(q)[2] for q in qs)
        assert lhs == pytest.approx(want, rel=1e-9), (qs, Y, Z)
        assert rhs == pytest.approx(7.0 * max_d * max(Z - Y, max(qs) ** 2) * weight, rel=1e-12)
    with pytest.raises(DomainError):
        large_sieve_check([3], -1, 2, [1, 0, 0])


def test_fourth_moment_examples():
    assert fourth_moment_ratio(3, 3) == pytest.approx(0.0, abs=1e-12)
    for q in (5, 7, 15):
        phi = multiplicative_functions(q)[0]
        assert fourth_moment_ratio(q, 1) == pytest.approx((phi - 1) / phi)
    assert fourth_moment_ratio(5, 2) == pytest.approx(0.5)


def test_fourth_moment_desk_ceiling():
    # no universal constant is known, so this guards regressions with a
    # deliberately generous ceiling over a desk-scale grid
    worst = 0.0
    for q in range(3, 301, 7):
        if not _squarefree(q):
            continue
        for N in (1, q // 2 or 1, q, 2 * q):
            worst = max(worst, fourth_moment_ratio(q, N))
    assert worst <= 50.0, worst


def test_primitive_decomposition_examples():
    # chi* = character 1 mod 3, the quadratic one
    lhs, rhs, equal = primitive_decomposition_check(6, 3, 1, 5)
    assert equal
    assert lhs == pytest.approx(0.0, abs=1e-9)
    # already primitive: a == y collapses to the d = 1 term
    lhs, rhs, equal = primitive_decomposition_check(3, 3, 1, 17)
    assert equal
    lhs, rhs, equal = primitive_decomposition_check(15, 5, 2, 10)
    assert equal
    with pytest.raises(DomainError):
        primitive_decomposition_check(10, 3, 1, 5)  # 3 does not divide 10
    with pytest.raises(DomainError):
        primitive_decomposition_check(15, 15, 1, 5)  # exponents (0, 1): imprimitive mod 15
    with pytest.raises(DomainError):
        primitive_decomposition_check(12, 3, 1, 5)  # 12 is not squarefree
    with pytest.raises(DomainError):
        primitive_decomposition_check(15, 5, 4, 5)  # phi(5) = 4 characters


def test_primitive_decomposition_seeded_triples():
    rng = random.Random(11)
    sf = [a for a in range(6, 120) if _squarefree(a)]
    done = 0
    while done < 40:
        a = rng.choice(sf)
        ty = None
        for y in sorted(_divisors(a)):
            if y >= 2 and rng.random() < 0.5:
                ty = y
                break
        if ty is None:
            continue
        table = all_characters(ty)
        idx = rng.randrange(table.phi)
        chi_star, cond = oracle_character(ty, idx)
        if cond != ty:
            continue
        W = rng.randint(1, 200)
        lhs, rhs, equal = primitive_decomposition_check(a, ty, idx, W)
        assert equal, (a, ty, idx, W)
        # the coprime sum, term by term
        assert abs(lhs - char_sum(chi_star, [w for w in range(1, W + 1) if gcd(w, a) == 1])) <= 1e-9
        done += 1


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_multiplicative_decomposition_micro():
    main, rem, exact = multiplicative_decomposition([7], [4], 7)
    assert main == pytest.approx(1.0, abs=1e-9)
    assert rem == pytest.approx(0.0, abs=1e-9)
    assert exact == 1


def test_multiplicative_decomposition_non_coprime_c():
    main, rem, exact = multiplicative_decomposition([6], [10], 30)
    assert exact == 0
    assert main == pytest.approx(0.0, abs=1e-12)
    assert main + rem == pytest.approx(0.0, abs=1e-9)


def test_multiplicative_decomposition_vs_brute():
    rng = random.Random(13)
    sf = [a for a in range(2, 300) if _squarefree(a)]
    for _ in range(12):
        a_vals = sorted(rng.sample(sf, k=rng.randint(1, 3)))
        c_vals = sorted(rng.sample(range(2, 900), k=rng.randint(5, 25)))
        W = rng.randint(1, 400)
        main, rem, exact = multiplicative_decomposition(a_vals, c_vals, W)
        brute = sum(
            1
            for a in a_vals
            for c in c_vals
            for w in range(1, W + 1)
            if (c * w - 1) % a == 0
        )
        assert exact == brute
        assert main + rem == pytest.approx(exact, abs=1e-6 * max(1, exact))


@pytest.mark.filterwarnings("error")  # a numpy warning would mean the kernel saw the modulus
def test_multiplicative_decomposition_rejects_bad_moduli():
    # each modulus's character table refuses it before anything is counted
    for a in (12, 0, -5, 1):
        with pytest.raises(DomainError):
            multiplicative_decomposition([7, a], [5], 10)


def test_multiplicative_decomposition_checks_table_cap_first(monkeypatch):
    # a modulus past the cap is refused before any smaller modulus's table is built
    built = []
    real = characters.all_characters
    monkeypatch.setattr(characters, "all_characters", lambda a: built.append(a) or real(a))
    with pytest.raises(ResourceLimit):
        multiplicative_decomposition([7, 30, TABLE_CAP + 1], [5], 10)
    assert built == []
    multiplicative_decomposition([7, 30], [5], 10)
    assert built == [7, 30]


def test_bulk_sums_align_with_character_indexing():
    # the grid DFT must agree with per-character summation index by index,
    # not just in aggregate (a permutation would cancel in the decompositions)
    rng = random.Random(5)
    for a in (15, 30, 105):
        t = all_characters(a)
        vals = list(range(2, 97, 3))
        counts = np.zeros(a)
        for v in vals:
            counts[v % a] += 1
        bulk = t.sums_over_counts(counts)
        # complex weights on every residue, those sharing a factor with a included
        weights = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(a)]
        weighted = t.sums_over_counts(np.array(weights))
        for i in range(t.phi):
            chi = oracle_character(a, i)[0]
            assert abs(bulk[i] - char_sum(chi, vals)) <= 1e-9, (a, i)
            termwise = sum(w * chi(x) for x, w in enumerate(weights))
            assert abs(weighted[i] - termwise) <= 1e-9, (a, i)


def test_polya_vinogradov_argmax_reproduces():
    rep = polya_vinogradov_check(30, 30, 60)
    chi = oracle_character(30, rep.argmax_character)[0]
    window = sum(
        chi(n) for n in range(rep.argmax_M + 1, rep.argmax_M + rep.argmax_N + 1)
    )
    assert abs(window) == pytest.approx(rep.argmax_abs_sum, abs=1e-9)
    assert rep.argmax_abs_sum / rep.argmax_bound == pytest.approx(rep.max_ratio, rel=1e-12)
