import cmath
import random
from math import gcd, pi, sqrt

import pytest

from conftest import fraction_sum
from sunit_harvest.circle import additive_decomposition, s_mu_weight
from sunit_harvest.errors import DomainError


def test_s_mu_examples():
    v = s_mu_weight(1, 0.5)
    assert v == pytest.approx(-1j / pi, abs=1e-12)
    assert abs(v) == pytest.approx(1 / pi, abs=1e-12)
    assert s_mu_weight(-3, 0.7) == pytest.approx(s_mu_weight(3, 0.7).conjugate(), abs=1e-12)
    assert abs(s_mu_weight(10**6, 0.9)) <= 1 / (pi * 10**6) + 1e-15
    with pytest.raises(DomainError):
        s_mu_weight(0, 0.5)


def test_s_mu_decay_bound():
    rng = random.Random(8)
    for _ in range(1000):
        h = rng.randint(1, 10**6) * rng.choice((1, -1))
        mu = rng.uniform(1e-6, 1.0)
        v = abs(s_mu_weight(h, mu))
        assert v <= min(mu, 1 / (pi * abs(h))) + 1e-12


def test_fraction_sum_examples():
    fs = fraction_sum([4], 0, 7)
    assert fs.value == pytest.approx(1.0)
    fs = fraction_sum([4], 1, 7)
    assert fs.value == pytest.approx(cmath.exp(2j * pi * 2 / 7), abs=1e-12)
    vals = list(range(2, 50))
    fs = fraction_sum(vals, 3, 11)
    assert abs(fs.value) <= fs.used + 1e-9
    assert fs.used + fs.skipped == len(vals)
    # conjugate symmetry in h
    assert fraction_sum(vals, -3, 11).value == pytest.approx(fs.value.conjugate(), abs=1e-12)


def test_additive_orthogonality_identity():
    # (1/a) sum over the symmetric window of e(h (c^-1 - w)/a) is exactly the
    # congruence indicator; this is what makes the decomposition exact.  The
    # sum depends only on d = (c^-1 - w) mod a, so checking every d covers
    # every valid (c, w) pair.
    import numpy as np

    for a in range(2, 101):
        half = a // 2
        hs = np.arange(half - a + 1, half + 1)
        d = np.arange(a)
        totals = np.exp(2j * pi * np.outer(d, hs) / a).sum(axis=1)
        expect = np.zeros(a)
        expect[0] = a
        assert np.abs(totals - expect).max() <= 1e-9 * a, a
    # spot-check through the actual inverse-residue route
    for a, c in ((7, 4), (97, 19), (100, 13)):
        cinv = pow(c, -1, a)
        for w in (1, 2, cinv, a):
            half = a // 2
            total = sum(
                cmath.exp(2j * pi * h * (cinv - w) / a)
                for h in range(half - a + 1, half + 1)
            )
            expect = a if (c * w - 1) % a == 0 else 0.0
            assert abs(total - expect) <= 1e-9 * a


def test_additive_decomposition_micro():
    dec = additive_decomposition([7], [4], 2 / 7)
    assert dec.exact_count == 1
    assert dec.main == pytest.approx(2 / 7)
    assert sum(v.real for v in dec.spectrum.values()) == pytest.approx(5 / 7, abs=1e-9)
    assert dec.recombined == pytest.approx(1.0, abs=1e-9)


def test_additive_decomposition_empty_window():
    dec = additive_decomposition([50, 53], list(range(3, 40)), 0.01)
    assert dec.exact_count == 0
    assert dec.main == 0.0
    assert dec.recombined == pytest.approx(0.0, abs=1e-9)


@pytest.mark.filterwarnings("error")  # a numpy warning would mean the kernel saw the modulus
def test_additive_decomposition_refuses_moduli_below_1():
    for a in (0, -5):
        with pytest.raises(DomainError):
            additive_decomposition([7, a], [3, 4], 0.5)
    dec = additive_decomposition([1, 7], [3, 4], 0.5)  # every c*w == 1 (mod 1)
    assert dec.recombined == pytest.approx(dec.exact_count, abs=1e-9)


def test_additive_decomposition_vs_brute():
    rng = random.Random(31)
    for _ in range(10):
        Z = rng.randint(30, 160)
        lo = 3 * Z // 4
        a_vals = sorted(rng.sample(range(max(2, lo), Z + 1), k=min(4, Z - lo)))
        c_vals = sorted(rng.sample(range(2, 1500), k=rng.randint(10, 40)))
        mu = rng.uniform(1 / sqrt(Z), 1.0)
        dec = additive_decomposition(a_vals, c_vals, mu)
        brute = sum(
            1
            for a in a_vals
            for c in c_vals
            if gcd(c, a) == 1
            for w in range(1, int(mu * a + 1e-9) + 1)
            if (c * w - 1) % a == 0
        )
        assert dec.exact_count == brute
        assert dec.recombined == pytest.approx(brute, abs=1e-6 * max(1, brute))
        # truncation bookkeeping is a partition of the spectrum
        assert dec.truncated_sum + dec.tail_sum == pytest.approx(
            dec.recombined, abs=1e-9 * max(1, brute)
        )


def test_additive_rows_and_spectrum_vs_scalar_oracles():
    # each (a, h) row, built from the column arrays when read, against
    # fraction_sum and s_mu_weight, and the spectrum as the sum over moduli of
    # the rows' terms; mu = 1 and [mu a] = 0 included
    rng = random.Random(12)
    for mu in (1.0, 0.05, 0.5, rng.uniform(0.1, 1.0)):
        Z = rng.randint(8, 19)
        a_vals = sorted(rng.sample(range(2, Z), k=3)) + [Z]
        c_vals = sorted(rng.sample(range(1, 200), k=12))
        dec = additive_decomposition(a_vals, c_vals, mu)
        rows, spectrum = [], {}
        for a in a_vals:
            wa = int(mu * a + 1e-9)
            for h in range(a // 2 - a + 1, a // 2 + 1):
                if h == 0:
                    continue
                F = fraction_sum(c_vals, h, a).value
                t = sum(cmath.exp(-2j * pi * h * w / a) for w in range(1, wa + 1)) * F / a
                rows.append((a, h, abs(s_mu_weight(h, mu)), abs(F), t.real))
                spectrum[h] = spectrum.get(h, 0.0) + t
        assert isinstance(dec.rows, list)
        assert [row[:2] for row in dec.rows] == [row[:2] for row in rows]
        for got, want in zip(dec.rows, rows):
            assert [type(v) for v in got] == [int, int, float, float, float]
            assert got[2:] == pytest.approx(want[2:], abs=1e-9), got
        assert sorted(dec.spectrum) == sorted(spectrum)
        for h, v in spectrum.items():
            assert type(dec.spectrum[h]) is complex
            assert abs(dec.spectrum[h] - v) <= 1e-9, (mu, h)
