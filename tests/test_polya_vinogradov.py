"""The periodic Pólya–Vinogradov sweep against the direct window scan.

`window_oracle` is the scan the sweep replaced: for each non-principal
character it gathers every window sum |P[M + N] - P[M]|, 0 <= M < scan_M,
1 <= N <= scan_N, from complex prefix sums over scan_M + scan_N terms, with no
use of periodicity.  The sweep covers 0 <= M < q, 1 <= N <= q; the oracle
also shows that longer scans find no larger window.
"""

import json
from argparse import Namespace
from dataclasses import fields

import numpy as np
import pytest

from conftest import oracle_character
from sunit_harvest import cli
from sunit_harvest.arith import multiplicative_functions
from sunit_harvest.characters import _max_window_sq, all_characters, polya_vinogradov_check

TIE = 1e-9

SQUAREFREE_60 = [q for q in range(3, 61) if all(q % (p * p) for p in (2, 3, 5, 7))]


def window_oracle(q: int, scan_M: int, scan_N: int) -> list[tuple[int, np.ndarray, float]]:
    """(character index, [scan_M, scan_N] matrix of |window sum|, bound) per non-principal chi."""
    table = all_characters(q)
    V = table.value_matrix()
    L = scan_M + scan_N
    reps = L // q + 2
    Ms = np.arange(scan_M)
    Ns = np.arange(1, scan_N + 1)
    idx = Ms[:, None] + Ns[None, :]
    out = []
    for i in range(1, table.phi):
        r = oracle_character(q, i)[1]
        bound = multiplicative_functions(q // r)[2] * np.sqrt(r) * np.log(r)
        vals = np.tile(V[i], reps)[1 : L + 1]
        P = np.concatenate([[0.0 + 0.0j], np.cumsum(vals)])
        out.append((i, np.abs(P[idx] - P[Ms[:, None]]), float(bound)))
    return out


@pytest.mark.parametrize("q", SQUAREFREE_60)
def test_sweep_matches_window_oracle(q):
    rep = polya_vinogradov_check(q)
    oracle = window_oracle(q, q, q)
    assert (rep.scan_M, rep.scan_N) == (q, q)
    assert [row[0] for row in rep.rows] == [i for i, _, _ in oracle]
    for (_, stat, bound, ratio), (_, sums, oracle_bound) in zip(rep.rows, oracle):
        assert abs(stat - sums.max()) <= 1e-9
        assert bound == pytest.approx(oracle_bound, rel=1e-12)
        assert ratio == stat / bound
    ratios = [sums.max() / bound for _, sums, bound in oracle]
    assert rep.max_ratio == pytest.approx(max(ratios), rel=1e-9)

    # tie-break: the first character within 1e-9 relative of the top ratio,
    # then its first window in (M, N) order within 1e-9 of its max |sum|
    top = max(ratios)
    k = next(k for k, ratio in enumerate(ratios) if ratio >= top * (1 - TIE))
    sums = oracle[k][1]
    M, N = divmod(int(np.argmax(sums >= sums.max() - TIE)), q)
    assert (rep.argmax_character, rep.argmax_M, rep.argmax_N) == (oracle[k][0], M, N + 1)
    assert (rep.argmax_abs_sum, rep.argmax_bound) == rep.rows[k][1:3]
    assert rep.max_ratio == rep.rows[k][3]

    chi = oracle_character(q, rep.argmax_character)[0]
    window = sum(chi(n) for n in range(rep.argmax_M + 1, rep.argmax_M + rep.argmax_N + 1))
    assert abs(abs(window) - rep.argmax_abs_sum) <= 1e-9


@pytest.mark.parametrize("q", SQUAREFREE_60)
def test_prefix_sums_fold_by_parity(q):
    """S(q - 1 - n) == -chi(-1) S(n) for every non-principal chi, from term-by-term values."""
    for i in range(1, all_characters(q).phi):
        chi = oracle_character(q, i)[0]
        S = np.cumsum([chi(m) for m in range(q)])  # S[n] = sum_{m <= n} chi(m), chi(0) = 0
        assert np.abs(S[::-1] + chi(q - 1) * S).max() <= 1e-9, (q, i)


@pytest.mark.parametrize("q", SQUAREFREE_60)
def test_folded_scan_matches_general_sweep(q):
    """The parity-folded sweep matches an unfolded sweep over every pair of the q prefix
    points S(0..q-1) of every non-principal chi, conjugate pairs included."""
    rep = polya_vinogradov_check(q)
    V = all_characters(q).value_matrix()[1:]
    general = np.sqrt(_max_window_sq(np.cumsum(V.real, axis=1), np.cumsum(V.imag, axis=1)))
    assert [row[0] for row in rep.rows] == list(range(1, len(V) + 1))
    for row, stat in zip(rep.rows, general):
        assert row[1] == pytest.approx(stat, rel=1e-12), (q, row[0])


@pytest.mark.parametrize("q", SQUAREFREE_60)
def test_longer_scans_find_no_larger_window(q):
    """Per character, the max window over (q, q) equals the max over (2q, 3q)."""
    longer = window_oracle(q, 2 * q, 3 * q)
    for (i, period, _), (_, sums, _) in zip(window_oracle(q, q, q), longer):
        assert abs(period.max() - sums.max()) <= 1e-9, (q, i)


def test_report_fields_are_python_numbers():
    rep = polya_vinogradov_check(30)
    for f in fields(rep):
        if f.name != "rows":
            assert type(getattr(rep, f.name)) in (int, float), f.name
    for row in rep.rows:
        assert [type(x) for x in row] == [int, float, float, float]
    summary, rows = cli._verify_charsums(Namespace(qmax=30, seed=1, trials=3))
    assert summary["polya_vinogradov_all_pass"] is True
    assert summary["large_sieve_all_hold"] is True
    json.dumps(summary)
    for row in rows:
        assert [type(x) for x in row] == [int, int, float, float, float]
