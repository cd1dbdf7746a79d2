"""The periodic Pólya–Vinogradov sweep against the direct window scan.

`window_oracle` is the scan the sweep replaced: for each non-principal
character it gathers every window sum |P[M + N] - P[M]|, 0 <= M < scan_M,
1 <= N <= scan_N, from complex prefix sums over scan_M + scan_N terms, with no
use of periodicity.  The sweep covers 0 <= M < q, 1 <= N <= q; the oracle
also shows that longer scans find no larger window.  `max_window_sq_oracle`
compares every pair of points, against which the pruned pair sweep must agree
bit for bit.
"""

import hashlib
import json
from argparse import Namespace
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import max_window_sq_oracle, oracle_character
from sunit_harvest import cli
from sunit_harvest.arith import multiplicative_functions
from sunit_harvest.characters import _max_window_sq, all_characters, polya_vinogradov_check

TIE = 1e-9

SQUAREFREE_60 = [q for q in range(3, 61) if all(q % (p * p) for p in (2, 3, 5, 7))]
ORACLE_MODULI = SQUAREFREE_60 + [62, 70, 77, 78, 83, 91, 97, 102, 105, 110, 119]


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


@pytest.mark.parametrize("q", ORACLE_MODULI)
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
    # the window is located when first read: M or N first, each read twice, gives it
    want = {"argmax_M": M, "argmax_N": N + 1}
    for order in (("argmax_M", "argmax_N"), ("argmax_N", "argmax_M")):
        fresh = polya_vinogradov_check(q)
        assert fresh == rep and "_prefix" not in repr(fresh)
        assert [getattr(fresh, name) for name in order * 2] == [want[name] for name in order * 2]
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
    general = np.sqrt(max_window_sq_oracle(np.cumsum(V.real, axis=1), np.cumsum(V.imag, axis=1)))
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
        if f.name not in ("rows", "_prefix"):
            assert type(getattr(rep, f.name)) in (int, float), f.name
    assert type(rep.argmax_M) is int and type(rep.argmax_N) is int
    for row in rep.rows:
        assert [type(x) for x in row] == [int, float, float, float]
    summary, rows = cli._verify_charsums(Namespace(qmax=30, seed=1, trials=3))
    assert summary["polya_vinogradov_all_pass"] is True
    assert summary["large_sieve_all_hold"] is True
    json.dumps(summary)
    for row in rows:
        assert [type(x) for x in row] == [int, int, float, float, float]


def _cloud(kind: str, h: int, seed: int) -> np.ndarray:
    """h complex points of one kind, from a seeded generator."""
    rng = np.random.default_rng(seed)
    z0 = complex(*rng.normal(size=2))
    if kind == "walk":  # prefix sums of twelfth roots of unity, as a character's are
        return np.cumsum(np.exp(2j * np.pi * rng.integers(0, 12, h) / 12))
    if kind == "random":
        return rng.normal(size=h) + 1j * rng.normal(size=h)
    if kind == "equal":
        return np.full(h, z0)
    if kind == "collinear":
        return z0 + rng.normal(size=h) * np.exp(2j * np.pi * rng.uniform())
    if kind == "polygon":  # every vertex ends a diameter (even h): nothing is pruned
        return z0 + np.exp(2j * np.pi * np.arange(h) / h)
    if kind == "circle":  # nothing is pruned, and the diameter's ends fall anywhere
        return z0 + np.exp(2j * np.pi * rng.uniform(size=h))
    return rng.choice(rng.normal(size=3) + 1j * rng.normal(size=3), size=h)  # duplicated


KINDS = ("walk", "random", "equal", "collinear", "polygon", "circle", "duplicated")
CLOUD_ROWS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.integers(-6, 6), st.integers(-3, 9)),
    min_size=1,
    max_size=6,
)


def _sweep_matches_oracle(z: np.ndarray) -> None:
    re, im = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
    assert np.array_equal(_max_window_sq(re, im), max_window_sq_oracle(re, im))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 90), CLOUD_ROWS)
@example(1, [("random", 1, 0, 0)])
@example(2, [("random", 2, 0, 0), ("equal", 3, 0, 0)])
def test_pruned_sweep_matches_every_pair(h, rows):
    """Rows of their own kind, scale 10^scale and offset 10^shift, in one call."""
    z = np.stack([_cloud(kind, h, seed) * 10.0**scale + 10.0**shift for kind, seed, scale, shift in rows])
    _sweep_matches_oracle(z)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.integers(1, 40).flatmap(
            lambda h: st.lists(st.floats(-1e6, 1e6), min_size=2 * n * h, max_size=2 * n * h).map(
                lambda v: np.array(v).reshape(2, n, h)
            )
        )
    )
)
def test_pruned_sweep_matches_every_pair_on_raw_floats(parts):
    _sweep_matches_oracle(parts[0] + 1j * parts[1])


@pytest.mark.parametrize(
    "rows, h",
    [
        ([("polygon", 0, 0, 0)], 200),  # all 200 points survive: one row of 40,000 pair cells
        ([("polygon", 0, 0, 0)], 300),  # 90,000 cells: one row is split across blocks
        ([("circle", seed, 0, 0) for seed in range(8)], 300),
        ([("polygon", 0, 0, 0), ("walk", 1, 0, 0), ("equal", 2, 0, 0), ("duplicated", 3, 0, 0)], 257),
        ([("walk", 4, 6, 0), ("collinear", 5, -6, 8), ("random", 6, 0, 0)] * 30, 120),
    ],
)
def test_pruned_sweep_matches_every_pair_in_wide_blocks(rows, h):
    z = np.stack([_cloud(kind, h, seed) * 10.0**scale + 10.0**shift for kind, seed, scale, shift in rows])
    _sweep_matches_oracle(z)


def test_charsums_csv_bytes_are_pinned(tmp_path):
    """The ratios CSV of `verify charsums --qmax 200 --trials 1 --seed 1`, one row per
    non-principal character mod each squarefree q <= 200, pinned by its sha256."""
    ratios = tmp_path / "ratios.csv"
    argv = ["verify", "charsums", "--qmax", "200", "--trials", "1", "--seed", "1"]
    assert cli.main(argv + ["--solutions", str(ratios), "--out", str(tmp_path / "summary.json")]) == 0
    data = ratios.read_bytes()
    assert data.count(b"\n") == 8411
    assert hashlib.sha256(data).hexdigest() == "bafb015438078a33ce8d08ad8597718d195146eb0c549aff0e160683502dfb39"
