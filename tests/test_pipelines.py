import dataclasses
import tracemalloc
from itertools import product
from math import prod
from pathlib import Path

import numpy as np
import pytest

from sunit_harvest import arith, pipelines
from sunit_harvest.arith import PrimeSet, prime_support
from sunit_harvest.cli import build_harvest_config, parse_config_file
from sunit_harvest.errors import ConfigError, ConstraintViolation, EmptyHarvest, ResourceLimit
from sunit_harvest.oracle import brute_linear_count
from sunit_harvest.pipelines import (
    HarvestConfig,
    KeyPacking,
    _range,
    config_from_exponents,
    pair_collision_stats,
    popular_bucket,
    prop1_config,
    prop1_run,
    thm1_harvest,
    thm1_run,
    thm2_harvest,
    thm2_run,
    verify_sunit_solution,
)

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
CAP = HarvestConfig.hit_cap  # the hit cap of a run with none configured

T1 = PrimeSet((2, 3, 17, 19, 23, 29, 31, 37, 41, 43))
T2 = PrimeSet((5, 7, 11, 13, 101, 103, 107, 109, 113, 127))
T3 = PrimeSet((53, 59, 61, 67, 71, 73, 79, 83, 89, 97))


def desk_thm1_config():
    return config_from_exponents("thm1", 10**6, 1 / 6, "unconditional", 0.1, T1, T2, T3)


def test_thm1_micro():
    # c = q*r = 2*2: 7*1 + 1 = 4*2
    rep = thm1_harvest([7], [2], [2], 5, PrimeSet((2, 7)), CAP)
    assert rep.popular_key == (1, 2)
    assert rep.solutions == ((7, 8),)
    assert set(rep.s_full) >= {2, 7}
    assert rep.bucket_stats["total_hits"] == 1
    # the config decides these, and a direct harvest has none
    assert rep.bound_comparison is None and rep.config_echo is None


def test_thm1_multi_hit_bucket():
    # 403 = 67*6 + 1 = 13*31 and 427 = 71*6 + 1 = 7*61, so the pair (u, w) = (6, 1)
    # collects two hits and both become solutions over the same enlarged prime set
    s_prime = PrimeSet((7, 13, 31, 61, 67, 71))
    rep = thm1_harvest([67, 71], [7, 13], [31, 61], 1, s_prime, CAP)
    assert rep.popular_key == (6, 1)
    assert rep.bucket_stats["max_load"] == 2
    assert rep.solutions == ((402, 403), (426, 427))
    assert set(rep.s_full) == {2, 3, 7, 13, 31, 61, 67, 71}
    for sol in rep.solutions:
        assert verify_sunit_solution(sol, "thm1", PrimeSet(rep.s_full))


def test_thm1_hit_conservation():
    rep = thm1_run(desk_thm1_config())
    stats = rep.bucket_stats
    # residue-stepped totals equal the naive oracle count over the same sets
    cfg = desk_thm1_config()
    from sunit_harvest.smooth import enumerate_squarefree_smooth

    q = enumerate_squarefree_smooth(cfg.t1, *_range(cfg.q, cfg.delta))
    r = enumerate_squarefree_smooth(cfg.t2, *_range(cfg.r, cfg.delta))
    a = enumerate_squarefree_smooth(cfg.t3, *_range(cfg.z, cfg.delta))
    c = sorted(qv * rv for qv in q for rv in r)
    oracle = brute_linear_count(list(a), c, cfg.w_max, 1)
    assert stats["total_hits"] == oracle.count
    assert stats["max_load"] >= stats["pigeonhole_floor"]


def test_window_ends_snap_to_integers():
    # float powers land a hair below an integer end, which int() would drop
    assert _range(27000 ** (1 / 3), 0.1) == (22, 30)
    cfg = desk_thm1_config()
    assert cfg.z == pytest.approx(100.0) and cfg.z < 100
    assert _range(cfg.z, cfg.delta) == (64, 100)
    assert _range(99.5, 0.1) == (63, 99)  # ends away from an integer keep ceil and floor


def test_thm1_report_fields():
    rep = thm1_run(desk_thm1_config())
    assert rep.solutions, "desk harvest must be nonempty"
    assert rep.audits["verify_failures"] == 0
    assert rep.s_bound["holds"]
    for A, C, a, c, u, w in rep.solution_rows:
        assert A + 1 == C
        assert A == a * u and C == c * w


def test_thm1_determinism_across_threads():
    # one thread path: the same config run twice gives the same report
    assert thm1_run(desk_thm1_config()).as_dict() == thm1_run(desk_thm1_config()).as_dict()


SIEVE_CAP_THM1 = {"equation": "thm1", "alpha": "0.16666666666666666", "variant": "unconditional",
                  "delta": "0.1", "epsilon": "0.01", "x": "1000000", "t_interval": "2,1000000"}


@pytest.mark.parametrize("build", [desk_thm1_config, lambda: build_harvest_config(SIEVE_CAP_THM1)],
                         ids=["desk", "sieve_cap"])
def test_thm1_run_proves_s_prime_and_s_once(monkeypatch, build):
    # the sieve, its split and every union are trusted, so a run proves only the
    # popular key's primes; trial division alone proves the moduli's last factors
    real, calls = arith.is_prime, []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    rep = thm1_run(build())
    n_calls = len(calls)
    assert n_calls <= len(prime_support(prod(rep.popular_key)))


def test_thm2_run_makes_no_pair_collision_pass(monkeypatch):
    def refuse(values):
        raise AssertionError("no thm2 report field reads pair collisions")

    monkeypatch.setattr(pipelines, "pair_collision_stats", refuse)
    rep = thm2_run(build_harvest_config(parse_config_file(CONFIGS / "thm2_desk.cfg")))
    assert sorted(rep.audits) == [
        "coprime_b_min_fraction",
        "degenerate_filtered",
        "u_range_observed",
        "u_range_theoretical",
        "u_zero_discards",
        "verify_failures",
    ]


def test_thm2_micro_no_hit():
    with pytest.raises(EmptyHarvest):
        thm2_harvest([5], [2], [3], 4, PrimeSet((2, 3, 5)), CAP)


def test_thm2_micro_hit():
    rep = thm2_harvest([5], [4], [3], 10, PrimeSet((2, 3, 5)), CAP)
    assert rep.popular_key == (2, 5)
    assert (10, 4, 15) in rep.solutions
    for A, B, C, a, b, c, u, w in rep.solution_rows:
        assert A + B + 1 == C


def test_thm2_degenerate_filter():
    # a hit with u < 0 can produce A = -(b+...) but never A = -1 (A = a*u, a >= 2);
    # the filter remains load-bearing for the emitted set contract
    rep = thm2_harvest([5], [4], [3], 10, PrimeSet((2, 3, 5)), CAP)
    for A, B, C in rep.solutions:
        assert A != -1 and B != -1 and C != 1


def test_popular_bucket_tiebreak():
    pairs = KeyPacking((-3, 1), (6, 7), "(u, w)")  # u in [-3, 2], w in [1, 7]
    keys = pairs.pack(np.array([1] * 3 + [0] * 3), np.array([2] * 3 + [1] * 3))
    key, _ = popular_bucket(keys, pairs.unpack)
    assert key == (0, 1)
    # lexicographic order holds with a negative first column
    key, _ = popular_bucket(pairs.pack(np.array([2, -3, 2, -3]), np.array([1, 7, 1, 7])), pairs.unpack)
    assert key == (-3, 7)
    assert all(type(v) is int for v in key)
    # a 3-column key, as prop1's kernel vectors give
    vectors = KeyPacking((-1, -2, -1), (4, 5, 3), "kernel vector")
    rows = np.array([(1, -2, 1), (2, 1, -1), (-1, 2, -1), (1, -2, 1), (-1, 2, -1)])
    key, stats = popular_bucket(vectors.pack(*rows.T), vectors.unpack)
    assert key == (-1, 2, -1)
    assert stats == {"total_hits": 5, "nonempty_buckets": 3, "max_load": 2, "pigeonhole_floor": 2}
    assert all(type(v) is int for v in stats.values())
    only, stats = popular_bucket(pairs.pack(np.array([2]), np.array([5])), pairs.unpack)
    assert only == (2, 5) and stats["max_load"] == 1
    # unpack receives the smallest packed key of maximal count as a Python int
    received = []
    popular_bucket(np.array([9, 4, 9, 4, 7], dtype=np.int64), lambda k: received.append(k) or (k,))
    assert received == [4] and type(received[0]) is int
    with pytest.raises(EmptyHarvest):
        popular_bucket(np.empty(0, dtype=np.int64), pairs.unpack)
    # keys whose mixed-radix pack would pass int64
    with pytest.raises(ResourceLimit):
        KeyPacking((0, 0), (2**40 + 1, 2**40 + 1), "(u, w)")


def test_popular_bucket_pigeonhole():
    keys = np.array([0] * 5 + [1] * 3 + [2] * 2, dtype=np.int64)
    key, stats = popular_bucket(keys, KeyPacking((0,), (3,), "one-column").unpack)
    assert key == (0,) and stats["max_load"] == 5
    assert stats["max_load"] >= -(-10 // 3) == stats["pigeonhole_floor"]  # ceil(total / nonempty)


def _traced_peak(f, *args) -> int:
    """The peak bytes Python and numpy allocate while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tally_allocates_little_beyond_its_input():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 10**6, size=10**6, dtype=np.int64)
    # a sort in place and one boolean pass (a byte a key) at a time: no copy of the
    # 4- or 8-byte keys, for either key dtype
    for array in (keys.astype(np.int32), keys):
        assert _traced_peak(popular_bucket, array, lambda k: (k,)) < 1.25 * len(array)
    values = rng.choice(10**6, size=1500, replace=False).tolist()
    assert _traced_peak(pair_collision_stats, values) <= 1.25 * 8 * (1500 * 1499 // 2)  # the int64 differences


def test_key_packing_order_and_int64_edge():
    packing = KeyPacking((-2, 1, -1), (4, 3, 3), "three-column")
    keys = list(product(range(-2, 2), range(1, 4), range(-1, 2)))  # lexicographic
    packed = packing.pack(*np.array(keys).T)
    assert packed.dtype == np.int32 and packed.tolist() == list(range(len(keys)))
    assert [packing.unpack(k) for k in range(len(keys))] == keys
    # prod(sizes) = 2^31 packs int32: the largest key is INT32_MAX, into a given array too
    edge = KeyPacking((-(2**15), 1), (2**16, 2**15), "(u, w)")
    out = np.zeros(2, dtype=np.int32)
    edge.pack(np.array([2**15 - 1, -(2**15)]), np.array([2**15, 1]), out=out)
    assert edge.dtype == np.int32 and out.tolist() == [2**31 - 1, 0]
    assert edge.unpack(2**31 - 1) == (2**15 - 1, 2**15)
    # 3 * 715,827,883 = 2^31 + 1 values pack int64: the largest key is 2^31
    wide = KeyPacking((0, 1), (3, 715_827_883), "(u, w)").pack(np.array([2]), np.array([715_827_883]))
    assert wide.dtype == np.int64 and wide.tolist() == [2**31]
    # so does a range that fits int32 when a later digit's low does not: pack subtracts it in the key dtype
    far = KeyPacking((0, 10**12), (2, 3), "(u, w)")
    assert far.dtype == np.int64 and far.pack(np.array([1]), np.array([10**12 + 2])).tolist() == [5]
    # prod(sizes) = 2^63 packs: the largest key is INT64_MAX, reached without overflow
    edge = KeyPacking((-(2**31), 1), (2**32, 2**31), "(u, w)")
    assert edge.pack(np.array([2**31 - 1]), np.array([2**31])).tolist() == [2**63 - 1]
    assert edge.unpack(2**63 - 1) == (2**31 - 1, 2**31)
    with pytest.raises(ResourceLimit, match="beyond int64"):
        KeyPacking((0, 1), (2**32, 2**31 + 1), "(u, w)")


def test_verify_sunit_solution():
    S = PrimeSet((2, 7))
    assert verify_sunit_solution((7, 8), "thm1", S)
    assert not verify_sunit_solution((7, 9), "thm1", S)
    assert not verify_sunit_solution((7, 8), "thm1", PrimeSet((7,)))
    assert verify_sunit_solution((1, 2), "thm1", PrimeSet((2,)))
    assert verify_sunit_solution((10, 4, 15), "thm2", PrimeSet((2, 3, 5)))
    assert verify_sunit_solution((-4, 2, -1), "thm2", PrimeSet((2,)))
    assert not verify_sunit_solution((10, 4, 16), "thm2", PrimeSet((2, 3, 5)))
    assert verify_sunit_solution((1, 8, 9), "prop1", PrimeSet((2, 3)))
    assert not verify_sunit_solution((2, 8, 9), "prop1", PrimeSet((2, 3)))
    # prop1 solutions must be coprime: 2 + 4 = 6 holds over {2, 3} but is rejected
    assert not verify_sunit_solution((2, 4, 6), "prop1", PrimeSet((2, 3)))


def test_report_counts_failures_once_and_adjoins_the_key_primes():
    # the key (5, 1) adjoins 5 to S' = {2, 3}, so 4 + 1 = 5 verifies; (2, 3) repeats,
    # (10, 11) has 11 outside S and (3, 5) breaks A + 1 = C
    stats = {"max_load": 5}
    candidates = [((2, 3), (2, 3)), ((10, 11), (2, 11)), ((2, 3), (1, 3)), ((4, 5), (4, 5)), ((3, 5), (3, 5))]
    rep = pipelines._report("thm1", (5, 1), stats, iter(candidates), PrimeSet((2, 3)), {"A": 1}, other=7)
    assert rep.solution_rows == ((2, 3, 2, 3, 5, 1), (4, 5, 4, 5, 5, 1))
    assert rep.solutions == ((2, 3), (4, 5))
    assert rep.audits == {"other": 7, "verify_failures": 2}
    assert rep.s_prime == (2, 3) and rep.s_full == (2, 3, 5)
    assert (rep.equation, rep.popular_key, rep.bucket_stats, rep.set_sizes) == ("thm1", (5, 1), stats, {"A": 1})


def test_prop1_micro():
    rep = prop1_run(prop1_config(30, PrimeSet((2,)), PrimeSet((3,)), PrimeSet((5,))))
    assert rep.popular_key == (1, 1, -1)
    assert rep.solutions == ((2, 3, 5),)


def test_prop1_empty_coefficient_sets():
    # no a1 <= 5 over {7}: the one scan over A1 is not run at all
    with pytest.raises(EmptyHarvest, match="^no coefficients to walk$"):
        prop1_run(prop1_config(5, PrimeSet((7,)), PrimeSet((2,)), PrimeSet((3,))))
    # A1 walks, but no a2 <= 5 over {7}: no hit to bucket
    with pytest.raises(EmptyHarvest, match="^no nonempty bucket$"):
        prop1_run(prop1_config(5, PrimeSet((2,)), PrimeSet((7,)), PrimeSet((3,))))


def test_prop1_popular_hits_rederived_by_scalar_search(monkeypatch):
    from sunit_harvest import pipelines

    calls = []
    real = pipelines.siegel_nonzero_coords

    def counted(alpha, cap):
        calls.append((alpha, real(alpha, cap)))
        return calls[-1][1]

    monkeypatch.setattr(pipelines, "siegel_nonzero_coords", counted)
    rep = prop1_run(prop1_config(300, *_prop1_sets()))
    # the scalar search runs only on triples with a.z = 0, and selects z for
    # exactly as many of them as the batched search counted
    z = rep.popular_key
    assert calls and all(sum(a * v for a, v in zip(alpha, z)) == 0 for alpha, _ in calls)
    selected = [alpha for alpha, sol in calls if sol is not None and sol.z == z]
    assert len(selected) == rep.bucket_stats["max_load"] > 1
    assert {row[3:6] for row in rep.solution_rows} <= set(selected)
    audits = rep.audits
    assert len(rep.solution_rows) + audits["reduced_duplicates"] + audits["verify_failures"] == len(selected)
    # a batched vector the scalar search does not select is an internal error
    monkeypatch.setattr(pipelines, "siegel_nonzero_coords", lambda alpha, cap: None)
    with pytest.raises(RuntimeError, match="counted .* listed"):
        prop1_run(prop1_config(300, *_prop1_sets()))


def test_prop1_disjointness_required():
    with pytest.raises(ConfigError):
        prop1_run(prop1_config(30, PrimeSet((2, 3)), PrimeSet((3,)), PrimeSet((5,))))


def test_prop1_desk_properties():
    rep = prop1_run(prop1_config(400, *_prop1_sets()))
    assert rep.solutions
    assert rep.audits["reduced_duplicates"] == 0
    assert rep.audits["verify_failures"] == 0
    from math import gcd

    for a, b, c in rep.solutions:
        assert a + b == c and a <= b and gcd(a, b) == 1


def test_prop1_hit_cap():
    tiny = (PrimeSet((2,)), PrimeSet((3,)), PrimeSet((5,)))
    assert prop1_config(30, *tiny).hit_cap == 2_000_000
    with pytest.raises(ResourceLimit):
        prop1_run(prop1_config(30, *tiny, hit_cap=0))  # the one triple (2, 3, 5)
    assert prop1_run(prop1_config(30, *tiny, hit_cap=1)).solutions == ((2, 3, 5),)


def test_prop1_determinism_across_threads():
    # one thread path: the same config run twice gives the same report
    cfg = prop1_config(300, *_prop1_sets())
    assert prop1_run(cfg).as_dict() == prop1_run(cfg).as_dict()


def _prop1_sets():
    from sunit_harvest.smooth import split_disjoint_prime_sets

    return split_disjoint_prime_sets(2, 113, 3)


def test_pair_collision_stats():
    assert pair_collision_stats([2, 3, 5, 6]) == (2, 1)
    assert pair_collision_stats([2, 4]) == (1, 2)
    assert pair_collision_stats([9]) == (0, 0)
    # PAIR_CAP = 2000^2 pairs
    assert pair_collision_stats(range(0, 4000, 2)) == (1999, 2)
    with pytest.raises(ResourceLimit):
        pair_collision_stats(range(2001))


def test_config_validation():
    with pytest.raises(ConstraintViolation):
        config_from_exponents("thm1", 10**6, 0.25, "unconditional", 0.1, T1, T2, T3)
    # a config is checked when it is made, a changed copy too, and cannot be changed after
    cfg = desk_thm1_config()
    with pytest.raises(ConfigError, match="W <= min"):
        dataclasses.replace(cfg, w_max=10**7)
    with pytest.raises(ConfigError, match="disjoint"):
        dataclasses.replace(cfg, t2=T1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.w_max = 10**7
    assert cfg.w_max == desk_thm1_config().w_max
    with pytest.raises(ConfigError, match="disjoint"):
        HarvestConfig(equation="thm1", t1=T1, t2=T1, t3=T3, x=10**6, delta=0.1, w_max=4, z=100.0, q=63.1)
    # W and Z are optional fields, but thm1 and thm2 need them
    with pytest.raises(ConfigError, match="needs the W and Z"):
        HarvestConfig("thm2", T1, T2, T3, 10**5, 0.1, y=10**6)
