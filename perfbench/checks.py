"""Output checks that do not trust the library.

Every check re-derives its expectation with its own exact integer arithmetic
or compares against a value pinned here; nothing is imported from
`sunit_harvest`.  Each check is one operation of the benchmark and a failed
check counts against `failed`.  Run this file directly to self-test the checks.
"""

from __future__ import annotations

import hashlib
import json
import sys
from math import ceil, gcd

import workloads

# Digest of the sorted solution set plus the bucket statistics.  Both harvest
# workloads are deterministic by design, so one pin serves every seed.
HARVEST_PINS = {
    "thm2-stress": "839be9d3ff94bf198be3a629c187619f60a90ad4ada4cf31a853dcd787083443",
    "prop1-wide": "9404a0b7591f86d1c5db195b2c1ec84536e2a303973f29e9cfa034d46599c93b",
}

# Seed-independent parts of the charsums summary (the seed only drives the
# large-sieve trials, which are checked through their all-hold flag).
CHARSUMS_WORST = {"q": 5, "character": 2, "M": 1, "N": 2, "ratio": 0.5557388601882701}
CHARSUMS_FOURTH_MOMENT = 0.9848484848484849
CHARSUMS_TRIALS = 100
REL_TOL = 1e-9
DECOMP_TOL = 1e-6


def _smooth_over(v: int, primes) -> bool:
    """|v| is a product of the given primes (1 is the empty product)."""
    v = abs(v)
    if v == 0:
        return False
    for p in primes:
        while v % p == 0:
            v //= p
    return v == 1


def _solution_ok(equation: str, sol, primes) -> bool:
    if len(sol) != 3:
        return False
    x, y, z = sol
    if equation == "thm2":
        holds = x + y + 1 == z
    elif equation == "prop1":
        holds = x + y == z and x >= 1 and y >= 1 and gcd(x, y) == 1
    else:
        return False
    return holds and all(_smooth_over(v, primes) for v in sol)


def harvest_digest(run: dict) -> str:
    stats = run["bucket_stats"]
    body = {
        "solutions": sorted(tuple(s) for s in run["solutions"]),
        "bucket_stats": [stats["total_hits"], stats["nonempty_buckets"], stats["max_load"]],
    }
    return hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()


def check_harvest(run: dict, pin: str) -> list[tuple[str, bool, str]]:
    """Re-verify every solution, the pigeonhole floor and the pinned digest."""
    out = []
    solutions = run["solutions"]
    primes = run["s_full"]
    out.append(("solutions_nonempty", bool(solutions), f"{len(solutions)} solutions"))
    for i, sol in enumerate(solutions):
        out.append((f"solution[{i}]", _solution_ok(run["equation"], sol, primes), str(sol)))
    stats = run["bucket_stats"]
    hits, buckets, max_load = stats["total_hits"], stats["nonempty_buckets"], stats["max_load"]
    floor_ok = buckets > 0 and max_load >= ceil(hits / buckets)
    out.append(("pigeonhole_floor", floor_ok, f"max_load {max_load}, hits {hits}, buckets {buckets}"))
    digest = harvest_digest(run)
    out.append(("digest", digest == pin, digest))
    return out


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def check_charsums(payload: dict) -> list[tuple[str, bool, str]]:
    s = payload["summary"]
    worst = s["polya_vinogradov_max"]
    worst_ok = all(worst[k] == CHARSUMS_WORST[k] for k in ("q", "character", "M", "N")) and _close(
        worst["ratio"], CHARSUMS_WORST["ratio"], REL_TOL
    )
    return [
        ("pv_all_pass", s["polya_vinogradov_all_pass"] is True, ""),
        ("large_sieve_all_hold", s["large_sieve_all_hold"] is True, ""),
        ("large_sieve_trials", s["large_sieve_trials"] == CHARSUMS_TRIALS, str(s["large_sieve_trials"])),
        ("pv_worst", worst_ok, json.dumps(worst, sort_keys=True)),
        ("fourth_moment", _close(s["fourth_moment_max_ratio"], CHARSUMS_FOURTH_MOMENT, REL_TOL),
         str(s["fourth_moment_max_ratio"])),
    ]


def _congruence_count(moduli, c_values, w_max) -> int:
    """#{(a, c, w) : c*w == 1 (mod a), 1 <= w <= w_max(a)} by modular inverses."""
    total = 0
    for a in moduli:
        W = w_max(a)
        for c in c_values:
            if gcd(c, a) != 1:
                continue
            w0 = pow(c, -1, a)
            if w0 <= W:
                total += (W - w0) // a + 1
    return total


def check_decompositions(payload: dict, seed: int) -> list[tuple[str, bool, str]]:
    """Both decompositions recombine to this file's own exact counts."""
    out = []
    instances = workloads.decomposition_instances(seed)
    rows = payload["decompositions"]
    out.append(("instance_count", len(rows) == len(instances), str(len(rows))))
    for i, ((moduli, c_values, W), row) in enumerate(zip(instances, rows)):
        mult = _congruence_count(moduli, c_values, lambda a: W)
        # mu = 1/2, so the per-modulus window [mu*a] is a // 2 exactly
        add = _congruence_count(moduli, c_values, lambda a: a // 2)
        out += [
            (f"mult_exact[{i}]", row["exact"] == mult, f"{row['exact']} vs {mult}"),
            (f"mult_recombined[{i}]", _close(row["main"] + row["remainder"], mult, DECOMP_TOL),
             f"{row['main'] + row['remainder']} vs {mult}"),
            (f"add_exact[{i}]", row["additive_exact"] == add, f"{row['additive_exact']} vs {add}"),
            (f"add_recombined[{i}]", _close(row["recombined"], add, DECOMP_TOL),
             f"{row['recombined']} vs {add}"),
        ]
    return out


def check_output(name: str, payload: dict, seed: int) -> list[tuple[str, bool, str]]:
    if name in workloads.HARVEST:
        return check_harvest(payload["run"], HARVEST_PINS[name])
    if name == "charsums":
        return check_charsums(payload)
    return check_decompositions(payload, seed)


def selftest() -> list[tuple[str, bool]]:
    """Confirm that a corrupted solution and a broken pigeonhole floor are caught.

    Returns (case, passed) pairs; every pair must pass.
    """
    clean = {
        "equation": "thm2",
        "s_full": [2, 3],
        "solutions": [[1, 1, 3], [2, 6, 9]],
        "bucket_stats": {"total_hits": 10, "nonempty_buckets": 4, "max_load": 3},
    }
    pin = harvest_digest(clean)

    def failed(run):
        return {name for name, ok, _ in check_harvest(run, pin) if not ok}

    altered = json.loads(json.dumps(clean))
    altered["solutions"][1] = [2, 6, 10]
    not_smooth = json.loads(json.dumps(clean))
    not_smooth["solutions"][1] = [2, 10, 13]
    low_load = json.loads(json.dumps(clean))
    low_load["bucket_stats"]["max_load"] = 2
    return [
        ("clean report passes", failed(clean) == set()),
        ("altered solution caught", {"solution[1]", "digest"} <= failed(altered)),
        ("non-smooth solution caught", "solution[1]" in failed(not_smooth)),
        ("max_load below floor caught", "pigeonhole_floor" in failed(low_load)),
    ]


if __name__ == "__main__":
    results = selftest()
    for case, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {case}")
    sys.exit(0 if all(ok for _, ok in results) else 1)
