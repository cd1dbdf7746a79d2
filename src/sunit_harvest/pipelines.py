"""The three harvest pipelines.

Each pipeline enumerates near-solutions of a linear equation whose
coefficients run over squarefree smooth sets, tallies them into buckets keyed
by the small free variables, fixes the most popular bucket, and then adjoins
the primes of that bucket's key to the base prime set so that every hit in the
bucket becomes an actual solution of the target equation:

    thm1   a*u + 1     = c*w      ->  A + 1 = C        (A, C) = (a*u, c*w), c = q*r
    thm2   a*u + b + 1 = c*w      ->  A + B + 1 = C    (A, B, C) = (a*u, b, c*w)
    prop1  a1*z1 + a2*z2 + a3*z3 = 0  ->  a + b = c    after gcd reduction

All three run on one core: the walk emits one packed key per hit (a
`KeyPacking` of the small free variables, in ranges known from the sets: int32
if they fit, else int64), into one array, `popular_bucket` sorts it in place, takes
the popular key from its first longest run of equal keys and unpacks it, and
each equation lists that key's bucket from the key alone, as
(candidate solution, coefficients) pairs in exact integers.  `_harvest`
checks that listing against the count; `_report` adjoins the key's primes,
dedupes and verifies, and builds the one report with rows solution +
coefficients + key.  thm1 and thm2 share one linear
harvest of a*u + s = c*r*w: thm1 at s = 1 with c*r over Q*R, thm2 at s = b + 1
with R = {1}, walked with the kernel of `stepping`; prop1 walks every
coefficient triple in one batched kernel-vector search, `siegel.nonzero_vectors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ceil, floor, gcd, isqrt, log2, prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .arith import PrimeSet, factor_over, prime_support
from .errors import (
    ConfigError,
    DomainError,
    EmptyHarvest,
    ResourceLimit,
)
from .exponents import regime_exponents
from .report import compare_bounds
from .siegel import nonzero_vectors, siegel_nonzero_coords
from .smooth import DEFAULT_CAP, enumerate_squarefree_smooth
from .stepping import _int64, _unit_inverse, count_hits, progressions


@dataclass
class HarvestReport:
    equation: str
    s_prime: tuple[int, ...]
    s_full: tuple[int, ...]
    popular_key: tuple
    solution_rows: tuple  # per kept solution: solution + originating variables + key
    bucket_stats: dict
    set_sizes: dict
    audits: dict
    bound_comparison: dict | None = None
    s_bound: dict | None = None
    config_echo: dict | None = None

    @property
    def solutions(self) -> tuple:
        """The kept solutions in sorted order: the leading columns of each row."""
        width = 2 if self.equation == "thm1" else 3
        return tuple(row[:width] for row in self.solution_rows)

    def as_dict(self) -> dict:
        return {**vars(self), "solutions": self.solutions}  # json writes the tuples as lists


@dataclass(frozen=True)
class HarvestConfig:
    """Scales, prime sets and caps for one pipeline run, checked when it is made
    (ConfigError) and immutable after, so no run checks it again.

    Prime intervals at paper scale are degenerate on a desk, so the prime sets
    are given explicitly while Z, W (and Y, Q) are derived from X through
    the regime exponent formulas (see `config_from_exponents`), and R is X / Q;
    prop1 reads only X, the prime sets and the caps.  hit_cap bounds the hits of
    a run before any key array: thm1 and thm2 refuse their exact count past it,
    prop1 its coefficient triples, since each gives at most one hit.
    """

    equation: str
    t1: PrimeSet
    t2: PrimeSet
    t3: PrimeSet
    x: int
    delta: float
    w_max: int | None = None
    z: float | None = None
    q: float | None = None
    y: float | None = None
    alpha: float | None = None
    variant: str | None = None
    epsilon: float = 0.01
    enum_cap: int = DEFAULT_CAP
    hit_cap: int = 50_000_000

    @property
    def r(self) -> float | None:
        """thm1's factor scale R = X / Q, so that Q * R = X."""
        return None if self.q is None else self.x / self.q

    def __post_init__(self):
        if self.equation not in ("thm1", "thm2", "prop1"):
            raise ConfigError("equation", f"unknown equation {self.equation!r}")
        for name, a, b in (("t1/t2", self.t1, self.t2), ("t1/t3", self.t1, self.t3), ("t2/t3", self.t2, self.t3)):
            if not set(a.primes).isdisjoint(b.primes):
                raise ConfigError(name, "prime sets must be pairwise disjoint")
        if self.x < 2:
            raise ConfigError("x", f"need X >= 2, got {self.x}")
        if not 0 < self.delta < 1:
            raise ConfigError("delta", "need 0 < delta < 1")
        for key in ("enum_cap", "hit_cap"):
            if getattr(self, key) < 0:
                raise ConfigError(key, f"need a cap >= 0, got {getattr(self, key)}")
        if self.epsilon <= 0:  # the paper's epsilon is positive; compare_bounds overflows far below 0
            raise ConfigError("epsilon", f"need epsilon > 0, got {self.epsilon}")
        if self.equation != "prop1" and (self.w_max is None or self.z is None):
            raise ConfigError("w", f"{self.equation} needs the W and Z scales")
        if self.equation != "prop1" and self.w_max < 1:
            raise ConfigError("w", f"need W >= 1, got {self.w_max}")
        if self.equation == "thm1":
            if self.w_max > min(self.x, self.z):
                raise ConfigError("w", "need W <= min(X, Z)")
            if not (self.x ** (1 / 100) <= self.z <= self.x**100):
                raise ConfigError("z", "need X^(1/100) <= Z <= X^100")
            if self.q is None or self.q <= 0:  # R = X / Q
                raise ConfigError("q", f"thm1 needs a Q scale > 0, got {self.q}")
        if self.equation == "thm2":
            if self.y is None:
                raise ConfigError("y", "thm2 needs the Y scale")
            if not 0 < self.z <= min(self.x, self.y):  # a power of Z <= 0 is complex or infinite
                raise ConfigError("z", "need 0 < Z <= min(X, Y)")
            if self.y > self.x * self.w_max * (1 + 1e-9):
                raise ConfigError("y", "need Y <= X * W")

    def echo(self) -> dict:
        """The config for the report: the keys the equation reads, and thm1's R = X / Q."""
        echo = {"equation": self.equation, "t1": list(self.t1.primes), "t2": list(self.t2.primes),
                "t3": list(self.t3.primes), "x": self.x}
        if self.equation != "prop1":
            echo.update(delta=self.delta, w=self.w_max, z=self.z, alpha=self.alpha, variant=self.variant,
                        epsilon=self.epsilon)
            echo.update({"q": self.q, "r": self.r} if self.equation == "thm1" else {"y": self.y})
        return echo


def config_from_exponents(
    equation: str,
    x: int,
    alpha: float,
    variant: str,
    delta: float,
    t1: PrimeSet,
    t2: PrimeSet,
    t3: PrimeSet,
    **kwargs,
) -> HarvestConfig:
    """Instantiate concrete scales from the regime exponent formulas.

    kwargs set other fields; a scale among them (w_max, z, q or y) replaces the
    derived one, and Q and Y are still derived from the derived Z and W.
    """
    if x < 2:  # before any power of X: 0 ** -e divides by zero, (-5) ** e is complex
        raise ConfigError("x", f"need X >= 2, got {x}")
    if not 0 < delta < 1:  # before Q = Z^(1 - delta), which overflows for a huge delta
        raise ConfigError("delta", "need 0 < delta < 1")
    theorem = "thm1" if equation == "thm1" else "thm2"
    exps = regime_exponents(theorem, variant, alpha)
    z = float(x) ** exps.z_exp
    w = max(1, int(float(x) ** exps.w_exp))
    if equation == "thm1":
        derived = {"q": z ** (1 - delta)}
    else:
        # exponent arithmetic gives Y = X * W exactly; rounding W down keeps Y <= X*W
        derived = {"y": min(float(x) ** exps.y_exp, float(x) * w)}
    return HarvestConfig(
        equation=equation,
        t1=t1,
        t2=t2,
        t3=t3,
        x=x,
        delta=delta,
        alpha=alpha,
        variant=variant,
        **{"w_max": w, "z": z, **derived, **kwargs},
    )


def prop1_config(x: int, t1: PrimeSet, t2: PrimeSet, t3: PrimeSet, **kwargs) -> HarvestConfig:
    """A prop1 config.  Each coefficient triple costs a kernel-vector search, so
    the hit cap defaults to 2,000,000 rather than the thm1/thm2 50,000,000."""
    return HarvestConfig("prop1", t1, t2, t3, x, **{"delta": 0.1, "hit_cap": 2_000_000, **kwargs})


def _range(scale: float, delta: float) -> tuple[int, int]:
    """Integer window [scale^(1-delta), scale].  An end within 1e-9 relative of
    an integer is that integer: 27000 ** (1/3) is 29.999999999999996, not 29."""

    def snap(v: float) -> float:
        n = round(v)
        return n if abs(v - n) <= 1e-9 * abs(v) else v

    return max(2, ceil(snap(scale ** (1 - delta)))), floor(snap(scale))


def _window_sets(config: HarvestConfig, equation: str, windows: Iterable) -> list[tuple[int, ...]]:
    """List the squarefree smooth numbers over t1, t2 and t3 of a config for
    equation in the three windows (key, lo, hi); the windows are read only after
    the equation is checked, and an empty one is a ConfigError naming the key
    that sets it."""
    if config.equation != equation:
        raise ConfigError("equation", f"config is not a {equation} config")
    windows = list(windows)
    for key, lo, hi in windows:
        if lo > hi:
            raise ConfigError(key, f"the window [{lo}, {hi}] it sets holds no integer")
    return [
        enumerate_squarefree_smooth(t, lo, hi, config.enum_cap)
        for t, (_, lo, hi) in zip((config.t1, config.t2, config.t3), windows)
    ]


class KeyPacking:
    """Integer keys with lows[i] <= key[i] < lows[i] + sizes[i], packed into one
    value each in mixed radix, so packed order is lexicographic key order, by
    `pack` into out or a new array of int32 when the packed values fit, else int64.

    Raises ResourceLimit, before any key array is built, when the
    prod(sizes) packed values pass int64.
    """

    def __init__(self, lows: Sequence[int], sizes: Sequence[int], what: str):
        if prod(sizes) > 2**63:  # the largest packed key is prod(sizes) - 1
            raise ResourceLimit(f"{what} keys pack into {prod(sizes)} values, beyond int64")
        self.lows, self.sizes = tuple(lows), tuple(sizes)
        fits = prod(sizes) <= 2**31 and all(abs(v) < 2**31 for v in self.lows[1:] + self.sizes[1:])  # pack's scalars
        self.dtype = np.dtype(np.int32 if fits else np.int64)

    def pack(self, *columns: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(len(columns[0]), self.dtype) if out is None else out
        packed = np.subtract(columns[0], self.lows[0], out=out)
        for column, low, size in zip(columns[1:], self.lows[1:], self.sizes[1:]):
            packed *= size  # in place: one array for the whole pack
            packed += column
            packed -= low
        return packed

    def unpack(self, packed: int) -> tuple[int, ...]:
        digits = []
        for low, size in zip(self.lows[::-1], self.sizes[::-1]):
            packed, digit = divmod(packed, size)
            digits.append(low + digit)
        return tuple(digits[::-1])


def _longest_run(s: np.ndarray) -> tuple[int, int]:
    """(length, start) of the first longest run of equal values in a sorted,
    nonempty int32 or int64 array.  A run of length m exists iff s[i] == s[i + m - 1]
    for some i, so m gallops and then bisects, one comparison pass per probe;
    no index array the length of s is made."""
    n = len(s)

    def ends_equal(m: int) -> np.ndarray:  # at i: s[i] == s[i + m - 1]
        return s[m - 1 :] == s[: n - m + 1]

    have, over = 1, 2  # a run of length `have` exists; `over` is untested
    while over <= n and ends_equal(over).any():
        have, over = over, 2 * over
    over = min(over, n + 1)  # no run of length `over` exists
    while over - have > 1:
        m = (have + over) // 2
        have, over = (m, over) if ends_equal(m).any() else (have, m)
    return have, int(np.argmax(ends_equal(have)))


def popular_bucket(keys: np.ndarray, unpack: Callable[[int], tuple]) -> tuple[tuple, dict]:
    """The key of maximal count over the packed hit keys, unpacked as Python
    ints, and the bucket statistics; ties go to the smallest packed key.

    keys is a 1-D int32 or int64 array, one packed key per hit (int32 when the
    packed range fits, else int64), and is sorted in place;
    unpack maps a packed key (a Python int) to its key.  A KeyPacking keeps key
    order, so the tie-break is the lexicographically smallest key.
    """
    if not len(keys):
        raise EmptyHarvest("no nonempty bucket")
    keys.sort()  # in place: the first longest run is then the smallest popular key
    max_load, start = _longest_run(keys)
    buckets = int(np.count_nonzero(keys[1:] != keys[:-1])) + 1
    stats = {
        "total_hits": len(keys),
        "nonempty_buckets": buckets,
        "max_load": max_load,
        "pigeonhole_floor": ceil(len(keys) / buckets),
    }
    return unpack(int(keys[start])), stats


_EQUATIONS = {  # the equation a solution tuple satisfies; prop1's terms are also coprime
    "thm1": lambda t: len(t) == 2 and t[0] + 1 == t[1],
    "thm2": lambda t: len(t) == 3 and t[0] + t[1] + 1 == t[2],
    "prop1": lambda t: len(t) == 3 and t[0] + t[1] == t[2] and min(t[:2]) >= 1 and gcd(t[0], t[1]) == 1,
}


def verify_sunit_solution(tup: Sequence[int], equation: str, S: PrimeSet) -> bool:
    """Equation holds exactly and every component factors over S (|1| admitted,
    as the empty product).  prop1 solutions must also be coprime.
    """
    if equation not in _EQUATIONS:
        raise DomainError(f"unknown equation {equation!r}")
    return _EQUATIONS[equation](tup) and all(v != 0 and factor_over(abs(v), S) is not None for v in tup)


def _harvest(
    keys: np.ndarray, listing: Callable, packing: KeyPacking, possible_buckets: int
) -> tuple[tuple, dict, tuple, list]:
    """Fix the popular key of all hits, packed by packing into keys, and list its bucket.

    keys is sorted in place; listing(key) returns that key's bucket, one entry
    per hit.  possible_buckets counts the keys the equation admits.
    Returns the least and greatest hit keys, the bucket statistics, the key and
    the listed bucket; raises RuntimeError when listing and count disagree.
    """
    key, stats = popular_bucket(keys, packing.unpack)  # sorts keys
    stats["possible_buckets"] = possible_buckets
    stats["expected_load"] = stats["total_hits"] / possible_buckets
    stats["degenerate"] = stats["max_load"] == 1
    bucket = listing(key)
    if len(bucket) != stats["max_load"]:
        raise RuntimeError(f"popular key {key}: counted {stats['max_load']} hits, listed {len(bucket)}")
    span = packing.unpack(int(keys[0])), packing.unpack(int(keys[-1]))
    return span, stats, key, bucket


def _report(
    equation: str, key: tuple, stats: dict, candidates: Iterable[tuple], s_prime: PrimeSet, set_sizes: dict, **audits
) -> HarvestReport:
    """The report of a harvest whose popular key is key: adjoin the key's primes
    to S' and keep the distinct candidates that verify over the enlarged set S.

    candidates yields (solution, coefficients) pairs; the kept ones become the
    sorted rows solution + coefficients + key.  A repeated solution is skipped,
    and audits gains verify_failures, the distinct solutions that fail.
    """
    S = s_prime.union(PrimeSet(prime_support(prod(key))))  # only the key's few primes are proven again
    seen = set()
    rows = []
    failures = 0
    for solution, coefficients in candidates:
        if solution in seen:
            continue
        seen.add(solution)
        if not verify_sunit_solution(solution, equation, S):
            failures += 1
            continue
        rows.append(solution + coefficients + key)
    rows.sort()
    audits["verify_failures"] = failures
    return HarvestReport(equation, s_prime.primes, S.primes, key, tuple(rows), stats, set_sizes, audits)


def _check_sets(**sets: Sequence[int]) -> None:
    """DomainError when a set repeats a value, whose hits would count twice, or holds one below
    its least (0 for B, 1 for the others), where the (u, w) packing's range of u would not hold."""
    for name, values in sets.items():
        ordered, least = sorted(values), 0 if name == "B" else 1
        if ordered and ordered[0] < least:
            raise DomainError(f"{name} holds {ordered[0]}, below {least}")
        for v, v_next in zip(ordered, ordered[1:]):
            if v == v_next:
                raise DomainError(f"{name} repeats {v}")


def _linear_harvest(
    a_values: Sequence[int], shifts: Sequence[int], c_values: Sequence[int], r_values: Sequence[int], W: int, hit_cap
) -> tuple[tuple, dict, tuple, list, int]:
    """The harvest of a*u + s = c*r*w, u != 0, over a in A, s in shifts, c in C and
    r in R with c*r coprime to a and 1 <= w <= W, keyed by (u, w) packed in one int32 or int64.

    For a unit r, c*r*w == s (mod a) iff c*w == s*r^-1 (mod a): the kernel runs C against
    the columns rho = s*r^-1 mod a and yields u = r*(c*w // a) + (r*rho - s) / a, so no
    product c*r and no row index is formed.  The exact count is refused past hit_cap
    (ResourceLimit) before any key array exists, and sizes the one array; a modulus writes
    its keys once its walk matched its count (RuntimeError otherwise).  Returns `_harvest`'s
    tuple, whose bucket lists (a, s, c*r), each product m = (a*u + s) / w split over the
    smaller of C and R, and the number of u = 0 hits.  ResourceLimit also when the packing,
    c*r*W - s or r_max*a_max - s passes int64.  The callers check the sets (`_check_sets`)."""
    # an empty set has no hits, which `popular_bucket` reports; its defaults only keep the bounds finite
    a_min, c_max, r_max = min(a_values, default=1), max(c_values, default=1), max(r_values, default=1)
    # from 1 <= a*u + s <= c_max*r_max*W; a shift > 0 lowers only u_lo, a shift < 0 raises only u_hi
    u_lo, u_hi = -(max([0, *shifts]) // a_min) - 1, (c_max * r_max * W - min([0, *shifts])) // a_min
    packing = KeyPacking((u_lo, 1), (u_hi - u_lo + 1, W), "(u, w)")
    c_array, r_array = _int64(c_values, shifts, W * r_max), _int64(r_values, shifts, W * c_max)
    if r_max * max(a_values, default=1) - min([0, *shifts]) >= 2**63:  # r*rho - s in d below
        raise ResourceLimit(f"residue columns r*(s*r^-1 mod a) - s, r <= {r_max}, a <= {max(a_values)} beyond int64")
    s_array = np.array(shifts, dtype=np.int64)

    def columns(a: int) -> tuple[np.ndarray, np.ndarray]:  # rho = s*r^-1 mod a by (s, unit r mod a), and those r
        inv, unit = _unit_inverse(r_array, a)
        return (s_array % a)[:, None] * inv[unit] % a, r_array[unit]

    counts = [count_hits([a], c_array, W, columns(a)[0].ravel()) for a in a_values]
    if sum(counts) > hit_cap:
        raise ResourceLimit(f"{sum(counts)} hits beyond hit cap {hit_cap}")
    keys, n = np.empty(sum(counts), dtype=packing.dtype), 0
    for a, count in zip(a_values, counts):
        rho, units = columns(a)
        d = rho * units  # d = (r*rho - s) / a, in place
        d -= s_array[:, None]
        d //= a
        r = np.tile(units, s_array.size) if r_max > 1 else 1  # R = {1} multiplies by 1
        u, w = progressions(a, c_array, rho.ravel(), W, d.ravel(), r)
        if len(u) != count:
            raise RuntimeError(f"modulus {a}: counted {count} hits, walked {len(u)}")
        keep = u != 0
        k = int(np.count_nonzero(keep))
        packing.pack(u[keep], w[keep], out=keys[n : n + k])
        n += k

    def listing(key: tuple) -> list:
        u, w = key
        small, large = sorted((c_values, r_values), key=len)
        large = set(large)
        bucket, s_min, s_max = [], int(s_array.min()), int(s_array.max())
        for a in a_values:
            # the shifts with 1 <= a*u + s <= c_max*r_max*w; a*u meets numpy only if one is, and then fits int64
            lo, hi = max(1 - a * u, s_min), min(c_max * r_max * w - a * u, s_max)
            if lo > hi:
                continue
            inside = s_array[(s_array >= lo) & (s_array <= hi)]
            ms, rem = np.divmod(inside + a * u, w)
            ok = (rem == 0) & (np.gcd(ms, a) == 1)
            for s, m in zip(inside[ok].tolist(), ms[ok].tolist()):
                bucket += [(a, s, m) for d in small if m % d == 0 and m // d in large]
        return bucket

    return *_harvest(keys[:n], listing, packing, (u_hi - u_lo) * W), len(keys) - n  # the u = 0 hits have no key


def _with_config(report: HarvestReport, config: HarvestConfig) -> HarvestReport:
    """The report with the fields its config decides: the bound comparison at
    the config's epsilon and the config echo."""
    report.bound_comparison = compare_bounds(
        len(report.s_full), report.equation, config.epsilon, len(report.solution_rows)
    )
    report.config_echo = config.echo()
    return report


def thm1_harvest(
    a_values: Sequence[int], q_values: Sequence[int], r_values: Sequence[int], W: int, s_prime: PrimeSet, hit_cap
) -> HarvestReport:
    """Core A + 1 = C harvest over A, Q and R, C = Q*R: the linear harvest at the shift 1."""
    _check_sets(A=a_values, Q=q_values, R=r_values)
    _, stats, key, bucket, _ = _linear_harvest(a_values, [1], q_values, r_values, W, hit_cap)
    u, w = key
    candidates = (((a * u, c * w), (a, c)) for a, _, c in bucket)
    set_sizes = {"Q": len(q_values), "R": len(r_values), "A": len(a_values), "C": len(q_values) * len(r_values)}
    return _report("thm1", key, stats, candidates, s_prime, set_sizes)


def thm1_run(config: HarvestConfig) -> HarvestReport:
    """Harvest solutions of A + 1 = C from near-solutions of a*u + 1 = c*w, c in Q*R."""
    scales = (("q", config.q), ("q", config.r), ("z", config.z))  # q sets R = X / Q too
    q_values, r_values, a_values = _window_sets(config, "thm1", ((k, *_range(s, config.delta)) for k, s in scales))
    W = config.w_max
    report = thm1_harvest(a_values, q_values, r_values, W, config.t1.union(config.t2, config.t3), config.hit_cap)
    s = len(report.s_full)
    additive_cap = len(report.s_prime) + log2(W) + log2(config.x * W / config.z ** (1 - config.delta))
    report.s_bound = {
        "s_prime": len(report.s_prime),
        "s": s,
        "additive_cap": additive_cap,
        "holds": s <= additive_cap,
    }
    return _with_config(report, config)


def thm2_harvest(
    a_values: Sequence[int], b_values: Sequence[int], c_values: Sequence[int], W: int, s_prime: PrimeSet, hit_cap
) -> HarvestReport:
    """Core A + B + 1 = C harvest over explicit coefficient sets: the linear
    harvest at the shifts b + 1.

    u = 0 hits are discarded (they would not tie distinct moduli to distinct
    A values); the per-modulus count of b with gcd(b+1, a) = 1 is recorded as
    an audit statistic rather than used as a filter.
    """
    _check_sets(A=a_values, B=b_values, C=c_values)
    shifts = [b + 1 for b in b_values]
    span, stats, key, bucket, u0_discards = _linear_harvest(a_values, shifts, c_values, [1], W, hit_cap)
    s_array = np.array(shifts, dtype=np.int64)
    coprime_b = min(int(np.count_nonzero(np.gcd(s_array, a) == 1)) for a in a_values)  # over the moduli
    u, w = key
    candidates = [((a * u, s - 1, c * w), (a, s - 1, c)) for a, s, c in bucket]
    nondegenerate = [(t, p) for t, p in candidates if t[0] != -1 and t[1] != -1 and t[2] != 1]
    set_sizes = {"A": len(a_values), "B": len(b_values), "C": len(c_values)}
    return _report(
        "thm2", key, stats, nondegenerate, s_prime, set_sizes,
        u_zero_discards=u0_discards,
        degenerate_filtered=len(candidates) - len(nondegenerate),
        coprime_b_min_fraction=coprime_b / len(b_values),
        u_range_observed=[span[0][0], span[1][0]],
    )


def thm2_run(config: HarvestConfig) -> HarvestReport:
    """Harvest solutions of A + B + 1 = C from near-solutions of a*u + b + 1 = c*w."""
    scales = (("x", config.x), ("y", config.y), ("z", config.z))
    c_values, b_values, a_values = _window_sets(config, "thm2", ((k, *_range(s, config.delta)) for k, s in scales))
    s_prime = config.t1.union(config.t2, config.t3)
    report = thm2_harvest(a_values, b_values, c_values, config.w_max, s_prime, config.hit_cap)
    scale = config.z ** (1 - config.delta)
    report.audits["u_range_theoretical"] = [-config.y / scale, config.x * config.w_max / scale]
    return _with_config(report, config)


def prop1_run(config: HarvestConfig) -> HarvestReport:
    """Harvest coprime triples a + b = c from small kernel vectors of linear forms.

    For each coefficient triple over the three smooth sets up to x, a small
    all-nonzero kernel vector bounded by sqrt(3x) is selected deterministically,
    by one search over every triple; triples are bucketed by that vector, and
    the popular vector is fixed.  Its hits are reduced by their gcd to coprime
    solutions: with every term nonzero, the two smaller magnitudes a <= b add
    up to the largest c.
    """
    x = config.x
    sets = _window_sets(config, "prop1", [("x", 2, x)] * 3)
    n_triples = len(sets[0]) * len(sets[1]) * len(sets[2])
    if n_triples > config.hit_cap:
        raise ResourceLimit(f"{n_triples} coefficient triples beyond hit cap {config.hit_cap}")
    M = isqrt(3 * x)  # z1 in [1, M], z2 and z3 in [-M, M]
    packing = KeyPacking((1, -M, -M), (M, 2 * M + 1, 2 * M + 1), "kernel vector")
    a3_set = set(sets[2])

    def listing(z: tuple) -> list:
        # the triples with a.z = 0 whose vector, by the scalar search, is z
        bucket = []
        for a1, a2 in product(sets[0], sets[1]):
            a3, r = divmod(-(a1 * z[0] + a2 * z[1]), z[2])
            if r or a3 not in a3_set:
                continue
            sol = siegel_nonzero_coords((a1, a2, a3), M)
            if sol is not None and sol.z == z:
                t = sorted(abs(a * v) for a, v in zip((a1, a2, a3), z))
                g = gcd(*t)
                bucket.append((tuple(v // g for v in t), (a1, a2, a3)))
        return bucket

    if not sets[0]:  # no scan at all
        raise EmptyHarvest("no coefficients to walk")
    # one scan over all of A1; the sets' primes are disjoint, so gcd(a2, a3) == 1
    z, found = nonzero_vectors(sets[0], list(product(sets[1], sets[2])), M)
    keys, skipped_triples = packing.pack(*z.T)[found], len(found) - int(found.sum())
    del z, found  # freed before the listing, and the keys after the harvest
    _, stats, key, bucket = _harvest(keys, listing, packing, M * (2 * M) ** 2)  # z2, z3 != 0
    del keys
    s_prime = config.t1.union(config.t2, config.t3)
    set_sizes = {"A1": len(sets[0]), "A2": len(sets[1]), "A3": len(sets[2])}
    report = _report(
        "prop1", key, stats, bucket, s_prime, set_sizes,
        skipped_triples=skipped_triples,
        skip_rate=skipped_triples / n_triples if n_triples else 0.0,
    )
    # each hit is kept, fails or repeats a reduced solution seen before
    report.audits["reduced_duplicates"] = len(bucket) - len(report.solution_rows) - report.audits["verify_failures"]
    return _with_config(report, config)


PAIR_CAP = 4_000_000  # most (c, c') pairs pair_collision_stats compares; no harvest run calls it


def pair_collision_stats(values: Sequence[int]) -> tuple[int, int]:
    """Max over n != 0 of the number of pairs with c - c' = n, with a witness n.

    Counts at n and -n agree by symmetry, so the witness is the smallest
    positive arg-max; (0, 0) when no pair exists.
    """
    vals = sorted(values)
    m = len(vals)
    if m * m > PAIR_CAP or (m and vals[-1] - vals[0] >= 2**63):
        raise ResourceLimit("pair count or value range beyond cap")
    v = np.array([c - vals[0] for c in vals], dtype=np.int64)
    # the lower-triangle differences v[i] - v[j], j < i, row by row; all >= 0 as v is sorted
    diffs = np.empty(m * (m - 1) // 2, dtype=np.int64)
    for i in range(1, m):
        np.subtract(v[i], v[:i], out=diffs[i * (i - 1) // 2 : i * (i + 1) // 2])
    diffs.sort()
    n = diffs[np.searchsorted(diffs, 1) :]  # a view: the nonzero differences
    if not len(n):
        return 0, 0
    count, start = _longest_run(n)
    return count, int(n[start])
