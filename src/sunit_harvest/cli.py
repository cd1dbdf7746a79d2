"""Command-line front end.

Subcommands: thm1, thm2, prop1, oracle {sunit_pairs|prop1_triples|linear_count},
exponents, frontier, verify {charsums|sieve|circle}, smooth, siegel; each takes
only the flags it reads.  Pipeline runs read a plain-text key=value config file (one
pair per line, '#' comments).  Every command but frontier returns a payload that `main`
alone stamps with `timing` and writes as the JSON report.

Exit codes: 0 success, 2 empty harvest, 3 constraint violation, 4 resource
or factorization limit, 1 malformed config or usage.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from decimal import Decimal
from math import isfinite
from pathlib import Path

from .arith import PrimeSet, trial_factor
from .characters import (
    fourth_moment_ratio,
    large_sieve_check,
    polya_vinogradov_check,
)
from .circle import additive_decomposition
from .errors import (
    ConfigError,
    ConstraintViolation,
    DomainError,
    EmptyHarvest,
    EnumerationCap,
    FactorizationLimit,
    InsufficientPrimes,
    ResourceLimit,
    SunitHarvestError,
)
from .exponents import VARIANTS, check_constraints, optimality_frontier, regime_exponents
from .oracle import DEFAULT_BUDGET, brute_linear_count, brute_prop1_triples, brute_sunit_pairs
from .pipelines import (
    HarvestConfig,
    config_from_exponents,
    prop1_config,
    prop1_run,
    thm1_run,
    thm2_run,
)
from .report import SOLUTION_HEADERS, json_text, write_csv, write_json_report
from .smooth import DEFAULT_CAP, enumerate_squarefree_smooth, split_disjoint_prime_sets
from .siegel import siegel_small_solution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_CONSTRAINT = 3
EXIT_RESOURCE = 4

# the config keys each equation reads; a key its equation does not read is refused
_SHARED_KEYS = {"equation", "x", "t1", "t2", "t3", "t_interval", "t_split", "enum_cap", "hit_cap"}
_REGIME_KEYS = _SHARED_KEYS | {"alpha", "variant", "delta", "epsilon", "w", "z"}
_KEYS = {"thm1": _REGIME_KEYS | {"q"}, "thm2": _REGIME_KEYS | {"y"}, "prop1": _SHARED_KEYS}

_SHARED_FLAGS = {  # the flags several commands read; each command declares only those it reads
    "out": {"help": "write the JSON report here"},
    "solutions": {"help": "write the CSV artifact here"},
    "seed": {"type": int, "default": 20240601},
}


def parse_config_file(path: str | Path) -> dict:
    """key=value per line; '#' starts a comment; unknown keys are rejected."""
    params: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise SunitHarvestError(f"config {str(path)!r} is not UTF-8: {err}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in params:
            raise ConfigError(key, "duplicate key")
        params[key] = value
    for key in params:
        if key not in set().union(*_KEYS.values()):
            raise ConfigError(key, "unknown key")
    return params


def _number(params: dict, key: str, default: str | None = None, kind: type = float):
    """The exact value of a numeric config key; integer keys accept 1e6 but not 2.9."""
    text = params.get(key, default)
    try:
        if not isfinite(float(text)):
            raise ValueError(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None
    value = Decimal(text)  # exact; unlike Fraction, it never expands a huge exponent
    if kind is int and value != value.to_integral_value():
        raise ConfigError(key, f"expected an integer, got {text!r}")
    return kind(value)


def _integers(text: str, key: str) -> tuple[int, ...]:
    """The integers of a comma-separated flag or config value; empty items are skipped."""
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(key, f"expected comma-separated integers, got {text!r}") from None


def _at_least(least: int):
    """The argparse type of an unsigned integer flag whose value must be at least least."""

    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < least:  # a sign, no integer, or too small
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return int(text)

    return parse


def _parse_primes(text: str, key: str = "primes") -> PrimeSet:
    try:
        return PrimeSet(tuple(sorted(_integers(text, key))))
    except DomainError as err:  # a repeat or a non-prime
        raise ConfigError(key, str(err)) from None


def _prime_triple(params: dict) -> tuple[PrimeSet, PrimeSet, PrimeSet]:
    if "t_interval" in params:
        try:
            lo, hi = (int(v) for v in params["t_interval"].split(","))
        except ValueError:
            raise ConfigError("t_interval", "expected two integers lo,hi") from None
        m = _number(params, "t_split", "3", int)
        if m != 3:
            raise ConfigError("t_split", "pipelines need exactly 3 prime sets")
        try:
            return tuple(split_disjoint_prime_sets(lo, hi, 3))
        except InsufficientPrimes as err:
            raise ConfigError("t_interval", str(err)) from None
    try:
        return tuple(_parse_primes(params[key], key) for key in ("t1", "t2", "t3"))
    except KeyError as missing:
        raise ConfigError(missing.args[0], "missing prime set (t1/t2/t3 or t_interval)") from None


def build_harvest_config(params: dict) -> HarvestConfig:
    equation = params.get("equation")
    if equation not in _KEYS:
        raise ConfigError("equation", f"must be thm1, thm2 or prop1, got {equation!r}")
    for key in params:
        if key not in _KEYS[equation]:
            raise ConfigError(key, f"{equation} does not read this key")
    t1, t2, t3 = _prime_triple(params)
    if "x" not in params:
        raise ConfigError("x", "missing scale X")
    x = _number(params, "x", kind=int)
    # the caps, and the scales W, Z, Q and Y that replace the ones derived from alpha
    kwargs = {key: _number(params, key, kind=int) for key in ("enum_cap", "hit_cap") if key in params}
    kwargs.update((key, _number(params, key)) for key in ("z", "q", "y") if key in params)
    if "w" in params:
        kwargs["w_max"] = _number(params, "w", kind=int)
    if equation == "prop1":
        return prop1_config(x, t1, t2, t3, **kwargs)
    alpha = _number(params, "alpha", "0.1666666666666667" if equation == "thm1" else "0.52")
    variant = params.get("variant", "unconditional")
    if variant not in VARIANTS:
        raise ConfigError("variant", f"must be {' or '.join(VARIANTS)}, got {variant!r}")
    delta, epsilon = _number(params, "delta", "0.1"), _number(params, "epsilon", "0.01")
    return config_from_exponents(equation, x, alpha, variant, delta, t1, t2, t3, epsilon=epsilon, **kwargs)


def _timing(t0: float) -> dict:
    return {"wall_seconds": time.time() - t0, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}


def _run_pipeline(args) -> tuple[dict, int]:
    cfg = build_harvest_config(parse_config_file(args.config))
    if cfg.equation != args.command:
        raise ConfigError("equation", f"config says {cfg.equation}, command is {args.command}")
    # looked up at call time, so the names can be wrapped or patched on the module
    report = {"thm1": thm1_run, "thm2": thm2_run, "prop1": prop1_run}[cfg.equation](cfg)
    if args.solutions:
        write_csv(args.solutions, SOLUTION_HEADERS[report.equation], report.solution_rows)
    if report.bucket_stats["degenerate"]:
        warning = "every bucket holds one hit, so the popular key is only the least"
        print(f"warning: degenerate harvest: {warning}", file=sys.stderr)
    return {"run": report.as_dict()}, EXIT_OK


def _run_oracle(args) -> tuple[dict, int]:
    """oracle sunit_pairs|prop1_triples: args.brute over the S-units up to --bound."""
    res = args.brute(_parse_primes(args.primes), args.bound, args.cap)
    if args.solutions:  # the pipeline's CSV layout, blank past the solution's own columns
        write_csv(args.solutions, args.headers, [(*s, *[""] * (len(args.headers) - len(s))) for s in res.solutions])
    return {**vars(res)}, EXIT_OK


def _run_linear_count(args) -> tuple[dict, int]:
    a_vals, c_vals = _integers(args.a_set, "a-set"), _integers(args.c_set, "c-set")
    return {**vars(brute_linear_count(a_vals, c_vals, args.bound, args.shift, args.cap))}, EXIT_OK


def _run_frontier(args) -> tuple[None, int]:
    if args.kmax > 20:  # 2^kmax - 2 rows, about 1M at 20
        raise ResourceLimit(f"--kmax {args.kmax} beyond 20: the frontier has 2^kmax - 2 rows")
    rows = []
    for k in range(2, args.kmax + 1):
        for mask in range(1 << (k - 1)):  # the subsets I of {2, ..., k}; i is bit i - 2
            I = tuple(i for i in range(2, k + 1) if mask >> (i - 2) & 1)
            rows.append((k, *optimality_frontier(k, I)))
    if args.out:
        write_csv(args.out, ["k", "theta", "frontier"], rows)
    else:
        for row in rows:
            print(",".join(str(v) for v in row))
    return None, EXIT_OK


def _run_exponents(args) -> tuple[dict, int]:
    exps = regime_exponents(args.theorem, args.variant, args.alpha)
    payload = {
        "exponents": exps.as_dict(),
        "constraints": [
            {"name": n, "margin": v, "satisfied": ok}
            for n, v, ok in check_constraints(args.theorem, args.variant, args.alpha)
        ],
    }
    return payload, EXIT_OK


def _verify_charsums(args) -> tuple[dict, list]:
    rows = []
    worst = {"ratio": 0.0}
    squarefree = [q for q in range(3, args.qmax + 1) if _is_squarefree(q)]
    for q in squarefree:
        rep = polya_vinogradov_check(q)
        for idx, stat, bound, ratio in rep.rows:
            rows.append((q, idx, stat, bound, ratio))
        if rep.max_ratio > worst["ratio"]:
            worst = {
                "ratio": rep.max_ratio,
                "q": q,
                "character": rep.argmax_character,
                "M": rep.argmax_M,
                "N": rep.argmax_N,
            }
    pool = squarefree[: max(8, len(squarefree) // 4)]
    trials = _sieve_trials(random.Random(args.seed), pool, 40, 60, args.trials)
    fm_max = 0.0
    for q in squarefree[:40]:
        for N in (1, q // 2, q, 2 * q):
            fm_max = max(fm_max, fourth_moment_ratio(q, N))
    summary = {
        "polya_vinogradov_max": worst,
        "polya_vinogradov_all_pass": worst["ratio"] <= 1.0,
        "large_sieve_all_hold": all(t["holds"] for t in trials),
        "large_sieve_trials": len(trials),
        "fourth_moment_max_ratio": fm_max,
    }
    return summary, rows


def _sieve_trials(rng: random.Random, pool: list, y_max: int, span_max: int, trials: int) -> list:
    """Large-sieve checks on three random moduli from pool, a window (Y, Z] with
    Y <= y_max and Z - Y <= span_max, and random complex coefficients."""
    results = []
    for _ in range(trials):
        qs = sorted(rng.sample(pool, k=min(3, len(pool))))
        Y = rng.randint(0, y_max)
        Z = Y + rng.randint(1, span_max)
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(Z - Y)]
        lhs, rhs, holds = large_sieve_check(qs, Y, Z, coeffs)
        results.append({"Q": qs, "Y": Y, "Z": Z, "lhs": lhs, "rhs": rhs, "holds": holds})
    return results


def _run_charsums(args) -> tuple[dict, int]:
    if args.qmax > 1000:  # 1000 takes about 3.5 s and 96 MiB on a 2-core machine
        raise ResourceLimit(f"--qmax {args.qmax} beyond 1000 for verify charsums")
    summary, rows = _verify_charsums(args)
    if args.solutions:
        write_csv(args.solutions, ["modulus", "character_index", "statistic", "bound", "ratio"], rows)
    passed = summary["polya_vinogradov_all_pass"] and summary["large_sieve_all_hold"]
    return {"verify": "charsums", "summary": summary}, EXIT_OK if passed else EXIT_CONSTRAINT


def _run_sieve(args) -> tuple[dict, int]:
    pool = [q for q in range(3, 50) if _is_squarefree(q)]
    results = _sieve_trials(random.Random(args.seed), pool, 50, 200, args.trials)
    all_hold = all(r["holds"] for r in results)
    return {"verify": "sieve", "all_hold": all_hold, "trials": results}, EXIT_OK if all_hold else EXIT_CONSTRAINT


def _run_circle(args) -> tuple[dict, int]:
    if args.qmax > 100_000:  # arrays and transforms of length up to qmax per modulus
        raise ResourceLimit(f"--qmax {args.qmax} beyond 100000 for verify circle")
    rng = random.Random(args.seed)
    Z = args.qmax
    a_vals = sorted(rng.sample(range(max(3 * Z // 4, 2), Z + 1), k=min(4, Z - 3 * Z // 4)))
    c_vals = sorted(rng.sample(range(2, 4 * Z), k=30))
    mu = 0.5
    dec = additive_decomposition(a_vals, c_vals, mu)
    payload = {
        "verify": "circle",
        "exact_count": dec.exact_count,
        "recombined": dec.recombined,
        "exact_match": abs(dec.recombined - dec.exact_count) <= 1e-6 * max(1, dec.exact_count),
        "main": dec.main,
        "lambda": dec.lambda_cut,
        "cutoff": dec.cutoff,
        "truncated_sum": dec.truncated_sum,
        "tail_sum": dec.tail_sum,
    }
    if args.solutions:
        write_csv(args.solutions, ["a", "h", "s_mu_abs", "fraction_sum_abs", "term"], dec.rows)
    return payload, EXIT_OK if payload["exact_match"] else EXIT_CONSTRAINT


def _is_squarefree(q: int) -> bool:
    return all(e == 1 for _, e in trial_factor(q))


def _run_smooth(args) -> tuple[dict, int]:
    T = _parse_primes(args.primes)
    members = enumerate_squarefree_smooth(T, args.lo, args.hi, args.cap)
    payload = {
        "primes": list(T.primes),
        "lo": args.lo,
        "hi": args.hi,
        "count": len(members),
        "members": list(members),
    }
    return payload, EXIT_OK


def _run_siegel(args) -> tuple[dict, int]:
    alpha = _integers(args.alpha, "alpha")
    sol = siegel_small_solution(alpha, args.bound)
    return {"alpha": list(alpha), "B": args.bound, "z": list(sol.z), "bound": sol.bound}, EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error exits 1 with one line, like every other input error; a
        line break in an echoed argument becomes a space."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    """Each leaf command declares only the flags it reads; args.run(args) returns
    (payload, exit code), the payload None when the command writes no JSON report."""
    parser = _Parser(prog="sunit-harvest")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, run, help, *shared, **defaults):
        p = parent.add_parser(name, help=help)
        p.set_defaults(run=run, **defaults)
        for flag in shared:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        return p

    for name in ("thm1", "thm2", "prop1"):
        p = command(sub, name, _run_pipeline, f"run the {name} harvest pipeline", "out", "solutions")
        p.add_argument("--config", required=True)
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    p = sub.add_parser("oracle", help="brute-force ground truth")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, brute, equation, what in (
        ("sunit_pairs", brute_sunit_pairs, "thm1", "S-unit pairs (A, A + 1)"),
        ("prop1_triples", brute_prop1_triples, "prop1", "coprime S-unit triples a + b = c"),
    ):
        p = command(kinds, kind, _run_oracle, f"all {what} up to --bound", "out", "solutions",
                    brute=brute, headers=SOLUTION_HEADERS[equation])
        p.add_argument("--primes", required=True, help="comma-separated prime set S")
        p.add_argument("--bound", type=_at_least(0), required=True, help="enumeration bound")
        p.add_argument("--cap", type=_at_least(0), default=DEFAULT_BUDGET, help="most enumeration steps")
    p = command(kinds, "linear_count", _run_linear_count, "count c*w == shift (mod a)", "out")
    p.add_argument("--a-set", dest="a_set", required=True, help="comma-separated moduli")
    p.add_argument("--c-set", dest="c_set", required=True, help="comma-separated coefficients")
    p.add_argument("--bound", type=_at_least(0), required=True, help="W, the largest w counted")
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--cap", type=_at_least(0), default=DEFAULT_BUDGET, help="most (a, c, w) steps")

    p = command(sub, "exponents", _run_exponents, "regime exponent table and constraint margins", "out")
    p.add_argument("--theorem", choices=["thm1", "thm2"], required=True)
    p.add_argument("--variant", choices=["conditional", "unconditional"], required=True)
    p.add_argument("--alpha", type=float, required=True)
    p = command(sub, "frontier", _run_frontier, "the factorization frontier for k <= --kmax", "out")
    p.add_argument("--kmax", type=_at_least(2), default=12)  # the frontier starts at k = 2

    p = sub.add_parser("verify", help="analytic identity and inequality suites")
    whats = p.add_subparsers(dest="what", required=True)
    p = command(whats, "charsums", _run_charsums, "character sums and the large sieve", "out", "solutions", "seed")
    p.add_argument("--qmax", type=_at_least(3), default=50)  # the squarefree moduli from 3
    p.add_argument("--trials", type=_at_least(1), default=100)  # zero trials would hold vacuously
    p = command(whats, "sieve", _run_sieve, "large-sieve trials", "out", "seed")
    p.add_argument("--trials", type=_at_least(1), default=100)
    p = command(whats, "circle", _run_circle, "additive decomposition", "out", "solutions", "seed")
    p.add_argument("--qmax", type=_at_least(8), default=50)  # 30 distinct c < 4 * qmax

    p = command(sub, "smooth", _run_smooth, "enumerate squarefree smooth numbers", "out")
    p.add_argument("--primes", required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--cap", type=_at_least(0), default=DEFAULT_CAP, help="most members listed")

    p = command(sub, "siegel", _run_siegel, "small solution of a linear form", "out")
    p.add_argument("--alpha", required=True, help="comma-separated coefficients")
    p.add_argument("--bound", type=int, required=True, help="coefficient bound B")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        for flag in ("out", "solutions"):  # before the run prints or writes anything
            path = getattr(args, flag, None)
            if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
                raise OSError(f"--{flag} {path!r} is not a file in an existing directory")
        if getattr(args, "trials", 0) > 10_000:  # each trial takes about 0.17 ms and goes into the report
            raise ResourceLimit(f"--trials {args.trials} beyond 10000")
        payload, code = args.run(args)
        if payload is not None:
            payload["timing"] = _timing(t0)
            if "seed" in args:  # the commands that draw random numbers echo their seed
                payload["seed"] = args.seed
            if args.out:
                write_json_report(payload, args.out)
            else:
                sys.stdout.write(json_text(payload))
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyHarvest as err:
        print(f"empty harvest: {err}", file=sys.stderr)
        return EXIT_EMPTY
    except ConstraintViolation as err:
        print(f"constraint violation: {err}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (ResourceLimit, EnumerationCap, FactorizationLimit) as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as err:  # numpy's message names the array it could not allocate
        print("resource limit: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return EXIT_RESOURCE
    # OSError: reading --config, writing --out or --solutions
    except (SunitHarvestError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
