"""One benchmark process: set up one workload, optionally run it once, check it.

    python3 perfbench/worker.py WORKLOAD --seed N --work DIR [--setup-only]
                                [--trace] [--threads N]

Prints one JSON line: `ready` (CLOCK_MONOTONIC when the inputs were ready, so
the parent can measure set-up from its spawn time) and `ref_setup_s`, and
after a run `wall_s`, `cpu_s`, `ref_s`, `rss_mb`, `rc`, the output `checks`,
and with --trace the per-layer metrics and span shares.  Each run gets a fresh
process so that `ru_maxrss` belongs to that run alone.

A single-threaded worker pins itself to one CPU and times a fixed reference
loop right after set-up (`ref_setup_s`) and again after the workload (`ref_s`
is the mean of the two).  The CPUs of a shared host switch between speed
regimes about 1.45x apart that last from seconds to minutes; dividing a time
by the reference time of the same process cancels most of that drift.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def _reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop; never change it between commits."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(600_000):
        acc += i * i % 7
        table[i & 4095] = acc
    return time.perf_counter() - t0


def _smoothset(values):
    """Wrap explicit integers into the SmoothSet the decomposition entry points take."""
    from sunit_harvest.arith import FactoredInt, PrimeSet, trial_factor
    from sunit_harvest.smooth import SmoothSet

    members = tuple(FactoredInt(v, trial_factor(v)) for v in values)
    primes = sorted({p for m in members for p, _ in m.factors})
    return SmoothSet(PrimeSet(tuple(primes)), values[0], values[-1], members)


def setup(name: str, seed: int, work: Path, threads: int):
    """Import the package and build the inputs; returns the entry call."""
    from sunit_harvest import characters, circle, cli, report

    out = work / "report.json"
    config = workloads.cli_config(name)
    config_path = work / "input.cfg"
    if config is not None:
        config_path.write_text(config)
    argv = workloads.cli_argv(name, seed, str(config_path), str(out), threads)
    if argv is not None:
        return out, lambda: cli.main(argv)

    instances = [(_smoothset(a), _smoothset(c), W) for a, c, W in workloads.decomposition_instances(seed)]

    def decompose() -> int:
        rows = []
        for A, C, W in instances:
            main, remainder, exact = characters.multiplicative_decomposition(A, C, W)
            dec = circle.additive_decomposition(A, C, workloads.DECOMP_MU)
            rows.append({
                "moduli": len(A),
                "main": main,
                "remainder": remainder,
                "exact": exact,
                "additive_main": dec.main,
                "recombined": dec.recombined,
                "additive_exact": dec.exact_count,
            })
        report.write_json_report({"decompositions": rows}, out)
        return 0

    return out, decompose


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    if args.threads == 1:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out, entry = setup(args.workload, args.seed, args.work, args.threads)
    result = {"ready": time.monotonic(), "ref_setup_s": _reference_s()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = entry()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    ref_s = (result["ref_setup_s"] + _reference_s()) / 2
    result.update(wall_s=wall, cpu_s=cpu, ref_s=ref_s, rss_mb=_peak_rss_mb(), rc=rc)

    payload = json.loads(out.read_text())
    result["checks"] = checks.check_output(args.workload, payload, args.seed)
    if args.workload in workloads.HARVEST:
        result["solutions"] = len(payload["run"]["solutions"])
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["shares"] = tracing.span_shares(tracer, wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
