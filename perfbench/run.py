"""The harvest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A closed loop with one client: each repetition is one fresh single-threaded
worker process (perfbench/worker.py) that imports the package, builds the
seeded inputs, runs the workload once and checks the output.  With --trace 0,
repetitions continue while the next one is predicted to end within --seconds,
and the end-to-end metrics are medians over them.  wall_ref and cpu_ref are
each repetition's wall and CPU time in units of the worker's reference loop
(see worker.py).  setup_s is each set-up's time scaled the same way to
seconds at REF_SPEED_S, the reference loop time that defines the unit.  The
raw seconds are printed beside them.  With --trace 1, one
untraced and one traced repetition give the per-layer metrics and the tracing
overhead, plus a --threads 2 repetition on the harvest workloads.

Metric names and units come from BENCHMARK.json.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; with --workload all a table of every workload is printed instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
REF_SPEED_S = 0.1
COMPUTED_UNITS = ("count", "B")
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Tally:
    """Operations attempted and failed: each worker run, each output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def add_run(self, res: dict | None, what: str) -> None:
        self.add(res is not None and res.get("rc", 0) == 0, what)
        for name, ok, detail in (res or {}).get("checks", []):
            self.add(ok, f"{what}: check {name} ({detail})")


def spawn(workload: str, seed: int, work: Path, *flags: str) -> dict | None:
    """Run one worker; its result with `setup_s` added, or None if it failed."""
    cmd = [sys.executable, str(WORKER), workload, "--seed", str(seed), "--work", str(work), *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            env={**os.environ, **SINGLE_THREAD_ENV},
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["setup_raw_s"] = res["ready"] - start
    res["setup_s"] = res["setup_raw_s"] * REF_SPEED_S / res["ref_setup_s"]
    return res


def measure(workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics (medians over repetitions) and facts for the summary."""
    reps = []
    start = time.monotonic()
    while True:
        res = spawn(workload, seed, work)
        tally.add_run(res, f"{workload} run {len(reps) + 1}")
        if res is not None:
            reps.append(res)
        done = len(reps) or 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / done > seconds:
            break
    if not reps:
        raise SystemExit(f"{workload}: every repetition failed")
    setups = list(reps)
    while len(setups) < MIN_SETUP_SAMPLES:
        res = spawn(workload, seed, work, "--setup-only")
        tally.add_run(res, f"{workload} setup-only run")
        if res is None:
            break
        setups.append(res)
    metrics = {
        "wall_ref": statistics.median(r["wall_s"] / r["ref_s"] for r in reps),
        "cpu_ref": statistics.median(r["cpu_s"] / r["ref_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    raw = {k: statistics.median(r[k] for r in reps) for k in ("wall_s", "cpu_s", "ref_s")}
    raw["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in setups)
    facts = {
        "samples": len(reps),
        "setup_samples": len(setups),
        "walls": [r["wall_s"] for r in reps],
        "raw": raw,
        "solutions": reps[-1].get("solutions"),
    }
    return metrics, facts


def measure_traced(workload: str, seed: int, work: Path, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics from one traced repetition, next to an untraced one."""
    base = spawn(workload, seed, work)
    tally.add_run(base, f"{workload} untraced run")
    traced = spawn(workload, seed, work, "--trace")
    tally.add_run(traced, f"{workload} traced run")
    if base is None or traced is None:
        raise SystemExit(f"{workload}: traced or untraced repetition failed")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    speedup = 0.0  # no threaded path outside the harvest workloads
    if workload in workloads.HARVEST:
        two = spawn(workload, seed, work, "--threads", "2")
        tally.add_run(two, f"{workload} --threads 2 run")
        if two is not None:
            speedup = base["wall_s"] / two["wall_s"]
    metrics["pipelines.threads2_speedup"] = speedup
    facts = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": base["wall_s"], "shares": traced["shares"]}
    return metrics, facts


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, tally: Tally):
    """(name -> {value, unit}) for the metric list `trace` selects, and facts."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if trace:
            values, facts = measure_traced(workload, seed, work, tally)
        else:
            values, facts = measure(workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, facts


def print_metrics(workload: str, metrics: dict, facts: dict) -> None:
    if "samples" in facts:
        print(f"[{workload}] medians over {facts['samples']} runs ({facts['setup_samples']} set-ups); "
              f"wall_s per run: {', '.join(f'{w:.3f}' for w in facts['walls'])}")
        for name, value in facts["raw"].items():
            print(f"  {name:34s} {value:>16.6g} s  (raw)")
        if facts["solutions"] is not None:
            print(f"  {'solutions':34s} {facts['solutions']:>16d} count  (verified)")
    else:
        print(f"[{workload}] one traced run: {facts['traced_wall_s']:.3f} s traced, "
              f"{facts['untraced_wall_s']:.3f} s untraced")
    for name, m in metrics.items():
        label = "  (computed)" if m["unit"] in COMPUTED_UNITS else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{label}")
    for name, share in list(facts.get("shares", {}).items())[:8]:
        print(f"  share {name:28s} {share:>16.1%}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sunit_harvest" / "__init__.py").is_file():
        print(f"no sunit_harvest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    tally = Tally()
    for case, ok in checks.selftest():
        tally.add(ok, f"check self-test: {case}")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    rows = []
    for name in names:
        before = (tally.attempted, tally.failed)
        metrics, facts = run_workload(name, args.seed, args.seconds, bool(args.trace), spec, tally)
        print_metrics(name, metrics, facts)
        attempted, failed = tally.attempted - before[0], tally.failed - before[1]
        print(f"  {'failed_ratio':34s} {failed / attempted:>16.6g} ratio  (base: {attempted} operations)")
        rows.append((name, metrics, facts, failed / attempted))

    if args.workload == "all":
        if not args.trace:
            print(f"\nseed {args.seed}, --seconds {args.seconds:g}")
            for name, metrics, facts, failed_ratio in rows:
                cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in metrics.items()]
                cells += [f"{k} {v:.4g} s" for k, v in facts["raw"].items()]
                if facts["solutions"] is not None:
                    cells.append(f"solutions {facts['solutions']}")
                cells.append(f"failed_ratio {failed_ratio:.3g}")
                print(f"{name:15s} " + " | ".join(cells))
        return 0 if tally.failed == 0 else 1

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": rows[0][1],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
