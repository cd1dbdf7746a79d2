"""Workload inputs, made from the benchmark seed with the standard library only.

The program receives only what these functions generate: a config file and an
argument list for the CLI workloads, explicit integer sets for the
decomposition workload.  Nothing here imports `sunit_harvest`, so the output
checks can regenerate the inputs without trusting the library.
"""

from __future__ import annotations

import random

# thm2 on the ROADMAP stress config and prop1 at x = 1000: both are
# deterministic by design, so their inputs (and pinned outputs) ignore the seed.
THM2_STRESS_CFG = """\
equation=thm2
x=1000000
alpha=0.52
variant=unconditional
delta=0.1
epsilon=0.01
t_interval=2,250
"""

PROP1_WIDE_CFG = """\
equation=prop1
x=1000
t_interval=2,113
t_split=3
"""

CHARSUMS_QMAX = 200

# decompositions: moduli from the circle-method window [3Z/4, Z], W = Z, mu = 1/2
DECOMP_Z = 3000
DECOMP_INSTANCES = 3
DECOMP_MODULI = 40
DECOMP_C_SIZE = 4000
DECOMP_MU = 0.5

HARVEST = ("thm2-stress", "prop1-wide")
NAMES = HARVEST + ("charsums", "decompositions")


def cli_config(name: str) -> str | None:
    """The config file text of a CLI harvest workload, None for the others."""
    return {"thm2-stress": THM2_STRESS_CFG, "prop1-wide": PROP1_WIDE_CFG}.get(name)


def cli_argv(name: str, seed: int, config_path: str, out_path: str, threads: int) -> list[str] | None:
    """Arguments for `sunit_harvest.cli.main`, None for the decomposition workload."""
    if name == "thm2-stress":
        return ["thm2", "--config", config_path, "--out", out_path, "--threads", str(threads)]
    if name == "prop1-wide":
        return ["prop1", "--config", config_path, "--out", out_path, "--threads", str(threads)]
    if name == "charsums":
        return ["verify", "charsums", "--qmax", str(CHARSUMS_QMAX), "--seed", str(seed), "--out", out_path]
    return None


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def decomposition_instances(seed: int) -> list[tuple[list[int], list[int], int]]:
    """(moduli, C, W) per instance: squarefree moduli in [3Z/4, Z], C in [2, Z^2]."""
    rng = random.Random(seed)
    Z = DECOMP_Z
    window = [q for q in range(3 * Z // 4, Z + 1) if _squarefree(q)]
    out = []
    for _ in range(DECOMP_INSTANCES):
        moduli = sorted(rng.sample(window, DECOMP_MODULI))
        c_values = sorted(rng.sample(range(2, Z * Z + 1), DECOMP_C_SIZE))
        out.append((moduli, c_values, Z))
    return out
