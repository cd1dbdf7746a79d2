"""Structured run reports: bound comparisons, JSON serialization, CSV dumps.

Reports are deterministic for fixed inputs (the config, or the flags and the
seed of a `verify` run): keys are sorted, the only nondeterministic field is
the timing block.
"""

from __future__ import annotations

import csv
import json
from math import exp, log, sqrt
from pathlib import Path

from .errors import DomainError
from .exponents import ALPHA_THM2_UNCONDITIONAL

BOUND_NOTE = "asymptotic formula; not an acceptance gate at desk scale"


def compare_bounds(s: int, equation: str, epsilon: float, observed: int) -> dict:
    """Headline lower-bound formula at this run's s, next to the harvested count."""
    if s < 2:
        raise DomainError("need s >= 2")
    if equation == "prop1":
        formula = exp((1.0 / (2.0 * sqrt(2.0))) * sqrt(s / log(s)))
    elif equation == "thm1":
        formula = exp(s ** (1.0 / 6.0 - epsilon))
    elif equation == "thm2":
        formula = exp(s ** (ALPHA_THM2_UNCONDITIONAL - epsilon))
    else:
        raise DomainError(f"unknown equation {equation!r}")
    return {
        "s": s,
        "equation": equation,
        "epsilon": epsilon if equation != "prop1" else None,
        "formula_value": formula,
        "observed": observed,
        "ratio": observed / formula if observed else 0.0,
        "flagged_empty": observed == 0,
        "note": BOUND_NOTE,
    }


def json_text(payload: dict) -> str:
    """The JSON text of a report, as written to a file or printed."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json_report(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json_text(payload))


SOLUTION_HEADERS = {
    "thm1": ["A", "C", "a", "c", "u", "w"],
    "thm2": ["A", "B", "C", "a", "b", "c", "u", "w"],
    "prop1": ["a", "b", "c", "alpha1", "alpha2", "alpha3", "z1", "z2", "z3"],
}


def write_csv(path: str | Path, header, rows) -> None:
    """One header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

