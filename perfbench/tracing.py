"""Outside-in tracing: spans around the public functions of each module.

A function is wrapped where its caller looks it up.  The CLI binds
`prop1_run`, `polya_vinogradov_check`, `write_json_report` and friends into
its own namespace, and `characters` and `circle` each import `count_hits`,
so wrapping only the defining module would record nothing.  Spans are kept
in memory as (name, start, end, parent) and reduced when the run ends; a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace owner.attr by a traced version; count(args, result) adds counters."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        setattr(owner, attr, traced)

    def reduce(self) -> tuple[dict, dict, dict]:
        """(self seconds, calls, per-call durations) by span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), s in zip(self.spans, own):
            self_s[name] += s
            calls[name] += 1
            durations[name].append(end - start)
        return self_s, calls, durations


def _harvest_counts(args, report) -> dict:
    stats = report.bucket_stats
    return {
        "pipelines.hits": stats["total_hits"],
        "pipelines.buckets": stats["nonempty_buckets"],
        "pipelines.max_load": stats["max_load"],
        "pipelines.solutions": len(report.solutions),
    }


def _pairs(args, result) -> dict:
    a_values, c_values = args[0], args[1]
    return {"stepping.pairs": len(a_values) * len(c_values)}


def _report_bytes(args, result) -> dict:
    return {"report.bytes": os.path.getsize(args[1])}


def install(tracer: Tracer) -> None:
    """Wrap every traced function in the namespace its callers read it from."""
    from sunit_harvest import characters, circle, cli, pipelines, report

    w = tracer.wrap
    w(pipelines, "enumerate_squarefree_smooth", "smooth.enumerate",
      lambda args, r: {"smooth.members": len(r)})
    w(pipelines, "thm1_harvest", "pipelines.harvest", _harvest_counts)
    w(pipelines, "thm2_harvest", "pipelines.harvest", _harvest_counts)
    w(cli, "prop1_run", "pipelines.harvest", _harvest_counts)
    w(pipelines, "popular_bucket", "pipelines.popular_bucket")
    w(pipelines, "pair_collision_stats", "pipelines.audit")
    w(pipelines, "verify_sunit_solution", "pipelines.verify")
    w(pipelines, "prime_support", "pipelines.verify")
    w(pipelines, "siegel_nonzero_coords", "siegel.nonzero_coords",
      lambda args, r: {"siegel.none": r is None})
    w(cli, "polya_vinogradov_check", "characters.pv_scan",
      lambda args, r: {"characters.pv_windows": len(r.rows) * r.scan_M * r.scan_N})
    w(cli, "large_sieve_check", "characters.sieve")
    w(cli, "fourth_moment_ratio", "characters.fourth_moment")
    w(characters, "all_characters", "characters.table",
      lambda args, r: {"characters.tables_built": 1})
    w(characters.CharacterTable, "value_matrix", "characters.table")
    w(characters.CharacterTable, "sums_over_counts", "characters.sums_over_counts")
    w(characters, "multiplicative_decomposition", "characters.mult_decomp")
    w(characters, "count_hits", "stepping.count_hits", _pairs)
    w(circle, "count_hits", "stepping.count_hits", _pairs)
    w(circle, "additive_decomposition", "circle.additive_decomp",
      lambda args, r: {"circle.spectrum_terms": len(r.rows)})
    w(cli, "write_json_report", "report.write", _report_bytes)
    w(report, "write_json_report", "report.write", _report_bytes)
    for attr in ("parse_config_file", "build_harvest_config", "split_disjoint_prime_sets"):
        w(cli, attr, "cli.config")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    self_s, calls, durations = tracer.reduce()
    c = tracer.counts
    harvest_s = self_s["pipelines.harvest"]
    hits = c["pipelines.hits"]
    siegel_calls = calls["siegel.nonzero_coords"]
    siegel_us = [d * 1e6 for d in durations["siegel.nonzero_coords"]]
    pv_s = self_s["characters.pv_scan"]
    return {
        "smooth.enumerate_s": self_s["smooth.enumerate"],
        "smooth.members": c["smooth.members"],
        "pipelines.harvest_self_s": harvest_s,
        "pipelines.hits": hits,
        "pipelines.buckets": c["pipelines.buckets"],
        "pipelines.max_load": c["pipelines.max_load"],
        "pipelines.hits_per_s": hits / harvest_s if harvest_s else 0.0,
        # base: pipelines.hits
        "pipelines.kept_ratio": c["pipelines.solutions"] / hits if hits else 0.0,
        "pipelines.popular_bucket_s": self_s["pipelines.popular_bucket"],
        "pipelines.audit_s": self_s["pipelines.audit"],
        "pipelines.verify_s": self_s["pipelines.verify"],
        "pipelines.verify_calls": calls["pipelines.verify"],
        "siegel.nonzero_coords_s": self_s["siegel.nonzero_coords"],
        "siegel.calls": siegel_calls,
        # base: siegel.calls
        "siegel.none_ratio": c["siegel.none"] / siegel_calls if siegel_calls else 0.0,
        "siegel.call_us_p50": statistics.median(siegel_us) if siegel_us else 0.0,
        "siegel.call_us_p99": statistics.quantiles(siegel_us, n=100)[98] if len(siegel_us) > 1 else 0.0,
        "characters.pv_scan_s": pv_s,
        "characters.pv_windows": c["characters.pv_windows"],
        "characters.pv_windows_per_s": c["characters.pv_windows"] / pv_s if pv_s else 0.0,
        "characters.table_s": self_s["characters.table"],
        "characters.tables_built": c["characters.tables_built"],
        "characters.sieve_s": self_s["characters.sieve"],
        "characters.fourth_moment_s": self_s["characters.fourth_moment"],
        "characters.sums_over_counts_s": self_s["characters.sums_over_counts"],
        "characters.mult_decomp_self_s": self_s["characters.mult_decomp"],
        "stepping.count_hits_s": self_s["stepping.count_hits"],
        "stepping.pairs": c["stepping.pairs"],
        "circle.additive_decomp_self_s": self_s["circle.additive_decomp"],
        "circle.spectrum_terms": c["circle.spectrum_terms"],
        "report.write_s": self_s["report.write"],
        "report.bytes": c["report.bytes"],
        "cli.config_s": self_s["cli.config"],
    }


def span_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Self time of each span name as a share of the traced wall time."""
    self_s, _, _ = tracer.reduce()
    shares = {name: s / wall_s for name, s in self_s.items()}
    shares["(untraced code)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
