"""The surface the benchmark harness in perfbench/ relies on.

The harness wraps module attributes by name (`tracing.install`) and passes
`--threads` on every CLI run.  A rename in the library, or a caller that stops
going through a wrapped name, would break it without failing any other test,
so this runs the traced CLI on two desk configs and both decompositions on one
small instance in a fresh interpreter, as the harness does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import tracing
from sunit_harvest import cli

tracer = tracing.Tracer()
tracing.install(tracer)  # fails if a wrapped name is gone
codes = [
    cli.main([name, "--config", f"{sys.argv[1]}/demos/configs/{name}_desk.cfg",
              "--out", f"{sys.argv[2]}/{name}.json", "--threads", "2"])
    for name in ("prop1", "thm2")
]
# the decomposition workload calls both decompositions on explicit sets
import worker
from sunit_harvest import characters, circle
A, C = worker._smoothset([7, 10, 11]), worker._smoothset(list(range(2, 40)))
characters.multiplicative_decomposition(A, C, 11)
circle.additive_decomposition(A, C, 0.5)
spans = sorted({name for name, *_ in tracer.spans})
print(json.dumps({"codes": codes, "counts": dict(tracer.counts), "spans": spans}))
"""


def test_traced_cli_runs_desk_configs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    # the golden total hits of the prop1 and thm2 desk reports
    assert result["counts"]["pipelines.hits"] == 13_982 + 10_113
    # the per-layer tally metrics read these spans
    assert {"pipelines.harvest", "pipelines.popular_bucket"} <= set(result["spans"])
    # install only checks that a wrapped name exists; these spans show it is still called
    decomposition_spans = {"stepping.count_hits", "characters.sums_over_counts", "circle.additive_decomp"}
    assert decomposition_spans <= set(result["spans"])
