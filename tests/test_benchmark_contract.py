"""The surface the benchmark harness in perfbench/ relies on.

The harness wraps module attributes by name (`tracing.install`) and passes
`--threads` on every CLI run.  A rename in the library would break it without
failing any other test, so this runs the traced CLI on two desk configs in a
fresh interpreter, as the harness does.
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
