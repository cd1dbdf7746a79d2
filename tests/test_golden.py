"""Golden reports: the desk configs must keep producing the pinned JSON.

Each pin is the report `cli.main` writes for `demos/configs/<name>_desk.cfg`
with the timing block removed.  Regenerate a pin only for an intended change
of output: `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from pathlib import Path

import pytest

from sunit_harvest.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = ("thm1", "thm2", "prop1")


def desk_report(name: str, out: Path) -> dict:
    config = ROOT / "demos" / "configs" / f"{name}_desk.cfg"
    assert main([name, "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    del report["timing"]
    return report


@pytest.mark.parametrize("name", NAMES)
def test_desk_report_matches_golden(name, tmp_path):
    pinned = json.loads((GOLDEN / f"{name}_desk.json").read_text())
    assert desk_report(name, tmp_path / "report.json") == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            report = desk_report(name, Path(tmp) / "report.json")
            (GOLDEN / f"{name}_desk.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
