"""The benchmark's write-heavy and read-mostly campaign inputs
(`perfbench/inputs.py`, seed 1) run through `permscan pipeline`, with
their outputs pinned.  The bundled data creates and deletes almost
nothing, so these pins are what hold the simulator's lookups to the same
answers while roots and children come and go."""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import permscan.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

REPORT = "f7707bb501069672345b3c1a4cde622a11256a0e26813dbe0f380f73e6919beb"
PINS = {
    "campaign-reads": {
        "suite.jsonl": "22ae7902b6c4987de18d445d6373e29b0f3b7c7b4540ea3c4619c35d386f0330",
        "records.jsonl": "64891edab840496121a755dde4e5463a48219f31ccc1e96909750c8008a57afa",
        "report.json": REPORT,
    },
    "campaign-writes": {
        "suite.jsonl": "501bebccf2c10832ced9300e547c16af2a34044cf708a1c4517c65ecee9c2007",
        "records.jsonl": "17564dfaf840bf7d49e91dc2482831ea168e554c4d827d463d3fd65d086aa257",
        "report.json": REPORT,
    },
}


@pytest.mark.parametrize("workload", sorted(PINS))
def test_campaign_outputs_are_pinned(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    paths = inputs.write_inputs(workload, 1, tmp_path / "inputs")
    out = tmp_path / "out"
    argv = ["pipeline", "--catalog", str(paths["catalog"]), "--template", str(paths["template"]),
            "--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) in (0, 2)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINS[workload]}
    assert got == PINS[workload]
