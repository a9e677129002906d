"""The benchmark's write-heavy and read-mostly campaign inputs
(`perfbench/inputs.py`, seed 1) run through `permscan pipeline`, with
their outputs pinned.  The bundled data creates and deletes almost
nothing, so these pins are what hold the simulator's lookups to the same
answers while roots and children come and go."""

import contextlib
import hashlib
import io
from pathlib import Path
from unittest import mock

import pytest

import permscan.cli as cli
from permscan import executor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

REPORT = "f7707bb501069672345b3c1a4cde622a11256a0e26813dbe0f380f73e6919beb"
PINS = {
    "campaign-reads": {
        "suite.jsonl": "04e595178673a78470f09f13bd932054f629416b2315d2d79f90e8529e8d79a1",
        "records.jsonl": "64891edab840496121a755dde4e5463a48219f31ccc1e96909750c8008a57afa",
        "report.json": REPORT,
    },
    "campaign-writes": {
        "suite.jsonl": "d9f9bd69a5dbef537f2f029c384c6d8cf8109c8da741eb33b4718823cd86b699",
        "records.jsonl": "17564dfaf840bf7d49e91dc2482831ea168e554c4d827d463d3fd65d086aa257",
        "report.json": REPORT,
    },
}


# host-API calls of one pipeline: a timing-free guard on the work replay saves
CALLS = {"campaign-reads": 1271, "campaign-writes": 1291}


def _inputs(workload: str, tmp_path: Path, monkeypatch) -> dict:
    """The workload's seed-1 catalog and template, written under `tmp_path`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    return inputs.write_inputs(workload, 1, tmp_path / "inputs")


def _pipeline(workload: str, tmp_path: Path, monkeypatch) -> Path:
    """Run `permscan pipeline` on the workload's seed-1 inputs; returns its
    output directory."""
    paths = _inputs(workload, tmp_path, monkeypatch)
    out = tmp_path / "out"
    argv = ["pipeline", "--catalog", str(paths["catalog"]), "--template", str(paths["template"]),
            "--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) in (0, 2)
    return out


@pytest.mark.parametrize("workload", sorted(PINS))
def test_campaign_outputs_are_pinned(workload, tmp_path, monkeypatch):
    out = _pipeline(workload, tmp_path, monkeypatch)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINS[workload]}
    assert got == PINS[workload]


@pytest.mark.parametrize("workload", sorted(CALLS))
def test_campaign_host_api_calls_are_pinned(workload, tmp_path, monkeypatch):
    """`pipeline`, and `gen` then `run` in both modes, make the pinned calls."""
    with mock.patch.object(executor, "invoke_host_api", wraps=executor.invoke_host_api) as invoke:
        _pipeline(workload, tmp_path, monkeypatch)
    assert invoke.call_count == CALLS[workload]
    paths = _inputs(workload, tmp_path, monkeypatch)
    catalog, suite = ["--catalog", str(paths["catalog"])], tmp_path / "suite.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", *catalog, "--out", str(suite)]) == 0
        with mock.patch.object(executor, "invoke_host_api", wraps=executor.invoke_host_api) as invoke:
            for mode in ("role-matrix", "scope-ladder"):
                assert cli.main([
                    "run", "--suite", str(suite), *catalog, "--template", str(paths["template"]),
                    "--mode", mode, "--out", str(tmp_path / f"{mode}.jsonl"),
                ]) == 0
    assert invoke.call_count == CALLS[workload]
