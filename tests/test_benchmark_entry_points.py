"""The names the benchmark's worker (`perfbench/worker.py`) calls in
permscan, exercised once: a rename fails here rather than in every
benchmark run."""

from importlib import resources
from pathlib import Path

import permscan.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DATA = resources.files("permscan.data")


def test_worker_loads_inputs_and_runs_the_bundled_pipeline(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker

    catalog, template = str(DATA / "spreadsheet.json"), str(DATA / "template_spreadsheet.json")
    worker.load_inputs(catalog, template)
    argv = ["pipeline", "--catalog", catalog, "--template", template,
            "--faults", str(DATA / "faults_seeded.json"), "--out-dir", str(tmp_path)]
    iteration = worker.run_iteration(cli, argv, tmp_path)
    assert (iteration["rc"], iteration["error"]) == (2, None)
    assert sorted(iteration["digests"]) == sorted(worker.OUTPUTS)


# hooks whose function permscan no longer has; the traced benchmark reads
# their metrics as zero
DEAD_HOOKS = {
    "permscan.cli.instantiate_template",
    "permscan.simulator.WorkspaceState.node",
    "permscan.simulator.WorkspaceState.resource_of",
    "permscan.executor.sharing_digest",
    "permscan.simulator.SharingConfig.digest",
}


def test_no_further_benchmark_hook_is_dead(monkeypatch):
    """Every function the benchmark's tracer wraps exists, apart from the
    known dead ones: a rename or a new call path shows here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer()
    try:
        traced.install()
        assert set(traced.missing) <= DEAD_HOOKS
    finally:
        traced.uninstall()
