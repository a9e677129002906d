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
