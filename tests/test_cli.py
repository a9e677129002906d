import copy
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from permscan import cli, executor
from permscan.cli import main
from permscan.simulator import FAULT_KINDS

import synth

DATA = resources.files("permscan.data")
CATALOG = str(DATA / "spreadsheet.json")
TEMPLATE = str(DATA / "template_spreadsheet.json")
FAULTS = str(DATA / "faults_seeded.json")
MATRIX = str(DATA / "capability_matrix.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_ingest_prints_census(capsys):
    assert main(["ingest", "--catalog", CATALOG]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["census"] == {"spreadsheet": 8}


def test_ingest_missing_file_is_exit_1(capsys):
    assert main(["ingest", "--catalog", "/no/such/file.json"]) == 1
    assert "ingest" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["pipeline", "--bogus"], id="unknown-flag"),
    pytest.param(["report", "--records", "x"], id="missing-required-flags"),
    pytest.param(["gen", "--catalog", CATALOG, "--out", "x", "--seed", "3"], id="gen-seed-is-gone"),
    pytest.param(["report", "--records", "x", "--catalog", CATALOG, "--template", TEMPLATE, "--out", "y"],
                 id="report-template-is-gone"),
    pytest.param([], id="no-subcommand"),
])
def test_usage_error_is_one_line_exit_1(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("permscan"), err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--help"])
    assert exc.value.code == 0
    assert "--catalog" in capsys.readouterr().out


def test_a_deep_hierarchy_loads_and_generates(tmp_path, capsys):
    """App -> C0 -> ... -> C1199, each class with a getter of its child: a
    schema-valid catalog far deeper than the recursion limit.  `ingest` and
    `gen` exit 0 on it, and the suite reader gives the last case the last
    class's producer chain, 1200 steps.  Each chain is written once, as its
    parent's name and one step, so the suite grows linearly with depth: it
    held 720,600 steps in 18.0 MB when each case wrote its chain inline."""
    names = ["App"] + [f"C{i}" for i in range(1200)]
    path, suite = tmp_path / "deep.json", tmp_path / "suite.jsonl"
    path.write_text(json.dumps(synth.getter_chain_doc(1200)))
    assert main(["ingest", "--catalog", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 1201
    assert main(["gen", "--catalog", str(path), "--out", str(suite)]) == 0
    capsys.readouterr()
    assert suite.stat().st_size <= 1_800_000
    cases = synth.load_suite(suite.read_text())
    assert len(cases) == 1200
    assert [s.api_id for s in cases[-1].chain.steps] == [
        f"{parent}.get{child}" for parent, child in zip(names, names[1:])
    ]


# sha256 of `permscan classify` on each bundled catalog: the labels of every
# API, including those the suite leaves out as excluded or pruned
LABEL_DIGESTS = {
    "spreadsheet.json": "56305b93680cd8c154b6fdf1da0667b857f32dc5633f5be56cbb5743fca96ea8",
    "mini_document.json": "47e19edaba6803e57799745eac654a0299a43e0bdb116ec1f41796ad77318a09",
    "corpus_catalog.json": "d71a712f07deb0991efb91a8a321e881c3a99dbb8032889257f854d729e287d6",
}


def test_classify_writes_labels(tmp_path, capsys):
    out = tmp_path / "labels.json"
    assert main(["classify", "--catalog", CATALOG, "--out", str(out)]) == 0
    labels = json.loads(out.read_text())
    assert labels["Spreadsheet.addEditor"]["operation"] == "modify"
    assert labels["Spreadsheet.addEditor"]["touches_sharing"] is True
    digests = {}
    for name in LABEL_DIGESTS:
        assert main(["classify", "--catalog", str(DATA / name), "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == LABEL_DIGESTS


# sha256 of `permscan gen` on each bundled catalog
GEN_DIGESTS = {
    "spreadsheet.json": "2e449f84ffc1169c644a8d91b5e9227def90b21ef5c71f22ef66984c754a01e3",
    "mini_document.json": "d39d4affe82f527be3170a03a1a10af3000ddaa5f06464680928ad34a927b631",
    "corpus_catalog.json": "0fd6fc20c200dccc00e45e44803f001658987d662acae2044b4b5a7a8a0f22ac",
}


def test_gen_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "suite.jsonl"
    digests = {}
    for name in GEN_DIGESTS:
        assert main(["gen", "--catalog", str(DATA / name), "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == GEN_DIGESTS


def test_graph_export_dot(tmp_path):
    out = tmp_path / "g.dot"
    assert main(["graph", "export", "--catalog", CATALOG, "--out", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_gen_and_run_and_report(tmp_path, capsys):
    suite = tmp_path / "suite.jsonl"
    records = tmp_path / "records.jsonl"
    report = tmp_path / "report.json"
    assert main(["gen", "--catalog", CATALOG, "--out", str(suite)]) == 0
    assert len(suite.read_text().splitlines()) == 27

    assert main([
        "run", "--suite", str(suite), "--catalog", CATALOG, "--template", TEMPLATE,
        "--mode", "role-matrix", "--out", str(records),
    ]) == 0
    assert records.read_text().count('"outcome"') == 3 * 27

    assert main([
        "report", "--records", str(records), "--catalog", CATALOG, "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["per_kind"] == {"E1": 0, "E2": 0, "E3": 0}


def test_pipeline_clean_exit_0(tmp_path):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--catalog", CATALOG, "--template", TEMPLATE, "--out-dir", str(out),
    ])
    assert code == 0
    assert (out / "suite.jsonl").exists()
    assert (out / "records.jsonl").exists()
    assert json.loads((out / "report.json").read_text())["per_kind"] == {"E1": 0, "E2": 0, "E3": 0}


def test_pipeline_with_findings_exit_2(tmp_path):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--catalog", CATALOG, "--template", TEMPLATE,
        "--faults", FAULTS, "--out-dir", str(out),
    ])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["per_kind"] == {"E1": 3, "E2": 5, "E3": 4}
    assert "spreadsheet" in (out / "report.txt").read_text()


def test_pipeline_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([
            "pipeline", "--catalog", CATALOG, "--template", TEMPLATE,
            "--faults", FAULTS, "--out-dir", str(out), "--seed", "3",
        ]) == 2
    for name in ("suite.jsonl", "records.jsonl", "report.json", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# sha256 of the bundled pipeline's outputs: changes that keep behaviour keep these bytes
BUNDLED_DIGESTS = {
    "suite.jsonl": "2e449f84ffc1169c644a8d91b5e9227def90b21ef5c71f22ef66984c754a01e3",
    "records.jsonl": "7f0618f8a04b1502234473eccbfd0c565597b49f7ee650e3e076c0bd5430cab5",
    "report.json": "7a7ce2c9a7620001aa27447421702839a5623c9b8606af5cd0e5d9e76ffa82dd",
}


def test_bundled_pipeline_outputs_are_pinned(tmp_path):
    assert main([
        "pipeline", "--catalog", CATALOG, "--template", TEMPLATE,
        "--faults", FAULTS, "--out-dir", str(tmp_path),
    ]) == 2
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in BUNDLED_DIGESTS}
    assert digests == BUNDLED_DIGESTS


def test_bundled_pipeline_host_api_calls_are_pinned(tmp_path, capsys):
    """The seeded bundled pipeline makes 164 host-API calls: a timing-free
    guard on the work that replaying prefix steps saves.  `gen` then `run`
    in both modes makes the same 164: a loaded suite replays as much."""
    with mock.patch.object(executor, "invoke_host_api", wraps=executor.invoke_host_api) as invoke:
        assert main([
            "pipeline", "--catalog", CATALOG, "--template", TEMPLATE,
            "--faults", FAULTS, "--out-dir", str(tmp_path),
        ]) == 2
    capsys.readouterr()
    assert invoke.call_count == 164
    suite = tmp_path / "gen.jsonl"
    assert main(["gen", "--catalog", CATALOG, "--out", str(suite)]) == 0
    with mock.patch.object(executor, "invoke_host_api", wraps=executor.invoke_host_api) as invoke:
        for mode in ("role-matrix", "scope-ladder"):
            assert main([
                "run", "--suite", str(suite), "--catalog", CATALOG, "--template", TEMPLATE,
                "--faults", FAULTS, "--mode", mode, "--out", str(tmp_path / f"{mode}.jsonl"),
            ]) == 0
    capsys.readouterr()
    assert invoke.call_count == 164


def _spawn_cli(*argv) -> subprocess.CompletedProcess:
    """`python -m permscan.cli *argv` in a fresh process that imports the
    permscan these tests import.  Its stdout is block-buffered, as a pipe's
    is by default, so what it prints reaches the test only if exiting
    flushes it."""
    src = str(Path(cli.__file__).parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "permscan.cli", *argv], env=env,
                          capture_output=True, timeout=120)


def test_a_spawned_cli_process_writes_the_pins_and_prints_the_report(tmp_path):
    """The process entry point freezes the heap before the interpreter
    exits.  A spawned bundled seeded pipeline still exits 2, writes the
    pinned outputs and prints exactly the report text, so stdout is flushed
    at exit; a spawned usage error exits 1 with one line on stderr."""
    proc = _spawn_cli("pipeline", "--catalog", CATALOG, "--template", TEMPLATE,
                      "--faults", FAULTS, "--out-dir", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in BUNDLED_DIGESTS}
    assert digests == BUNDLED_DIGESTS
    assert proc.stdout == (tmp_path / "report.txt").read_bytes() + b"\n"
    assert proc.stderr == b""

    proc = _spawn_cli("pipeline", "--bogus")
    assert proc.returncode == 1
    assert proc.stdout == b"" and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(b"permscan"), proc.stderr


def test_config_with_a_null_out_dir_writes_to_the_working_directory(tmp_path, monkeypatch):
    """A null config value is absent, out_dir as much as catalog or faults."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"catalog": CATALOG, "template": TEMPLATE, "faults": FAULTS, "out_dir": None}))
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--config", str(config)]) == 2
    assert (tmp_path / "report.json").exists()


def test_report_confirms_the_pipeline_findings(tmp_path):
    """`report` on the bundled seeded records finds what `pipeline` found."""
    out = tmp_path / "out"
    assert main([
        "pipeline", "--catalog", CATALOG, "--template", TEMPLATE,
        "--faults", FAULTS, "--out-dir", str(out),
    ]) == 2
    want = json.loads((out / "report.json").read_text())
    assert len(want["findings"]) == 20
    report = tmp_path / "report.json"
    assert main([
        "report", "--records", str(out / "records.jsonl"), "--catalog", CATALOG, "--out", str(report),
    ]) == 2
    got = json.loads(report.read_text())
    assert (got["findings"], got["potential_only"]) == (want["findings"], want["potential_only"])


def test_sharing_calls_outside_the_effect_verbs_change_nothing(tmp_path):
    """setViewers and transferEditor label as sharing MODIFY but neither adds,
    removes nor transfers ownership: with their sharing check skipped they
    write no content and give no finding, and the seeded faults are all
    still found with the same kinds."""
    doc = json.loads((DATA / "spreadsheet.json").read_text())
    added = ["Spreadsheet.setViewers", "Spreadsheet.transferEditor"]
    doc["apis"] += [synth.api_doc(api, {"void": True}, "emailAddress") for api in added]
    faults = json.loads((DATA / "faults_seeded.json").read_text())
    faults += [{"kind": "AllowSharingMutation", "api_pattern": api} for api in added]
    catalog, faults_path = tmp_path / "catalog.json", tmp_path / "faults.json"
    catalog.write_text(json.dumps(doc))
    faults_path.write_text(json.dumps(faults))
    out = tmp_path / "out"
    assert main([
        "pipeline", "--catalog", str(catalog), "--template", TEMPLATE,
        "--faults", str(faults_path), "--out-dir", str(out),
    ]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["per_kind"] == {"E1": 3, "E2": 5, "E3": 4}
    assert not [f for f in report["findings"] + report["potential_only"] if f["api"] in added]
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    ran = [r for r in records if r["api"] in added and r["outcome"] == "Success"]
    assert ran and all(r["sharing_changes"] == [] for r in ran)
    assert not [r for r in ran if (r["evidence"] or "").startswith("set ")]


# --- the input boundary ----------------------------------------------------------


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """First lines of a valid suite and records file from the bundled data."""
    out = tmp_path_factory.mktemp("bundled")
    main(["pipeline", "--catalog", CATALOG, "--template", TEMPLATE, "--out-dir", str(out)])
    return {
        name: (out / f"{name}.jsonl").read_text().splitlines()[0] for name in ("suite", "records")
    }


# App.addEditor with its role and sharing checks skipped: an app-level call
# whose effect reaches the first resource's sharing
APP_CATALOG = synth.books_catalog_doc(
    synth.api_doc("App.addEditor", {"void": True}, "emailAddress"),
    synth.api_doc("App.openBook", {"class": "Book"}),
)
APP_FAULTS = [
    {"kind": kind, "api_pattern": "App.addEditor"}
    for kind in ("SkipRoleCheck", "AllowSharingMutation")
]


def _argv(kind: str, path: str, tmp) -> list:
    """A command that reads `path` as its `kind` input and the bundled data
    otherwise; an `app-template` is read with APP_CATALOG and APP_FAULTS."""
    if kind == "app-template":
        catalog, faults = tmp / "app.json", tmp / "app_faults.json"
        catalog.write_text(json.dumps(APP_CATALOG))
        faults.write_text(json.dumps(APP_FAULTS))
        return ["pipeline", "--catalog", str(catalog), "--template", path,
                "--faults", str(faults), "--out-dir", str(tmp / "out")]
    if kind == "catalog":
        return ["pipeline", "--catalog", path, "--template", TEMPLATE, "--out-dir", str(tmp / "out")]
    pipeline = ["pipeline", "--catalog", CATALOG, "--out-dir", str(tmp / "out")]
    return {
        "faults": pipeline + ["--template", TEMPLATE, "--faults", path],
        "config": pipeline + ["--template", TEMPLATE, "--config", path],
        "template": pipeline + ["--template", path],
        "matrix": pipeline + ["--template", TEMPLATE, "--matrix", path],
        "suite": ["run", "--suite", path, "--catalog", CATALOG, "--template", TEMPLATE,
                  "--mode", "role-matrix", "--out", str(tmp / "records.jsonl")],
        "records": ["report", "--records", path, "--catalog", CATALOG,
                    "--out", str(tmp / "report.json")],
    }[kind]


def _without(line: str, key: str) -> str:
    doc = json.loads(line)
    del doc[key]
    return json.dumps(doc)


def _with(line: str, key: str, value) -> str:
    doc = json.loads(line)
    doc[key] = value
    return json.dumps(doc)


def _digest_schema(line: str) -> str:
    """A records line in the schema before the sharing change log."""
    doc = json.loads(line)
    del doc["sharing_changes"]
    doc["digest_before"] = doc["digest_after"] = "0" * 64
    return json.dumps(doc)


def _observed(line: str, **fields) -> str:
    """The records line with an `observed` of `fields` over a viewer's plain view."""
    return _with(line, "observed", {"role": "viewer", "hidden": False, "protected": False, **fields})


def _unknown_api(line: str) -> str:
    doc = json.loads(line)
    for definition in doc["chains"]:
        definition["step"]["api"] = "Spreadsheet.noSuchMethod"
    doc["target_api"] = "Spreadsheet.noSuchMethod"
    return json.dumps(doc)


UNKNOWN_STEP = {"api": "Spreadsheet.noSuchMethod"}


def _with_definitions(line: str, *definitions: tuple) -> str:
    """The suite line with `definitions` (name, parent, step) ahead of its own."""
    doc = json.loads(line)
    doc["chains"][:0] = [{"name": name, "parent": parent, "step": step} for name, parent, step in definitions]
    return json.dumps(doc)


def _with_step(line: str, **fields) -> str:
    """The suite line with `fields` set on its first chain's step."""
    doc = json.loads(line)
    doc["chains"][0]["step"].update(fields)
    return json.dumps(doc)


def _with_plan(line: str, params: dict) -> str:
    """The suite line with `params` as its first chain's step's parameter plans."""
    return _with_step(line, params=params)


def _nested_producers(line: str, depth: int) -> str:
    """The suite line with its first step's argument produced by `depth`
    nested producer chains, each named: flat text that a reader taking any
    nesting would hand the executor to recurse through."""
    step = {"api": "SpreadsheetApp.getActiveSpreadsheet"}
    nested = [(f"p{n}", None, {**step, "params": {"p": {"strategy": "producer", "chain": f"p{n - 1}"}}})
              for n in range(1, depth + 1)]
    line = _with_definitions(line, ("p0", None, step), *nested)
    doc = json.loads(line)
    doc["chains"][-1]["step"]["params"] = {"p": {"strategy": "producer", "chain": f"p{depth}"}}
    return json.dumps(doc)


def _later_parent(line: str) -> str:
    """A suite line whose case calls `Spreadsheet.getActiveSheet` through
    a chain whose parent is defined after it."""
    doc = json.loads(line)
    doc.update(target_api="Spreadsheet.getActiveSheet", chain="c2", chains=[
        {"name": "c2", "parent": "c1", "step": {"api": "Spreadsheet.getActiveSheet"}},
        {"name": "c1", "parent": None, "step": {"api": "SpreadsheetApp.getActiveSpreadsheet"}},
    ])
    return json.dumps(doc)


def _defined_again(line: str) -> str:
    """The suite line, then a line that defines its chains again."""
    return line + "\n" + _with(line, "id", "tc0002")


def _template_with(change) -> str:
    """The bundled template after `change(doc)`."""
    doc = json.loads((DATA / "template_spreadsheet.json").read_text())
    change(doc)
    return json.dumps(doc)


def _template_node(doc: dict, node_id: str) -> dict:
    """The node entry of template `doc` whose id is `node_id`."""
    stack = list(doc["resources"])
    while stack:
        entry = stack.pop()
        if entry["id"] == node_id:
            return entry
        stack += entry.get("children", [])
    raise KeyError(node_id)


def _catalog_with(change):
    """A MALFORMED maker: the bundled catalog after `change(doc)`."""
    def make(_) -> str:
        doc = json.loads((DATA / "spreadsheet.json").read_text())
        change(doc)
        return json.dumps(doc)
    return make


def _first_param(doc) -> dict:
    return next(a for a in doc["apis"] if a["params"])["params"][0]


def _repeated_param_catalog(_) -> str:
    """The bundled catalog with an API's first parameter named twice."""
    doc = json.loads((DATA / "spreadsheet.json").read_text())
    api = next(a for a in doc["apis"] if a["params"])
    api["params"].append({"name": api["params"][0]["name"], "kind": "integer", "type": "integer"})
    return json.dumps(doc)


def _repeated_copy_catalog(_) -> str:
    """The bundled catalog whose last API takes a copy of an earlier API's
    parameter list with the list's first parameter repeated."""
    doc = json.loads((DATA / "spreadsheet.json").read_text())
    params = next(a for a in doc["apis"] if a["params"])["params"]
    doc["apis"][-1]["params"] = params + params[:1]
    return json.dumps(doc)


def _superuser_matrix(_) -> str:
    doc = json.loads((DATA / "capability_matrix.json").read_text())
    doc["superuser"] = doc["owner"]
    return json.dumps(doc)


def _string_false_matrix(_) -> str:
    doc = json.loads((DATA / "capability_matrix.json").read_text())
    doc["commenter"]["create"]["*"] = "false"
    return json.dumps(doc)


MALFORMED = {
    "faults entry without api_pattern": ("faults", lambda ok: '[{"kind": "SkipRoleCheck"}]'),
    "faults file is [1,2]": ("faults", lambda ok: "[1,2]"),
    "faults entry with an unknown kind": (
        "faults", lambda ok: '[{"kind": "Bogus", "api_pattern": "Sheet.*"}]'
    ),
    "faults pattern that matches no API": (
        "faults", lambda ok: '[{"kind": "SkipRoleCheck", "api_pattern": "Nope.*"}]'
    ),
    "faults entry whose note is [1]": (
        "faults", lambda ok: '[{"kind": "SkipRoleCheck", "api_pattern": "Sheet.*", "note": [1]}]'
    ),
    "suite is not JSON": ("suite", lambda ok: "{not json\n"),
    "suite line without target_api": ("suite", lambda ok: _without(ok["suite"], "target_api")),
    "records are not JSON": ("records", lambda ok: "{not json\n"),
    "records line without case": ("records", lambda ok: _without(ok["records"], "case")),
    "records line with unknown outcome": ("records", lambda ok: _with(ok["records"], "outcome", "Maybe")),
    "records line with unknown mode": ("records", lambda ok: _with(ok["records"], "mode", "sideways")),
    "records line with unknown grant scope": (
        "records", lambda ok: _with(ok["records"], "grant", ["read", "admin"])
    ),
    'records line with grant ["delete"]': (
        "records", lambda ok: _with(ok["records"], "grant", ["delete"])
    ),
    "records line whose sharing_changes is not a list": (
        "records", lambda ok: _with(ok["records"], "sharing_changes", "spreadsheet1")
    ),
    "records line with a sharing change of 3 elements": (
        "records",
        lambda ok: _with(ok["records"], "sharing_changes", [["spreadsheet1", "mallory", "editor"]]),
    ),
    "records line with an unknown role in a sharing change": (
        "records",
        lambda ok: _with(ok["records"], "sharing_changes", [["spreadsheet1", "m", None, "superuser"]]),
    ),
    "records line that names an unknown API": (
        "records", lambda ok: _with(ok["records"], "api", "Nope.nothing")
    ),
    "records line with digests and no sharing_changes": (
        "records", lambda ok: _digest_schema(ok["records"])
    ),
    "records line without observed": ("records", lambda ok: _without(ok["records"], "observed")),
    "records line whose observed hidden is 1": ("records", lambda ok: _observed(ok["records"], hidden=1)),
    "records line with an unknown observed role": (
        "records", lambda ok: _observed(ok["records"], role="superuser")
    ),
    'records line whose role is " Viewer "': (
        "records", lambda ok: _with(ok["records"], "role", " Viewer ")
    ),
    "records line with observed role EDITOR": (
        "records", lambda ok: _observed(ok["records"], role="EDITOR")
    ),
    "records line with a sharing change to role Editor": (
        "records",
        lambda ok: _with(ok["records"], "sharing_changes", [["spreadsheet1", "m", None, "Editor"]]),
    ),
    'records line with grant ["read", "read"]': (
        "records", lambda ok: _with(ok["records"], "grant", ["read", "read"])
    ),
    'records line with grant ["read", "edit"]': (
        "records", lambda ok: _with(ok["records"], "grant", ["read", "edit"])
    ),
    'records line with grant {"read": true}': (
        "records", lambda ok: _with(ok["records"], "grant", {"read": True})
    ),
    "records line whose evidence is 5": ("records", lambda ok: _with(ok["records"], "evidence", 5)),
    "records line whose error is [1]": ("records", lambda ok: _with(ok["records"], "error", [1])),
    "records line with a touched entry [1, x]": (
        "records", lambda ok: _with(ok["records"], "touched", [[1, "x"]])
    ),
    "records line with a touched entry of 3 strings": (
        "records", lambda ok: _with(ok["records"], "touched", [["a", "b", "c"]])
    ),
    "template resource without a sharing entry": ("app-template", lambda ok: json.dumps({
        "resources": [{"kind": "Book", "id": "b0"}, {"kind": "Book", "id": "b1"}],
        "sharing": {"b1": {"roles": dict(synth.ALL_ROLES)}},
    })),
    "config file is [1,2]": ("config", lambda ok: "[1,2]"),
    "config is not JSON": ("config", lambda ok: "{not json"),
    "template file is [1,2]": ("template", lambda ok: "[1,2]"),
    "matrix with role superuser": ("matrix", _superuser_matrix),
    'matrix capability that is the string "false"': ("matrix", _string_false_matrix),
    "catalog without host_app": (
        "catalog", lambda ok: _without((DATA / "spreadsheet.json").read_text(), "host_app")
    ),
    "catalog nested 100000 deep": ("catalog", lambda ok: "[" * 100000 + "]" * 100000),
    "catalog API that names a parameter twice": ("catalog", _repeated_param_catalog),
    "catalog API entry that is a list": ("catalog", _catalog_with(lambda doc: doc["apis"].append([1]))),
    "catalog API without returns": ("catalog", _catalog_with(lambda doc: doc["apis"][0].pop("returns"))),
    "catalog API whose id is not parent_class.method": (
        "catalog", _catalog_with(lambda doc: doc["apis"][0].update(id="SpreadsheetApp.other"))
    ),
    "catalog parameter with an unknown kind": (
        "catalog", _catalog_with(lambda doc: _first_param(doc).update(kind="float"))
    ),
    "catalog parameter without type": ("catalog", _catalog_with(lambda doc: _first_param(doc).pop("type"))),
    "catalog API returning an unknown primitive": (
        "catalog", _catalog_with(lambda doc: doc["apis"][0].update(returns={"primitive": "float"}))
    ),
    "catalog API whose returns has no known key": (
        "catalog", _catalog_with(lambda doc: doc["apis"][0].update(returns={"nothing": True}))
    ),
    "catalog tutorial that is not a list of strings": (
        "catalog", _catalog_with(lambda doc: doc["apis"][0].update(tutorial=["Sheet.getRange()", 1]))
    ),
    "catalog class declared twice": ("catalog", _catalog_with(lambda doc: doc["classes"].append(doc["classes"][1]))),
    "catalog API id given twice": ("catalog", _catalog_with(lambda doc: doc["apis"].append(doc["apis"][0]))),
    "catalog description that is a list": ("catalog", _catalog_with(
        lambda doc: doc["apis"][0].update(description=[doc["apis"][0]["description"]])
    )),
    "catalog description that is null": (
        "catalog", _catalog_with(lambda doc: doc["apis"][0].update(description=None))
    ),
    'catalog params that is ""': ("catalog", _catalog_with(lambda doc: doc["apis"][0].update(params=""))),
    "catalog apis that is an object": ("catalog", _catalog_with(lambda doc: doc.update(apis={}))),
    "catalog classes that is an object": ("catalog", _catalog_with(
        lambda doc: doc.update(classes={c["name"]: c for c in doc["classes"]})
    )),
    # the bundled catalog's earlier APIs return {"void": true}, which equals {"void": 1}
    'catalog API returning {"void": 1} after one returning {"void": true}': (
        "catalog", _catalog_with(lambda doc: doc["apis"][-1].update(returns={"void": 1}))
    ),
    "catalog parameter list seen twice whose second copy repeats a name": ("catalog", _repeated_copy_catalog),
    "template with an unknown kind": (
        "template", lambda ok: _template_with(lambda doc: doc["resources"][0].update(kind="Nope"))
    ),
    "template whose sharing names no owner": (
        "template",
        lambda ok: _template_with(lambda doc: doc["sharing"]["spreadsheet1"]["roles"].pop("olivia.owner")),
    ),
    'template node whose hidden is "false"': ("template", lambda ok: _template_with(
        lambda doc: doc["resources"][0]["children"][0]["attrs"].update(hidden="false")
    )),
    'template node whose content is {"a": 1}': ("template", lambda ok: _template_with(
        lambda doc: doc["resources"][0]["children"][0]["attrs"].update(content={"a": 1})
    )),
    "template protection that is one string": ("template", lambda ok: _template_with(
        lambda doc: doc["resources"][0]["children"][0]["children"][3]["attrs"].update(  # col_salary
            protection="olivia.owner"
        )
    )),
    "template with no viewer": (
        "template",
        lambda ok: _template_with(lambda doc: doc["sharing"]["spreadsheet1"]["roles"].pop("victor.viewer")),
    ),
    'template leaf whose children is ""': ("template", lambda ok: _template_with(
        lambda doc: _template_node(doc, "r1").update(children="")
    )),
    "template leaf whose children is {}": ("template", lambda ok: _template_with(
        lambda doc: _template_node(doc, "r1").update(children={})
    )),
    "template node whose children is null": ("template", lambda ok: _template_with(
        lambda doc: _template_node(doc, "sheet1").update(children=None)
    )),
    'template node whose children is "r1"': ("template", lambda ok: _template_with(
        lambda doc: _template_node(doc, "sheet1").update(children="r1")
    )),
    "template node whose children is one node object": ("template", lambda ok: _template_with(
        lambda doc: _template_node(doc, "sheet1").update(children=_template_node(doc, "r1"))
    )),
    "template resources that is {}": ("template", lambda ok: _template_with(
        lambda doc: doc.update(resources={})
    )),
    "template resources that is null": ("template", lambda ok: _template_with(
        lambda doc: doc.update(resources=None)
    )),
    "template resources that is one node object": ("template", lambda ok: _template_with(
        lambda doc: doc.update(resources=doc["resources"][0])
    )),
    "suite step names an unknown API": ("suite", lambda ok: _unknown_api(ok["suite"])),
    "suite producer chain names an unknown API": ("suite", lambda ok: _with_definitions(
        _with_plan(ok["suite"], {"sheet": {"strategy": "producer", "chain": "u1"}}),
        ("u1", None, UNKNOWN_STEP),
    )),
    "suite step holding a tutorial": ("suite", lambda ok: _with_step(
        ok["suite"], tutorial={"steps": [UNKNOWN_STEP]}
    )),
    "suite step that holds args": ("suite", lambda ok: _with_step(ok["suite"], args={"params": {}})),
    "suite step whose params is empty": ("suite", lambda ok: _with_plan(ok["suite"], {})),
    "suite chain that holds produces": ("suite", lambda ok: _with(
        ok["suite"], "chains", [{**json.loads(ok["suite"])["chains"][0], "produces": {"class": "Spreadsheet"}}]
    )),
    "suite chain that holds steps": ("suite", lambda ok: _with(
        ok["suite"], "chain", {"steps": [d["step"] for d in json.loads(ok["suite"])["chains"]]}
    )),
    "suite chain name that no line defines": ("suite", lambda ok: _with(ok["suite"], "chain", "c9")),
    "suite chain whose parent is defined after it": ("suite", lambda ok: _later_parent(ok["suite"])),
    "suite chain name defined on two lines": ("suite", lambda ok: _defined_again(ok["suite"])),
    "suite label whose touches_sharing is 1": ("suite", lambda ok: _with(
        ok["suite"], "label", {**json.loads(ok["suite"])["label"], "touches_sharing": 1}
    )),
    'suite label whose operation is " VIEW "': ("suite", lambda ok: _with(
        ok["suite"], "label", {**json.loads(ok["suite"])["label"], "operation": " VIEW "}
    )),
    "suite attribute plan whose role is a list": ("suite", lambda ok: _with_plan(
        ok["suite"], {"p": {"strategy": "attribute", "role": ["id"]}}
    )),
    "suite case nesting 300 producer chains": ("suite", lambda ok: _nested_producers(ok["suite"], 300)),
    "suite primitive plan holding a values list": ("suite", lambda ok: _with_plan(
        ok["suite"], {"p": {"strategy": "primitive", "values": [0, 1, 5, 10]}}
    )),
    'suite primitive plan whose value is "0"': ("suite", lambda ok: _with_plan(
        ok["suite"], {"p": {"strategy": "primitive", "value": "0"}}
    )),
    "suite primitive plan whose value is null": ("suite", lambda ok: _with_plan(
        ok["suite"], {"p": {"strategy": "primitive", "value": None}}
    )),
    "suite primitive plan with a partner key": ("suite", lambda ok: _with_plan(
        ok["suite"], {"p": {"strategy": "primitive", "value": 1, "partner": "q"}}
    )),
    "suite plan whose strategy is pair": ("suite", lambda ok: _with_plan(
        ok["suite"],
        {"p": {"strategy": "pair", "partner": "q", "position": "lo", "fallback": [1, 2]},
         "q": {"strategy": "pair", "partner": "p", "position": "hi", "fallback": [1, 2]}},
    )),
    "suite case whose chain has no steps": ("suite", lambda ok: _with(ok["suite"], "chain", None)),
    "suite case whose last step is not its target_api": (
        "suite", lambda ok: _with(ok["suite"], "target_api", "Sheet.insertRow")
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_exit_1(case, bundled, tmp_path, capsys):
    kind, content = MALFORMED[case]
    path = tmp_path / f"bad.{kind}"
    path.write_text(content(bundled))
    argv = _argv(kind, str(path), tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"{argv[0]}:"), err
    assert str(path) in err[0], err
    if kind == "suite":
        # rejected at load time, before any case runs
        assert not (tmp_path / "records.jsonl").exists()
    if argv[0] == "pipeline":
        # every input loads before the pipeline writes its first output
        assert not (tmp_path / "out" / "suite.jsonl").exists()


# (id, depends_on) of each line of a suite of the bundled first case, and
# the line `run` rejects (None: the suite runs)
SUITE_ORDERS = {
    "a case that depends on a later line": ([("a", None), ("b", "c"), ("c", None)], 3),
    "a repeated case id": ([("a", None), ("b", "a"), ("a", None)], 3),
    "a case that depends on no case of the suite": ([("a", "gone"), ("b", "a")], None),
}


@pytest.mark.parametrize("name", sorted(SUITE_ORDERS))
def test_run_reads_each_case_after_its_dependency(name, bundled, tmp_path, capsys):
    """Pruning #2 checks only a case's direct dependency, so `run` rejects a
    suite that lists a case before the case it depends on, or lists a case
    id twice: exit 1, one stderr line naming the file and line, and no case
    runs.  A dependency that names no case of the suite is allowed: that
    case never runs, so never fails, and prunes nothing."""
    lines, bad = SUITE_ORDERS[name]
    path = tmp_path / "suite.jsonl"
    # the first line defines the case's chain, and the others name it
    path.write_text("".join(
        json.dumps({**json.loads(bundled["suite"]), "id": i, "depends_on": dep, **({"chains": []} if n else {})})
        + "\n"
        for n, (i, dep) in enumerate(lines)
    ))
    argv = _argv("suite", str(path), tmp_path)
    if bad is None:
        assert main(argv) == 0
        records = (tmp_path / "records.jsonl").read_text().splitlines()
        assert len(records) == 3 * len(lines)
        assert all(json.loads(r)["outcome"] == "Success" for r in records)
        return
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"run: {path}:{bad}: "), err
    assert not (tmp_path / "records.jsonl").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


@pytest.mark.parametrize("kind", ["faults", "config", "suite", "records"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=JSON_VALUES)
def test_any_json_input_exits_cleanly(kind, value, tmp_path, capsys):
    path = tmp_path / f"input.{kind}"
    path.write_text(json.dumps(value) + "\n")
    code = main(_argv(kind, str(path), tmp_path))
    assert code in (0, 1, 2)
    assert len(capsys.readouterr().err.splitlines()) <= 1


# --- structural mutations of every input file ---------------------------------------------

MUTATIONS = ("drop a key", "empty", "retype", "duplicate", "dangle a value", "dangle a key")
JSON_TYPES = (None, True, 7, 2.5, "x", [], {})


def _slots(root: list) -> list:
    """(container, key) of every value in `root`, a list holding a document,
    parents before children."""
    slots = [(root, 0)]
    for container, key in slots:
        value = container[key]
        if isinstance(value, (dict, list)):
            slots += [(value, k) for k in (value if isinstance(value, dict) else range(len(value)))]
    return slots


def _mutate(doc, data):
    """A copy of `doc` after one mutation drawn from `data`: drop a dict's
    key, empty a list or dict, give a value another JSON type, duplicate a
    list entry (and any name it holds), or point a string value or a dict
    key, such as a sharing entry's resource id, at a missing id."""
    root = [copy.deepcopy(doc)]
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    slots = _slots(root)
    if mutation in ("drop a key", "dangle a key"):
        slots = [s for s in slots if isinstance(s[0], dict)]
    elif mutation == "empty":
        slots = [s for s in slots if isinstance(s[0][s[1]], (dict, list)) and s[0][s[1]]]
    elif mutation == "duplicate":
        slots = [s for s in slots[1:] if isinstance(s[0], list)]
    elif mutation == "dangle a value":
        slots = [s for s in slots if isinstance(s[0][s[1]], str)]
    assume(slots)
    container, key = data.draw(st.sampled_from(slots), label="at")
    value = container[key]
    if mutation == "drop a key":
        del container[key]
    elif mutation == "empty":
        value.clear()
    elif mutation == "retype":
        others = [v for v in JSON_TYPES if type(v) is not type(value)]
        container[key] = copy.deepcopy(data.draw(st.sampled_from(others), label="value"))
    elif mutation == "duplicate":
        container.insert(key, copy.deepcopy(value))
    elif mutation == "dangle a value":
        container[key] = "no-such-id"
    else:
        container["no-such-id"] = container.pop(key)
    return root[0]


def _pipeline_inputs(rng, bundled: bool) -> dict:
    """Catalog, template and faults documents: the bundled ones, or a random
    catalog with creates, a template shared with every role and 1-3 faults."""
    if bundled:
        paths = {"catalog": CATALOG, "template": TEMPLATE, "faults": FAULTS}
        return {name: json.loads(Path(path).read_text()) for name, path in paths.items()}
    catalog = synth.with_creators(synth.make_catalog(rng, max_classes=6, max_apis=30))
    apis = sorted(catalog.apis)
    return {
        "catalog": synth.catalog_doc(catalog),
        "template": synth.make_template(rng, catalog, roles=synth.ALL_ROLES),
        "faults": [
            {"kind": rng.choice(FAULT_KINDS), "api_pattern": rng.choice(apis), "note": "seeded"}
            for _ in range(rng.randint(1, 3))
        ],
    }


def _write(path: Path, doc) -> None:
    """`doc` as JSON, or a list of documents as JSON lines if `path` is one."""
    lines = path.suffix == ".jsonl" and isinstance(doc, list)
    path.write_text("".join(json.dumps(d) + "\n" for d in doc) if lines else json.dumps(doc))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32),
    bundled=st.booleans(),
    target=st.sampled_from(["catalog", "template", "faults", "suite", "records"]),
    data=st.data(),
)
def test_mutated_template_or_faults_exit_cleanly(seed, bundled, target, data, tmp_path, capsys):
    """After one structural mutation of the bundled or a random catalog,
    template or faults file read by `pipeline`, or of the suite read by
    `run` or the records read by `report` (each first written by `pipeline`
    from the same inputs, its lines mutated as one list), the command exits
    0, 1 or 2 and never with a traceback; an exit 1 is one stderr line
    naming the mutated file."""
    docs = _pipeline_inputs(random.Random(seed), bundled)
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        _write(paths[name], doc)
    inputs = ["--catalog", str(paths["catalog"]), "--template", str(paths["template"])]
    if target != "catalog":  # a catalog without an API a fault names is the faults file's error
        inputs += ["--faults", str(paths["faults"])]
    if target in ("suite", "records"):
        out = tmp_path / "valid"
        assert main(["pipeline", *inputs, "--out-dir", str(out)]) in (0, 2)
        text = (out / f"{target}.jsonl").read_text()
        docs[target] = [json.loads(line) for line in text.splitlines()]
        paths[target] = tmp_path / f"{target}.jsonl"
    _write(paths[target], _mutate(docs[target], data))
    capsys.readouterr()
    argv = ["pipeline", *inputs, "--out-dir", str(tmp_path / "out")]
    if target == "suite":
        argv = ["run", "--suite", str(paths[target]), *inputs, "--mode", "role-matrix",
                "--out", str(tmp_path / "run.jsonl")]
    elif target == "records":
        argv = ["report", "--records", str(paths[target]), "--catalog", str(paths["catalog"]),
                "--out", str(tmp_path / "report.json")]
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2)
    if code == 1:
        assert len(err) == 1 and err[0].startswith(f"{argv[0]}:"), err
        assert str(paths[target]) in err[0], err
    else:
        assert err == []


# --- gen and run against pipeline --------------------------------------------------------


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32), creators=st.booleans())
def test_gen_then_run_writes_the_pipeline_records(seed, creators, tmp_path, capsys):
    """On a random rich catalog and template with 0-4 random faults, `gen`
    then `run` in both modes writes the suite and records `pipeline` does,
    with as many host-API calls."""
    rng = random.Random(seed)
    catalog = synth.make_rich_catalog(rng)
    if creators:
        catalog = synth.with_creators(catalog)
    template = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
    apis = sorted(catalog.apis)
    faults = [
        {"kind": rng.choice(FAULT_KINDS), "api_pattern": rng.choice(apis)}
        for _ in range(rng.randint(0, 4))
    ]
    paths = {name: tmp_path / f"{name}.json" for name in ("catalog", "template", "faults")}
    for name, doc in (("catalog", synth.catalog_doc(catalog)), ("template", template), ("faults", faults)):
        paths[name].write_text(json.dumps(doc))
    inputs = ["--catalog", str(paths["catalog"]), "--template", str(paths["template"])]
    out, suite = tmp_path / "out", tmp_path / "suite.jsonl"
    faults_arg = ["--faults", str(paths["faults"])]
    with mock.patch.object(executor, "invoke_host_api", wraps=executor.invoke_host_api) as invoke:
        assert main(["pipeline", *inputs, *faults_arg, "--out-dir", str(out)]) in (0, 2)
    calls = invoke.call_count
    assert main(["gen", "--catalog", str(paths["catalog"]), "--out", str(suite)]) == 0
    records = ""
    with mock.patch.object(executor, "invoke_host_api", wraps=executor.invoke_host_api) as invoke:
        for mode in ("role-matrix", "scope-ladder"):
            path = tmp_path / f"{mode}.jsonl"
            run = ["run", "--suite", str(suite), *inputs, *faults_arg, "--mode", mode, "--out", str(path)]
            assert main(run) == 0
            records += path.read_text()
    capsys.readouterr()
    assert suite.read_text() == (out / "suite.jsonl").read_text()
    assert records == (out / "records.jsonl").read_text()
    assert invoke.call_count == calls


# --- the cyclic collector ----------------------------------------------------------------


def _of_permscan(obj) -> bool:
    module = getattr(obj, "__module__", None)
    return isinstance(module, str) and module.startswith("permscan")


def test_no_run_leaves_cyclic_garbage_of_permscan(tmp_path, monkeypatch):
    """`gen`, the bundled seeded pipeline and a benchmark campaign make no
    reference cycles of permscan's own, so pausing the collector while a
    command runs leaves nothing of permscan's uncollected.  Nothing the
    collector finds after each is of a permscan type or is a permscan
    function (closures are of type `function`); argparse and json make a
    few cycles of their own."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    campaign = inputs.write_inputs("campaign-writes", 1, tmp_path / "inputs")
    runs = (
        ["gen", "--catalog", CATALOG, "--out", str(tmp_path / "suite.jsonl")],
        ["pipeline", "--catalog", CATALOG, "--template", TEMPLATE, "--faults", FAULTS,
         "--out-dir", str(tmp_path / "bundled")],
        ["pipeline", "--catalog", str(campaign["catalog"]), "--template", str(campaign["template"]),
         "--out-dir", str(tmp_path / "campaign")],
    )
    flags = gc.get_debug()
    try:
        for argv in runs:
            gc.collect()
            gc.set_debug(flags | gc.DEBUG_SAVEALL)
            assert main(argv) in (0, 2)
            gc.collect()
            ours = [obj for obj in gc.garbage if _of_permscan(type(obj)) or _of_permscan(obj)]
            assert ours == [], argv
            gc.set_debug(flags)
            gc.garbage.clear()
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_main_runs_the_command_with_the_collector_paused(tmp_path, monkeypatch):
    """The command body runs with the collector off; after exit 0, 2 or 1,
    or an exception out of `main`, it is as the caller left it."""
    seen = []
    load_catalog = cli.load_catalog

    def load(path):
        seen.append(gc.isenabled())
        return load_catalog(path)

    def fail(path):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    malformed = tmp_path / "catalog.json"
    malformed.write_text("{")
    runs = (
        (["ingest", "--catalog", CATALOG], 0),
        (["pipeline", "--catalog", CATALOG, "--template", TEMPLATE, "--faults", FAULTS,
          "--out-dir", str(tmp_path / "out")], 2),
        (["ingest", "--catalog", str(malformed)], 1),
    )
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            monkeypatch.setattr(cli, "load_catalog", load)
            for argv, code in runs:
                assert main(argv) == code
                assert gc.isenabled() is enabled, (argv, enabled)
            monkeypatch.setattr(cli, "load_catalog", fail)
            with pytest.raises(RuntimeError, match="boom"):
                main(["ingest", "--catalog", CATALOG])
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if collecting else gc.disable()
    assert seen == [False] * 8


def test_only_the_process_entry_point_freezes_the_heap(tmp_path, monkeypatch):
    """`main` leaves the permanent generation as it found it after exit 0,
    2 or 1, or an exception out of `main`: an in-process caller keeps a heap
    the collector can clean.  `entry`, the `permscan` script's target too,
    runs `main` on `sys.argv`, freezes the heap and exits with `main`'s
    code."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'permscan = "permscan.cli:entry"' in pyproject.splitlines()
    malformed = tmp_path / "catalog.json"
    malformed.write_text("{")
    pipeline = ["pipeline", "--catalog", CATALOG, "--template", TEMPLATE, "--faults", FAULTS,
                "--out-dir", str(tmp_path / "out")]
    runs = ((["ingest", "--catalog", CATALOG], 0), (pipeline, 2), (["ingest", "--catalog", str(malformed)], 1))
    frozen = gc.get_freeze_count()
    for argv, code in runs:
        assert main(argv) == code
        assert gc.get_freeze_count() == frozen, argv
    with monkeypatch.context() as patch:
        patch.setattr(cli, "load_catalog", mock.Mock(side_effect=RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            main(["ingest", "--catalog", CATALOG])
    assert gc.get_freeze_count() == frozen

    for argv, code in runs:
        monkeypatch.setattr(sys, "argv", ["permscan", *argv])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.entry()
            assert exc.value.code == code, argv
            assert gc.get_freeze_count() > frozen, argv
        finally:
            gc.unfreeze()
