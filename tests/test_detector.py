import dataclasses
import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan.catalog import load_catalog, parse_catalog
from permscan.classify import classify_catalog
from permscan.detector import build_report, detect, detect_full, report_to_json
from permscan.errors import MissingLabel
from permscan.executor import (
    OUTCOME_PRUNED,
    OUTCOME_SUCCESS,
    SimulatorBackend,
    run_role_matrix,
    run_scope_ladder,
)
from permscan.graph import build_graph
from permscan.simulator import (
    FaultSpec,
    Role,
    instantiate_template,
    load_capability_matrix,
    load_faults,
)
from permscan.testgen import generate_suite

import synth

DATA = resources.files("permscan.data")
SHEETS = load_catalog(str(DATA / "spreadsheet.json"))
MATRIX = load_capability_matrix(str(DATA / "capability_matrix.json"))
TEMPLATE = str(DATA / "template_spreadsheet.json")
LABELS = classify_catalog(SHEETS)
SUITE = generate_suite(build_graph(SHEETS), LABELS).cases
GROUND_TRUTH = instantiate_template(TEMPLATE, SHEETS, MATRIX)
ALL_FAULTS = load_faults(str(DATA / "faults_seeded.json"))


def run_with(faults):
    backend = SimulatorBackend(SHEETS, TEMPLATE, MATRIX, classify_catalog(SHEETS), faults=faults)
    return run_role_matrix(SUITE, backend) + run_scope_ladder(SUITE, backend)


def detect_with(faults):
    return detect_full(run_with(faults), LABELS, MATRIX, GROUND_TRUTH)


def test_fault_free_run_is_clean():
    result = detect_with([])
    assert result.findings == []
    assert result.potential_only == []


def test_e1_scope_bypass():
    result = detect_with([FaultSpec("SkipScopeCheck", "Sheet.deleteRow")])
    kinds = {(f.kind, f.api) for f in result.findings}
    assert kinds == {("E1", "Sheet.deleteRow")}
    finding = result.findings[0]
    assert finding.role is Role.OWNER  # scope ladder runs as owner
    assert "delete" not in finding.grant


def test_e2_role_bypass_hidden_cell():
    result = detect_with([FaultSpec("SkipRoleCheck", "Range.getCell")])
    kinds = {(f.kind, f.api) for f in result.findings}
    assert kinds == {("E2", "Range.getCell")}
    assert any("salary" in f.evidence for f in result.findings)


def test_e2_role_bypass_protected_range():
    result = detect_with([FaultSpec("SkipRoleCheck", "Range.setValue")])
    assert {(f.kind, f.api) for f in result.findings} == {("E2", "Range.setValue")}


def test_e3_sharing_mutation():
    result = detect_with([FaultSpec("AllowSharingMutation", "Spreadsheet.addEditor")])
    kinds = {(f.kind, f.api) for f in result.findings}
    assert kinds == {("E3", "Spreadsheet.addEditor")}
    assert all(f.role is not Role.OWNER for f in result.findings)


def test_precedence_e1_over_e3():
    # a sharing API with both faults escapes scope in the ladder: E1 wins there
    faults = [
        FaultSpec("SkipScopeCheck", "Spreadsheet.addEditor"),
        FaultSpec("AllowSharingMutation", "Spreadsheet.addEditor"),
    ]
    result = detect_with(faults)
    by_kind = {}
    for f in result.findings:
        by_kind.setdefault(f.kind, set()).add(f.api)
    assert "Spreadsheet.addEditor" in by_kind.get("E1", set())


def test_detect_without_ground_truth_degrades_to_matrix_check():
    records = run_with([FaultSpec("SkipRoleCheck", "Range.setValue")])
    findings = detect(records, LABELS, MATRIX)
    assert {(f.kind, f.api) for f in findings} == {("E2", "Range.setValue")}


def test_missing_label_raises():
    records = run_with([])
    with pytest.raises(MissingLabel):
        detect_full(records, {}, MATRIX, GROUND_TRUTH)


def test_full_manifest_counts():
    result = detect_with(ALL_FAULTS)
    per_kind = {}
    for f in result.findings:
        per_kind.setdefault(f.kind, set()).add(f.api)
    assert len(per_kind["E1"]) == 3
    assert len(per_kind["E2"]) == 5
    assert len(per_kind["E3"]) == 4


def test_report_shape_and_serialization():
    records = run_with(ALL_FAULTS)
    result = detect_full(records, LABELS, MATRIX, GROUND_TRUTH)
    # neither an API outside the catalog nor a pruned case counts as tested
    extra = [
        dataclasses.replace(records[0], api="Nowhere.call"),
        dataclasses.replace(records[0], api="Sheet.appendChart", outcome=OUTCOME_PRUNED),
    ]
    report = build_report(result, records + extra, SHEETS, exclusions={"Sheet.appendChart": "enum"})
    assert report.per_app.keys() == {"spreadsheet"}
    row = report.per_app["spreadsheet"]
    assert row["apis"] == 28
    assert row["tested"] == 27
    assert row["confirmed"] == 12
    text = report.to_text()
    assert "spreadsheet" in text and "E1=3" in text
    doc = json.loads(report_to_json(report))
    assert doc["per_kind"] == {"E1": 3, "E2": 5, "E3": 4}
    assert doc["exclusions"] == {"Sheet.appendChart": "enum"}


# --- fault-free silence on synthetic catalogs and templates ---------------------------


def _fault_free_detection(catalog, doc, directory):
    """Role-matrix and scope-ladder with no faults over `catalog` and template
    document `doc`, then detection against the template's ground truth."""
    path = directory / "template.json"
    path.write_text(json.dumps(doc))
    labels = classify_catalog(catalog)
    suite = generate_suite(build_graph(catalog), labels).cases
    backend = SimulatorBackend(catalog, path, MATRIX, labels)
    records = run_role_matrix(suite, backend) + run_scope_ladder(suite, backend)
    ground_truth = instantiate_template(path, catalog, MATRIX)
    return records, detect_full(records, labels, MATRIX, ground_truth)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), creators=st.booleans())
def test_fault_free_campaign_is_silent(tmp_path_factory, seed, creators):
    """With no fault injected, a campaign over any synthetic catalog and any
    template shared with one user per role confirms nothing and leaves
    nothing for triage."""
    rng = random.Random(seed)
    catalog = synth.make_catalog(rng, max_classes=12, max_apis=120)
    if creators:
        catalog = synth.with_creators(catalog)
    doc = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
    _, result = _fault_free_detection(catalog, doc, tmp_path_factory.mktemp("silence"))
    assert result.findings == []
    assert result.potential_only == []


def test_root_create_and_delete_are_not_sharing_changes(tmp_path):
    """An editor creating a root resource of its own, or deleting a root it
    may delete, changes the sharing of no resource that exists both before
    and after the case: no E3."""
    catalog = parse_catalog(synth.books_catalog_doc(
        # a parameter makes openBook, not createBook, Book's producer
        synth.api_doc("App.createBook", {"class": "Book"}, "title"),
        synth.api_doc("App.openBook", {"class": "Book"}),
        synth.api_doc("Book.deleteBook", {"void": True}),
    ))
    doc = {
        "resources": [{"kind": "Book", "id": "b0"}, {"kind": "Book", "id": "b1"}],
        "sharing": {rid: {"roles": dict(synth.ALL_ROLES)} for rid in ("b0", "b1")},
    }
    records, result = _fault_free_detection(catalog, doc, tmp_path)
    editor = {r.api: r for r in records if r.role is Role.EDITOR}
    create, delete = editor["App.createBook"], editor["Book.deleteBook"]
    assert create.outcome == delete.outcome == OUTCOME_SUCCESS
    assert create.evidence.startswith("created book-") and delete.evidence == "deleted b0"
    assert create.sharing_changes == delete.sharing_changes == []
    assert result.findings == [] and result.potential_only == []
