import json
import random
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan import executor
from permscan.catalog import load_catalog, parse_catalog
from permscan.classify import Operation, classify_catalog
from permscan.detector import build_report, detect_full, report_to_json
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
    FAULT_KINDS,
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


def test_detect_without_ground_truth_equals_detect_with_it():
    """`ground_truth` is accepted and ignored: each record carries what its
    call observed."""
    records = run_with([FaultSpec("SkipRoleCheck", "Range.setValue")])
    findings = detect_full(records, LABELS, MATRIX).findings
    assert {(f.kind, f.api) for f in findings} == {("E2", "Range.setValue")}
    assert findings == detect_full(records, LABELS, MATRIX, GROUND_TRUTH).findings
    records = run_with(ALL_FAULTS)
    assert detect_full(records, LABELS, MATRIX) == detect_full(records, LABELS, MATRIX, GROUND_TRUTH)


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
        records[0]._replace(api="Nowhere.call"),
        records[0]._replace(api="Sheet.appendChart", outcome=OUTCOME_PRUNED),
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


def _campaign(catalog, doc, directory, faults=()):
    """Role-matrix and scope-ladder over `catalog` and template document
    `doc` with `faults` injected, then detection."""
    path = directory / "template.json"
    path.write_text(json.dumps(doc))
    labels = classify_catalog(catalog)
    suite = generate_suite(build_graph(catalog), labels).cases
    backend = SimulatorBackend(catalog, path, MATRIX, labels, faults)
    records = run_role_matrix(suite, backend) + run_scope_ladder(suite, backend)
    return records, detect_full(records, labels, MATRIX)


def test_templates_give_users_other_roles_or_none_on_other_resources():
    """The campaigns' templates share the first resource with one user per
    role; on each other resource a user may hold another role, or none."""
    seen = set()
    for seed in range(30):
        rng = random.Random(seed)
        catalog = synth.make_catalog(rng, max_classes=8, max_apis=40)
        doc = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
        first, *others = (entry["roles"] for entry in doc["sharing"].values())
        assert first == dict(synth.ALL_ROLES)
        for roles in others:
            assert list(roles.values()).count("owner") == 1
            seen.update("none" if u not in roles else "same" if roles[u] == r else "other" for u, r in first.items())
    assert seen == {"none", "same", "other"}


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32), creators=st.booleans(), sheets=st.booleans())
def test_fault_free_campaign_is_silent(tmp_path_factory, seed, creators, sheets):
    """With no fault injected, a campaign over any synthetic catalog and any
    template with a user of every role, who may hold other roles or none on
    other resources, confirms nothing and leaves nothing for triage.  With
    `sheets`, the catalog has hideable and protectable kinds, hide, unhide
    and sharing APIs, and the template hidden and protected nodes."""
    rng = random.Random(seed)
    catalog = synth.make_catalog(rng, max_classes=12, max_apis=120)
    if sheets:
        catalog = synth.as_sheets(catalog, rng)
    if creators:
        catalog = synth.with_creators(catalog)
    doc = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
    _, result = _campaign(catalog, doc, tmp_path_factory.mktemp("silence"))
    assert result.findings == []
    assert result.potential_only == []


# --- every confirmed finding against a per-call oracle -----------------------------------

INSTALLER_ROLES = {user: Role.parse(role) for user, role in synth.ALL_ROLES}


def _oracle_campaign(catalog, doc, directory, faults):
    """`_campaign`, with the oracle's triples: each case's last call is
    checked before it runs against `synth.oracle_denials`, from the same
    target and produced object `invoke_host_api` picks, found by tree walks.
    When a gate denied it and it succeeded anyway, the case gives
    (kind, api, installer's role, required): kind E1 for a scope denial,
    else E3 if the call changed sharing or only the sharing gate denied,
    else E2.  A triple is required unless only the sharing gate denied and
    nothing changed.  Every call the oracle allows but `invoke_host_api`
    denies goes into the over-denials as (api, installer, grant)."""
    marks, over, last = set(), set(), []
    invoke, run_case = executor.invoke_host_api, executor.run_case

    def oracle_invoke(state, ctx, api_id, label, receiver=None, args=None):
        api = state.catalog.apis[api_id]
        denied = None  # the oracle does not judge a call of the wrong receiver kind or with no target
        if receiver is None or receiver.kind == api.parent_class:
            produced = None
            if api.returns.is_class and label.operation is not Operation.CREATE:
                produced = synth.oracle_find_of_kind(state, api.returns.name, receiver)
            target = receiver if receiver is not None else produced
            if target is None:
                target = next(iter(state.resources.values()), None)
            if target is not None:
                denied = synth.oracle_denials(state, ctx.user, ctx.grant, label, target, produced)
        before = synth.role_maps(state)
        result = invoke(state, ctx, api_id, label, receiver, args)
        if denied == set() and result.error_kind == "PermissionError":
            over.add((api_id, ctx.user, ctx.grant))
        mark = None
        if result.ok and denied:
            changed = bool(synth.oracle_sharing_changes(before, synth.role_maps(state)))
            kind = "E1" if "scope" in denied else "E3" if changed or "role" not in denied else "E2"
            mark = (kind, api_id, INSTALLER_ROLES[ctx.user], kind != "E3" or changed)
        last.append(mark)
        return result

    def oracle_run_case(session, case, suite_index=None):
        last.clear()
        record = run_case(session, case, suite_index)
        if last and last[-1] is not None:
            marks.add(last[-1])
        return record

    with mock.patch.object(executor, "invoke_host_api", oracle_invoke), \
            mock.patch.object(executor, "run_case", oracle_run_case):
        _, result = _campaign(catalog, doc, directory, faults)
    return marks, over, result


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), sheets=st.booleans())
def test_findings_match_the_per_call_oracle(tmp_path_factory, seed, sheets):
    """With 1-4 random faults on a synthetic catalog with creates (so cases
    reach objects made in the session), every confirmed finding is an
    oracle triple, and every required oracle triple is confirmed or
    potential-only."""
    rng = random.Random(seed)
    catalog = synth.make_catalog(rng, max_classes=8, max_apis=40)
    if sheets:
        catalog = synth.as_sheets(catalog, rng)
    catalog = synth.with_creators(catalog)
    doc = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
    apis = sorted(catalog.apis)
    faults = [FaultSpec(rng.choice(FAULT_KINDS), rng.choice(apis)) for _ in range(rng.randint(1, 4))]
    marks, _, result = _oracle_campaign(catalog, doc, tmp_path_factory.mktemp("oracle"), faults)
    confirmed = {(f.kind, f.api, f.role) for f in result.findings}
    seen = confirmed | {(f.kind, f.api, f.role) for f in result.potential_only}
    assert confirmed <= {mark[:3] for mark in marks}
    assert {mark[:3] for mark in marks if mark[3]} <= seen


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), sheets=st.booleans())
def test_fault_free_campaign_denies_no_call_the_oracle_allows(tmp_path_factory, seed, sheets):
    """Over the per-call oracle's catalogs and templates with no fault, no
    host-API call is denied that `synth.oracle_denials` allows.  Detection
    shares `observe` with the simulator, so only this sees a gate that
    denies too much."""
    rng = random.Random(seed)
    catalog = synth.make_catalog(rng, max_classes=8, max_apis=40)
    if sheets:
        catalog = synth.as_sheets(catalog, rng)
    catalog = synth.with_creators(catalog)
    doc = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
    _, over, _ = _oracle_campaign(catalog, doc, tmp_path_factory.mktemp("over"), ())
    assert over == set()


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
    records, result = _campaign(catalog, doc, tmp_path)
    editor = {r.api: r for r in records if r.role is Role.EDITOR}
    create, delete = editor["App.createBook"], editor["Book.deleteBook"]
    assert create.outcome == delete.outcome == OUTCOME_SUCCESS
    assert create.evidence.startswith("created book-") and delete.evidence == "deleted b0"
    assert create.sharing_changes == delete.sharing_changes == []
    assert result.findings == [] and result.potential_only == []


# --- targets created during the session ------------------------------------------------

# App -> Book, Folder.  The template holds one folder; every book is created
# in the session by its installer, who owns it.
BOOKS_AND_FOLDER = parse_catalog({
    **synth.books_catalog_doc(
        synth.api_doc("App.createBook", {"class": "Book"}, "title"),
        synth.api_doc("App.openBook", {"class": "Book"}),
        synth.api_doc("App.openFolder", {"class": "Folder"}),
        synth.api_doc("Book.addEditor", {"void": True}, "user"),
        synth.api_doc("Book.setTitle", {"void": True}, "title"),
        synth.api_doc("Folder.getName", {"primitive": "string"}),
    ),
    "classes": [
        {"name": "App", "children": ["Book", "Folder"]},
        {"name": "Book", "children": []},
        {"name": "Folder", "children": []},
    ],
})
FOLDER_TEMPLATE = {
    "resources": [{"kind": "Folder", "id": "f0"}],
    "sharing": {"f0": {"roles": dict(synth.ALL_ROLES)}},
}


def test_calls_on_a_book_the_installer_created_are_not_findings(tmp_path):
    """An editor shares and retitles the book it created: it owns that book,
    though it is only an editor on the template's folder."""
    records, result = _campaign(BOOKS_AND_FOLDER, FOLDER_TEMPLATE, tmp_path)
    editor = {r.api: r for r in records if r.role is Role.EDITOR}
    assert editor["Book.addEditor"].outcome == OUTCOME_SUCCESS
    assert editor["Book.addEditor"].sharing_changes
    assert result.findings == []
    assert result.potential_only == []


def test_skipped_role_check_on_create_is_the_only_finding(tmp_path):
    """With the role check skipped on App.createBook, the viewer and the
    commenter create books they may not: those two calls are E2.  What each
    then does to its own book is not a finding."""
    faults = [FaultSpec("SkipRoleCheck", "App.createBook")]
    _, result = _campaign(BOOKS_AND_FOLDER, FOLDER_TEMPLATE, tmp_path, faults)
    found = sorted((f.kind, f.api, f.role) for f in result.findings)
    assert found == [("E2", "App.createBook", Role.VIEWER), ("E2", "App.createBook", Role.COMMENTER)]
    assert result.potential_only == []
