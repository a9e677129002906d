from importlib import resources

import pytest

from permscan.catalog import load_catalog
from permscan.classify import classify_catalog
from permscan.errors import BackendUnavailable
from permscan.executor import (
    OUTCOME_PERMISSION_ERROR,
    OUTCOME_PRUNED,
    OUTCOME_SUCCESS,
    SimulatorBackend,
    records_from_jsonl,
    records_to_jsonl,
    run_case,
    run_role_matrix,
    run_scope_ladder,
)
from permscan.graph import build_graph
from permscan.simulator import (
    GRANT_FULL,
    GRANT_READ,
    FaultSpec,
    Role,
    instantiate_template,
    load_capability_matrix,
    load_faults,
)
from permscan.testgen import generate_suite

DATA = resources.files("permscan.data")
SHEETS = load_catalog(str(DATA / "spreadsheet.json"))
MATRIX = load_capability_matrix(str(DATA / "capability_matrix.json"))
TEMPLATE = str(DATA / "template_spreadsheet.json")
SUITE = generate_suite(build_graph(SHEETS), classify_catalog(SHEETS)).cases


def backend(faults=()):
    return SimulatorBackend(SHEETS, TEMPLATE, MATRIX, classify_catalog(SHEETS), faults=faults)


def _by_api(records, role=None):
    return {
        r.api: r for r in records if role is None or r.role is role
    }


def test_user_with_role_resolves_template_users():
    b = backend()
    assert b.user_with_role(Role.VIEWER) == "victor.viewer"
    assert b.user_with_role(Role.EDITOR) == "alice.editor"


def test_session_requires_known_installer():
    with pytest.raises(BackendUnavailable):
        backend().start_session("mallory", GRANT_FULL)


def test_fresh_template_per_session():
    b = backend()
    s1 = b.start_session("alice.editor", GRANT_FULL)
    run_case(s1, SUITE[0])
    s2 = b.start_session("alice.editor", GRANT_FULL)
    assert s2.state is not s1.state
    assert s2.failed_cases == set()


def test_run_case_success_and_evidence():
    b = backend()
    session = b.start_session("olivia.owner", GRANT_FULL)
    index = {c.id: c for c in SUITE}
    rec = run_case(session, SUITE[0], index)
    assert rec.outcome == OUTCOME_SUCCESS
    assert rec.evidence  # evidence present only on Success
    assert rec.case_id == SUITE[0].id


def test_permission_error_keeps_digest_and_marks_failed():
    b = backend()
    session = b.start_session("victor.viewer", GRANT_FULL)
    index = {c.id: c for c in SUITE}
    records = [run_case(session, c, index) for c in SUITE]
    denied = [r for r in records if r.outcome == OUTCOME_PERMISSION_ERROR]
    assert denied
    for rec in denied:
        assert rec.sharing_changes == []
        assert rec.evidence is None
        assert rec.error and rec.error.startswith("Exception:")


def test_pruning_two_skips_dependents_of_failed_case():
    b = backend()
    session = b.start_session("victor.viewer", GRANT_FULL)
    index = {c.id: c for c in SUITE}
    records = {c.target_api: run_case(session, c, index) for c in SUITE}
    # viewer cannot view the hidden column, so its dependent leaf is pruned
    assert records["Sheet.getColumn"].outcome == OUTCOME_PERMISSION_ERROR
    assert records["Column.getValues"].outcome == OUTCOME_PRUNED
    # pruned cases never executed: no sharing changes, no evidence, no touched objects
    pruned = records["Column.getValues"]
    assert pruned.evidence is None and pruned.touched == []


def test_pruning_two_is_transitive():
    # fail the Range producer itself: getCell and getValue must both prune
    b = backend([FaultSpec("SkipRoleCheck", "Sheet.unhideColumn")])
    session = b.start_session("victor.viewer", GRANT_FULL)
    index = {c.id: c for c in SUITE}
    records = {}
    for case in SUITE:
        if case.target_api == "Sheet.getRange":
            session.failed_cases.add(case.id)  # simulate a failed dependency
            continue
        records[case.target_api] = run_case(session, case, index)
    assert records["Range.getCell"].outcome == OUTCOME_PRUNED
    assert records["Cell.getValue"].outcome == OUTCOME_PRUNED


def test_role_matrix_covers_three_roles():
    records = run_role_matrix(SUITE, backend())
    roles = {r.role for r in records}
    assert roles == {Role.VIEWER, Role.COMMENTER, Role.EDITOR}
    assert all(r.grant == GRANT_FULL for r in records)
    assert len(records) == 3 * len(SUITE)


def test_scope_ladder_runs_owner_with_partial_grants():
    records = run_scope_ladder(SUITE, backend())
    grants = {frozenset(r.grant) for r in records}
    assert frozenset(GRANT_READ) in grants
    assert all(r.role is Role.OWNER for r in records)
    # with only the read scope every mutating API is denied
    read_only = _by_api([r for r in records if r.grant == GRANT_READ])
    assert read_only["Sheet.deleteRow"].outcome == OUTCOME_PERMISSION_ERROR
    assert read_only["Spreadsheet.getName"].outcome == OUTCOME_SUCCESS


def test_integer_combos_try_until_success():
    # deleteRow enumerates row indexes; the first workable combo succeeds
    records = _by_api(run_role_matrix(SUITE, backend()), Role.EDITOR)
    assert records["Sheet.deleteRow"].outcome == OUTCOME_SUCCESS


def test_faulty_backend_changes_outcomes():
    faults = load_faults(str(DATA / "faults_seeded.json"))
    plain = _by_api(run_role_matrix(SUITE, backend()), Role.VIEWER)
    faulty = _by_api(run_role_matrix(SUITE, backend(faults)), Role.VIEWER)
    assert plain["Range.getCell"].outcome == OUTCOME_PERMISSION_ERROR
    assert faulty["Range.getCell"].outcome == OUTCOME_SUCCESS
    assert "salary" in faulty["Range.getCell"].evidence


def test_campaign_leaves_the_template_as_built():
    """Sessions run on copies: after a faulty role-matrix and scope-ladder
    campaign the backend's template is still a fresh, fault-free build."""
    b = backend(load_faults(str(DATA / "faults_seeded.json")))
    records = run_role_matrix(SUITE, b) + run_scope_ladder(SUITE, b)
    assert any(r.sharing_changes for r in records)
    assert b.template == instantiate_template(TEMPLATE, SHEETS, MATRIX)
    assert b.template.faults == []


def test_records_jsonl_round_trip():
    records = run_role_matrix(SUITE, backend())
    text = records_to_jsonl(records)
    back = records_from_jsonl(text)
    assert records_to_jsonl(back) == text
    assert back[0].role is records[0].role
    assert back[0].grant == records[0].grant
