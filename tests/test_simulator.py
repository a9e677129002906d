import fnmatch
import json
import random
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permscan.catalog import load_catalog, parse_catalog
from permscan.classify import Operation, PermissionLabel, classify_catalog
from permscan.errors import PatternMatchesNothing, SchemaViolation
from permscan.executor import SimulatorBackend, sharing_changes
from permscan.simulator import (
    GRANT_FULL,
    GRANT_READ,
    GRANT_READ_EDIT,
    PERMISSION_DENIED_MESSAGE,
    Decision,
    FaultSpec,
    ObjectNode,
    Role,
    Subject,
    check_access,
    instantiate_template,
    invoke_host_api,
    load_capability_matrix,
    load_faults,
    resolve_faults,
    scope_covers,
    validate_grant,
    _build_workspace,
    _find_of_kind,
)

import synth
from synth import oracle_node

DATA = resources.files("permscan.data")
SHEETS = load_catalog(str(DATA / "spreadsheet.json"))
MATRIX = load_capability_matrix(str(DATA / "capability_matrix.json"))
TEMPLATE = str(DATA / "template_spreadsheet.json")


def fresh_state():
    return instantiate_template(TEMPLATE, SHEETS, MATRIX)


def _with_faults(state, *faults):
    """`state` with the gates of `faults` left out for the APIs they match."""
    state.faults = resolve_faults(faults, state.catalog)
    return state


# --- scope lattice ---------------------------------------------------------------


def test_grant_lattice_validation():
    assert validate_grant(GRANT_READ) == GRANT_READ
    assert validate_grant(GRANT_READ_EDIT) == GRANT_READ_EDIT
    assert validate_grant(GRANT_FULL) == GRANT_FULL
    with pytest.raises(SchemaViolation):
        validate_grant(frozenset({"edit"}))  # not downward closed
    with pytest.raises(SchemaViolation):
        validate_grant(frozenset({"read", "delete"}))


def test_scope_coverage_per_operation():
    assert scope_covers(GRANT_READ, Operation.VIEW)
    assert not scope_covers(GRANT_READ, Operation.CREATE)
    assert not scope_covers(GRANT_READ, Operation.COMMENT)
    assert scope_covers(GRANT_READ_EDIT, Operation.MODIFY)
    assert not scope_covers(GRANT_READ_EDIT, Operation.DELETE)
    assert scope_covers(GRANT_FULL, Operation.DELETE)


# --- capability matrix -------------------------------------------------------------


def test_matrix_wildcard_and_roles():
    assert MATRIX.allows(Role.VIEWER, Operation.VIEW, "Cell")
    assert not MATRIX.allows(Role.VIEWER, Operation.MODIFY, "Cell")
    assert MATRIX.allows(Role.COMMENTER, Operation.COMMENT, "Spreadsheet")
    assert MATRIX.allows(Role.EDITOR, Operation.DELETE, "Row")
    assert MATRIX.allows(Role.OWNER, Operation.DELETE, "Spreadsheet")


def test_matrix_monotonicity_is_enforced(tmp_path):
    doc = json.loads((DATA / "capability_matrix.json").read_text())
    doc["viewer"]["Delete"] = {"*": True}  # viewer may but editor may not
    doc["editor"]["Delete"] = {"*": False}
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation):
        load_capability_matrix(bad)


# --- template instantiation ---------------------------------------------------------


def test_template_loads_nodes_and_sharing():
    state = fresh_state()
    assert oracle_node(state, "c_salary").hidden
    assert oracle_node(state, "rng_protected").protection == frozenset({"olivia.owner"})
    assert state.role_of("victor.viewer", "spreadsheet1") is Role.VIEWER
    assert state.sharing["spreadsheet1"]["olivia.owner"] is Role.OWNER


def test_template_seeds_attribute_table():
    """Each node's id, name and url are recorded; a role's lookup reads the
    first node of the smallest kind."""
    state = fresh_state()
    first_cell = next(n for root in state.resources.values() for n in root.walk() if n.kind == "Cell")
    assert state.lookup_attribute("id") == state.lookup_attribute("name") == first_cell.id
    assert state.lookup_attribute("url") == f"https://workspace.local/{first_cell.id}"
    assert state._fresh_counter == 0


def _scan_attribute(log, role):
    """The reference lookup: of every (kind, role, value) recorded, the
    first value under `role`'s smallest kind."""
    kinds = [k for k, r, _ in log if r == role]
    return next(v for k, r, v in log if r == role and k == min(kinds)) if kinds else None


ATTRIBUTE_ROLES = ("id", "name", "url", "email")


@settings(max_examples=150, deadline=None)
@given(
    seeded=st.booleans(),
    calls=st.lists(st.tuples(
        st.sampled_from(["A", "Cell", "Sheet", "Spreadsheet", "Zeta"]),
        st.sampled_from(ATTRIBUTE_ROLES),
        st.sampled_from(["v0", "v1", "v2"]),
    ) | st.sampled_from(ATTRIBUTE_ROLES), max_size=30),
)
def test_lookup_attribute_matches_a_scan(seeded, calls):
    """Differential test on an empty or the bundled workspace: after every
    record_attribute or lookup_attribute, each recorded role's lookup
    answers as a scan of a log of every value recorded does.  A lookup of a
    role never recorded mints a fresh value under the root kind, which the
    log records too; a role may be recorded again after its mint."""
    state = fresh_state() if seeded else _build_workspace({}, SHEETS, MATRIX)
    log = [
        (n.kind, role, value)
        for root in state.resources.values()
        for n in root.walk()
        for role, value in (("id", n.id), ("name", n.id), ("url", f"https://workspace.local/{n.id}"))
    ]
    minted = 0
    for call in calls:
        if isinstance(call, tuple):
            state.record_attribute(*call)
            log.append(call)
        else:
            if _scan_attribute(log, call) is None:
                minted += 1
                log.append((SHEETS.root, call, f"fresh-{SHEETS.root.lower()}-{minted}"))
            assert state.lookup_attribute(call) == _scan_attribute(log, call), call
        for r in {r for _, r, _ in log}:
            assert state.lookup_attribute(r) == _scan_attribute(log, r), r
        assert state._fresh_counter == minted


def test_template_owner_required(tmp_path):
    doc = json.loads((DATA / "template_spreadsheet.json").read_text())
    doc["sharing"]["spreadsheet1"]["roles"]["olivia.owner"] = "editor"
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation):
        instantiate_template(path, SHEETS, MATRIX)


# --- access decisions ----------------------------------------------------------------


def _label(op, kind, sharing=False):
    return PermissionLabel(op, kind, sharing)


def test_viewer_cannot_see_hidden_cell():
    state = fresh_state()
    subj = Subject("victor.viewer", GRANT_FULL)
    decision = check_access(state, subj, _label(Operation.VIEW, "Cell"), oracle_node(state, "c_salary"))
    assert decision is Decision.DENY_ROLE


def test_owner_sees_hidden_cell():
    state = fresh_state()
    subj = Subject("olivia.owner", GRANT_FULL)
    decision = check_access(state, subj, _label(Operation.VIEW, "Cell"), oracle_node(state, "c_salary"))
    assert decision is Decision.ALLOW


def test_editor_cannot_modify_protected_range():
    state = fresh_state()
    subj = Subject("alice.editor", GRANT_FULL)
    decision = check_access(
        state, subj, _label(Operation.MODIFY, "Range"), oracle_node(state, "rng_protected")
    )
    assert decision is Decision.DENY_ROLE


def test_scope_check_is_level_one():
    state = fresh_state()
    subj = Subject("olivia.owner", GRANT_READ)
    decision = check_access(state, subj, _label(Operation.DELETE, "Row"), oracle_node(state, "r1"))
    assert decision is Decision.DENY_SCOPE


def test_sharing_mutation_is_owner_only():
    state = fresh_state()
    label = _label(Operation.MODIFY, "Spreadsheet", sharing=True)
    target = oracle_node(state, "spreadsheet1")
    editor = Subject("alice.editor", GRANT_FULL)
    assert check_access(state, editor, label, target) is Decision.DENY_SHARING
    assert check_access(state, Subject("olivia.owner", GRANT_FULL), label, target) is Decision.ALLOW


def test_non_collaborator_denied():
    state = fresh_state()
    subj = Subject("mallory", GRANT_FULL)
    decision = check_access(state, subj, _label(Operation.VIEW, "Row"), oracle_node(state, "r1"))
    assert decision is Decision.DENY_ROLE


# truth-table oracle: an independent restatement of the documented decision
# rules, checked against check_access over randomized inputs

_OP_SCOPE = {
    Operation.VIEW: "read",
    Operation.CREATE: "edit",
    Operation.COMMENT: "edit",
    Operation.MODIFY: "edit",
    Operation.DELETE: "delete",
}

_USERS = ["olivia.owner", "alice.editor", "carol.commenter", "victor.viewer"]
_NODES = ["spreadsheet1", "sheet1", "r1", "col_salary", "c_sal_1", "rng_protected", "c_salary"]


def _oracle_decision(state, user, grant, label, target):
    if _OP_SCOPE[label.operation] not in grant:
        return Decision.DENY_SCOPE
    role = state.role_of(user, "spreadsheet1")
    if role is None or not state.matrix.allows(role, label.operation, label.object_kind):
        return Decision.DENY_ROLE
    if target.hidden:
        privileged = (
            role is Role.OWNER
            or (target.protection is not None and user in target.protection)
            or (role is Role.EDITOR and target.kind == "Sheet" and target.protection is None)
        )
        if not privileged:
            return Decision.DENY_ROLE
    if (
        target.protection is not None
        and label.operation in (Operation.CREATE, Operation.MODIFY, Operation.DELETE)
        and role is not Role.OWNER
        and user not in target.protection
    ):
        return Decision.DENY_ROLE
    if label.touches_sharing and label.operation is not Operation.VIEW and role is not Role.OWNER:
        return Decision.DENY_SHARING
    return Decision.ALLOW


@settings(max_examples=400, deadline=None)
@given(
    user=st.sampled_from(_USERS),
    grant=st.sampled_from([GRANT_READ, GRANT_READ_EDIT, GRANT_FULL]),
    op=st.sampled_from(list(Operation)),
    node_id=st.sampled_from(_NODES),
    sharing=st.booleans(),
)
def test_check_access_matches_truth_table(user, grant, op, node_id, sharing):
    state = fresh_state()
    target = oracle_node(state, node_id)
    label = PermissionLabel(op, target.kind, sharing)
    got = check_access(state, Subject(user, grant), label, target)
    assert got is _oracle_decision(state, user, grant, label, target)


_ANY_USER = _USERS + ["mallory.stranger"]  # the last has no role
# a node: (kind, hidden, protection, whether it is in the workspace)
_RANDOM_NODE = st.tuples(
    st.sampled_from(sorted(SHEETS.classes)),
    st.booleans(),
    st.none() | st.frozensets(st.sampled_from(_ANY_USER)),
    st.booleans(),
)
# the gate that denies first, of the gates `synth.oracle_denials` names
_FIRST_DENIAL = (
    ("scope", Decision.DENY_SCOPE), ("role", Decision.DENY_ROLE), ("sharing", Decision.DENY_SHARING)
)


@settings(max_examples=400, deadline=None)
@given(
    user=st.sampled_from(_ANY_USER),
    grant=st.sampled_from([None, GRANT_READ, GRANT_READ_EDIT, GRANT_FULL]),
    op=st.sampled_from(list(Operation)),
    sharing=st.booleans(),
    target=_RANDOM_NODE,
    produced=st.none() | _RANDOM_NODE,
)
# an editor sees a hidden sheet that no protection hides
@example("alice.editor", GRANT_FULL, Operation.VIEW, False, ("Sheet", True, None, True), None)
# the owner writes a range whose protection leaves the owner out
@example(
    "olivia.owner", GRANT_FULL, Operation.MODIFY, False,
    ("Range", False, frozenset({"alice.editor"}), True), None,
)
# a viewer the protection lists sees a hidden range
@example(
    "victor.viewer", GRANT_FULL, Operation.VIEW, False,
    ("Range", True, frozenset({"victor.viewer"}), True), None,
)
def test_check_access_on_random_nodes_matches_the_oracle(user, grant, op, sharing, target, produced):
    """On a random target, and a random produced object or none, of any
    kind, hidden or not, protected for any set of users (the owner in it
    or not) and in the workspace or detached, `check_access` gives the
    first gate that `synth.oracle_denials` names, or ALLOW."""
    state = fresh_state()

    def node(node_id, kind, hidden, protection, attached) -> ObjectNode:
        made = ObjectNode(kind, node_id, hidden=hidden, protection=protection)
        if attached:
            made.resource = "spreadsheet1"
            oracle_node(state, "sheet1").children.append(made)
        return made

    target = node("random-target", *target)
    produced = None if produced is None else node("random-produced", *produced)
    label = PermissionLabel(op, target.kind, sharing)
    got = check_access(state, Subject(user, grant), label, target, produced)
    denied = synth.oracle_denials(state, user, grant, label, target, produced)
    assert got is next((d for gate, d in _FIRST_DENIAL if gate in denied), Decision.ALLOW)


# --- invocation and faults ------------------------------------------------------------


def test_denied_invocation_uses_exact_message():
    state = fresh_state()
    subj = Subject("victor.viewer", GRANT_FULL)
    label = _label(Operation.DELETE, "Sheet")
    sheet = oracle_node(state, "sheet1")
    result = invoke_host_api(state, subj, "Sheet.deleteRow", label, sheet, {"rowIndex": 0})
    assert not result.ok
    assert result.error == PERMISSION_DENIED_MESSAGE
    assert result.error.startswith("Exception:")


def test_receiver_kind_mismatch_is_type_error():
    state = fresh_state()
    subj = Subject("olivia.owner", GRANT_FULL)
    label = _label(Operation.VIEW, "Cell")
    result = invoke_host_api(state, subj, "Cell.getValue", label, oracle_node(state, "sheet1"), {})
    assert not result.ok and result.error_kind == "TypeError"


def test_skip_scope_fault_bypasses_level_one_only():
    state = _with_faults(fresh_state(), FaultSpec("SkipScopeCheck", "Sheet.deleteRow"))
    label = _label(Operation.DELETE, "Sheet")
    ok = invoke_host_api(
        state, Subject("olivia.owner", GRANT_READ), "Sheet.deleteRow", label,
        oracle_node(state, "sheet1"), {"rowIndex": 0},
    )
    assert ok.ok  # scope skipped, owner role suffices
    denied = invoke_host_api(
        state, Subject("victor.viewer", GRANT_READ), "Sheet.deleteRow", label,
        oracle_node(state, "sheet1"), {"rowIndex": 0},
    )
    assert not denied.ok  # level two still enforced


def test_skip_role_fault_bypasses_level_two_only():
    state = _with_faults(fresh_state(), FaultSpec("SkipRoleCheck", "Range.getCell"))
    label = _label(Operation.VIEW, "Range")
    ok = invoke_host_api(
        state, Subject("victor.viewer", GRANT_READ), "Range.getCell", label,
        oracle_node(state, "rng_protected"), {"row": 0, "column": 0},
    )
    assert ok.ok
    still_scoped = invoke_host_api(
        state, Subject("victor.viewer", frozenset()), "Range.getCell", label,
        oracle_node(state, "rng_protected"), {"row": 0, "column": 0},
    )
    assert not still_scoped.ok


def test_sharing_fault_and_digest():
    """The faulty add is allowed and is the one entry it logs."""
    state = _with_faults(fresh_state(), FaultSpec("AllowSharingMutation", "Spreadsheet.addEditor"))
    label = _label(Operation.MODIFY, "Spreadsheet", sharing=True)
    start = len(state.sharing_log)
    result = invoke_host_api(
        state, Subject("alice.editor", GRANT_FULL), "Spreadsheet.addEditor", label,
        oracle_node(state, "spreadsheet1"), {"emailAddress": "mallory"},
    )
    assert result.ok
    assert state.sharing_log[start:] == [("spreadsheet1", "mallory", None, Role.EDITOR)]
    assert state.role_of("mallory", "spreadsheet1") is Role.EDITOR


def test_fault_pattern_must_match():
    with pytest.raises(PatternMatchesNothing):
        resolve_faults([FaultSpec("SkipRoleCheck", "Nothing.here")], SHEETS)
    with pytest.raises(SchemaViolation):
        resolve_faults([FaultSpec("SkipEverything", "Sheet.*")], SHEETS)


def test_fault_glob_and_idempotence():
    fault = FaultSpec("SkipRoleCheck", "Spreadsheet.*")
    once = resolve_faults([fault], SHEETS)
    assert resolve_faults([fault, fault], SHEETS) == once
    assert "SkipRoleCheck" in once["Spreadsheet.setName"]
    assert "Sheet.sort" not in once


# API-id-like text with every regex metacharacter but fnmatch's own (*, ? and [)
LITERAL = st.text(st.sampled_from("aS.]\\()+$^{}|-_é"), max_size=6)


@settings(max_examples=300, deadline=None)
@given(pattern=LITERAL, api_id=LITERAL, same=st.booleans())
def test_a_literal_fault_pattern_matches_as_fnmatchcase(pattern, api_id, same):
    """A pattern with no `*`, `?` or `[` matches exactly the ids that
    `fnmatchcase` matches, and compiles no regex to find them."""
    api_id = pattern if same else api_id
    expected = fnmatch.fnmatchcase(api_id, pattern)
    with mock.patch.object(fnmatch, "fnmatchcase", side_effect=AssertionError("regex compiled")):
        assert FaultSpec("SkipRoleCheck", pattern).matches(api_id) is expected


def test_faults_resolve_to_apis_at_injection():
    """resolve_faults maps each API to the kinds of the faults whose pattern
    matches it, and to nothing else; every session's state reads the
    backend's one map, and so do its copies."""
    faults = [*load_faults(str(DATA / "faults_seeded.json")), FaultSpec("SkipRoleCheck", "Sheet.*")]
    resolved = resolve_faults(faults, SHEETS)
    for api_id in SHEETS.apis:
        expected = {f.kind for f in faults if f.matches(api_id)}
        assert resolved.get(api_id, frozenset()) == expected, api_id
    assert resolved.keys() <= SHEETS.apis.keys() and all(resolved.values())
    backend = SimulatorBackend(SHEETS, TEMPLATE, MATRIX, classify_catalog(SHEETS), faults)
    state = backend.start_session("victor.viewer", GRANT_FULL).state
    assert backend.faults == resolved
    assert state.faults is state.copy().faults is backend.faults
    assert backend.template.faults == {}


def test_load_bundled_fault_manifest():
    faults = load_faults(str(DATA / "faults_seeded.json"))
    kinds = sorted(f.kind for f in faults)
    assert len(faults) == 12
    assert kinds.count("SkipScopeCheck") == 3
    assert kinds.count("SkipRoleCheck") == 5
    assert kinds.count("AllowSharingMutation") == 4


def test_setowner_transfers_and_demotes():
    state = fresh_state()
    label = _label(Operation.MODIFY, "Spreadsheet", sharing=True)
    result = invoke_host_api(
        state, Subject("olivia.owner", GRANT_FULL), "Spreadsheet.setOwner", label,
        oracle_node(state, "spreadsheet1"), {"emailAddress": "alice.editor"},
    )
    assert result.ok
    roles = state.sharing["spreadsheet1"]
    assert roles["alice.editor"] is Role.OWNER
    assert roles["olivia.owner"] is Role.EDITOR


def test_sharing_call_on_a_detached_receiver_is_not_found():
    """A sharing call that reaches a receiver no longer in any resource (its
    role check skipped) fails with NotFound and changes nothing."""
    state = _with_faults(fresh_state(), FaultSpec("SkipRoleCheck", "Spreadsheet.getEditors"))
    owner = Subject("olivia.owner", GRANT_FULL)
    root = state.resources["spreadsheet1"]
    deleted = invoke_host_api(
        state, owner, "SpreadsheetApp.getActiveSpreadsheet", _label(Operation.DELETE, "SpreadsheetApp")
    )
    assert deleted.ok and state.resources == {}
    before = _snapshot(state)
    label = _label(Operation.VIEW, "Spreadsheet", sharing=True)
    result = invoke_host_api(state, owner, "Spreadsheet.getEditors", label, root)
    assert (result.ok, result.error_kind) == (False, "NotFound")
    assert _snapshot(state) == before


# --- fail closed: app-level calls are checked against the first resource -------------

SYNTH = synth.with_creators(synth.make_catalog(random.Random(7), max_classes=60, max_apis=600))
SYNTH_LABELS = classify_catalog(SYNTH)


def _synth_state(resources):
    """Workspace over SYNTH whose resources are shared with owner "o" and viewer "v"."""
    doc = {
        "resources": resources,
        "sharing": {r["id"]: {"roles": {"o": "owner", "v": "viewer"}} for r in resources},
    }
    return _build_workspace(doc, SYNTH, MATRIX)


def _snapshot(state):
    trees = {
        rid: [(n.id, n.kind, n.content, n.hidden) for n in root.walk()]
        for rid, root in state.resources.items()
    }
    return trees, synth.role_maps(state), state._fresh_counter


@pytest.mark.parametrize("api_id", ["C0.setThing28", "C0.deleteThing69", "C0.insertC1"])
def test_app_level_call_is_checked_against_the_first_resource(api_id):
    """A call on the root class has no receiver; the role check still runs,
    against the first resource: a viewer's modify, delete or create is denied
    and changes nothing, the owner's is allowed."""
    state = _synth_state([{"kind": "C1", "id": "r0", "children": [{"kind": "C2", "id": "r0a"}]}])
    label = SYNTH_LABELS[api_id]
    assert label.operation is not Operation.VIEW
    before = _snapshot(state)
    denied = invoke_host_api(state, Subject("v", GRANT_FULL), api_id, label, None, {})
    assert (denied.ok, denied.error_kind) == (False, "PermissionError")
    assert _snapshot(state) == before
    assert invoke_host_api(state, Subject("o", GRANT_FULL), api_id, label, None, {}).ok


@pytest.mark.parametrize("api_id", ["C0.setThing28", "C0.deleteThing69", "C0.insertC1"])
def test_empty_workspace_denies(api_id):
    state = _synth_state([])
    for subject in (Subject("o", GRANT_FULL), Subject("o")):
        result = invoke_host_api(state, subject, api_id, SYNTH_LABELS[api_id])
        assert (result.ok, result.error_kind) == (False, "PermissionError")
    assert state.resources == {} and state._fresh_counter == 0


def test_effect_follows_the_label_not_the_method_name():
    """A view-like name with a CREATE label creates an object."""
    state = fresh_state()
    label = _label(Operation.CREATE, "Sheet")
    result = invoke_host_api(
        state, Subject("olivia.owner", GRANT_FULL), "Spreadsheet.getActiveSheet", label,
        oracle_node(state, "spreadsheet1"),
    )
    assert result.ok and result.node.kind == "Sheet" and result.node.id != "sheet1"
    assert oracle_node(state, "spreadsheet1").children[-1] is result.node


# --- resource ids and cached lookups against tree walks ------------------------------


def _check_index(state, kinds, known):
    for n in known:
        assert n.resource == synth.oracle_resource_of(state, n), n.id
    for kind in kinds:
        for receiver in [None, *known]:
            got = _find_of_kind(state, kind, receiver)
            assert got is synth.oracle_find_of_kind(state, kind, receiver), (kind, receiver)


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(["bundled", "synth"]), seed=st.integers(0, 2**32), data=st.data())
def test_workspace_index_matches_tree_walks(source, seed, data):
    """Differential test: after every create or delete, each node's
    `resource` and `_find_of_kind`, cached answers included, agree with a
    walk over the current trees, for every node ever seen (attached or
    detached) and every (kind, receiver)."""
    rng = random.Random(seed)
    if source == "bundled":
        catalog, doc = SHEETS, json.loads((DATA / "template_spreadsheet.json").read_text())
    else:
        catalog = synth.with_creators(synth.make_catalog(rng, max_classes=6, max_apis=30))
        doc = synth.make_template(rng, catalog)
    state = _build_workspace(synth.with_fresh_like_ids(doc, rng), catalog, MATRIX)
    # with the role check skipped, calls also reach receivers already detached
    _with_faults(state, FaultSpec("SkipRoleCheck", "*"))
    known = [n for root in state.resources.values() for n in root.walk()]
    apis = sorted(catalog.apis.values(), key=lambda a: a.id)
    _check_index(state, catalog.classes, known)
    for _ in range(data.draw(st.integers(1, 16), label="steps")):
        op = data.draw(st.sampled_from([Operation.CREATE, Operation.DELETE]), label="op")
        receiver = data.draw(st.none() | st.sampled_from(known), label="receiver")
        # without a receiver, only a class-typed API creates or deletes a root
        fitting = [
            a for a in apis
            if (a.parent_class == receiver.kind if receiver is not None else a.returns.is_class)
        ]
        api = data.draw(st.sampled_from(fitting or apis), label="api")
        label = PermissionLabel(op, api.parent_class, False)
        result = invoke_host_api(state, Subject("o"), api.id, label, receiver)
        if result.node is not None and all(result.node is not n for n in known):
            known.append(result.node)
        _check_index(state, catalog.classes, known)


def test_created_root_replaces_resource_with_the_same_id():
    """A fresh id equal to a resource id replaces that resource in its dict
    position; its old tree, and a child created in it, become detached."""
    doc = json.loads((DATA / "template_spreadsheet.json").read_text())
    root = doc["resources"][0]
    root["id"], root["children"][0]["children"][0]["id"] = "chart-2", "row-1"
    doc["sharing"] = {"chart-2": doc["sharing"]["spreadsheet1"]}
    state = _build_workspace(doc, SHEETS, MATRIX)
    known = list(oracle_node(state, "chart-2").walk())
    owner = Subject("olivia.owner")
    for api_id, receiver in [("Sheet.insertRow", oracle_node(state, "sheet1")), ("Sheet.addChart", None)]:
        label = PermissionLabel(Operation.CREATE, "Sheet", False)
        known.append(invoke_host_api(state, owner, api_id, label, receiver).node)
        _check_index(state, SHEETS.classes, known)
    assert [n.id for n in known[-2:]] == ["row-1", "chart-2"]
    assert list(state.resources) == ["chart-2"]
    assert oracle_node(state, "chart-2") is known[-1]
    assert oracle_node(state, "row-1") is None


# --- the sharing change log against role-map diffs -------------------------------------

BOOKS = parse_catalog(synth.books_catalog_doc(
    synth.api_doc("App.openBook", {"class": "Book"}),
    synth.api_doc("App.addEditor", {"void": True}, "emailAddress"),
    synth.api_doc("Book.addEditor", {"void": True}, "emailAddress"),
    synth.api_doc("Book.addViewer", {"void": True}, "emailAddress"),
    synth.api_doc("Book.removeEditor", {"void": True}, "emailAddress"),
    synth.api_doc("Book.setOwner", {"void": True}, "emailAddress"),
    synth.api_doc("Book.deleteBook", {"void": True}),
))
BOOKS_TEMPLATE = {
    "resources": [{"kind": "Book", "id": f"b{i}"} for i in range(3)],
    "sharing": {f"b{i}": {"roles": dict(synth.ALL_ROLES)} for i in range(3)},
}


def _workspace_for(source, rng):
    """Catalog, labels, users and a workspace whose root ids collide with
    the fresh ids of created roots."""
    if source == "bundled":
        catalog, labels = SHEETS, classify_catalog(SHEETS)
        doc = json.loads((DATA / "template_spreadsheet.json").read_text())
        users = [*_USERS, "mallory"]
    else:
        catalog, labels = BOOKS, classify_catalog(BOOKS)
        doc = json.loads(json.dumps(BOOKS_TEMPLATE))
        users = [u for u, _ in synth.ALL_ROLES] + ["m"]
    state = _build_workspace(synth.with_fresh_like_ids(doc, rng), catalog, MATRIX)
    return catalog, labels, users, state


def _draw_call(data, state, catalog, labels, users):
    """(api id, label, receiver, args) of a sharing mutation, a root create
    or a call on a root, which deletes it when it has no children."""
    apis = sorted(catalog.apis.values(), key=lambda a: a.id)
    op = data.draw(st.sampled_from(["share", "create", "delete"]), label="op")
    if op == "create":
        api = data.draw(st.sampled_from([a for a in apis if a.returns.is_class]), label="api")
        return api.id, PermissionLabel(Operation.CREATE, api.parent_class, False), None, {}
    attached = [n for root in state.resources.values() for n in root.walk()]
    if op == "share":
        mutators = [
            a for a in apis
            if labels[a.id].touches_sharing and labels[a.id].operation is not Operation.VIEW
        ]
        api = data.draw(st.sampled_from(mutators), label="api")
        fitting = [n for n in attached if n.kind == api.parent_class]
        receiver = data.draw(st.sampled_from(fitting), label="receiver") if fitting else None
        user = data.draw(st.sampled_from(users), label="user")
        return api.id, labels[api.id], receiver, {p.name: user for p in api.params}
    roots = list(state.resources.values())
    receiver = data.draw(st.sampled_from(roots), label="root") if roots else None
    fitting = [a for a in apis if receiver is not None and a.parent_class == receiver.kind]
    api = data.draw(st.sampled_from(fitting or apis), label="api")
    kind = receiver.kind if receiver is not None else api.parent_class
    return api.id, PermissionLabel(Operation.DELETE, kind, False), receiver if fitting else None, {}


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(["bundled", "books"]), seed=st.integers(0, 2**32), data=st.data())
def test_sharing_changes_match_role_map_diffs(source, seed, data):
    """Differential test: after every window of calls (sharing mutations,
    root creates whose ids collide with template roots, root deletes), the
    net changes read from the log equal the diff of the role maps taken
    before and after it, on the resources present in both."""
    catalog, labels, users, state = _workspace_for(source, random.Random(seed))
    _with_faults(state, *data.draw(st.lists(st.builds(
        FaultSpec,
        st.sampled_from(["SkipRoleCheck", "AllowSharingMutation"]),
        st.sampled_from(["*", *sorted(catalog.apis)]),
    ), max_size=3), label="faults"))
    for _ in range(data.draw(st.integers(1, 4), label="windows")):
        start, before = len(state.sharing_log), synth.role_maps(state)
        for _ in range(data.draw(st.integers(1, 6), label="calls")):
            api_id, label, receiver, args = _draw_call(data, state, catalog, labels, users)
            subject = Subject(data.draw(st.sampled_from(users), label="subject"), GRANT_FULL)
            invoke_host_api(state, subject, api_id, label, receiver, args)
            # every resource keeps one owner, so it keeps its sharing entry
            assert state.sharing.keys() == state.resources.keys()
            for roles in state.sharing.values():
                assert list(roles.values()).count(Role.OWNER) == 1
        after = synth.role_maps(state)
        assert sharing_changes(state, start) == synth.oracle_sharing_changes(before, after)


def _share(state, user, api_id, email):
    label = _label(Operation.MODIFY, "Spreadsheet", sharing=True)
    result = invoke_host_api(
        state, Subject(user, GRANT_FULL), api_id, label, oracle_node(state, "spreadsheet1"),
        {"emailAddress": email},
    )
    assert result.ok
    return result


def test_add_then_remove_is_no_sharing_change():
    state = fresh_state()
    start = len(state.sharing_log)
    _share(state, "olivia.owner", "Spreadsheet.addEditor", "mallory")
    _share(state, "olivia.owner", "Spreadsheet.removeEditor", "mallory")
    assert len(state.sharing_log) == start + 2
    assert sharing_changes(state, start) == []


def test_adding_the_owner_keeps_the_owner():
    state = fresh_state()
    start = len(state.sharing_log)
    assert _share(state, "olivia.owner", "Spreadsheet.addEditor", "olivia.owner").value == (
        "olivia.owner stays owner"
    )
    assert state.sharing_log[start:] == []
    assert state.role_of("olivia.owner", "spreadsheet1") is Role.OWNER


def test_colliding_root_create_replaces_the_sharing_entry():
    """A created root that takes over a template resource's id takes over
    its sharing too: the creator owns it and no one else has a role."""
    doc = json.loads((DATA / "template_spreadsheet.json").read_text())
    doc["resources"][0]["id"] = "spreadsheet-1"
    doc["sharing"] = {"spreadsheet-1": doc["sharing"]["spreadsheet1"]}
    state = _build_workspace(doc, SHEETS, MATRIX)
    start = len(state.sharing_log)
    label = PermissionLabel(Operation.CREATE, "SpreadsheetApp", False)
    result = invoke_host_api(
        state, Subject("alice.editor", GRANT_FULL), "SpreadsheetApp.getActiveSpreadsheet", label
    )
    assert result.ok and result.node.id == "spreadsheet-1"
    assert state.sharing == {"spreadsheet-1": {"alice.editor": Role.OWNER}}
    assert sharing_changes(state, start) == [
        ("spreadsheet-1", "alice.editor", Role.EDITOR, Role.OWNER),
        ("spreadsheet-1", "carol.commenter", Role.COMMENTER, None),
        ("spreadsheet-1", "olivia.owner", Role.OWNER, None),
        ("spreadsheet-1", "victor.viewer", Role.VIEWER, None),
    ]


# --- template copies ---------------------------------------------------------------


def _nodes(state):
    return [n for root in state.resources.values() for n in root.walk()]


def _random_write(state, rng, apis, known, ops=(Operation.CREATE, Operation.DELETE)):
    """One random call of an operation in `ops`, by the owner, on a receiver
    from `known` or on none; returns its result."""
    op = rng.choice(ops)
    receiver = rng.choice([None, *known])
    fitting = [
        a for a in apis
        if (a.parent_class == receiver.kind if receiver is not None else a.returns.is_class)
    ]
    api = rng.choice(fitting or apis)
    label = PermissionLabel(op, api.parent_class, False)
    return invoke_host_api(state, Subject("o"), api.id, label, receiver)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), creators=st.booleans(), fresh_like=st.booleans())
def test_copy_is_independent_of_its_source(tmp_path_factory, seed, creators, fresh_like):
    """A copy equals a fresh build of the template, resource ids included,
    its lookups answer as tree walks do, and it shares no node with its
    source.  Creates and deletes on the copy, roots replaced under colliding
    ids included, leave the source as built, and a copy of the used copy,
    which starts with no cached lookups, answers as tree walks do."""
    rng = random.Random(seed)
    catalog = synth.make_catalog(rng, max_classes=8, max_apis=40)
    if creators:
        catalog = synth.with_creators(catalog)
    doc = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
    if fresh_like:
        doc = synth.with_fresh_like_ids(doc, rng)
    path = tmp_path_factory.mktemp("copy") / "template.json"
    path.write_text(json.dumps(doc))
    source = instantiate_template(path, catalog, MATRIX)
    copy = source.copy()
    built = synth.state_value(instantiate_template(path, catalog, MATRIX))
    assert synth.state_value(copy) == built
    assert not {id(n) for n in _nodes(source)} & {id(n) for n in _nodes(copy)}
    _check_index(copy, catalog.classes, _nodes(copy))

    # with the role check skipped, calls also reach receivers already detached
    _with_faults(copy, FaultSpec("SkipRoleCheck", "*"))
    apis = sorted(catalog.apis.values(), key=lambda a: a.id)
    known = _nodes(copy)
    for _ in range(rng.randint(1, 12)):
        node = _random_write(copy, rng, apis, known).node
        if node is not None and all(node is not n for n in known):
            known.append(node)
    _check_index(copy, catalog.classes, known)
    assert synth.state_value(source) == built
    _check_index(source, catalog.classes, _nodes(source))

    again = copy.copy()
    assert synth.state_value(again) == synth.state_value(copy)
    _check_index(again, catalog.classes, _nodes(again))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), sheets=st.booleans())
def test_template_attributes_are_those_of_the_per_node_loop(seed, sheets):
    """A template's attributes are seeded in one pass, from the first node
    of the least kind: the workspace equals one whose id, name and url are
    recorded at every node in DFS order."""
    rng = random.Random(seed)
    catalog = synth.make_catalog(rng, max_classes=8, max_apis=40)
    if sheets:
        catalog = synth.as_sheets(catalog, rng)
    doc = synth.make_template(rng, catalog, max_nodes=30, roles=synth.ALL_ROLES)
    state = _build_workspace(doc, catalog, MATRIX)
    oracle = state.copy()
    oracle.attributes = {}
    for root in oracle.resources.values():
        for n in synth.walk(root):
            oracle.record_attribute(n.kind, "id", n.id)
            oracle.record_attribute(n.kind, "name", n.id)
            oracle.record_attribute(n.kind, "url", f"https://workspace.local/{n.id}")
    assert synth.state_value(state) == synth.state_value(oracle)
    assert list(state.attributes) == ["id", "name", "url"]


def _nodes_through_changes(seed: int, creators: bool):
    """Every node of a random template, and again after each of some random
    creates and deletes, every node ever seen, detached ones included: one
    list per stage, the same list grown."""
    rng = random.Random(seed)
    catalog = synth.make_catalog(rng, max_classes=8, max_apis=40)
    if creators:
        catalog = synth.with_creators(catalog)
    state = _build_workspace(synth.make_template(rng, catalog, max_nodes=30), catalog, MATRIX)
    _with_faults(state, FaultSpec("SkipRoleCheck", "*"))
    apis = sorted(catalog.apis.values(), key=lambda a: a.id)
    known = [n for root in state.resources.values() for n in synth.walk(root)]
    for step in range(rng.randint(1, 12)):
        if step:
            node = _random_write(state, rng, apis, known).node
            if node is not None and all(node is not n for n in known):
                known.append(node)
        yield known


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), creators=st.booleans())
def test_walk_matches_a_recursive_walk(seed, creators):
    """`ObjectNode.walk` yields the nodes of a subtree in pre-order, children
    in list order, as a recursive walk does: from every node of a random
    template, and again after each of some random creates and deletes, from
    every node ever seen, detached ones included."""
    for known in _nodes_through_changes(seed, creators):
        for node in known:
            assert list(map(id, node.walk())) == list(map(id, synth.walk(node)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), creators=st.booleans())
def test_copy_matches_a_recursive_copy(seed, creators):
    """`ObjectNode.copy` gives what a recursive copy gives: the same fields,
    content included, in the same pre-order with the same child counts, no
    node or child list of the source, and the source's `protection` objects
    themselves.  Checked from every node of a random template, and again
    after each of some random creates and deletes, from every node ever
    seen, detached ones included."""
    for stage, known in enumerate(_nodes_through_changes(seed, creators)):
        if stage == 0:
            for node in known[::2]:
                node.content = f"text of {node.id}"
        for node in known:
            got, want = node.copy(), synth.copy_tree(node)
            assert synth.tree_value(got) == synth.tree_value(want) == synth.tree_value(node)
            assert not {id(n) for n in synth.walk(got)} & {id(n) for n in synth.walk(node)}
            pairs = zip(synth.walk(got), synth.walk(node))
            assert all(c.children is not n.children and c.protection is n.protection for c, n in pairs)


# --- the epoch: what a write that keeps it may change --------------------------------

_WRITE_OPERATIONS = (Operation.CREATE, Operation.COMMENT, Operation.MODIFY, Operation.DELETE)


def _shape(state, known, new=None) -> tuple:
    """What a write that keeps `state.epoch` leaves as it was, the node
    `new` left out: each known node's `resource`, flags and children, the
    roots in order with their roles, and (kind, receiver) -> the first node
    of that kind from no receiver and from each known node."""
    def ids(nodes) -> list:
        return [id(n) for n in nodes if n is not new]

    return (
        [(n.resource, n.hidden, n.protection, ids(n.children)) for n in known],
        [(rid, id(root), dict(state.sharing[rid])) for rid, root in state.resources.items() if root is not new],
        {
            (kind, id(receiver)): synth.oracle_find_of_kind(state, kind, receiver)
            for kind in state.catalog.classes for receiver in (None, *known)
        },
    )


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(["bundled", "books"]), seed=st.integers(0, 2**32), data=st.data())
def test_a_write_that_keeps_the_epoch_appends_at_most_one_leaf(source, seed, data):
    """Replay's contract: a successful write that leaves `state.epoch` as it
    was, such as a content write, a create that makes no class object or a
    delete that removes nothing, changes no role, `resource`, `hidden` or
    `protection`, and no tree but by appending one leaf or root, which
    changes no lookup of another kind.  Writes are sharing mutations, root
    creates whose ids may collide, root deletes and random creates,
    deletes, comments and modifies, on attached and detached receivers.  On
    the bundled workspace the first write always unhides the sheet that
    holds hidden nodes: random writes seldom draw a hide or an unhide."""
    rng = random.Random(seed)
    catalog, labels, users, state = _workspace_for(source, rng)
    _with_faults(state, FaultSpec("SkipRoleCheck", "*"))
    apis = sorted(catalog.apis.values(), key=lambda a: a.id)
    known = _nodes(state)
    for n in range(data.draw(st.integers(1, 12), label="calls")):
        before, epoch = _shape(state, known), state.epoch
        if n == 0 and source == "bundled":
            sheet = next(node for node in known if node.kind == "Sheet" and any(m.hidden for m in node.walk()))
            unhide = "Sheet.unhideColumn"
            result = invoke_host_api(state, Subject("olivia.owner", GRANT_FULL), unhide, labels[unhide], sheet)
        elif data.draw(st.booleans(), label="sharing, root create or root delete"):
            api_id, label, receiver, args = _draw_call(data, state, catalog, labels, users)
            subject = Subject(data.draw(st.sampled_from(users), label="subject"), GRANT_FULL)
            result = invoke_host_api(state, subject, api_id, label, receiver, args)
        else:
            result = _random_write(state, rng, apis, known, _WRITE_OPERATIONS)
        new = result.node if all(result.node is not n for n in known) else None
        if new is not None:
            known.append(new)
        if not result.ok or state.epoch != epoch:
            continue
        if new is not None:
            holders = [n.children for n in known if new in n.children]
            holders += [list(state.resources.values())] if new in state.resources.values() else []
            assert not new.children and len(holders) == 1 and holders[0][-1] is new
        nodes, roots, found = _shape(state, known[:len(before[0])], new)
        assert (nodes, roots) == before[:2]
        assert {k: v for k, v in found.items() if new is None or k[0] != new.kind} == {
            k: v for k, v in before[2].items() if new is None or k[0] != new.kind
        }
