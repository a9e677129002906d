import json
import os
import subprocess
import sys
from importlib import resources

from hypothesis import example, given, settings
from hypothesis import strategies as st

import permscan
from permscan import classify
from permscan.catalog import load_catalog, parse_catalog
from permscan.classify import (
    CONF_DESCRIPTION,
    CONF_FALLBACK,
    CONF_STEM,
    Operation,
    PermissionLabel,
    classify_api,
    classify_catalog,
    effect_of,
)
from permscan.graph import CallChain
from permscan.simulator import (
    GRANT_FULL,
    Role,
    Subject,
    _build_workspace,
    invoke_host_api,
    load_capability_matrix,
)
from permscan.testgen import TestCase, _order_key

import synth

DATA = resources.files("permscan.data")
CORPUS = load_catalog(str(DATA / "corpus_catalog.json"))
LABELS = json.loads((DATA / "corpus_labels.json").read_text())
MATRIX = load_capability_matrix(str(DATA / "capability_matrix.json"))


def _api(api_id):
    return CORPUS.apis[api_id]


def test_operation_parse_and_rank():
    assert Operation.parse("Modify") is Operation.MODIFY
    assert Operation.CREATE < Operation.VIEW < Operation.COMMENT < Operation.MODIFY < Operation.DELETE


def test_label_round_trip():
    label = PermissionLabel(Operation.MODIFY, "Spreadsheet", True)
    assert PermissionLabel.from_json(label.to_json()) == label


def test_stem_classification():
    label, conf = classify_api(_api("Sheet.clearContents"), CORPUS)
    assert label.operation is Operation.DELETE and conf == CONF_STEM
    label, _ = classify_api(_api("Range.replyToComment"), CORPUS)
    assert label.operation is Operation.COMMENT and not label.touches_sharing


def test_builder_trap_is_view():
    label, conf = classify_api(_api("SpreadsheetApp.newAffineTransformBuilder"), CORPUS)
    assert label.operation is Operation.VIEW and conf == CONF_STEM


def test_wait_trap_is_view():
    label, _ = classify_api(_api("Spreadsheet.waitForAllDataExecutionsCompletion"), CORPUS)
    assert label.operation is Operation.VIEW


def test_sharing_mutators_are_modify():
    for api_id in ("Spreadsheet.addEditor", "Spreadsheet.removeViewer", "Spreadsheet.setOwner"):
        label, _ = classify_api(_api(api_id), CORPUS)
        assert label.operation is Operation.MODIFY and label.touches_sharing, api_id


def test_sharing_reads_keep_view():
    label, _ = classify_api(_api("Spreadsheet.getViewers"), CORPUS)
    assert label.operation is Operation.VIEW and label.touches_sharing


def test_sharing_needs_shareable_parent():
    # Sheet is not a root product, so a marker in a Sheet method is inert
    label, _ = classify_api(_api("Sheet.hideColumn"), CORPUS)
    assert not label.touches_sharing


def test_classify_catalog_finds_the_shareable_classes_once(monkeypatch):
    """Classification is linear in the catalog: the shareable classes are
    found once per catalog, not once per API whose method names a sharing
    marker, and a label is the same by either path."""
    calls = []
    original = classify._shareable_classes

    def counting(catalog):
        calls.append(catalog)
        return original(catalog)

    monkeypatch.setattr(classify, "_shareable_classes", counting)
    sheets = load_catalog(str(DATA / "spreadsheet.json"))
    labels = classify_catalog(sheets)
    assert calls == [sheets]
    assert labels == {api_id: classify_api(api, sheets)[0] for api_id, api in sheets.apis.items()}
    assert len(calls) > 2  # two arguments: found again for each sharing-marker API


def test_description_keyword_fallback():
    # no method stem, but the description names the verb
    doc = json.loads((DATA / "corpus_catalog.json").read_text())
    doc["apis"] = [dict(doc["apis"][0])]
    doc["apis"][0].update(
        id="SpreadsheetApp.blorpify", method="blorpify",
        description="Deletes everything in sight.", returns={"void": True}, params=[],
    )
    from permscan.catalog import parse_catalog

    cat = parse_catalog(doc)
    label, conf = classify_api(cat.apis["SpreadsheetApp.blorpify"], cat)
    assert label.operation is Operation.DELETE and conf == CONF_DESCRIPTION


def test_modify_fallback():
    label, conf = classify_api(_api("Spreadsheet.renameActiveSheet"), CORPUS)
    assert label.operation is Operation.MODIFY and conf == CONF_FALLBACK


def test_corpus_accuracy_at_least_38_of_40():
    hits = 0
    for api in CORPUS.apis.values():
        label, _ = classify_api(api, CORPUS)
        want = LABELS[api.id]
        hits += (
            label.operation is Operation.parse(want["operation"])
            and label.touches_sharing == want["touches_sharing"]
        )
    assert len(CORPUS.apis) == 40
    assert hits >= 38


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CORPUS.apis)))
def test_classifier_is_deterministic_and_total(api_id):
    first = classify_api(CORPUS.apis[api_id], CORPUS)
    second = classify_api(CORPUS.apis[api_id], CORPUS)
    assert first == second
    label, conf = first
    assert isinstance(label.operation, Operation)
    assert conf in (CONF_STEM, CONF_DESCRIPTION, CONF_FALLBACK)


def test_import_leaves_http_stack_unloaded():
    src = os.path.dirname(os.path.dirname(permscan.__file__))
    probe = "import sys, permscan.cli; print(sorted({'requests', 'urllib.request'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    """Start-up pays for neither: building dataclasses and importing
    `inspect` were most of the cost of `import permscan.cli`."""
    src = os.path.dirname(os.path.dirname(permscan.__file__))
    probe = "import sys, permscan.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "[]"


# --- the one effect function ------------------------------------------------------------

EFFECT_VERBS = [
    "add", "remove", "revoke", "delete", "set", "transfer", "clear", "hide", "unhide", "update",
]
# every sharing marker, some in the plural; "Row" names no marker
EFFECT_OBJECTS = [
    "Editor", "Editors", "Viewers", "Owner", "Collaborator", "Commenters", "Sharing", "Row",
]


def _expected_effect(verb: str, obj: str) -> str | None:
    """The effect of root API `<verb><obj>`, restated from the documented rules."""
    if obj == "Row":
        return verb if verb in ("hide", "unhide") else None
    if verb == "add":
        role = "editor" if "Editor" in obj else "viewer" if "Viewer" in obj else "commenter"
        return f"share_add:{role}"
    if verb in ("remove", "revoke", "delete"):
        return "share_remove"
    if verb in ("set", "transfer") and obj == "Owner":
        return "share_transfer_owner"
    return "share_other"


def _expected_log(effect: str | None, roles: dict, user: str) -> list:
    """The sharing-log entries the owner's call with `effect` and `user` as
    its argument writes on resource row0 with `roles`."""
    owner = next(u for u, r in roles.items() if r is Role.OWNER)
    if effect is None or effect in ("share_other", "hide", "unhide"):
        return []
    if effect == "share_remove":
        if user not in roles or user == owner:
            others = sorted(u for u in roles if u != owner)
            if not others:
                return []
            user = others[0]
        return [("row0", user, roles[user], None)]
    if effect == "share_transfer_owner":
        old = Role.EDITOR if user == owner else roles.get(user)
        return [("row0", owner, Role.OWNER, Role.EDITOR), ("row0", user, old, Role.OWNER)]
    added = Role.parse(effect.partition(":")[2])
    if user == owner or roles.get(user) is added:
        return []
    return [("row0", user, roles.get(user), added)]


def _shape(state) -> list:
    return [
        (rid, n.id, n.kind, n.content, n.hidden, len(n.children))
        for rid, root in state.resources.items() for n in root.walk()
    ]


@settings(max_examples=200, deadline=None)
@given(
    verb=st.sampled_from(EFFECT_VERBS),
    obj=st.sampled_from(EFFECT_OBJECTS),
    upper=st.booleans(),
    collaborators=st.dictionaries(
        st.sampled_from(["e", "c", "v"]),
        st.sampled_from([Role.EDITOR, Role.COMMENTER, Role.VIEWER]),
    ),
    children=st.lists(st.tuples(st.booleans(), st.text("xyz", max_size=3)), min_size=1, max_size=3),
    user=st.sampled_from(["o", "e", "c", "v", "newcomer"]),
)
# removing the owner removes another collaborator instead
@example(verb="remove", obj="Editor", upper=False, collaborators={"e": Role.EDITOR}, children=[(False, "")],
         user="o")
def test_order_and_simulator_follow_the_one_effect_function(
    verb, obj, upper, collaborators, children, user
):
    """One-API catalogs whose root method is a sharing or Row verb: effect_of
    gives the documented effect, _order_key ranks by it, and the owner's
    call writes the sharing-log entries it names; a share_* effect leaves
    every node's content, hidden flag and the tree shape as they were."""
    method = (verb.capitalize() if upper else verb) + obj
    api_id = f"Row.{method}"
    catalog = parse_catalog({
        "host_app": "drive", "root": "Row", "classes": [{"name": "Row", "children": []}],
        "apis": [synth.api_doc(api_id, {"void": True}, "emailAddress")],
    })
    label = classify_catalog(catalog)[api_id]
    effect = effect_of(method, label)
    assert effect == _expected_effect(verb, obj), (method, label)

    case = TestCase("tc0001", api_id, label, CallChain(()))
    rank = {
        "share_add": (Operation.CREATE, 0),
        "share_remove": (Operation.DELETE, 2),
        "share_transfer_owner": (Operation.DELETE, 2),
    }.get((effect or "").partition(":")[0], (label.operation, 1))
    assert _order_key(case, 7) == (*rank, 7)

    roles = {"o": Role.OWNER, **collaborators}
    state = _build_workspace({
        "resources": [{"kind": "Row", "id": "row0", "children": [
            {"kind": "Row", "id": f"row{n}", "attrs": {"hidden": hidden, "content": text}}
            for n, (hidden, text) in enumerate(children, 1)
        ]}],
        "sharing": {"row0": {"roles": {u: r.label for u, r in roles.items()}}},
    }, catalog, MATRIX)
    before, start = _shape(state), len(state.sharing_log)
    receiver = state.resources["row0"]
    result = invoke_host_api(
        state, Subject("o", GRANT_FULL), api_id, label, receiver, {"emailAddress": user}
    )
    assert result.ok, result
    assert state.sharing_log[start:] == _expected_log(effect, roles, user)
    if effect is not None and effect.startswith("share_"):
        assert _shape(state) == before
    if effect == "hide":
        assert receiver.hidden
    if effect == "unhide":
        assert not any(n.hidden for n in receiver.walk())
