import json
import random
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan import executor, simulator
from permscan.catalog import load_catalog, parse_catalog, parse_json
from permscan.cli import main
from permscan.classify import Operation, classify_catalog
from permscan.errors import BackendUnavailable
from permscan.executor import (
    OUTCOME_OTHER_ERROR,
    OUTCOME_PERMISSION_ERROR,
    OUTCOME_PRUNED,
    OUTCOME_SUCCESS,
    ExecutionRecord,
    SimulatorBackend,
    run_case,
    run_role_matrix,
    run_scope_ladder,
)
from permscan.graph import CallChain, ChainStep, build_graph
from permscan.simulator import (
    FAULT_KINDS,
    GRANT_FULL,
    GRANT_READ,
    GRANT_READ_EDIT,
    FaultSpec,
    InvocationResult,
    Observed,
    Role,
    instantiate_template,
    load_capability_matrix,
    load_faults,
)
from permscan.testgen import (
    PrimitivePlan,
    ProducerPlan,
    TestCase,
    generate_suite,
)

import synth

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


def test_a_denied_case_runs_its_chain_once(tmp_path):
    """A case runs its chain once: a denied delete after a create invokes
    the delete once and mints one book."""
    catalog = parse_catalog(synth.books_catalog_doc(
        synth.api_doc("App.createBook", {"class": "Book"}),
        {**synth.api_doc("Book.deleteRow", {"void": True}),
         "params": [{"name": "rowIndex", "kind": "integer", "type": "integer"}]},
    ))
    path = tmp_path / "template.json"
    path.write_text(json.dumps({
        "resources": [{"kind": "Book", "id": "b0"}], "sharing": {"b0": {"roles": {"o": "owner"}}},
    }))
    labels = classify_catalog(catalog)
    assert labels["Book.deleteRow"].operation is Operation.DELETE
    suite = generate_suite(build_graph(catalog), labels).cases
    case = next(c for c in suite if c.target_api == "Book.deleteRow")
    assert case.chain.steps[-1].params == (("rowIndex", PrimitivePlan(0)),)
    session = SimulatorBackend(catalog, path, MATRIX, labels).start_session("o", GRANT_READ_EDIT)
    calls = []
    invoke = executor.invoke_host_api

    def counting(state, ctx, api_id, label, **kwargs):
        calls.append(api_id)
        return invoke(state, ctx, api_id, label, **kwargs)

    with mock.patch.object(executor, "invoke_host_api", counting):
        record = run_case(session, case)
    assert record.outcome == OUTCOME_PERMISSION_ERROR
    assert calls == ["App.createBook", "Book.deleteRow"]
    assert record.touched == [("book-1", "Book"), ("book-1", "Book")]
    assert sorted(session.state.resources) == ["b0", "book-1"]


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
    assert synth.state_value(b.template) == synth.state_value(instantiate_template(TEMPLATE, SHEETS, MATRIX))
    assert b.template.faults == {}


def test_fault_patterns_are_matched_once_per_backend(tmp_path, capsys):
    """A backend resolves its faults when it is built; its sessions only
    read the result, so a whole role-matrix and scope-ladder campaign
    matches each pattern against each API once, and so does a `pipeline`
    command, which builds one backend."""
    faults = load_faults(str(DATA / "faults_seeded.json"))
    calls = []
    matches = FaultSpec.matches

    def counted(fault, api_id):
        calls.append((fault, api_id))
        return matches(fault, api_id)

    with mock.patch.object(FaultSpec, "matches", counted):
        b = backend(faults)
        run_role_matrix(SUITE, b) + run_scope_ladder(SUITE, b)
    assert len(calls) == len(faults) * len(SHEETS.apis)

    calls.clear()
    with mock.patch.object(FaultSpec, "matches", counted):
        assert main([
            "pipeline", "--catalog", str(DATA / "spreadsheet.json"), "--template", TEMPLATE,
            "--faults", str(DATA / "faults_seeded.json"), "--out-dir", str(tmp_path),
        ]) == 2
    capsys.readouterr()
    assert len(calls) == 12 * 28 == len(faults) * len(SHEETS.apis)


def test_records_jsonl_round_trip():
    records = run_role_matrix(SUITE, backend())
    text = synth.records_text(records)
    back = parse_json(text, ExecutionRecord.from_json, "<records>", lines=True)
    assert synth.records_text(back) == text
    assert back[0].role is records[0].role
    assert back[0].grant == records[0].grant


# --- prefix reuse against running every step ----------------------------------------


def _reuse_free(calls: list):
    """`executor._run_chain` as it was before prefix reuse: every step of
    every chain runs.  Each call appends (step, receiver, whether the step
    is the case's own last step) to `calls`."""

    def run_chain(session, chain, touched, target=True):
        receiver = None
        result = InvocationResult(True)
        for i, step in enumerate(chain.steps):
            is_final = i == len(chain.steps) - 1
            args = executor._resolve_args(session, step.params, touched)
            calls.append((step, receiver, target and is_final))
            result = executor.invoke_host_api(
                session.state, session.ctx, step.api_id, session.labels[step.api_id],
                receiver=receiver, args=args,
            )
            if receiver is not None:
                touched.append((receiver.id, receiver.kind))
            if result.node is not None:
                touched.append((result.node.id, result.node.kind))
            if not result.ok:
                raise executor._StepFailure(result)
            receiver = result.node
        return result

    return run_chain


def _campaign_jsonl(suite, b) -> str:
    return synth.records_text(run_role_matrix(suite, b) + run_scope_ladder(suite, b))


def _random_campaign(tmp_path_factory, seed, rich, sheets, creators, fresh) -> tuple:
    """(suite, backend) on a random catalog and template with 0-4 random
    faults; with `fresh`, about half the template's ids are ones that
    creates mint, so a root create may replace a resource."""
    rng = random.Random(seed)
    if rich:
        catalog = synth.make_rich_catalog(rng)
    else:
        catalog = synth.make_catalog(rng, max_classes=8, max_apis=40)
    if sheets:
        catalog = synth.as_sheets(catalog, rng)
    if creators:
        catalog = synth.with_creators(catalog)
    path = tmp_path_factory.mktemp("campaign") / "template.json"
    template = synth.make_template(rng, catalog, roles=synth.ALL_ROLES)
    path.write_text(json.dumps(synth.with_fresh_like_ids(template, rng) if fresh else template))
    apis = sorted(catalog.apis)
    faults = [FaultSpec(rng.choice(FAULT_KINDS), rng.choice(apis)) for _ in range(rng.randint(0, 4))]
    labels = classify_catalog(catalog)
    suite = generate_suite(build_graph(catalog), labels).cases
    return suite, SimulatorBackend(catalog, path, MATRIX, labels, faults)


CAMPAIGNS = dict(
    seed=st.integers(0, 2**32), rich=st.booleans(), sheets=st.booleans(), creators=st.booleans(),
    fresh=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(**CAMPAIGNS)
def test_reuse_gives_the_records_of_running_every_step(tmp_path_factory, seed, rich, sheets, creators, fresh):
    """On random catalogs and templates with 0-4 random faults, some with
    ids that creates mint, a campaign that replays prefix steps writes,
    byte for byte, the records of one that runs every step of every
    chain."""
    suite, b = _random_campaign(tmp_path_factory, seed, rich, sheets, creators, fresh)
    got = _campaign_jsonl(suite, b)
    with mock.patch.object(executor, "_run_chain", _reuse_free([])):
        assert got == _campaign_jsonl(suite, b)


@settings(max_examples=100, deadline=None)
@given(**CAMPAIGNS)
def test_a_case_is_pruned_iff_an_ancestor_did_not_succeed(tmp_path_factory, seed, rich, sheets, creators, fresh):
    """Acceptance 05's rule on random campaigns with 0-4 random faults: in
    each session a record is Pruned iff some ancestor of its case, followed
    through `depends_on` within the suite, has a record other than Success
    in that session."""
    suite, b = _random_campaign(tmp_path_factory, seed, rich, sheets, creators, fresh)
    index = {c.id: c for c in suite}
    assert len(index) == len(suite)
    records = run_role_matrix(suite, b) + run_scope_ladder(suite, b)
    n = len(suite)
    for session in range(5):
        outcomes = {r.case_id: r.outcome for r in records[session * n:(session + 1) * n]}
        for case in suite:
            ancestors = []
            dep = case.depends_on
            while dep in index and dep not in ancestors:
                ancestors.append(dep)
                dep = index[dep].depends_on
            failed = any(outcomes[a] != OUTCOME_SUCCESS for a in ancestors)
            assert (outcomes[case.id] == OUTCOME_PRUNED) == failed, case.id


def test_a_campaign_works_out_each_apis_call_facts_once():
    """A backend's sessions share one map of call facts: over a faulty
    role-matrix and scope-ladder campaign, `effect_of` runs once for each
    API the sessions invoke, under its one label."""
    b = backend(load_faults(str(DATA / "faults_seeded.json")))
    effects, invoked = [], set()
    effect_of, invoke = simulator.effect_of, executor.invoke_host_api

    def counted_effect(method, label):
        effects.append((method, label))
        return effect_of(method, label)

    def counted_invoke(state, ctx, api_id, label, **kwargs):
        invoked.add(api_id)
        return invoke(state, ctx, api_id, label, **kwargs)

    with mock.patch.object(simulator, "effect_of", counted_effect), \
            mock.patch.object(executor, "invoke_host_api", counted_invoke):
        run_role_matrix(SUITE, b) + run_scope_ladder(SUITE, b)
    assert sorted(effects) == sorted((SHEETS.apis[a].method, b.labels[a]) for a in invoked)
    assert len(invoked) > 10


def test_read_only_session_invokes_each_prefix_step_once_per_receiver():
    """With only the read scope every non-VIEW call is denied, so nothing in
    the session writes: after its first run, a (step, receiver) pair is
    replayed, and only the cases' own last steps run again."""
    b = backend()
    index = {c.id: c for c in SUITE}

    def invocations() -> int:
        count = 0
        invoke = executor.invoke_host_api

        def counting(state, ctx, api_id, label, **kwargs):
            nonlocal count
            count += 1
            result = invoke(state, ctx, api_id, label, **kwargs)
            assert not result.ok or label.operation is Operation.VIEW
            return result

        session = b.start_session(b.user_with_role(Role.OWNER), GRANT_READ, "scope-ladder")
        with mock.patch.object(executor, "invoke_host_api", counting):
            for case in SUITE:
                run_case(session, case, index)
        return count

    calls: list = []
    with mock.patch.object(executor, "_run_chain", _reuse_free(calls)):
        assert invocations() == len(calls)
    seen: set = set()
    expected = 0
    for step, receiver, final in calls:
        expected += final or (step, receiver) not in seen
        seen.add((step, receiver))
    assert invocations() == expected < len(calls)


def _folder_campaign(tmp_path) -> tuple:
    """(suite, backend): `App.openFolder` begins the producer chains of both
    Book and Note, and each class has a getter."""
    doc = synth.books_catalog_doc(
        synth.api_doc("App.openFolder", {"class": "Folder"}),
        synth.api_doc("Folder.openBook", {"class": "Book"}),
        synth.api_doc("Folder.openNote", {"class": "Note"}),
        synth.api_doc("Book.getName", {"primitive": "string"}),
        synth.api_doc("Note.getName", {"primitive": "string"}),
    )
    doc["classes"] = [
        {"name": "App", "children": ["Folder"]}, {"name": "Folder", "children": ["Book", "Note"]},
        {"name": "Book", "children": []}, {"name": "Note", "children": []},
    ]
    catalog = parse_catalog(doc)
    path = tmp_path / "template.json"
    path.write_text(json.dumps({
        "resources": [{"kind": "Folder", "id": "f0", "children": [
            {"kind": "Book", "id": "b0"}, {"kind": "Note", "id": "n0"},
        ]}],
        "sharing": {"f0": {"roles": {"o": "owner"}}},
    }))
    labels = classify_catalog(catalog)
    suite = generate_suite(build_graph(catalog), labels).cases
    return suite, SimulatorBackend(catalog, path, MATRIX, labels)


def _run_as_owner(b, suite: list, grant: frozenset = GRANT_READ) -> tuple:
    """(records, API ids invoked) of `suite` in an owner session, by
    default a read-only one."""
    calls = []
    invoke = executor.invoke_host_api

    def counting(state, ctx, api_id, label, **kwargs):
        calls.append(api_id)
        return invoke(state, ctx, api_id, label, **kwargs)

    session = b.start_session("o", grant, "scope-ladder")
    index = {c.id: c for c in suite}
    with mock.patch.object(executor, "invoke_host_api", counting):
        return [run_case(session, case, index) for case in suite], calls


def test_replay_crosses_producer_chains(tmp_path):
    """`App.openFolder` begins the producer chains of both Book and Note,
    and generation gives it one step, which its own case's last step is
    too.  In a read-only owner session nothing writes, so after its own
    case runs it, the chains of both classes replay it: it is invoked once,
    and the records are those of running every step."""
    suite, b = _folder_campaign(tmp_path)
    firsts = {id(c.chain.steps[0]) for c in suite}
    assert len(suite) == 5 and len(firsts) == 1
    records, calls = _run_as_owner(b, suite)
    assert {r.outcome for r in records} == {OUTCOME_SUCCESS}
    assert calls.count("App.openFolder") == 1
    with mock.patch.object(executor, "_run_chain", _reuse_free([])):
        assert synth.records_text(_run_as_owner(b, suite)[0]) == synth.records_text(records)


def test_a_loaded_suite_replays_equal_steps(tmp_path):
    """The suite of `test_replay_crosses_producer_chains`, read back from
    lines that each define their own chains, holds five distinct but equal
    `App.openFolder` steps.  Replay is keyed by a step's value, so it is
    still invoked once, and the records are those of the generated suite."""
    generated, b = _folder_campaign(tmp_path)
    assert not any(s.params for c in generated for s in c.chain.steps)
    suite = synth.load_suite("\n".join(
        synth.suite_line(c.id, c.target_api, c.label.to_json(), [{"api": s.api_id} for s in c.chain.steps],
                         c.depends_on)
        for c in generated
    ))
    assert suite == generated
    assert len({id(c.chain.steps[0]) for c in suite}) == 5
    records, calls = _run_as_owner(b, suite)
    assert calls.count("App.openFolder") == 1
    assert synth.records_text(records) == synth.records_text(_run_as_owner(b, generated)[0])


def test_a_prefix_step_passing_true_replays_for_one_passing_1(tmp_path):
    """A loaded suite whose `App.openBook` prefix step passes `true` in one
    case and `1` in another: the two steps are equal (True == 1), so the
    second replays the first in a read-only session.  Neither a view nor a
    failure reads its arguments, so in every session of both campaigns the
    records are those of running every step."""
    open_book = {**synth.api_doc("App.openBook", {"class": "Book"}),
                 "params": [{"name": "fresh", "kind": "boolean", "type": "boolean"}]}
    set_value = {**synth.api_doc("Book.setValue", {"void": True}),
                 "params": [{"name": "value", "kind": "integer", "type": "integer"}]}
    catalog = parse_catalog(synth.books_catalog_doc(
        open_book, set_value, synth.api_doc("Book.getName", {"primitive": "string"}),
    ))
    path = tmp_path / "template.json"
    path.write_text(json.dumps({
        "resources": [{"kind": "Book", "id": "b0"}],
        "sharing": {"b0": {"roles": {"o": "owner", "v": "viewer", "c": "commenter", "e": "editor"}}},
    }))
    labels = classify_catalog(catalog)

    def line(n: int, fresh: bool | int, last: str) -> str:
        steps = [{"api": "App.openBook", "params": {"fresh": {"strategy": "primitive", "value": fresh}}}]
        steps.append({"api": last, "params": {"value": {"strategy": "primitive", "value": 1}}}
                     if last == "Book.setValue" else {"api": last})
        return synth.suite_line(f"tc{n}", last, labels[last].to_json(), steps)

    text = "\n".join([
        line(1, True, "Book.getName"), line(2, 1, "Book.getName"),
        line(3, 1, "Book.setValue"), line(4, True, "Book.getName"),
    ])
    suite = synth.load_suite(text)
    values = [c.chain.steps[0].params[0][1].value for c in suite]
    assert [type(v) for v in values] == [bool, int, int, bool] and values == [1, 1, 1, 1]
    b = SimulatorBackend(catalog, path, MATRIX, labels)
    assert _run_as_owner(b, suite)[1].count("App.openBook") == 1
    got = _campaign_jsonl(suite, b)
    with mock.patch.object(executor, "_run_chain", _reuse_free([])):
        assert got == _campaign_jsonl(suite, b)


def test_a_step_whose_producer_chain_writes_runs_again(tmp_path):
    """A view step whose argument's producer chain creates a book is never
    replayed: running the case again creates another book, as it does when
    every step runs."""
    catalog = parse_catalog(synth.books_catalog_doc(
        synth.api_doc("App.createBook", {"class": "Book"}),
        synth.api_doc("App.openBook", {"class": "Book"}),
        synth.api_doc("Book.getName", {"primitive": "string"}),
    ))
    path = tmp_path / "template.json"
    path.write_text(json.dumps({
        "resources": [{"kind": "Book", "id": "b0"}], "sharing": {"b0": {"roles": {"o": "owner"}}},
    }))
    labels = classify_catalog(catalog)
    create = CallChain((ChainStep("App.createBook"),))
    open_book = ChainStep("App.openBook", (("source", ProducerPlan(create)),))
    chain = CallChain((open_book, ChainStep("Book.getName")))
    suite = [TestCase(f"tc{n}", "Book.getName", labels["Book.getName"], chain) for n in (1, 2)]
    b = SimulatorBackend(catalog, path, MATRIX, labels)

    def run() -> list:
        session = b.start_session("o", GRANT_FULL)
        return [run_case(session, case) for case in suite]

    records = run()
    assert [r.touched[0] for r in records] == [("book-1", "Book"), ("book-2", "Book")]
    with mock.patch.object(executor, "_run_chain", _reuse_free([])):
        assert synth.records_text(run()) == synth.records_text(records)


def test_a_step_whose_producer_chain_comments_runs_again(tmp_path):
    """A comment keeps the replayable steps, but a view step whose argument's
    producer chain comments is never replayed itself: running the case again
    comments again, and the content read after it sees both comments, as it
    does when every step runs."""
    catalog = parse_catalog(synth.books_catalog_doc(
        synth.api_doc("App.openBook", {"class": "Book"}),
        synth.api_doc("Book.commentOn", {"class": "Book"}),
        synth.api_doc("Book.getName", {"primitive": "string"}),
    ))
    path = tmp_path / "template.json"
    path.write_text(json.dumps({
        "resources": [{"kind": "Book", "id": "b0"}], "sharing": {"b0": {"roles": {"o": "owner"}}},
    }))
    labels = classify_catalog(catalog)
    assert labels["Book.commentOn"].operation is Operation.COMMENT
    comment = CallChain((ChainStep("App.openBook"), ChainStep("Book.commentOn")))
    open_book = ChainStep("App.openBook", (("source", ProducerPlan(comment)),))
    chain = CallChain((open_book, ChainStep("Book.getName")))
    suite = [TestCase(f"tc{n}", "Book.getName", labels["Book.getName"], chain) for n in (1, 2)]
    b = SimulatorBackend(catalog, path, MATRIX, labels)

    def run() -> list:
        session = b.start_session("o", GRANT_FULL)
        return [run_case(session, case) for case in suite]

    records = run()
    assert [r.evidence for r in records] == ["[comment]", "[comment] [comment]"]
    with mock.patch.object(executor, "_run_chain", _reuse_free([])):
        assert synth.records_text(run()) == synth.records_text(records)


def test_a_class_typed_argument_is_passed_as_its_id(tmp_path):
    """A MODIFY whose argument a producer chain makes writes that object's
    id, not a rendering of the object, into content and evidence."""
    catalog = parse_catalog(synth.books_catalog_doc(
        synth.api_doc("App.openBook", {"class": "Book"}),
        {**synth.api_doc("Book.setValue", {"void": True}),
         "params": [{"name": "source", "kind": "class", "type": "Book"}]},
    ))
    path = tmp_path / "template.json"
    path.write_text(json.dumps({
        "resources": [{"kind": "Book", "id": "b0", "attrs": {"content": "old"}}],
        "sharing": {"b0": {"roles": {"o": "owner"}}},
    }))
    labels = classify_catalog(catalog)
    assert labels["Book.setValue"].operation is Operation.MODIFY
    open_book = CallChain((ChainStep("App.openBook"),))
    set_value = ChainStep("Book.setValue", (("source", ProducerPlan(open_book)),))
    chain = CallChain(open_book.steps + (set_value,))
    session = SimulatorBackend(catalog, path, MATRIX, labels).start_session("o", GRANT_FULL)
    record = run_case(session, TestCase("tc1", "Book.setValue", labels["Book.setValue"], chain))
    assert record.evidence == "set b0 content=b0"
    assert session.state.resources["b0"].content == "b0"


# --- the records writer against json.dumps of each record's dict ----------------

# a letter, and a quote, a backslash, a tab, non-ASCII text and U+2028, which json.dumps escapes
ODD_TEXT = st.text(st.sampled_from('a"\\\t\u00e9\u96ea\u2028'), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    **CAMPAIGNS,
    odd=st.tuples(ODD_TEXT, ODD_TEXT, ODD_TEXT, ODD_TEXT | st.none()),
    roleless=st.builds(Observed, st.none(), st.booleans(), st.booleans()),
)
def test_records_jsonl_matches_the_dict_oracle(
    tmp_path_factory, seed, rich, sheets, creators, fresh, odd, roleless
):
    """On random campaigns with 0-4 random faults, plus copies of some of
    their records with odd text in case, installer, error and evidence and
    an observed role of null, the memoised writer writes `json.dumps` of
    each record's dict, and its records load back to the same text."""
    suite, b = _random_campaign(tmp_path_factory, seed, rich, sheets, creators, fresh)
    records = run_role_matrix(suite, b) + run_scope_ladder(suite, b)
    case, installer, error, evidence = odd
    records += [
        r._replace(
            case_id=case + r.case_id, installer=installer, error=error, evidence=evidence,
            observed=roleless if n % 2 else r.observed,
        )
        for n, r in enumerate(records[::7])
    ]
    text = synth.records_text(records)
    assert text == synth.oracle_records_jsonl(records)
    for line in text.splitlines():
        assert json.dumps(json.loads(line)) == line
    assert synth.records_text(parse_json(text, ExecutionRecord.from_json, "<records>", lines=True)) == text


def test_records_jsonl_keeps_true_and_1_apart():
    """Equal values of different types are different texts: the writer's
    memo does not give an observed flag 1 the text of True, nor a touched
    id True the text of 1.  A touched entry that is not a tuple of two
    strs, an unhashable one included, is written as `json.dumps` writes it."""
    base = ExecutionRecord(
        "tc1", "Sheet.getName", "role-matrix", Role.VIEWER, "v", GRANT_FULL, OUTCOME_SUCCESS
    )
    ints = base._replace(observed=Observed(Role.VIEWER, 1, 0), touched=[(1, "x")])
    bools = base._replace(observed=Observed(Role.VIEWER, True, False), touched=[(True, "x")])
    unhashable = base._replace(touched=[("a", "b"), ["a", "b"], (["a"], "b"), ("a", 1)])
    for records in ([ints, bools], [bools, ints], [unhashable, ints, unhashable]):
        assert synth.records_text(records) == synth.oracle_records_jsonl(records)
    lines = synth.records_text([ints, bools]).splitlines()
    assert '"touched": [[1, "x"]]' in lines[0] and '"hidden": 1, "protected": 0' in lines[0]
    assert '"touched": [[true, "x"]]' in lines[1] and '"hidden": true, "protected": false' in lines[1]


# --- a create drops only the replay entries that look up its kind ---------------


def _notes_backend(tmp_path, resources: list, *apis: dict) -> SimulatorBackend:
    """Classes App -> Book -> Note, `apis`, and a template of `resources`,
    each owned by "o"."""
    doc = synth.books_catalog_doc(*apis)
    doc["classes"] = [
        {"name": "App", "children": ["Book"]}, {"name": "Book", "children": ["Note"]},
        {"name": "Note", "children": []},
    ]
    catalog = parse_catalog(doc)
    path = tmp_path / "template.json"
    path.write_text(json.dumps({
        "resources": resources, "sharing": {r["id"]: {"roles": {"o": "owner"}} for r in resources},
    }))
    return SimulatorBackend(catalog, path, MATRIX, classify_catalog(catalog))


def _owner_run(b, *chains) -> tuple:
    """(records, API ids invoked): each chain, its steps given by API id or
    as `ChainStep`s, run as one case in an owner session with the full
    grant.  The records must be those of running every step."""
    steps = [tuple(ChainStep(s) if isinstance(s, str) else s for s in chain) for chain in chains]
    suite = [
        TestCase(f"tc{n}", c[-1].api_id, b.labels[c[-1].api_id], CallChain(c)) for n, c in enumerate(steps, 1)
    ]
    got = _run_as_owner(b, suite, GRANT_FULL)
    with mock.patch.object(executor, "_run_chain", _reuse_free([])):
        assert synth.records_text(_run_as_owner(b, suite, GRANT_FULL)[0]) == synth.records_text(got[0])
    return got


def test_a_create_keeps_the_replay_of_other_kinds(tmp_path):
    """Creating a note keeps the kept `App.openBook` step, which looks up
    only books, and so does a create that makes no class object: the later
    cases replay the step, so it is invoked once, and the records are those
    of running every step."""
    b = _notes_backend(
        tmp_path, [{"kind": "Book", "id": "b0"}],
        synth.api_doc("App.openBook", {"class": "Book"}),
        synth.api_doc("Book.createNote", {"class": "Note"}),
        synth.api_doc("Book.createItem", {"primitive": "string"}),
        synth.api_doc("Book.getName", {"primitive": "string"}),
    )
    records, calls = _owner_run(
        b, ("App.openBook", "Book.getName"), ("App.openBook", "Book.createNote"),
        ("App.openBook", "Book.createItem"), ("App.openBook", "Book.getName"),
    )
    assert [r.evidence for r in records[1:3]] == ["created note-1", "created item 2"]
    assert calls.count("App.openBook") == 1 and len(calls) == 5


def test_a_create_drops_a_step_whose_producer_chain_replayed_its_kind(tmp_path):
    """`App.openBook`'s argument comes from a producer chain that looks up a
    note.  That chain's step was kept by an earlier case, so it is replayed
    while `App.openBook` runs and is kept with it.  A new note under the
    first book is the workspace's first note, so the create must drop both
    steps: the last case looks up the new note, as when every step runs."""
    note = {**synth.api_doc("App.openBook", {"class": "Book"}),
            "params": [{"name": "source", "kind": "class", "type": "Note"}]}
    b = _notes_backend(
        tmp_path,
        [{"kind": "Book", "id": "b0"},
         {"kind": "Book", "id": "b1", "children": [{"kind": "Note", "id": "n1"}]}],
        note,
        synth.api_doc("App.openNote", {"class": "Note"}),
        synth.api_doc("Book.createNote", {"class": "Note"}),
        synth.api_doc("Book.getName", {"primitive": "string"}),
        synth.api_doc("Note.getName", {"primitive": "string"}),
    )
    find_note = ProducerPlan(CallChain((ChainStep("App.openNote"),)))
    open_book = ChainStep("App.openBook", (("source", find_note),))
    chains = [
        ("App.openNote", "Note.getName"), (open_book, "Book.getName"),
        ("App.openBook", "Book.createNote"), (open_book, "Book.getName"),
    ]
    assert _owner_run(b, *chains[:2])[1] == ["App.openNote", "Note.getName", "App.openBook", "Book.getName"]
    records, _ = _owner_run(b, *chains)
    assert records[1].touched[:2] == [("n1", "Note"), ("b0", "Book")]
    assert records[3].touched[:2] == [("note-1", "Note"), ("b0", "Book")]


def test_a_root_create_that_replaces_a_resource_drops_every_step(tmp_path):
    """The template's book `book-1` holds the only note.  `App.createBook`
    mints `book-1` too, which replaces that resource and detaches its note,
    so the kept `App.openNote` step, though it looks up no book, must run
    again and find no note, as when every step runs."""
    b = _notes_backend(
        tmp_path, [{"kind": "Book", "id": "book-1", "children": [{"kind": "Note", "id": "n0"}]}],
        synth.api_doc("App.openNote", {"class": "Note"}),
        synth.api_doc("App.createBook", {"class": "Book"}),
        synth.api_doc("Note.getName", {"primitive": "string"}),
    )
    find_note = ("App.openNote", "Note.getName")
    records, _ = _owner_run(b, find_note, ("App.createBook",), find_note)
    assert records[1].evidence == "created book-1"
    assert (records[2].outcome, records[2].error) == (OUTCOME_OTHER_ERROR, "no Note object available")



def test_a_delete_that_removes_nothing_keeps_the_replay_of_every_step(tmp_path):
    """`Note.remove` on a note, which has no children and is not a root,
    removes nothing, so the kept `App.openNote` step is replayed by the
    last case: it is invoked once, not twice, and the records are those of
    running every step."""
    b = _notes_backend(
        tmp_path, [{"kind": "Book", "id": "b0", "children": [{"kind": "Note", "id": "n0"}]}],
        synth.api_doc("App.openNote", {"class": "Note"}),
        synth.api_doc("Note.remove", {"void": True}),
        synth.api_doc("Note.getName", {"primitive": "string"}),
    )
    assert b.labels["Note.remove"].operation is Operation.DELETE
    find_note = ("App.openNote", "Note.getName")
    records, calls = _owner_run(b, find_note, ("App.openNote", "Note.remove"), find_note)
    assert [r.outcome for r in records] == [OUTCOME_SUCCESS] * 3
    assert records[1].evidence == "deleted n0"
    assert calls.count("App.openNote") == 1 and len(calls) == 4
