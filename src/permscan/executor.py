"""Suite execution against a backend: role-matrix and scope-ladder
campaigns, per-session dependency pruning (Pruning #2), outcome records."""

from __future__ import annotations

import json
from functools import cached_property
from typing import NamedTuple

from .catalog import expect
from .classify import Operation
from .errors import BackendUnavailable, NotFound
from .graph import CallChain, ChainStep
from .simulator import (
    GRANT_FULL,
    GRANT_READ,
    GRANT_READ_EDIT,
    InvocationResult,
    ObjectNode,
    Observed,
    Role,
    Subject,
    WorkspaceState,
    instantiate_template,
    invoke_host_api,
    resolve_faults,
    validate_grant,
)
from .testgen import AttributePlan, PrimitivePlan, ProducerPlan, TestCase

OUTCOME_SUCCESS = "Success"
OUTCOME_PERMISSION_ERROR = "PermissionError"
OUTCOME_OTHER_ERROR = "OtherError"
OUTCOME_PRUNED = "Pruned"
OUTCOMES = (OUTCOME_SUCCESS, OUTCOME_PERMISSION_ERROR, OUTCOME_OTHER_ERROR, OUTCOME_PRUNED)
MODES = ("role-matrix", "scope-ladder")


class ExecutionRecord(NamedTuple):
    """One case's outcome in one session.  A record is never changed once
    made, so the empty default lists may be shared."""

    case_id: str
    api: str
    mode: str  # "role-matrix" | "scope-ladder"
    role: Role
    installer: str
    grant: frozenset
    outcome: str
    error: str | None = None
    sharing_changes: list = []  # net (resource, user, old, new role)
    touched: list = []  # [(object id, kind), ...]
    evidence: str | None = None  # present only on Success
    observed: Observed | None = None  # the last invoked step's target; None = no check

    @staticmethod
    def from_json(obj: dict) -> "ExecutionRecord":
        expect(obj, dict, "record")
        for key in ("case", "api", "installer"):
            expect(obj[key], str, key)
        for key in ("error", "evidence"):
            if obj[key] is not None:
                expect(obj[key], str, key)
        if obj["outcome"] not in OUTCOMES:
            raise ValueError(f"unknown outcome {obj['outcome']!r}")
        if obj["mode"] not in MODES:
            raise ValueError(f"unknown mode {obj['mode']!r}")
        scopes = expect(obj["grant"], list, "grant")
        grant = validate_grant(scopes)
        if not grant <= GRANT_FULL:
            raise ValueError(f"unknown grant scope in {sorted(map(str, grant))}")
        if scopes != sorted(grant):
            raise ValueError(f"grant {scopes} is not sorted or repeats a scope")
        return ExecutionRecord(
            case_id=obj["case"],
            api=obj["api"],
            mode=obj["mode"],
            role=_role_from_json(expect(obj["role"], str, "role")),
            installer=obj["installer"],
            grant=grant,
            outcome=obj["outcome"],
            error=obj["error"],
            sharing_changes=[
                _sharing_change_from_json(c)
                for c in expect(obj["sharing_changes"], list, "sharing_changes")
            ],
            touched=[_touched_from_json(t) for t in expect(obj["touched"], list, "touched")],
            evidence=obj["evidence"],
            observed=_observed_from_json(obj["observed"]),
        )


_ROLES = {None: None, **{role.label: role for role in Role}}  # null: no role


def _role_from_json(label) -> Role | None:
    """The role written as exactly `label`, as `records_to_jsonl` writes it."""
    if not isinstance(label, str | None) or label not in _ROLES:
        raise ValueError(f"unknown role {label!r}")
    return _ROLES[label]


def _observed_from_json(obj: dict | None) -> Observed | None:
    if obj is None:
        return None
    role = _role_from_json(expect(obj, dict, "observed")["role"])
    flags = (expect(obj[key], bool, key) for key in ("hidden", "protected"))
    return Observed(role, *flags)


def _touched_from_json(entry: list) -> tuple:
    node_id, kind = expect(entry, list, "touched entry")
    return (expect(node_id, str, "touched object id"), expect(kind, str, "touched kind"))


def _sharing_change_from_json(entry: list) -> tuple:
    rid, user, old, new = expect(entry, list, "sharing change")
    for name in (rid, user):
        expect(name, str, "sharing change resource or user")
    return (rid, user, *map(_role_from_json, (old, new)))


class Session:
    __slots__ = (
        "state", "ctx", "role", "mode", "labels", "failed_cases", "reuse", "by_kind", "writes",
    )

    def __init__(self, state: WorkspaceState, ctx: Subject, role: Role, mode: str, labels: dict):
        self.state = state
        self.ctx = ctx
        self.role = role
        self.mode = mode
        self.labels = labels  # api id -> PermissionLabel
        self.failed_cases = set()  # case ids that did not succeed
        # (step, receiver) -> (result, touched entries, kinds looked up) of a
        # step that ran in this session while no call wrote, its producer
        # chains included, replayed for any step but a case's own last one.
        # The key is the step's value, so equal steps that are distinct
        # objects, as lines that each define their own chains load, replay
        # as one, but never its API id alone: a step's plans decide which
        # producer chains it runs.  Replay is exact.  A write is
        # a call that returns ok under a non-VIEW label, so every entry is a
        # VIEW or a failure: neither reads its arguments (equal plans may pass
        # True and 1), and both depend only on roles, flags, trees and the
        # kinds they look up (`state.lookups`, logged again on replay), not on
        # content.  A VIEW's value reads content, but only a case's last
        # step's value is recorded.  A write that moves `state.epoch` empties
        # the map; any other changes trees only by appending one leaf, so a
        # create that returns a node drops the entries that looked up its kind
        # (`by_kind`) and every other write keeps them all.
        self.reuse = {}
        self.by_kind = {}  # kind -> keys of `reuse` whose entry looked up that kind
        self.writes = 0  # successful non-VIEW calls so far


class SimulatorBackend:
    """Runs suites against the in-process workspace simulator.

    `labels` (api id -> PermissionLabel) are the caller's labels of the
    catalog, the same ones its suite and detector use.
    """

    def __init__(self, catalog, template_path, matrix, labels, faults=()):
        self.catalog = catalog
        self.template_path = template_path
        self.matrix = matrix
        self.labels = labels
        self.faults = resolve_faults(faults, catalog)  # shared by every session

    @cached_property
    def template(self) -> WorkspaceState:
        """The template's workspace, read and validated once and never run
        on or given faults: every session starts from a copy of it, which
        shares its `facts`."""
        return instantiate_template(self.template_path, self.catalog, self.matrix)

    def user_with_role(self, role: Role) -> str:
        candidates = sorted(
            u for roles in self.template.sharing.values() for u, r in roles.items() if r == role
        )
        if not candidates:
            raise BackendUnavailable(f"{self.template_path}: no user with role {role.label}")
        return candidates[0]

    def start_session(self, installer: str, grant: frozenset, mode: str = "role-matrix") -> Session:
        state = self.template.copy()
        state.faults = self.faults
        role = next((r[installer] for r in state.sharing.values() if installer in r), None)
        if role is None:
            raise BackendUnavailable(f"installer {installer!r} is not a collaborator")
        return Session(
            state=state, ctx=Subject(installer, grant), role=role, mode=mode, labels=self.labels,
        )


# --- chain execution -----------------------------------------------------------


class _StepFailure(Exception):
    def __init__(self, result: InvocationResult):
        self.result = result
        super().__init__(result.error)


def _resolve_args(session: Session, params: tuple, touched: list) -> dict:
    args: dict = {}
    for name, strat in params:
        if isinstance(strat, ProducerPlan):
            node = _run_chain(session, strat.chain, touched, target=False).node
            args[name] = None if node is None else node.id
        elif isinstance(strat, AttributePlan):
            args[name] = session.state.lookup_attribute(strat.role)
        elif isinstance(strat, PrimitivePlan):
            args[name] = strat.value
    return args


def _run_chain(session: Session, chain: CallChain, touched: list, target: bool = True) -> InvocationResult:
    """Run the chain's steps in order; `target` is False for a producer
    chain, whose last step is not the case's call and may be replayed."""
    reuse, lookups = session.reuse, session.state.lookups
    last = len(chain.steps) - 1 if target else -1  # the one step never replayed
    receiver: ObjectNode | None = None
    result = InvocationResult(True)
    for i, step in enumerate(chain.steps):
        key = (step, receiver)
        hit = None if i == last else reuse.get(key)
        if hit is None:
            result = _invoke_step(session, step, receiver, key, touched)
        else:
            result, entries, kinds = hit
            touched.extend(entries)
            lookups.extend(kinds)
        if not result.ok:
            raise _StepFailure(result)
        receiver = result.node
    return result


def _invoke_step(
    session: Session, step: ChainStep, receiver: ObjectNode | None, key: tuple, touched: list
) -> InvocationResult:
    """Call the host API for `step` on `receiver`; keep the result for
    replay under `key` if no call wrote meanwhile, else drop the replay
    entries the write may have changed."""
    state, reuse = session.state, session.reuse
    label = session.labels.get(step.api_id)
    if label is None:
        raise NotFound(f"case step names unknown API {step.api_id!r}")
    start, looked, writes = len(touched), len(state.lookups), session.writes
    args = _resolve_args(session, step.params, touched) if step.params else None
    epoch = state.epoch
    result = invoke_host_api(state, session.ctx, step.api_id, label, receiver=receiver, args=args)
    if receiver is not None:
        touched.append((receiver.id, receiver.kind))
    if result.node is not None:
        touched.append((result.node.id, result.node.kind))
    if result.ok and label.operation is not Operation.VIEW:
        session.writes += 1
        if state.epoch != epoch:
            reuse.clear()
            session.by_kind.clear()
        elif label.operation is Operation.CREATE and result.node is not None:
            for dropped in session.by_kind.pop(result.node.kind, ()):
                reuse.pop(dropped, None)
    elif session.writes == writes:  # no call wrote while this step ran
        kinds = state.lookups[looked:]
        reuse[key] = (result, touched[start:], kinds)
        for kind in kinds:
            session.by_kind.setdefault(kind, set()).add(key)
    return result


def sharing_changes(state: WorkspaceState, start: int) -> list:
    """Net (resource, user, old role, new role) changes in
    `state.sharing_log[start:]`, sorted, on the resources shared both then
    and now: creating or deleting a root resource is not a sharing change."""
    then: dict = {}  # resource -> {logged user: role at `start`}
    for rid, user, old, _ in state.sharing_log[start:]:
        then.setdefault(rid, {}).setdefault(user, old)
    changes = []
    for rid, users in then.items():
        now = state.sharing.get(rid, {})
        # shared then: a logged user had a role, or an unlogged one has it now
        if now and (any(r is not None for r in users.values()) or now.keys() - users.keys()):
            changes += [(rid, u, old, now.get(u)) for u, old in users.items() if old != now.get(u)]
    return sorted(changes)


def run_case(session: Session, case: TestCase, suite_index: dict | None = None) -> ExecutionRecord:
    """Execute one case in a session.  A case whose dependency did not
    succeed in this session is recorded as Pruned and never sent to the
    backend (Pruning #2).  Only the direct dependency is checked: a suite
    lists each case after the one it depends on, so a dependency whose own
    ancestry failed was pruned, and so failed, before this case runs.
    `suite_index` is accepted and ignored."""
    mode, role, (user, grant) = session.mode, session.role, session.ctx
    if case.depends_on in session.failed_cases:
        session.failed_cases.add(case.id)
        return ExecutionRecord(case.id, case.target_api, mode, role, user, grant, OUTCOME_PRUNED)

    log = session.state.sharing_log
    log_start = len(log)
    touched: list = []
    try:
        result = _run_chain(session, case.chain, touched)
    except _StepFailure as exc:
        result = exc.result
    changes = sharing_changes(session.state, log_start) if len(log) > log_start else []

    if result.ok:
        outcome, evidence = OUTCOME_SUCCESS, result.value
    else:
        session.failed_cases.add(case.id)
        # failure detection keys on the Exception: prefix, like the platform log
        is_permission = (result.error or "").startswith("Exception:")
        outcome, evidence = OUTCOME_PERMISSION_ERROR if is_permission else OUTCOME_OTHER_ERROR, None
    return ExecutionRecord(
        case.id, case.target_api, mode, role, user, grant, outcome, result.error, changes, touched,
        evidence, result.observed,
    )


def _run_session(backend, installer: str, grant: frozenset, suite: list, mode: str) -> list:
    session = backend.start_session(installer, grant, mode=mode)
    return [run_case(session, case) for case in suite]


def run_role_matrix(suite: list, backend) -> list:
    """Viewer, commenter and editor sessions, each with the full grant and a
    fresh copy of the template."""
    records: list = []
    for role in (Role.VIEWER, Role.COMMENTER, Role.EDITOR):
        installer = backend.user_with_role(role)
        records.extend(_run_session(backend, installer, GRANT_FULL, suite, "role-matrix"))
    return records


def run_scope_ladder(suite: list, backend) -> list:
    """Owner sessions with progressively wider grants: {read}, then
    {read, edit}."""
    records: list = []
    installer = backend.user_with_role(Role.OWNER)
    for grant in (GRANT_READ, GRANT_READ_EDIT):
        records.extend(_run_session(backend, installer, grant, suite, "scope-ladder"))
    return records


class _EntryTexts(dict):
    """The JSON text of each touched entry, looked up in C.  Only an entry of
    two strs is kept: other entries may equal one of different text
    (True == 1)."""

    def __missing__(self, entry) -> str:
        text = json.dumps(list(entry))
        if type(entry) is tuple and len(entry) == 2 and type(entry[0]) is type(entry[1]) is str:
            self[entry] = text
        return text


def records_to_jsonl(records: list, out) -> None:
    """Write the records to the text file `out`, one line per record, byte
    for byte as `json.dumps` writes each record's dict (keys case, api,
    mode, role, installer, grant, outcome, error, sharing_changes, touched,
    evidence, observed).  Each text below is encoded once per call and kept
    in a memo of its own, so no two kinds of key share one: each case's
    case and api, each session's head (mode, role, installer, grant), each
    (outcome, error), each observed value, keyed with its flags' types
    (True == 1), each touched entry, and each touched list whose entries
    are all tuples of two strs.  Every other field is encoded inline."""
    cases: dict = {}
    heads: dict = {}
    outcomes: dict = {}
    observations: dict = {}
    lists: dict = {}
    entries = _EntryTexts()
    string = json.encoder.encode_basestring_ascii  # exactly what json.dumps does with a str

    def text(value: str | None) -> str:
        return "null" if value is None else string(value)

    def touched(t: list) -> str:
        key = tuple(t)
        try:
            found = lists.get(key)
        except TypeError:  # an unhashable entry
            return ", ".join(json.dumps(list(e)) for e in t)
        if found is None:
            found = ", ".join(map(entries.__getitem__, t))
            if all(type(e) is tuple and len(e) == 2 and type(e[0]) is type(e[1]) is str for e in t):
                lists[key] = found
        return found

    def observed(o: Observed) -> str:
        key = (o, type(o.hidden), type(o.protected))
        found = observations.get(key)
        if found is None:
            role = None if o.role is None else o.role.label
            found = observations[key] = json.dumps(
                {"role": role, "hidden": o.hidden, "protected": o.protected}
            )
        return found

    def line(r: ExecutionRecord) -> str:
        key = (r.case_id, r.api)
        case = cases.get(key) or cases.setdefault(key, f'"case": {string(r.case_id)}, "api": {string(r.api)}')
        key = (r.mode, r.role, r.installer, r.grant)
        head = heads.get(key) or heads.setdefault(key, (
            f'"mode": {string(r.mode)}, "role": {string(r.role.label)}, '
            f'"installer": {string(r.installer)}, "grant": {json.dumps(sorted(r.grant))}'
        ))
        key = (r.outcome, r.error)
        outcome = outcomes.get(key) or outcomes.setdefault(
            key, f'"outcome": {string(r.outcome)}, "error": {text(r.error)}'
        )
        changes = "[]" if not r.sharing_changes else json.dumps([
            [rid, user, *(None if x is None else x.label for x in (old, new))]
            for rid, user, old, new in r.sharing_changes
        ])
        return (
            f'{{{case}, {head}, {outcome}, "sharing_changes": {changes}, '
            f'"touched": [{touched(r.touched)}], "evidence": {text(r.evidence)}, '
            f'"observed": {"null" if r.observed is None else observed(r.observed)}}}\n'
        )

    out.writelines(map(line, records))
