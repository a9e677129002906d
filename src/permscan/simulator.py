"""Reference two-level access-control simulator over hierarchical shared
resources.

Level 1 checks the add-on's granted OAuth scope, level 2 the installer's
role on the target resource plus object-level constraints (hidden objects,
protected ranges, sharing mutation).  Each call is decided once: `observe`
reads what the installer can see of the target, and `decide`, a pure
function of that observation, holds every gate.  Faults name the gates
left out for the APIs their patterns match (`resolve_faults`), so the
detector, which re-runs `decide` on each record's observation with nothing
skipped, can be validated against known ground truth.
"""

from __future__ import annotations

import enum
import fnmatch
from pathlib import Path
from typing import NamedTuple

from .catalog import ApiSpec, Catalog, expect, expect_list, read_json
from .classify import COMMENT, CREATE, DELETE, MODIFY, VIEW, Operation, PermissionLabel, effect_of
from .errors import (
    DuplicateResourceId,
    NotFound,
    PatternMatchesNothing,
    SchemaViolation,
    UnknownKind,
)

PERMISSION_DENIED_MESSAGE = (
    "Exception: You do not have permission to access the requested document."
)


class Role(enum.IntEnum):
    VIEWER = 0
    COMMENTER = 1
    EDITOR = 2
    OWNER = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @staticmethod
    def parse(text: str) -> "Role":
        name = text.strip().upper() if isinstance(text, str) else None
        if name not in Role.__members__:
            raise ValueError(f"unknown role {text!r}")
        return Role[name]


# the members the hot path compares against, as module globals (see `VIEW`)
EDITOR = Role.EDITOR
OWNER = Role.OWNER

# OAuth scope lattice: {read} < {read, edit} < {read, edit, delete}
SCOPE_READ = "read"
SCOPE_EDIT = "edit"
SCOPE_DELETE = "delete"

GRANT_READ = frozenset({SCOPE_READ})
GRANT_READ_EDIT = frozenset({SCOPE_READ, SCOPE_EDIT})
GRANT_FULL = frozenset({SCOPE_READ, SCOPE_EDIT, SCOPE_DELETE})

_SCOPE_FOR_OPERATION = {
    Operation.VIEW: SCOPE_READ,
    Operation.CREATE: SCOPE_EDIT,
    Operation.COMMENT: SCOPE_EDIT,
    Operation.MODIFY: SCOPE_EDIT,
    Operation.DELETE: SCOPE_DELETE,
}


def validate_grant(grant: frozenset) -> frozenset:
    grant = frozenset(grant)
    if SCOPE_EDIT in grant and SCOPE_READ not in grant:
        raise SchemaViolation("edit scope requires read")
    if SCOPE_DELETE in grant and SCOPE_EDIT not in grant:
        raise SchemaViolation("delete scope requires edit")
    return grant


def scope_covers(grant: frozenset, operation: Operation) -> bool:
    return _SCOPE_FOR_OPERATION[operation] in grant


class Decision(enum.Enum):
    ALLOW = "allow"
    DENY_SCOPE = "deny_scope"
    DENY_ROLE = "deny_role"
    DENY_SHARING = "deny_sharing"


ALLOW = Decision.ALLOW
DENY_SCOPE = Decision.DENY_SCOPE
DENY_ROLE = Decision.DENY_ROLE
DENY_SHARING = Decision.DENY_SHARING

PROTECTABLE_KINDS = frozenset({"Range", "Sheet", "Row", "Column"})
HIDEABLE_KINDS = frozenset({"Range", "Sheet", "Row", "Column", "Cell"})


class ObjectNode:
    """One object of a workspace tree; compared by identity."""

    __slots__ = ("kind", "id", "content", "hidden", "protection", "children", "resource")

    def __init__(
        self,
        kind: str,
        id: str,
        content: str = "",
        hidden: bool = False,
        protection: frozenset | None = None,  # privileged user ids, None = unprotected
        children: list | None = None,
        resource: str | None = None,  # id of the resource whose tree holds it, None = detached
    ):
        self.kind = kind
        self.id = id
        self.content = content
        self.hidden = hidden
        self.protection = protection
        self.children = [] if children is None else children
        self.resource = resource

    def walk(self):
        """This node and its subtree in pre-order, children in list order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack += reversed(node.children)

    def copy(self) -> "ObjectNode":
        """A deep copy of this subtree, children in list order; `protection`
        is immutable and shared."""
        top = ObjectNode(self.kind, self.id, self.content, self.hidden, self.protection, [], self.resource)
        stack = [(self.children, top.children)]  # (source children, their copies' list)
        while stack:
            children, copies = stack.pop()
            for c in children:
                dup = ObjectNode(c.kind, c.id, c.content, c.hidden, c.protection, [], c.resource)
                copies.append(dup)
                if c.children:
                    stack.append((c.children, dup.children))
        return top


class FaultSpec(NamedTuple):
    kind: str  # SkipScopeCheck | SkipRoleCheck | AllowSharingMutation
    api_pattern: str
    note: str = ""

    def matches(self, api_id: str) -> bool:
        pattern = self.api_pattern
        if "*" in pattern or "?" in pattern or "[" in pattern:
            return fnmatch.fnmatchcase(api_id, pattern)
        return api_id == pattern  # what fnmatchcase returns, with no regex compiled


FAULT_KINDS = ("SkipScopeCheck", "SkipRoleCheck", "AllowSharingMutation")


class RoleCapabilityMatrix(NamedTuple):
    """(role, operation, object kind) -> allowed.  '*' is the kind wildcard."""

    table: dict  # (role, operation, kind) -> bool

    def allows(self, role: Role, operation: Operation, kind: str) -> bool:
        key = (role, operation, kind)
        if key in self.table:
            return self.table[key]
        return self.table.get((role, operation, "*"), False)

    @staticmethod
    def from_json(doc: dict) -> "RoleCapabilityMatrix":
        table: dict = {}
        for role_name, ops in expect(doc, dict, "capability matrix").items():
            role = Role.parse(role_name)
            for op_name, kinds in expect(ops, dict, role_name).items():
                op = Operation.parse(op_name)
                for kind, allowed in expect(kinds, dict, f"{role_name}.{op_name}").items():
                    table[(role, op, kind)] = expect(allowed, bool, f"{role_name}.{op_name}.{kind}")
        matrix = RoleCapabilityMatrix(table)
        matrix._check_invariants()
        return matrix

    def _check_invariants(self) -> None:
        for (role, op, kind), allowed in self.table.items():
            if allowed:
                for higher in Role:
                    if higher > role and not self.allows(higher, op, kind):
                        raise SchemaViolation(
                            f"matrix not monotone: {role.label}/{op.label}/{kind} allowed "
                            f"but {higher.label} denied"
                        )
        for op in Operation:
            if not self.allows(Role.OWNER, op, "*"):
                raise SchemaViolation(f"owner must be allowed {op.label}")


def load_capability_matrix(path: str | Path) -> RoleCapabilityMatrix:
    return read_json(path, RoleCapabilityMatrix.from_json)


class Subject(NamedTuple):
    """A human collaborator, or an add-on acting on behalf of its installer."""

    user: str
    grant: frozenset | None = None  # None = human subject, no scope check


class WorkspaceState:
    """An empty workspace over `catalog` and `matrix`; compared by identity."""

    __slots__ = (
        "catalog", "matrix", "users", "resources", "sharing", "sharing_log", "faults", "facts",
        "decisions", "attributes", "found", "lookups", "epoch", "_fresh_counter",
    )

    def __init__(self, catalog: Catalog, matrix: RoleCapabilityMatrix):
        self.catalog = catalog
        self.matrix = matrix
        self.users = set()
        self.resources = {}  # resource id -> ObjectNode, keyed by the root's own id
        self.sharing = {}  # resource id -> {user: Role}
        self.sharing_log = []  # (resource, user, old, new); None = no role
        self.faults = {}  # api id -> skipped gates; read-only, shared
        self.facts = {}  # (api id, label) -> its `_CallFacts`; a cache, shared
        # (observed, grant, label, skipped gates) -> `decide`'s decision for
        # them under `matrix`; a cache, shared
        self.decisions = {}
        self.attributes = {}  # role -> (least kind, first value under it)
        self.found = {}  # kind -> {receiver: `_find_of_kind`'s answer}; a cache
        self.lookups = []  # the kind each `invoke_host_api` call looked up, in call order
        # moved by each effect that may change a role, a flag or a tree's
        # shape other than by appending one leaf: a non-view sharing effect,
        # hide, unhide and `_detach`
        self.epoch = 0
        self._fresh_counter = 0

    def copy(self) -> "WorkspaceState":
        """An independent copy: it shares no node or role map with this
        state, only its read-only `faults` and its `facts` and `decisions`
        caches, and starts with no cached lookups."""
        state = WorkspaceState(self.catalog, self.matrix)
        state.users = set(self.users)
        state.resources = {rid: root.copy() for rid, root in self.resources.items()}
        state.sharing = {rid: dict(roles) for rid, roles in self.sharing.items()}
        state.sharing_log = list(self.sharing_log)
        state.faults = self.faults
        state.facts = self.facts
        state.decisions = self.decisions
        state.attributes = dict(self.attributes)  # values are tuples of strs
        state.lookups = list(self.lookups)
        state.epoch = self.epoch
        state._fresh_counter = self._fresh_counter
        return state

    def role_of(self, user: str, resource_id: str) -> Role | None:
        return self.sharing[resource_id].get(user)

    def set_role(self, resource_id: str, user: str, role: Role | None) -> None:
        """The only writer of `sharing`: give `user` `role` on the resource
        (None removes the user) and log the change, if any, to `sharing_log`.
        A resource's entry goes with its last role."""
        roles = self.sharing.setdefault(resource_id, {})
        old = roles.get(user)
        if role is None:
            roles.pop(user, None)
            if not roles:
                del self.sharing[resource_id]
        else:
            roles[user] = role
        if old != role:
            self.sharing_log.append((resource_id, user, old, role))

    def record_attribute(self, kind: str, role: str, value: str) -> None:
        """The only writer of `attributes`: `role`'s entry, once set, is
        replaced only by a value recorded under a smaller kind."""
        entry = self.attributes.get(role)
        if entry is None or kind < entry[0]:
            self.attributes[role] = (kind, value)

    def lookup_attribute(self, role: str) -> str:
        """The first value recorded under `role`'s smallest kind.  On a cold
        start, a fresh value is minted and recorded under the root kind."""
        if role not in self.attributes:
            self._fresh_counter += 1
            root = self.catalog.root
            self.record_attribute(root, role, f"fresh-{root.lower()}-{self._fresh_counter}")
        return self.attributes[role][1]


# --- template loading -------------------------------------------------------


def _parse_node(entry: dict, catalog: Catalog, seen: set) -> ObjectNode:
    kind = expect(entry, dict, "template node").get("kind")
    if kind not in catalog.classes:
        raise UnknownKind(f"template names unknown kind {kind!r}")
    node_id = entry.get("id")
    if not isinstance(node_id, str) or not node_id:
        raise SchemaViolation(f"template node missing id: {entry!r}")
    if node_id in seen:
        raise DuplicateResourceId(f"duplicate resource id {node_id!r}")
    seen.add(node_id)
    attrs = expect(entry.get("attrs", {}), dict, f"{node_id} attrs")
    hidden = expect(attrs.get("hidden", False), bool, f"{node_id} hidden")
    if hidden and kind not in HIDEABLE_KINDS:
        raise SchemaViolation(f"{node_id}: kind {kind!r} is not hideable")
    protection = attrs.get("protection")
    if protection is not None:
        if kind not in PROTECTABLE_KINDS:
            raise SchemaViolation(f"{node_id}: kind {kind!r} is not protectable")
        users = expect(protection, list, f"{node_id} protection")
        protection = frozenset(expect(user, str, f"{node_id} protection user") for user in users)
    content = expect(attrs.get("content", ""), str, f"{node_id} content")
    node = ObjectNode(kind, node_id, content, hidden, protection)
    for child in expect_list(entry.get("children", []), f"{node_id} children"):
        node.children.append(_parse_node(child, catalog, seen))
    return node


def instantiate_template(
    template: str | Path, catalog: Catalog, matrix: RoleCapabilityMatrix
) -> WorkspaceState:
    """Fresh workspace from a template file: resources, sharing, attributes
    seeded from its nodes, no faults."""
    return read_json(template, lambda doc: _build_workspace(doc, catalog, matrix))


def _build_workspace(doc: dict, catalog: Catalog, matrix: RoleCapabilityMatrix) -> WorkspaceState:
    state = WorkspaceState(catalog, matrix)
    seen: set = set()
    for entry in expect_list(expect(doc, dict, "template").get("resources", []), "template resources"):
        node = _parse_node(entry, catalog, seen)
        state.resources[node.id] = node
    # keys of a sharing entry other than its roles are accepted and ignored
    for rid, cfg in expect(doc.get("sharing", {}), dict, "sharing").items():
        if rid not in state.resources:
            raise NotFound(f"sharing entry for unknown resource {rid!r}")
        cfg = expect(cfg, dict, f"sharing of {rid}")
        roles = {u: Role.parse(r) for u, r in expect(cfg.get("roles", {}), dict, "roles").items()}
        owners = [u for u, r in roles.items() if r == Role.OWNER]
        if len(owners) != 1:
            raise SchemaViolation(f"{rid}: sharing must name exactly one owner")
        for user, role in roles.items():
            state.set_role(rid, user, role)
        state.users.update(roles)
    unshared = [rid for rid in state.resources if rid not in state.sharing]
    if unshared:
        raise SchemaViolation(f"resource {unshared[0]!r} has no sharing entry")
    first = None  # the first node of the least kind: the one `record_attribute` keeps
    for rid, root in state.resources.items():
        for n in root.walk():
            n.resource = rid
            if first is None or n.kind < first.kind:
                first = n
    if first is not None:
        state.record_attribute(first.kind, "id", first.id)
        state.record_attribute(first.kind, "name", first.id)
        state.record_attribute(first.kind, "url", f"https://workspace.local/{first.id}")
    return state


# --- access decisions ---------------------------------------------------------


class Observed(NamedTuple):
    """What the installer can see of a call's target when the call is made:
    its role on the target's resource (None: no role, or a target outside
    the workspace), whether the target or the produced object is hidden
    from it, and whether either is protected against it."""

    role: Role | None
    hidden: bool
    protected: bool


# every value `observe` can give, each made once: (role, hidden, protected) -> it
_OBSERVED = {
    (role, hidden, protected): Observed(role, hidden, protected)
    for role in (None, *Role) for hidden in (False, True) for protected in (False, True)
}


def observe(
    state: WorkspaceState, user: str, target: ObjectNode, produced: ObjectNode | None = None
) -> Observed:
    rid = target.resource
    role = state.role_of(user, rid) if rid is not None else None
    hidden = protected = False
    for node in (target,) if produced is None else (target, produced):
        if node.hidden and not (
            role == OWNER
            or (node.protection is not None and user in node.protection)
            # editors may unhide whole sheets, but not protection-hidden finer objects
            or (role == EDITOR and node.kind == "Sheet" and node.protection is None)
        ):
            hidden = True
        if node.protection is not None and role != OWNER and user not in node.protection:
            protected = True
    return _OBSERVED[role, hidden, protected]


_WRITES = (CREATE, MODIFY, DELETE)
_NONE_SKIPPED = frozenset()  # the skipped gates of an API that no fault matches


def decide(
    observed: Observed,
    grant: frozenset | None,
    label: PermissionLabel,
    matrix: RoleCapabilityMatrix,
    skipped: frozenset | set = frozenset(),
) -> Decision:
    """The decision for one call, from what was observed of its target:
    the scope gate (`grant` None is a human subject, which has none), then
    the role gate (the capability matrix, hidden and protected objects),
    then the sharing gate.  `skipped` holds the fault kinds whose gate is
    left out; without any, this is the fault-free reference."""
    operation = label.operation
    if grant is not None and "SkipScopeCheck" not in skipped and not scope_covers(grant, operation):
        return DENY_SCOPE
    role = observed.role
    if "SkipRoleCheck" not in skipped and (
        role is None
        or not matrix.allows(role, operation, label.object_kind)
        or observed.hidden
        or (observed.protected and operation in _WRITES)
    ):
        return DENY_ROLE
    if (
        "AllowSharingMutation" not in skipped
        and label.touches_sharing
        and operation != VIEW
        and role != OWNER
    ):
        return DENY_SHARING
    return ALLOW


def check_access(
    state: WorkspaceState,
    subject: Subject,
    label: PermissionLabel,
    target: ObjectNode,
    produced: ObjectNode | None = None,
    skipped: frozenset | set = frozenset(),
) -> Decision:
    """`decide` on what `subject` observes of `target` in `state`."""
    observed = observe(state, subject.user, target, produced)
    return decide(observed, subject.grant, label, state.matrix, skipped)


# --- invocation ----------------------------------------------------------------


class InvocationResult:
    __slots__ = ("ok", "value", "node", "error", "error_kind", "observed")

    def __init__(
        self,
        ok: bool,
        value: str = "",  # summary of the returned / mutated value
        node: ObjectNode | None = None,  # produced object, when class-typed
        error: str | None = None,  # PermissionError message or error kind
        error_kind: str | None = None,  # "PermissionError" | "TypeError" | "NotFound"
    ):
        self.ok = ok
        self.value = value
        self.node = node
        self.error = error
        self.error_kind = error_kind
        self.observed = None  # the call's target as checked (Observed); None = no check


def _deny() -> InvocationResult:
    return InvocationResult(
        ok=False, error=PERMISSION_DENIED_MESSAGE, error_kind="PermissionError"
    )


def _find_of_kind(state: WorkspaceState, kind: str, receiver: ObjectNode | None):
    """First `kind` node strictly below the receiver, else the first in the
    workspace; DFS order over `resources` in dict order, each tree parent
    first and children in list order.

    Answers are cached in `state.found[kind]`.  A new node has no children
    and the DFS order of the others never changes, so only a create of
    `kind` or a `_detach` over a `kind` node can change one; both drop the
    kind's answers.  So while `state.epoch`, which a `_detach` moves, stays
    as it is, an answer changes only on a create of its kind."""
    answers = state.found.get(kind)
    if answers is None:
        answers = state.found[kind] = {}
    elif receiver in answers:
        return answers[receiver]
    if receiver is None:
        stack = [*reversed(state.resources.values())]
    else:
        stack = receiver.children[::-1]
    found = None
    while stack:
        node = stack.pop()
        if node.kind == kind:
            found = node
            break
        if node.children:
            stack += reversed(node.children)
    if found is None and receiver is not None:
        found = _find_of_kind(state, kind, None)
    answers[receiver] = found
    return found


def _detach(state: WorkspaceState, node: ObjectNode) -> None:
    """Mark `node`'s subtree, just cut from its tree, as detached, drop the
    cached lookups of each kind in it and move `state.epoch`: a delete or a
    replaced root changes a tree's shape."""
    state.epoch += 1
    for n in node.walk():
        n.resource = None
        state.found.pop(n.kind, None)


class _CallFacts(NamedTuple):
    """What a call of one API under one label does, whatever its receiver:
    worked out once per (API, label) by `_call_facts`."""

    api: ApiSpec
    kind: str | None  # the class of the product the call looks up; None = none
    effect: str  # `effect_of`'s effect, "" for None
    added_role: str  # the role a `share_add` effect gives, else ""


def _call_facts(state: WorkspaceState, api_id: str, label: PermissionLabel) -> _CallFacts:
    """`api_id`'s facts under `label`, from `state.facts` or worked out and
    kept there: a call that returns a class, unless it creates one, looks up
    its product."""
    key = (api_id, label)
    facts = state.facts.get(key)
    if facts is None:
        api = state.catalog.apis.get(api_id)
        if api is None:
            raise NotFound(f"unknown API {api_id!r}")
        returns = api.returns
        kind = returns.name if returns.is_class and label.operation != CREATE else None
        effect, _, added_role = (effect_of(api.method, label) or "").partition(":")
        facts = state.facts[key] = _CallFacts(api, kind, effect, added_role)
    return facts


def _apply_effect(
    state: WorkspaceState,
    ctx: Subject,
    facts: _CallFacts,
    label: PermissionLabel,
    receiver: ObjectNode | None,
    produced: ObjectNode | None,
    args: dict,
) -> InvocationResult:
    api, _, effect, added_role = facts

    if label.touches_sharing:
        rid = receiver.resource if receiver is not None else next(iter(state.resources))
        if rid is None:
            return InvocationResult(
                ok=False, error=f"object {receiver.id!r} not attached to any resource",
                error_kind="NotFound",
            )
        roles = state.sharing[rid]
        if effect == "share_view":
            return InvocationResult(True, ",".join(sorted(roles)))
        state.epoch += 1  # any other sharing effect may change a role
        subject_user = str(args.get(api.params[0].name)) if api.params else "collaborator-1"
        if effect == "share_transfer_owner":
            old_owner = next(u for u, r in roles.items() if r == OWNER)
            state.set_role(rid, old_owner, EDITOR)
            state.set_role(rid, subject_user, OWNER)
            return InvocationResult(True, f"ownership transferred to {subject_user}")
        if effect == "share_add":
            # the one owner stays, so no removal leaves a resource unshared
            if roles.get(subject_user) == OWNER:
                return InvocationResult(True, f"{subject_user} stays owner")
            new_role = Role.parse(added_role)
            state.set_role(rid, subject_user, new_role)
            return InvocationResult(True, f"added {subject_user} as {new_role.label}")
        if effect == "share_remove":
            # unknown collaborator ids resolve to an arbitrary existing
            # non-owner collaborator so revocation paths stay exercisable
            if subject_user not in roles or roles[subject_user] == OWNER:
                others = sorted(u for u, r in roles.items() if r != OWNER)
                subject_user = others[0] if others else None
            if subject_user is not None:
                state.set_role(rid, subject_user, None)
                return InvocationResult(True, f"removed {subject_user}")
            return InvocationResult(True, "no collaborator removed")
        return InvocationResult(True, f"sharing of {rid} unchanged")  # share_other

    if label.operation == VIEW:
        if produced is not None:
            return InvocationResult(True, produced.content or produced.id, node=produced)
        value = (receiver.content or receiver.id) if receiver is not None else ""
        return InvocationResult(True, value, node=receiver)

    if label.operation == CREATE:
        kind = api.returns.class_name
        state._fresh_counter += 1
        if kind is not None and kind in state.catalog.classes:
            new = ObjectNode(kind=kind, id=f"{kind.lower()}-{state._fresh_counter}")
            state.found.pop(kind, None)
            if receiver is not None:
                new.resource = receiver.resource
                receiver.children.append(new)
            else:
                # a fresh id may equal an existing resource id: the new root
                # then replaces that resource in its dict position, and its
                # sharing too
                new.resource = new.id
                replaced = state.resources.get(new.id)
                if replaced is not None:
                    _detach(state, replaced)
                state.resources[new.id] = new
                state.set_role(new.id, ctx.user, OWNER)
                for user in [u for u in state.sharing[new.id] if u != ctx.user]:
                    state.set_role(new.id, user, None)
            state.record_attribute(new.kind, "id", new.id)
            state.record_attribute(new.kind, "name", new.id)
            return InvocationResult(True, f"created {new.id}", node=new)
        return InvocationResult(True, f"created item {state._fresh_counter}")

    if label.operation == COMMENT:
        if receiver is not None:
            receiver.content = (receiver.content + " [comment]").strip()
        return InvocationResult(True, "comment added", node=receiver)

    if label.operation == MODIFY:
        if receiver is None:
            return InvocationResult(True, "modified")
        if effect in ("hide", "unhide"):
            state.epoch += 1
        if effect == "unhide":
            unhidden = [n for n in receiver.walk() if n.hidden]
            for n in unhidden:
                n.hidden = False
            which = ",".join(n.id for n in unhidden) or receiver.id
            return InvocationResult(True, f"unhid {which}", node=receiver)
        if effect == "hide":
            receiver.hidden = receiver.kind in HIDEABLE_KINDS
            return InvocationResult(True, f"hid {receiver.id}", node=receiver)
        new_value = next((str(v) for v in args.values()), "updated")
        receiver.content = new_value
        return InvocationResult(True, f"set {receiver.id} content={new_value}", node=receiver)

    if label.operation == DELETE:
        target = produced if produced is not None else receiver
        if target is None:
            return InvocationResult(True, "deleted nothing")
        removed = None
        if receiver is not None and receiver.children:
            removed = receiver.children.pop(0)
            _detach(state, removed)
        elif state.resources.get(target.id) is target:
            removed = state.resources.pop(target.id)
            for user in list(state.sharing[target.id]):
                state.set_role(target.id, user, None)
            _detach(state, removed)
        name = removed.id if removed is not None else target.id
        return InvocationResult(True, f"deleted {name}")

    return InvocationResult(True, "ok")


def invoke_host_api(
    state: WorkspaceState,
    ctx: Subject,
    api_id: str,
    label: PermissionLabel,
    receiver: ObjectNode | None = None,
    args: dict | None = None,
) -> InvocationResult:
    """Execute one chain step: the two-level check with this API's faults
    skipped, then the semantic effect.  The check's target is the receiver,
    else the produced object, else the root of the first resource (an
    app-level call); with none of these the call is denied.  The kind of
    a product looked up is logged to `state.lookups`; denials change
    nothing else."""
    args = args or {}
    facts = _call_facts(state, api_id, label)
    api, kind, _, _ = facts
    if receiver is not None and receiver.kind != api.parent_class:
        return InvocationResult(
            ok=False,
            error=f"receiver is {receiver.kind}, expected {api.parent_class}",
            error_kind="TypeError",
        )

    produced = None
    if kind is not None:
        state.lookups.append(kind)
        produced = _find_of_kind(state, kind, receiver)
    target = receiver if receiver is not None else produced
    if target is None:
        target = next(iter(state.resources.values()), None)
    if target is None:
        return _deny()
    observed = observe(state, ctx.user, target, produced)
    # `decide` reads the flags only for their truth and the grant and skipped
    # gates only through `in`, so equal keys get equal decisions
    skipped = state.faults.get(api_id, _NONE_SKIPPED)
    key = (observed, ctx.grant, label, skipped)
    decision = state.decisions.get(key)
    if decision is None:
        decision = state.decisions[key] = decide(observed, ctx.grant, label, state.matrix, skipped)
    if decision is not ALLOW:
        result = _deny()
    elif kind is not None and produced is None:
        result = InvocationResult(ok=False, error=f"no {kind} object available", error_kind="NotFound")
    else:
        result = _apply_effect(state, ctx, facts, label, receiver, produced, args)
    result.observed = observed
    return result


# --- faults ---------------------------------------------------------------------


def resolve_faults(faults, catalog: Catalog) -> dict:
    """API id -> kinds of the `faults` whose pattern matches it.  Each
    fault's kind must be known and its pattern must match an API."""
    kinds: dict = {}
    for fault in faults:
        if fault.kind not in FAULT_KINDS:
            raise SchemaViolation(f"unknown fault kind {fault.kind!r}")
        matched = [api_id for api_id in catalog.apis if fault.matches(api_id)]
        if not matched:
            raise PatternMatchesNothing(f"pattern {fault.api_pattern!r} matches no API")
        for api_id in matched:
            kinds[api_id] = kinds.get(api_id, frozenset()) | {fault.kind}
    return kinds


def load_faults(path: str | Path) -> list:
    return read_json(path, faults_from_json)


def faults_from_json(doc: list) -> list:
    """The faults of a faults file, each of a known kind; `resolve_faults`
    checks their patterns against a catalog."""
    faults = []
    for entry in expect(doc, list, "faults"):
        e = expect(entry, dict, "fault entry")
        pattern = expect(e["api_pattern"], str, "api_pattern")
        if e["kind"] not in FAULT_KINDS:
            raise SchemaViolation(f"unknown fault kind {e['kind']!r}")
        note = expect(e.get("note", ""), str, "note")
        faults.append(FaultSpec(kind=e["kind"], api_pattern=pattern, note=note))
    return faults
