"""Synthetic catalogs and brute-force oracles for the test suite.

Everything here is deliberately independent of the library's own
algorithms: the oracles re-derive expected answers from first principles
(explicit queues, exhaustive enumeration) so the fast implementations can
be checked against them.
"""

from __future__ import annotations

import functools
import io
import json
import random
import re
from collections import deque

from permscan.catalog import ApiSpec, Catalog, TypeRef, parse_catalog, parse_json
from permscan.classify import Operation
from permscan.executor import records_to_jsonl
from permscan.simulator import HIDEABLE_KINDS, PROTECTABLE_KINDS, ObjectNode, Role
from permscan.testgen import ProducerPlan, TestCase, suite_to_jsonl

# primitive-only params keep the oracle's resolvability rule trivial:
# string/integer/boolean resolve, enum does not
_PARAM_POOL = [
    [],
    [("name", "string", "string")],
    [("index", "integer", "integer")],
    [("flag", "boolean", "boolean")],
    [("name", "string", "string"), ("index", "integer", "integer")],
]

_VERBS = ["get", "set", "add", "delete", "find", "sort", "insert", "clear"]


def make_catalog(rng: random.Random, max_classes: int = 15, max_apis: int = 60) -> Catalog:
    """Random schema-valid catalog: a class tree plus APIs whose returns
    wire classes together in arbitrary (possibly unreachable) ways."""
    n_classes = rng.randint(2, max_classes)
    names = [f"C{i}" for i in range(n_classes)]
    root = names[0]

    # tree hierarchy so validation never reports orphans
    children: dict = {name: [] for name in names}
    for i in range(1, n_classes):
        parent = names[rng.randrange(i)]
        children[parent].append(names[i])

    n_apis = rng.randint(n_classes, max_apis)
    apis = []
    used_ids = set()
    for k in range(n_apis):
        parent = rng.choice(names)
        roll = rng.random()
        if roll < 0.45:
            # class producers are accessors, as on the real platforms
            target = rng.choice(names[1:]) if n_classes > 1 else root
            returns = {"array_of": target} if rng.random() < 0.2 else {"class": target}
            verb = rng.choice(["get", "find", "open"])
        elif roll < 0.85:
            returns = {"primitive": rng.choice(["string", "integer", "boolean"])}
            verb = rng.choice(_VERBS)
        else:
            returns = {"void": True}
            verb = rng.choice(_VERBS)
        method = f"{verb}Thing{k}"
        api_id = f"{parent}.{method}"
        if api_id in used_ids:
            continue
        used_ids.add(api_id)
        params = [
            {"name": p, "kind": kind, "type": typ}
            for p, kind, typ in rng.choice(_PARAM_POOL)
        ]
        if rng.random() < 0.08:
            params.append({"name": "mode", "kind": "enum", "type": "SynthEnum"})
        apis.append(
            {
                "id": api_id,
                "parent_class": parent,
                "method": method,
                "description": f"Synthetic API number {k}.",
                "params": params,
                "returns": returns,
                "tutorial": None,
            }
        )

    doc = {
        "host_app": "drive",
        "root": root,
        "external_types": ["SynthEnum"],
        "classes": [{"name": n, "children": children[n]} for n in names],
        "apis": apis,
    }
    return parse_catalog(doc)


def type_doc(ref: TypeRef) -> dict:
    """A return type as a catalog file writes it."""
    if ref.kind == "void":
        return {"void": True}
    if ref.kind == "class":
        return {"class": ref.name}
    if ref.kind == "array":
        return {"array_of": ref.name}
    return {"primitive": ref.name}


def catalog_doc(catalog: Catalog) -> dict:
    """The catalog as a catalog file's document: classes and APIs sorted by name."""
    return {
        "host_app": catalog.host_app,
        "root": catalog.root,
        "external_types": sorted(catalog.external_types),
        "classes": [
            {"name": name, "children": list(catalog.classes[name])} for name in sorted(catalog.classes)
        ],
        "apis": [
            {
                "id": api.id,
                "parent_class": api.parent_class,
                "method": api.method,
                "description": api.description,
                "params": [{"name": p.name, "kind": p.kind, "type": p.type} for p in api.params],
                "returns": type_doc(api.returns),
                "tutorial": None if api.tutorial is None else list(api.tutorial),
            }
            for api in map(catalog.apis.get, sorted(catalog.apis))
        ],
    }


# --- oracle: BFS emission with explicit visited set ---------------------------------


def _resolvable(api) -> bool:
    return all(p.kind in ("string", "integer", "boolean") for p in api.params)


def _internal_return(catalog: Catalog, api) -> str | None:
    name = api.returns.name if api.returns.is_class else None
    return name if name in catalog.classes else None


def oracle_bfs_emission(catalog: Catalog) -> tuple:
    """Brute-force rederivation of generation: FIFO queue from the root,
    explicit visited set, per-class APIs in sorted-id order.  Returns
    (emitted api ids in order, excluded ids, pruned ids)."""
    root = catalog.root
    visited = {root}
    queue = deque([root])
    emitted, excluded = [], []
    while queue:
        cls = queue.popleft()
        for api in sorted(catalog.apis.values(), key=lambda a: a.id):
            if api.parent_class != cls:
                continue
            if not _resolvable(api):
                excluded.append(api.id)
                continue
            emitted.append(api.id)
            ret = _internal_return(catalog, api)
            if ret is not None and ret not in visited:
                visited.add(ret)
                queue.append(ret)
    pruned = [
        a.id
        for a in sorted(catalog.apis.values(), key=lambda x: x.id)
        if a.parent_class not in visited
    ]
    return emitted, excluded, pruned


# --- oracle: exhaustive shortest producer chain up to length 4 -----------------------


def oracle_shortest_chain(catalog: Catalog, target: str, limit: int = 4) -> int | None:
    """Minimum chain length from the root to an API producing `target`,
    found by exhaustive enumeration of all chains up to `limit` calls."""
    root = catalog.root
    best = None
    frontier = {(root, 0)}
    for _ in range(limit):
        nxt = set()
        for cls, depth in frontier:
            for api in catalog.apis.values():
                if api.parent_class != cls or not _resolvable(api):
                    continue
                ret = _internal_return(catalog, api)
                if ret is None:
                    continue
                if ret == target:
                    if best is None or depth + 1 < best:
                        best = depth + 1
                nxt.add((ret, depth + 1))
        frontier = nxt
    return best


def oracle_best_chain(catalog: Catalog, target: str, limit: int = 4) -> tuple | None:
    """Api ids of the best chain from the root to an API producing `target`:
    the minimum under (length, parameterised steps, ids) over every chain of
    at most `limit` calls, by exhaustive enumeration.  A chain that produces
    some class twice is skipped, because cutting out the loop gives a
    smaller key.  None when there is no such chain; the root is never
    produced."""
    root = catalog.root
    producers: dict = {}  # class -> [(api id, produced class, parameterised)]
    for api in catalog.apis.values():
        ret = _internal_return(catalog, api)
        if ret is not None and _resolvable(api):
            producers.setdefault(api.parent_class, []).append((api.id, ret, bool(api.params)))
    found = []

    def extend(cls: str, seen: frozenset, ids: tuple, n_params: int) -> None:
        for api_id, ret, parameterised in producers.get(cls, ()):
            if ret in seen:
                continue
            chain, n = ids + (api_id,), n_params + parameterised
            if ret == target:
                found.append((len(chain), n, chain))
            elif len(chain) < limit:
                extend(ret, seen | {ret}, chain, n)

    extend(root, frozenset({root}), (), 0)
    return min(found)[2] if found else None


# --- workspaces and the oracle for resource ids and lookups --------------------------


def with_creators(catalog: Catalog) -> Catalog:
    """The catalog plus `P.insertK`, returning a K, for every pair of
    classes.  `make_catalog`'s producers are accessors (get/find/open), which
    the simulator runs as views, so without these a create makes nothing."""
    creators = {
        f"{p}.insert{k}": ApiSpec(
            id=f"{p}.insert{k}", parent_class=p, method=f"insert{k}",
            description="", params=(), returns=TypeRef("class", k),
        )
        for p in catalog.classes
        for k in catalog.classes
    }
    return catalog._replace(apis={**catalog.apis, **creators})


SHEET_KINDS = ("Sheet", "Range", "Cell", "Row", "Column")
SHARING_METHODS = ("addEditor", "removeEditor", "setOwner", "addViewer")


def as_sheets(catalog: Catalog, rng: random.Random) -> Catalog:
    """The catalog with up to five random classes renamed to SHEET_KINDS, the
    kinds a template may hide or protect, plus `K.hideK`, `K.unhideK` and the
    SHARING_METHODS, each taking an email address, on every class K: a
    sharing call then reaches objects created in the session, not only the
    first resource, as a root-class call does."""
    doc = catalog_doc(catalog)
    names = sorted(catalog.classes)
    renamed = rng.sample(names, min(len(names), len(SHEET_KINDS)))
    new = dict(zip(renamed, rng.sample(SHEET_KINDS, len(renamed))))

    def name(cls: str) -> str:
        return new.get(cls, cls)

    doc["root"] = name(doc["root"])
    doc["classes"] = [
        {"name": name(c["name"]), "children": [name(k) for k in c["children"]]} for c in doc["classes"]
    ]
    for api in doc["apis"]:
        api["parent_class"] = name(api["parent_class"])
        api["id"] = f"{api['parent_class']}.{api['method']}"
        for param in api["params"]:
            if param["kind"] == "class":
                param["type"] = name(param["type"])
        for key in ("class", "array_of"):
            if key in api["returns"]:
                api["returns"][key] = name(api["returns"][key])
    for cls in doc["classes"]:
        k = cls["name"]
        doc["apis"] += [api_doc(f"{k}.{verb}{k}", {"void": True}) for verb in ("hide", "unhide")]
        doc["apis"] += [
            api_doc(f"{k}.{method}", {"void": True}, "emailAddress") for method in SHARING_METHODS
        ]
    return parse_catalog(doc)


# one collaborator per role
ALL_ROLES = (("o", "owner"), ("e", "editor"), ("c", "commenter"), ("v", "viewer"))
_LESSER_ROLES = ("editor", "commenter", "viewer", None)  # None: no role on the resource


def make_template(
    rng: random.Random, catalog: Catalog, max_nodes: int = 12, roles: tuple = (("o", "owner"),)
) -> dict:
    """Random template document: one to three resources of random kinds, each
    a random tree.  The first resource is shared with `roles` ((user, role)
    pairs; by default owned by user "o" alone), so every role keeps a user
    and each user's session role is the one given.  With more than one
    user, each other resource is owned by a random one of them, and every
    other user holds a random lesser role on it, or none.  Nodes of a
    hideable kind are hidden, and nodes of a protectable kind protected
    with a random subset of the users as the privileged ones, each with
    probability 0.3."""
    kinds = sorted(catalog.classes)
    users = [user for user, _ in roles]
    ids = iter(range(max_nodes * 3))
    budget = rng.randint(1, max_nodes)

    def tree(depth: int) -> dict:
        nonlocal budget
        budget -= 1
        children = []
        while depth < 4 and budget > 0 and rng.random() < 0.6:
            children.append(tree(depth + 1))
        node = {"kind": rng.choice(kinds), "id": f"n{next(ids)}", "children": children}
        # no draw for other kinds, so a catalog without them gets the same trees
        attrs = {}
        if node["kind"] in HIDEABLE_KINDS and rng.random() < 0.3:
            attrs["hidden"] = True
        if node["kind"] in PROTECTABLE_KINDS and rng.random() < 0.3:
            attrs["protection"] = rng.sample(users, rng.randint(0, len(users)))
        if attrs:
            node["attrs"] = attrs
        return node

    resources = [tree(0) for _ in range(rng.randint(1, 3))]
    sharing = {r["id"]: {"roles": dict(roles)} for r in resources}
    if len(users) > 1:  # no draw for a single user
        for r in resources[1:]:
            owner = rng.choice(users)
            held = {user: rng.choice(_LESSER_ROLES) for user in users if user != owner}
            sharing[r["id"]]["roles"] = {owner: "owner", **{u: role for u, role in held.items() if role}}
    return {"resources": resources, "sharing": sharing}


def with_fresh_like_ids(doc: dict, rng: random.Random) -> dict:
    """Rename about half the template's nodes to ids of the form the
    simulator gives created objects (`<kind>-<n>`, small n), so creates in a
    short run collide with template ids, roots included."""
    taken: set = set()

    def rename(node: dict) -> None:
        if rng.random() < 0.5:
            for n in range(1, 5):
                fresh = f"{node['kind'].lower()}-{n}"
                if fresh not in taken:
                    node["id"] = fresh
                    break
        taken.add(node["id"])
        for child in node.get("children", []):
            rename(child)

    for root in doc["resources"]:
        old = root["id"]
        rename(root)
        if old in doc.get("sharing", {}):
            doc["sharing"][root["id"]] = doc["sharing"].pop(old)
    return doc


def walk(node):
    """`node` and its subtree in pre-order, children in list order: the
    recursive walk that `ObjectNode.walk` must match."""
    yield node
    for child in node.children:
        yield from walk(child)


def copy_tree(node):
    """A deep copy of `node`'s subtree, built by recursion: the copy that
    `ObjectNode.copy` must match."""
    return ObjectNode(
        node.kind, node.id, node.content, node.hidden, node.protection,
        [copy_tree(c) for c in node.children], node.resource,
    )


def tree_value(node) -> list:
    """`node`'s subtree as one comparable value: each node's fields and
    child count, in pre-order."""
    return [
        (n.kind, n.id, n.content, n.hidden, n.protection, n.resource, len(n.children))
        for n in walk(node)
    ]


def _dfs(state):
    """(resource id, node) over every attached node, in DFS order over
    `resources` in dict order."""
    for rid, root in state.resources.items():
        for n in walk(root):
            yield rid, n


def oracle_node(state, node_id: str):
    return next((n for _, n in _dfs(state) if n.id == node_id), None)


def oracle_resource_of(state, node):
    return next((rid for rid, n in _dfs(state) if n is node), None)


def oracle_find_of_kind(state, kind: str, receiver):
    """First `kind` node strictly below `receiver`, else the first `kind`
    node in the workspace."""
    if receiver is not None:
        for n in walk(receiver):
            if n.kind == kind and n is not receiver:
                return n
    return next((n for _, n in _dfs(state) if n.kind == kind), None)


# --- oracle: the access gates, restated from the README -------------------------------

_SCOPE_OF = {
    Operation.VIEW: "read",
    Operation.CREATE: "edit",
    Operation.COMMENT: "edit",
    Operation.MODIFY: "edit",
    Operation.DELETE: "delete",
}


def oracle_denials(state, user: str, grant, label, target, produced) -> set:
    """The gates, of "scope", "role" and "sharing", that deny `user` with
    `grant` (None: a human, who has no scope) a call labelled `label` on
    `target`, returning `produced`, in the workspace as it is now; the
    target's resource is found by walking the trees."""
    rid = oracle_resource_of(state, target)
    role = state.sharing[rid].get(user) if rid is not None else None
    op = label.operation
    denied = set()
    if grant is not None and _SCOPE_OF[op] not in grant:
        denied.add("scope")
    if role is None or not state.matrix.allows(role, op, label.object_kind):
        denied.add("role")
    for node in (target, produced):
        if node is None:
            continue
        privileged = node.protection is not None and user in node.protection
        if node.hidden and not (
            role is Role.OWNER
            or privileged
            or (role is Role.EDITOR and node.kind == "Sheet" and node.protection is None)
        ):
            denied.add("role")
        if node.protection is not None and op is not Operation.VIEW and op is not Operation.COMMENT:
            if role is not Role.OWNER and not privileged:
                denied.add("role")
    if label.touches_sharing and op is not Operation.VIEW and role is not Role.OWNER:
        denied.add("sharing")
    return denied


# --- sharing: role maps and the oracle for the sharing change log ----------------------


def api_doc(api_id: str, returns: dict, *params: str) -> dict:
    """Catalog entry for `api_id` taking the string parameters `params`."""
    parent, method = api_id.split(".")
    return {
        "id": api_id, "parent_class": parent, "method": method, "description": "",
        "params": [{"name": p, "kind": "string", "type": "string"} for p in params],
        "returns": returns, "tutorial": None,
    }


def books_catalog_doc(*apis: dict) -> dict:
    """Catalog document: root class App with child class Book, and `apis`."""
    return {
        "host_app": "drive",
        "root": "App",
        "classes": [{"name": "App", "children": ["Book"]}, {"name": "Book", "children": []}],
        "apis": list(apis),
    }


def getter_chain_doc(depth: int) -> dict:
    """Catalog document App -> C0 -> ... -> C{depth-1}: each class holds
    the next and has one getter of it, so the last class's producer chain
    has `depth` steps."""
    names = ["App"] + [f"C{i}" for i in range(depth)]
    doc = books_catalog_doc(*(
        api_doc(f"{parent}.get{child}", {"class": child}) for parent, child in zip(names, names[1:])
    ))
    doc["classes"] = [{"name": n, "children": names[i + 1:i + 2]} for i, n in enumerate(names)]
    return doc


def state_value(state) -> tuple:
    """Everything a workspace holds but its cached lookups (`found`), as one
    comparable value: each tree is its nodes' fields and child counts in DFS
    order."""
    trees = {rid: tree_value(root) for rid, root in state.resources.items()}
    return (
        state.catalog, state.matrix, state.users, trees, state.sharing, state.sharing_log,
        state.faults, state.attributes, state.lookups, state.epoch, state._fresh_counter,
    )


def role_maps(state) -> dict:
    """A copy of the workspace's sharing: resource id -> {user: Role}."""
    return {rid: dict(roles) for rid, roles in state.sharing.items()}


def oracle_sharing_changes(before: dict, after: dict) -> list:
    """Sorted (resource, user, old role, new role) for every user whose role
    differs between two role maps, on the resources present in both; None
    is no role."""
    return sorted(
        (rid, user, before[rid].get(user), after[rid].get(user))
        for rid in before.keys() & after.keys()
        for user in before[rid].keys() | after[rid].keys()
        if before[rid].get(user) != after[rid].get(user)
    )


# --- suites: random catalogs for the writer and its dict oracle -------------------------

# a quote, a backslash, a control character and non-ASCII text: JSON escapes each
ODD_NAMES = ('say"hi"', "back\\slash", "naïve", "名前", "tab\tline ")


def make_rich_catalog(rng: random.Random, max_classes: int = 8, max_apis: int = 30) -> Catalog:
    """Random catalog with everything a suite line can hold: array returns,
    class-typed parameters, (x, xEnd) integer pairs, tutorials, and class,
    method and parameter names from ODD_NAMES.
    Every class has an accessor on an earlier class, so all are reachable;
    tutorials call APIs of classes with plain names, and most end in a call
    of their own API (the others are excluded from the suite)."""

    def odd(p: float) -> str:
        return rng.choice(ODD_NAMES) if rng.random() < p else ""

    names = ["App"] + [f"K{i}{odd(0.4)}" for i in range(1, rng.randint(2, max_classes))]
    children: dict = {name: [] for name in names}
    apis: list = []

    def add(parent: str, method: str, params: list, returns: dict) -> None:
        apis.append({
            "id": f"{parent}.{method}", "parent_class": parent, "method": method,
            "description": f"Synthetic {method}.", "params": [
                {"name": p, "kind": kind, "type": typ} for p, kind, typ in params
            ], "returns": returns, "tutorial": None,
        })

    for i, name in enumerate(names[1:], 1):
        parent = names[rng.randrange(i)]
        children[parent].append(name)
        returns = {"array_of": name} if rng.random() < 0.3 else {"class": name}
        add(parent, f"get{i}", rng.choice(_PARAM_POOL), returns)
    pool = _PARAM_POOL + [
        [("x", "integer", "integer"), ("xEnd", "integer", "integer")],
        [(rng.choice(ODD_NAMES), "string", "string")],
        [("mode", "enum", "SynthEnum")],
    ]
    for k in range(rng.randint(1, max_apis)):
        params = list(rng.choice(pool))
        if rng.random() < 0.3:
            params.append(("source", "class", rng.choice(names)))
        returns = rng.choice([
            {"void": True}, {"primitive": "string"}, {"class": rng.choice(names)},
            {"array_of": rng.choice(names)},
        ])
        add(rng.choice(names), f"{rng.choice(_VERBS)}Thing{k}{odd(0.2)}", params, returns)
    # tutorial steps must parse as Class.method(...)
    callable_ids = [a["id"] for a in apis if re.fullmatch(r"\w+\.\w+", a["id"], re.ASCII)]
    for api in rng.sample(apis, k=min(3, len(apis))):
        calls = rng.sample(callable_ids, k=min(rng.randint(1, 3), len(callable_ids)))
        if api["id"] in callable_ids and rng.random() < 0.8:
            calls.append(api["id"])
        api["tutorial"] = [f'var v{n} = {call}("lit", 1)' for n, call in enumerate(calls)]
    doc = {
        "host_app": "drive",
        "root": "App",
        "external_types": ["SynthEnum"],
        "classes": [{"name": n, "children": children[n]} for n in names],
        "apis": apis,
    }
    return parse_catalog(doc)


def _step_doc(step, names: dict, defined: list) -> dict:
    out: dict = {"api": step.api_id}
    if step.params:
        out["params"] = {
            name: {"strategy": "producer", "chain": _chain_name(plan.chain.steps, names, defined)}
            if isinstance(plan, ProducerPlan) else plan.to_json()
            for name, plan in step.params
        }
    return out


def _chain_name(steps: tuple, names: dict, defined: list) -> str | None:
    """The name of the chain of `steps`, keyed by their identities; a chain
    named here for the first time is defined after its parent and its
    last step's producer chains, and its definition appended to `defined`."""
    if not steps:
        return None
    key = tuple(map(id, steps))
    if key not in names:
        parent = _chain_name(steps[:-1], names, defined)
        step = _step_doc(steps[-1], names, defined)
        names[key] = f"c{len(names) + 1}"
        defined.append({"name": names[key], "parent": parent, "step": step})
    return names[key]


def oracle_suite_jsonl(cases: list) -> str:
    """The suite as `json.dumps` of each case's dict, built field by field
    as the writer's schema describes it, nothing memoised but the chain
    names: a chain, known by its steps' identities, is named c1, c2, ...
    in order of first definition and defined on the first line that uses
    it."""
    names: dict = {}  # identities of a chain's steps -> its name
    lines = []
    for c in cases:
        defined: list = []
        chain = _chain_name(c.chain.steps, names, defined)
        lines.append(json.dumps({
            "id": c.id,
            "target_api": c.target_api,
            "label": c.label.to_json(),
            "chains": defined,
            "chain": chain,
            "depends_on": c.depends_on,
        }) + "\n")
    return "".join(lines)


def suite_line(case_id: str, target_api: str, label: dict, steps: list, depends_on: str | None = None) -> str:
    """A suite line whose case runs the step documents `steps`, each chain
    of them defined afresh on this line as `<case_id>.1`, `<case_id>.2`,
    ...: read back, no step is shared with another line."""
    chains, parent = [], None
    for n, step in enumerate(steps, 1):
        chains.append({"name": f"{case_id}.{n}", "parent": parent, "step": step})
        parent = chains[-1]["name"]
    return json.dumps({"id": case_id, "target_api": target_api, "label": label, "chains": chains,
                       "chain": parent, "depends_on": depends_on})


def suite_text(cases: list) -> str:
    """What `suite_to_jsonl` writes for `cases`."""
    out = io.StringIO()
    suite_to_jsonl(cases, out)
    return out.getvalue()


def records_text(records: list) -> str:
    """What `records_to_jsonl` writes for `records`."""
    out = io.StringIO()
    records_to_jsonl(records, out)
    return out.getvalue()


def load_suite(text: str) -> list:
    """The cases of a suite's JSON lines, read as `permscan run` reads them."""
    return parse_json(text, functools.partial(TestCase.from_json, chains={}), "<suite>", lines=True)


def oracle_records_jsonl(records: list) -> str:
    """The records as `json.dumps` of each record's dict, built field by
    field as the writer's schema describes it, nothing shared or memoised."""
    return "".join(
        json.dumps({
            "case": r.case_id,
            "api": r.api,
            "mode": r.mode,
            "role": r.role.label,
            "installer": r.installer,
            "grant": sorted(r.grant),
            "outcome": r.outcome,
            "error": r.error,
            "sharing_changes": [
                [rid, user, *(None if x is None else x.label for x in (old, new))]
                for rid, user, old, new in r.sharing_changes
            ],
            "touched": [list(t) for t in r.touched],
            "evidence": r.evidence,
            "observed": None if r.observed is None else {
                "role": None if r.observed.role is None else r.observed.role.label,
                "hidden": r.observed.hidden,
                "protected": r.observed.protected,
            },
        }) + "\n"
        for r in records
    )
