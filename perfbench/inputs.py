"""Seeded synthetic inputs for the benchmark workloads.

The same (workload, seed) pair always gives byte-identical files.  Nothing
here imports permscan or the repository's tests, so edits to either cannot
shift the inputs.  The seed renames classes and methods (which reorders the
suite and changes tie-breaks) and picks parameter and cross-link targets,
but the structure is fixed by the sizes: class tree, API counts per kind,
which class owns which verb, template shape and which objects are hidden or
protected.  Spread across seeds is then mostly run-to-run noise, not a
change in the amount of work.

Two shapes are generated:

* a deep catalog (many levels, ~1/4 of the APIs with class-typed
  parameters) for suite generation alone;
* a moderate catalog plus a wide one-resource template for the campaigns,
  with either a read-mostly or a write-heavy verb mix.

Both campaign mixes keep root-class void/primitive APIs, and the write mix
adds root-level sharing mutators.  With receiver and product both None the
simulator skips its role and sharing checks on those calls, so a fault-free
campaign still confirms findings; the benchmark reports that count rather
than hiding it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

USERS = {
    "owner": "olivia.owner",
    "editor": "eddie.editor",
    "commenter": "carl.commenter",
    "viewer": "vera.viewer",
}

# Sizes.  The deep catalog: 60 classes on 8 levels, 600 APIs, a quarter of
# them with a class-typed parameter.  The campaigns: 30 classes on 5 levels,
# 250 APIs, a 300-file archive and a 600-node book.
DEEP_CLASSES, DEEP_LEVELS, DEEP_APIS = 60, 8, 600
CAMPAIGN_CLASSES, CAMPAIGN_LEVELS, CAMPAIGN_APIS = 30, 5, 250
ARCHIVE_FILES, BOOK_NODES = 300, 600

# Non-root classes named after the simulator's hideable/protectable kinds,
# so the template can carry hidden and protected objects.
_SHEET_KINDS = ("Sheet", "Range", "Row", "Column", "Cell")
_NOUNS = ("Value", "Note", "Title", "Format", "Width", "Color", "Label", "Item", "Entry", "Field")

_PRIMITIVE_PARAMS = (
    (),
    (("value", "string"),),
    (("index", "integer"),),
    (("flag", "boolean"),),
    (("name", "string"), ("index", "integer")),
    (("start", "integer"), ("startEnd", "integer")),
    (("url", "string"),),
)

# (verb, operation group) weights for non-root APIs of the campaign catalogs
_MIXES = {
    "reads": (
        (("get", "find", "is", "has", "list"), "view", 80),
        (("comment",), "comment", 4),
        (("set", "update"), "modify", 8),
        (("insert", "append"), "create", 4),
        (("delete", "clear"), "delete", 4),
    ),
    "writes": (
        (("get", "find"), "view", 20),
        (("comment",), "comment", 5),
        (("set", "update"), "modify", 25),
        (("insert", "append"), "create", 30),
        (("delete", "clear", "remove"), "delete", 20),
    ),
}


def _param(name: str, kind: str, typ: str | None = None) -> dict:
    return {"name": name, "kind": kind, "type": typ or kind}


def _api(cls: str, method: str, k: int, params, returns: dict) -> dict:
    return {
        "id": f"{cls}.{method}",
        "parent_class": cls,
        "method": method,
        "description": f"Synthetic API number {k}.",
        "params": list(params),
        "returns": returns,
        "tutorial": None,
    }


def _layered_tree(names: list, levels: int) -> tuple[dict, dict]:
    """Children map and level of each class.  names[0] is the root and
    names[1] its only child; the rest are spread evenly over levels
    2..levels, each parented round-robin on the level above, so the shape
    depends only on the number of classes."""
    children = {n: [] for n in names}
    children[names[0]].append(names[1])
    level = {names[0]: 0, names[1]: 1}
    by_level = {0: [names[0]], 1: [names[1]]}
    rest = names[2:]
    for i, name in enumerate(rest):
        lv = 2 + (i * (levels - 1)) // len(rest)
        above, peers = by_level[lv - 1], by_level.setdefault(lv, [])
        children[above[len(peers) % len(above)]].append(name)
        level[name] = lv
        peers.append(name)
    return children, level


def _accessors(names: list, children: dict, params) -> list:
    """One producer per tree edge; every fifth returns an array."""
    apis = []
    for cls in names:
        for child in children[cls]:
            returns = {"array_of": child} if len(apis) % 5 == 4 else {"class": child}
            apis.append(_api(cls, f"get{child}", len(apis), params(len(apis)), returns))
    return apis


def _params_for(k: int) -> list:
    return [_param(name, kind) for name, kind in _PRIMITIVE_PARAMS[k % len(_PRIMITIVE_PARAMS)]]


def _catalog_doc(host_app: str, names: list, children: dict, apis: list) -> dict:
    return {
        "host_app": host_app,
        "root": names[0],
        "external_types": [],
        "classes": [{"name": n, "children": children[n]} for n in names],
        "apis": apis,
    }


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def deep_catalog(rng: random.Random) -> dict:
    """Deep catalog for suite generation: every class reachable through an
    accessor chain, and a quarter of the APIs taking a class-typed
    parameter, each of which testgen resolves with a producer-path query."""
    names = ["DeepApp", "Vault"] + _shuffled(rng, [f"K{i}" for i in range(2, DEEP_CLASSES)])
    children, level = _layered_tree(names, DEEP_LEVELS)
    apis = _accessors(names, children, _params_for)
    n_rest = DEEP_APIS - len(apis)
    n_class = DEEP_APIS // 4
    n_cross = DEEP_APIS * 15 // 100
    kinds = _shuffled(rng, ["class"] * n_class + ["cross"] * n_cross
                      + ["plain"] * (n_rest - n_class - n_cross))
    for i, kind in enumerate(kinds):
        k = len(apis)
        cls = names[i % len(names)]
        params = _params_for(k)
        if kind == "class":
            params = [_param("source", "class", rng.choice(names[1:]))] + params
            verb, returns = rng.choice(("set", "copy", "move", "merge")), {"void": True}
        elif kind == "cross" and level[cls] > 0:
            # extra producers that never win: the target sits at the owner's
            # level or above, so every class keeps its chain and the
            # fixpoint its number of passes
            near = [n for n in names[1:] if level[n] <= level[cls]]
            verb, returns = rng.choice(("get", "find", "open")), {"class": rng.choice(near)}
        else:
            verb = ("get", "is", "set", "insert", "delete", "clear")[i % 6]
            returns = ({"void": True}, {"primitive": "string"}, {"primitive": "integer"},
                       {"primitive": "boolean"})[i % 4]
        apis.append(_api(cls, f"{verb}{rng.choice(_NOUNS)}{k}", k, params, returns))
    return _catalog_doc("drive", names, children, apis)


def _verb_plan(mix: str, n: int) -> list:
    """Exactly n (verb, operation) pairs in the mix's proportions, in an
    order fixed by the mix alone."""
    groups = _MIXES[mix]
    total = sum(w for _, _, w in groups)
    counts = [n * w // total for _, _, w in groups]
    counts[0] += n - sum(counts)
    plan = [(verbs[j % len(verbs)], op)
            for (verbs, op, _), count in zip(groups, counts) for j in range(count)]
    return _shuffled(random.Random(mix), plan)


def campaign_catalog(rng: random.Random, mix: str) -> dict:
    """Moderate catalog for the campaigns under a read-mostly or write-heavy
    verb mix.  Root-level APIs are fixed in number so both mixes always
    carry the fail-open inputs."""
    # the hideable kinds sit at fixed tree positions; the seed only renames
    # the other classes
    body = _shuffled(rng, [f"Part{i}" for i in range(CAMPAIGN_CLASSES - 9)])
    for pos, kind in zip(range(0, len(body) + len(_SHEET_KINDS), 5), _SHEET_KINDS):
        body.insert(pos, kind)
    names = ["App", "Book"] + body
    children, _ = _layered_tree(names, CAMPAIGN_LEVELS)
    body = names[1:]
    # a second resource class for the template's archive folder
    names += ["Folder", "File"]
    children["App"].append("Folder")
    children.update(Folder=["File"], File=[])
    apis = [_api("App", "getActiveBook", 0, [], {"class": "Book"})]
    apis += _accessors(names[1:], children, lambda k: [])
    for cls, method in (("App", "getFolder"), ("Folder", "getName"), ("File", "getSize")):
        returns = {"class": "Folder"} if method == "getFolder" else {"primitive": "string"}
        apis.append(_api(cls, method, len(apis), [], returns))

    # root-class APIs: void/primitive calls and sharing reads in both mixes
    root_apis = [
        ("getVersion", [], {"primitive": "string"}),
        ("isReady", [], {"primitive": "boolean"}),
        ("setLocale", [_param("value", "string")], {"void": True}),
        ("setTimeZone", [_param("value", "string")], {"void": True}),
        ("clearCache", [], {"void": True}),
        ("getEditors", [], {"primitive": "string"}),
    ]
    if mix == "writes":
        # root-level sharing mutators and resource creation
        for i in range(4):
            root_apis += [
                (f"addEditor{i}", [_param("email", "string")], {"void": True}),
                (f"addViewer{i}", [_param("email", "string")], {"void": True}),
                (f"removeViewer{i}", [_param("email", "string")], {"void": True}),
                (f"setFlag{i}", [_param("flag", "boolean")], {"void": True}),
            ]
        root_apis.append(("setOwner", [_param("email", "string")], {"void": True}))
        root_apis += [(f"createBook{i}", [_param("name", "string")], {"class": "Book"})
                      for i in range(40)]
    for method, params, returns in root_apis:
        apis.append(_api("App", method, len(apis), params, returns))

    for i, (verb, op) in enumerate(_verb_plan(mix, CAMPAIGN_APIS - len(apis))):
        k = len(apis)
        cls = body[i % len(body)]
        if op == "view":
            returns = ({"primitive": "string"}, {"primitive": "integer"},
                       {"primitive": "boolean"})[i % 3]
        elif op == "create" and children[cls]:
            returns = {"class": children[cls][i % len(children[cls])]}
        else:
            returns = {"void": True}
        apis.append(_api(cls, f"{verb}{rng.choice(_NOUNS)}{k}", k, _params_for(k), returns))
    return _catalog_doc("spreadsheet", names, children, apis)


def campaign_template(catalog: dict) -> dict:
    """Two resources shared with the same four users: an archive folder of
    ARCHIVE_FILES files, then the active book, filled breadth first along
    the class tree (two nodes per child class) until it holds BOOK_NODES.
    The simulator looks objects up by walking resources in order, so every
    lookup of a book object first walks the archive, as in a workspace with
    more than one file.  One in twenty hideable objects is hidden and one in
    twenty protectable objects is protected."""
    children = {c["name"]: c["children"] for c in catalog["classes"]}
    nodes: list = []

    def make(kind: str) -> dict:
        node = {"kind": kind, "id": f"{kind.lower()}{len(nodes) + 1}",
                "attrs": {"content": f"{kind.lower()} content {len(nodes) + 1}"}, "children": []}
        nodes.append(node)
        return node

    archive = make("Folder")
    archive["children"] = [make("File") for _ in range(ARCHIVE_FILES)]
    book = make("Book")
    queue = [book]
    limit = len(nodes) + BOOK_NODES - 1
    while queue and len(nodes) < limit:
        node = queue.pop(0)
        for child_kind in children[node["kind"]]:
            for _ in range(2):
                if len(nodes) >= limit:
                    break
                child = make(child_kind)
                node["children"].append(child)
                queue.append(child)
    hideable = [n for n in nodes if n["kind"] in _SHEET_KINDS]
    for node in hideable[10::20]:
        node["attrs"]["hidden"] = True
    protectable = [n for n in hideable if n["kind"] != "Cell"]
    for node in protectable[15::20]:
        node["attrs"]["protection"] = [USERS["owner"]]
    roles = {user: role for role, user in USERS.items()}
    return {
        "resources": [archive, book],
        "sharing": {
            res["id"]: {"roles": dict(roles), "copy_download_print_allowed": False}
            for res in (archive, book)
        },
    }


def write_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the input files of one synthetic workload; returns their paths."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "gen-deep-catalog":
        docs = {"catalog": deep_catalog(rng)}
    elif workload in ("campaign-reads", "campaign-writes"):
        catalog = campaign_catalog(rng, workload.split("-")[1])
        docs = {"catalog": catalog, "template": campaign_template(catalog)}
    else:
        raise ValueError(f"no synthetic inputs for workload {workload!r}")
    paths = {}
    for name, doc in docs.items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths[name] = path
    return paths
