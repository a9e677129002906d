"""Offline API catalogs: loading, validation and indexing.

A catalog file describes one host application: its object classes (a
containment forest rooted at the app class), the host APIs each class
exposes, and the return type of each API.  Catalogs replace live developer
documentation so the whole pipeline stays hermetic.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import DuplicateApi, MalformedFile, PermscanError, SchemaViolation

HOST_APPS = ("calendar", "document", "drive", "form", "gmail", "spreadsheet", "slide")

PARAM_KINDS = ("class", "string", "integer", "boolean", "enum")

PRIMITIVES = ("string", "integer", "boolean")


class TypeRef(NamedTuple):
    """Return type of an API: void, a class, an array of a class, or a primitive."""

    kind: str  # "void" | "class" | "array" | "primitive"
    name: str | None = None

    @property
    def is_class(self) -> bool:
        return self.kind in ("class", "array")

    @property
    def class_name(self) -> str | None:
        return self.name if self.is_class else None

    @staticmethod
    def from_json(obj: dict) -> "TypeRef":
        if not isinstance(obj, dict):
            raise SchemaViolation(f"bad returns value: {obj!r}")
        if obj.get("void") is True:
            return TypeRef("void")
        if "class" in obj:
            return TypeRef("class", _expect_str(obj["class"], "returns.class"))
        if "array_of" in obj:
            return TypeRef("array", _expect_str(obj["array_of"], "returns.array_of"))
        if "primitive" in obj:
            prim = obj["primitive"]
            if prim not in PRIMITIVES:
                raise SchemaViolation(f"unknown primitive {prim!r}")
            return TypeRef("primitive", prim)
        raise SchemaViolation(f"bad returns value: {obj!r}")


class ParamSpec(NamedTuple):
    name: str
    kind: str  # one of PARAM_KINDS
    type: str


class ApiSpec(NamedTuple):
    id: str
    parent_class: str
    method: str
    description: str
    params: tuple[ParamSpec, ...]
    returns: TypeRef
    tutorial: tuple[str, ...] | None = None


class Catalog(NamedTuple):
    """Immutable index over one host-app catalog file."""

    host_app: str
    root: str  # the app class every other class descends from
    apis: dict  # id -> ApiSpec
    classes: dict  # class name -> tuple of child class names
    external_types: frozenset

    def resolves(self, class_name: str) -> bool:
        return class_name in self.classes or class_name in self.external_types


class Problem(NamedTuple):
    kind: str  # DanglingTypeRef | OrphanClass | CycleDetected | BadId | MissingRoot
    detail: str


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaViolation(f"{where} must be a non-empty string, got {value!r}")
    return value


def expect(value, kind: type, where: str):
    """Return `value` if it is a `kind`; raise TypeError naming `where` if not."""
    if not isinstance(value, kind):
        raise TypeError(f"{where} must be a {kind.__name__}, got {type(value).__name__}")
    return value


_API_FIELDS = ("id", "parent_class", "method", "description", "params", "returns")
_API_FIELD_SET = frozenset(_API_FIELDS)
_PARAM_FIELDS = frozenset(("name", "kind", "type"))
_PARAM_KEY = itemgetter("name", "kind", "type")


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaViolation(f"{where} must be a list, got {type(value).__name__}")
    return value


def _parse_api(entry: dict, signatures: dict) -> ApiSpec:
    """`signatures` maps each parameter list parsed so far, as its (name,
    kind, type) triples, to its ParamSpecs: an equal list is checked once.
    Only a list that passed every check is stored, so every stored field is
    a str, and no other JSON value equals a str."""
    if not isinstance(entry, dict):
        raise SchemaViolation(f"bad api entry {entry!r}")
    if not entry.keys() >= _API_FIELD_SET:
        key = next(k for k in _API_FIELDS if k not in entry)
        raise SchemaViolation(f"api entry missing field {key!r}: {entry.get('id')!r}")
    api_id = _expect_str(entry["id"], "api.id")
    parent = _expect_str(entry["parent_class"], "api.parent_class")
    method = _expect_str(entry["method"], "api.method")
    if api_id != f"{parent}.{method}":
        raise SchemaViolation(f"api id {api_id!r} != parent_class.method")
    raw = entry["params"]
    if not isinstance(raw, list):
        raise SchemaViolation(f"{api_id}: params must be a list, got {type(raw).__name__}")
    try:
        key = tuple(map(_PARAM_KEY, raw))
        params = signatures[key]
    except (KeyError, TypeError):  # not seen yet, or it fails a check below
        params, names = [], set()
        for p in raw:
            if not isinstance(p, dict) or not p.keys() >= _PARAM_FIELDS:
                raise SchemaViolation(f"{api_id}: bad param entry {p!r}")
            if p["kind"] not in PARAM_KINDS:
                raise SchemaViolation(f"{api_id}: unknown param kind {p['kind']!r}")
            name = _expect_str(p["name"], "param.name")
            if name in names:
                raise SchemaViolation(f"{api_id}: repeated param name {name!r}")
            names.add(name)
            params.append(ParamSpec(name, p["kind"], _expect_str(p["type"], "param.type")))
        params = signatures[key] = tuple(params)
    tutorial = entry.get("tutorial")
    if tutorial is not None:
        if not isinstance(tutorial, list) or not all(isinstance(s, str) for s in tutorial):
            raise SchemaViolation(f"{api_id}: tutorial must be a list of strings")
        tutorial = tuple(tutorial)
    description = entry["description"]
    if not isinstance(description, str):
        raise SchemaViolation(f"{api_id}: description must be a string, got {type(description).__name__}")
    returns = TypeRef.from_json(entry["returns"])
    return ApiSpec(api_id, parent, method, description, params, returns, tutorial)


def parse_catalog(doc: dict) -> Catalog:
    """Build a Catalog from an already-parsed JSON document (no validation pass)."""
    if not isinstance(doc, dict):
        raise SchemaViolation("catalog document must be a JSON object")
    for key in ("host_app", "root", "classes", "apis"):
        if key not in doc:
            raise SchemaViolation(f"catalog missing top-level field {key!r}")
    host_app = _expect_str(doc["host_app"], "host_app")
    if host_app not in HOST_APPS:
        raise SchemaViolation(f"unknown host_app {host_app!r}")
    root = _expect_str(doc["root"], "root")
    external = doc.get("external_types", [])
    if not isinstance(external, list) or not all(isinstance(e, str) for e in external):
        raise SchemaViolation("external_types must be a list of strings")

    classes: dict = {}
    for entry in _expect_list(doc["classes"], "classes"):
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaViolation(f"bad class entry {entry!r}")
        name = _expect_str(entry["name"], "class.name")
        if name in classes:
            raise SchemaViolation(f"class {name!r} declared twice")
        children = entry.get("children", [])
        if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
            raise SchemaViolation(f"class {name!r}: children must be a list of strings")
        classes[name] = tuple(children)
    if root not in classes:
        raise SchemaViolation(f"root {root!r} not in class set")

    apis: dict = {}
    signatures: dict = {}
    for entry in _expect_list(doc["apis"], "apis"):
        api = _parse_api(entry, signatures)
        if api.id in apis:
            raise DuplicateApi(f"duplicate API id {api.id!r}")
        apis[api.id] = api

    return Catalog(
        host_app=host_app,
        root=root,
        apis=apis,
        classes=classes,
        external_types=frozenset(external),
    )


def validate_catalog(catalog: Catalog) -> list:
    """Dangling type refs, orphan classes and hierarchy cycles, as Problems."""
    problems = []

    def add(kind: str, detail: str) -> None:
        problems.append(Problem(kind, detail))

    referenced: set = {catalog.root}
    for api in catalog.apis.values():
        if api.parent_class not in catalog.classes:
            add("DanglingTypeRef", f"{api.id}: parent class {api.parent_class!r} unknown")
        ret = api.returns
        if ret.is_class and not catalog.resolves(ret.name):
            add("DanglingTypeRef", f"{api.id}: return class {ret.name!r} unknown")
        for p in api.params:
            if p.kind == "class" and not catalog.resolves(p.type):
                add("DanglingTypeRef", f"{api.id}: param {p.name!r} class {p.type!r} unknown")
            referenced.add(p.type)
        if ret.is_class:
            referenced.add(ret.name)
        referenced.add(api.parent_class)

    child_of: set = set()
    for name, children in catalog.classes.items():
        for c in children:
            child_of.add(c)
            if c not in catalog.classes:
                add("DanglingTypeRef", f"class {name!r} lists unknown child {c!r}")

    # hierarchy cycle check over the children edges: a depth-first search
    # with an explicit stack of (class, its unvisited children), so a deep
    # hierarchy cannot exhaust the interpreter's recursion limit
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in catalog.classes}
    for name in sorted(catalog.classes):
        if color[name] != WHITE:
            continue
        color[name] = GREY
        stack = [(name, iter(catalog.classes[name]))]
        while stack:
            top, children = stack[-1]
            for c in children:
                if color.get(c) == GREY:
                    add("CycleDetected", " -> ".join([n for n, _ in stack] + [c]))
                elif color.get(c) == WHITE:
                    color[c] = GREY
                    stack.append((c, iter(catalog.classes[c])))
                    break
            else:
                color[top] = BLACK
                stack.pop()

    for name in sorted(catalog.classes):
        if name not in referenced and name not in child_of:
            add("OrphanClass", f"class {name!r} has no APIs and is never referenced")

    return problems


def read_json(path: str | Path, build, *, lines: bool = False):
    """Read `path` as one JSON document, or with `lines` as JSONL (one
    document per non-blank line), and return `build(doc)` for each document:
    one value for JSON, a list for JSONL.

    This is the only place input files are parsed.  Unparseable or too
    deeply nested text raises MalformedFile; a KeyError, TypeError,
    ValueError or RecursionError raised by `build` becomes SchemaViolation,
    and a PermscanError keeps its class.  Every such error names the file
    and, for JSONL, the line.  `build` checks the top-level type of its
    document itself.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    return parse_json(text, build, str(path), lines=lines)


def parse_json(text: str, build, source: str, *, lines: bool = False):
    """`read_json` for text already in memory; `source` names it in errors."""
    if not lines:
        return _build_document(text, build, source)
    return [
        _build_document(line, build, f"{source}:{n}")
        for n, line in enumerate(text.splitlines(), 1)
        if line.strip()
    ]


def _build_document(text: str, build, where: str):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedFile(f"{where}: {exc}") from exc
    try:
        return build(doc)
    except KeyError as exc:
        raise SchemaViolation(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise SchemaViolation(f"{where}: {exc}") from exc
    except PermscanError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def load_catalog(path: str | Path) -> Catalog:
    """Load and validate a catalog file.

    Raises MalformedFile for unparseable input, DuplicateApi for repeated
    ids, and SchemaViolation for any other structural problem (including
    dangling type references found by validation).
    """
    catalog = read_json(path, parse_catalog)
    problems = validate_catalog(catalog)
    if problems:
        raise SchemaViolation(f"{path}: " + "; ".join(f"{p.kind}: {p.detail}" for p in problems))
    return catalog


def object_census(catalog: Catalog) -> dict:
    """Distinct object classes of the host app (external types do not count)."""
    return {catalog.host_app: len(catalog.classes)}
