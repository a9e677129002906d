import copy
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan.catalog import (
    Catalog,
    Problem,
    TypeRef,
    load_catalog,
    object_census,
    parse_catalog,
    validate_catalog,
)
from permscan.errors import DuplicateApi, MalformedFile, SchemaViolation

import synth

DATA = resources.files("permscan.data")


def _doc():
    return json.loads((DATA / "mini_document.json").read_text())


def test_load_bundled_catalogs():
    cat = load_catalog(str(DATA / "mini_document.json"))
    assert (cat.host_app, cat.root) == ("document", "DocumentApp")
    assert len(cat.apis) == 6
    assert object_census(cat) == {"document": 2}


def test_typeref_round_trip():
    for obj in ({"void": True}, {"class": "Document"}, {"array_of": "Row"}, {"primitive": "string"}):
        assert synth.type_doc(TypeRef.from_json(obj)) == obj
    with pytest.raises(SchemaViolation):
        TypeRef.from_json({"primitive": "float"})
    with pytest.raises(SchemaViolation):
        TypeRef.from_json({"something": 1})


def test_catalog_round_trip():
    for name in ("spreadsheet.json", "mini_document.json", "corpus_catalog.json"):
        cat = load_catalog(str(DATA / name))
        assert parse_catalog(synth.catalog_doc(cat)) == cat, name


def test_duplicate_api_id_rejected():
    doc = _doc()
    doc["apis"].append(copy.deepcopy(doc["apis"][0]))
    with pytest.raises(DuplicateApi):
        parse_catalog(doc)


def test_unknown_host_app_rejected():
    doc = _doc()
    doc["host_app"] = "sheets2"
    with pytest.raises(SchemaViolation):
        parse_catalog(doc)


def test_api_id_must_match_parent_and_method():
    doc = _doc()
    doc["apis"][0]["id"] = "Wrong.name"
    with pytest.raises(SchemaViolation):
        parse_catalog(doc)


@pytest.mark.parametrize("field, value", [
    ("params", ""), ("params", None), ("params", {"name": "x", "kind": "string", "type": "string"}),
    ("apis", {}), ("classes", "DocumentApp"),
])
def test_a_container_that_is_not_a_list_is_named(field, value):
    """params, apis and classes must be JSON lists; anything else is one
    SchemaViolation that names the field, and for params the API."""
    doc = _doc()
    api = doc["apis"][0]
    (api if field == "params" else doc)[field] = value
    where = f"{api['id']}: params" if field == "params" else field
    with pytest.raises(SchemaViolation) as caught:
        parse_catalog(doc)
    assert str(caught.value) == f"{where} must be a list, got {type(value).__name__}"


def test_validation_flags_dangling_return():
    doc = _doc()
    doc["apis"][0]["returns"] = {"class": "Ghost"}
    problems = validate_catalog(parse_catalog(doc))
    assert any(p.kind == "DanglingTypeRef" for p in problems)


def test_validation_flags_hierarchy_cycle():
    doc = _doc()
    doc["classes"][1]["children"] = ["DocumentApp"]  # Document -> DocumentApp -> Document
    problems = validate_catalog(parse_catalog(doc))
    assert any(p.kind == "CycleDetected" for p in problems)


def _recursive_cycles(catalog: Catalog) -> list:
    """The hierarchy cycle check as a recursive depth-first walk: its
    CycleDetected problems, in the order found."""
    problems, color = [], dict.fromkeys(catalog.classes, "white")

    def visit(name: str, path: tuple) -> None:
        color[name] = "grey"
        for c in catalog.classes[name]:
            if color.get(c) == "grey":
                problems.append(Problem("CycleDetected", " -> ".join(path + (name, c))))
            elif color.get(c) == "white":
                visit(c, path + (name,))
        color[name] = "black"

    for name in sorted(catalog.classes):
        if color[name] == "white":
            visit(name, ())
    return problems


NAMES = ("A", "B", "C", "D", "E", "F")


@st.composite
def hierarchies(draw) -> Catalog:
    """A catalog of up to six classes without APIs, each listing up to four
    children: classes of the catalog or not, repeated, itself."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    children = st.lists(st.sampled_from(NAMES + ("Ghost",)), max_size=4).map(tuple)
    classes = {name: draw(children) for name in names}
    return Catalog("drive", names[0], {}, classes, frozenset())


@settings(max_examples=300, deadline=None)
@given(catalog=hierarchies())
def test_cycle_check_matches_the_recursive_walk(catalog):
    problems = validate_catalog(catalog)
    assert [p for p in problems if p.kind == "CycleDetected"] == _recursive_cycles(catalog)


def test_validation_flags_only_unused_classes_as_orphans():
    doc = _doc()
    doc["classes"] += [
        {"name": "Lonely", "children": []},  # no API, never referenced: an orphan
        {"name": "Busy", "children": []},  # owns an API
        {"name": "Returned", "children": []},  # an API returns it
    ]
    doc["apis"] += [
        {"id": "Busy.ping", "parent_class": "Busy", "method": "ping", "description": "",
         "params": [], "returns": {"class": "Returned"}, "tutorial": None},
    ]
    problems = validate_catalog(parse_catalog(doc))
    assert [(p.kind, p.detail) for p in problems] == [
        ("OrphanClass", "class 'Lonely' has no APIs and is never referenced")
    ]


def test_load_catalog_rejects_invalid(tmp_path):
    doc = _doc()
    doc["apis"][0]["returns"] = {"class": "Ghost"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation):
        load_catalog(path)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MalformedFile):
        load_catalog(path)


def test_census_arithmetic_matches_field_counts():
    # the per-app object counts reported for the live platform sum to 194;
    # object_census must reproduce that arithmetic on any census dict
    field_counts = {
        "calendar": 7, "document": 36, "drive": 6, "form": 34,
        "gmail": 6, "spreadsheet": 58, "slide": 47,
    }
    assert sum(field_counts.values()) == 194
    cat = load_catalog(str(DATA / "mini_document.json"))
    assert sum(object_census(cat).values()) == len(cat.classes)
