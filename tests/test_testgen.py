import json
import operator
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permscan.testgen as testgen
from synth import (
    ODD_NAMES, api_doc, books_catalog_doc, catalog_doc, getter_chain_doc, load_suite, make_catalog,
    make_rich_catalog, oracle_bfs_emission, oracle_suite_jsonl, suite_text,
)
from permscan.catalog import load_catalog, parse_catalog, parse_json
from permscan.classify import Operation, PermissionLabel, classify_catalog
from permscan.errors import UnresolvableParameter
from permscan.graph import CallChain, ChainStep, build_graph, producible_class
from permscan.testgen import (
    AttributePlan,
    PrimitivePlan,
    ProducerPlan,
    TestCase,
    generate_cases,
    generate_suite,
    order_suite,
    producer_plans,
    resolve_parameters,
)

DATA = resources.files("permscan.data")
SHEETS = load_catalog(str(DATA / "spreadsheet.json"))
GRAPH = build_graph(SHEETS)
PRODUCERS = producer_plans(GRAPH)
LABELS = classify_catalog(SHEETS)


def _strategies(api_id):
    return dict(resolve_parameters(SHEETS.apis[api_id], GRAPH, PRODUCERS))


def test_string_param_becomes_attribute_lookup():
    strat = _strategies("Sheet.getRange")["a1Notation"]
    assert isinstance(strat, AttributePlan) and strat.role == "name"


def test_attribute_role_inference():
    strat = _strategies("Spreadsheet.addEditor")["emailAddress"]
    assert isinstance(strat, AttributePlan)


def test_integer_param_uses_fixed_values():
    strat = _strategies("Sheet.getRow")["rowIndex"]
    assert isinstance(strat, PrimitivePlan) and type(strat.value) is int and strat.value == 0


def test_pair_params_detected():
    """An (x, xEnd) integer pair passes lo < hi: 1 and 2."""
    strats = _strategies("Range.copyFormatToRange")
    for name, value in (("column", 1), ("columnEnd", 2), ("row", 1), ("rowEnd", 2), ("gridId", 0)):
        assert strats[name] == PrimitivePlan(value) and type(strats[name].value) is int, name


def test_a_run_of_end_names_is_planned_once_and_reloads():
    """Integer parameters x, xEnd, xEndEnd: an End name whose stem is an
    integer parameter passes 2, and else a name with an End partner 1, so
    the plan does not depend on set order, and the suite written loads."""
    catalog = parse_catalog(books_catalog_doc(
        api_doc("App.openBook", {"class": "Book"}),
        {**api_doc("Book.setSpan", {"void": True}),
         "params": [{"name": n, "kind": "integer", "type": "integer"} for n in ("x", "xEnd", "xEndEnd")]},
    ))
    suite = generate_suite(build_graph(catalog), classify_catalog(catalog)).cases
    (case,) = [c for c in suite if c.target_api == "Book.setSpan"]
    assert case.chain.steps[-1].params == (
        ("x", PrimitivePlan(1)), ("xEnd", PrimitivePlan(2)), ("xEndEnd", PrimitivePlan(2)),
    )
    text = suite_text(suite)
    assert suite_text(load_suite(text)) == text


def test_enum_param_is_unresolvable():
    with pytest.raises(UnresolvableParameter):
        resolve_parameters(SHEETS.apis["Sheet.appendChart"], GRAPH, PRODUCERS)


def test_class_param_gets_producer_chain():
    doc = catalog_doc(SHEETS)
    doc["apis"].append(
        {
            "id": "Sheet.copyRowTo",
            "parent_class": "Sheet",
            "method": "copyRowTo",
            "description": "Copies the given row into this sheet.",
            "params": [{"name": "row", "kind": "class", "type": "Row"}],
            "returns": {"void": True},
            "tutorial": None,
        }
    )
    cat = parse_catalog(doc)
    g = build_graph(cat)
    strat = dict(resolve_parameters(cat.apis["Sheet.copyRowTo"], g, producer_plans(g)))["row"]
    assert isinstance(strat, ProducerPlan)
    assert strat.chain.steps[-1].api_id == "Sheet.getRow"


def _with_tutorial(api_id: str, tutorial: list, *apis: dict):
    """SHEETS with `tutorial` on `api_id` and the extra API entries `apis`."""
    doc = catalog_doc(SHEETS)
    for api in doc["apis"]:
        if api["id"] == api_id:
            api["tutorial"] = tutorial
    doc["apis"] += apis
    return parse_catalog(doc)


def test_tutorial_overrides_strategies():
    """An API's tutorial is the chain of the API's own case."""
    cat = _with_tutorial("Range.setValue", [
        'var ss = SpreadsheetApp.getActiveSpreadsheet()',
        'var sheet = Spreadsheet.getActiveSheet()',
        'var rng = Sheet.getRange("A1:B2")',
        'Range.setValue("hello")',
    ])
    cases = generate_cases(build_graph(cat), classify_catalog(cat)).cases
    (case,) = [c for c in cases if c.target_api == "Range.setValue"]
    assert [s.api_id for s in case.chain.steps] == [
        "SpreadsheetApp.getActiveSpreadsheet",
        "Spreadsheet.getActiveSheet",
        "Sheet.getRange",
        "Range.setValue",
    ]
    assert dict(case.chain.steps[2].params) == {"a1Notation": AttributePlan("name")}


@pytest.mark.parametrize("tutorial", [
    ['SpreadsheetApp.getActiveSpreadsheet()', 'Spreadsheet.getActiveSheet()', 'Sheet.getRange(a1)'],
    ['Spreadsheet.getActiveSheet()'],  # ends in another call: unusable as getRange's own chain
])
def test_a_producer_step_ignores_its_apis_tutorial(tutorial):
    """When an API with a tutorial runs as a producer step, its parameters
    get strategies, and a bad tutorial does not take away its class's
    producer chain."""
    copy_range = {
        **api_doc("Sheet.copyRangeTo", {"void": True}),
        "params": [{"name": "range", "kind": "class", "type": "Range"}],
    }
    cat = _with_tutorial("Sheet.getRange", tutorial, copy_range)
    g = build_graph(cat)
    plans = resolve_parameters(cat.apis["Sheet.copyRangeTo"], g, producer_plans(g))
    last = dict(plans)["range"].chain.steps[-1]
    assert last.api_id == "Sheet.getRange"
    assert dict(last.params) == {"a1Notation": AttributePlan("name")}


def test_tutorial_that_never_calls_its_api_is_excluded():
    """A case's last step is its target call, so a tutorial that ends in
    another call leaves the API unresolvable."""
    cat = _with_tutorial("Range.setValue", ['var ss = SpreadsheetApp.getActiveSpreadsheet()'])
    result = generate_suite(build_graph(cat), classify_catalog(cat))
    assert "Range.setValue" not in {c.target_api for c in result.cases}
    assert [reason for api, reason in result.excluded if api == "Range.setValue"] == [
        "Range.setValue: parameter '<tutorial>' unresolvable "
        "(ends in SpreadsheetApp.getActiveSpreadsheet, not itself)"
    ]


def test_accounting_invariant():
    res = generate_cases(GRAPH, LABELS)
    assert len(res.cases) + len(res.excluded) + len(res.pruned) == len(SHEETS.apis)
    assert [api_id for api_id, _ in res.excluded] == ["Sheet.appendChart"]
    assert res.pruned == []


def test_pruning_one_skips_revisited_classes():
    rng = random.Random(4242)
    for _ in range(20):
        cat = make_catalog(rng)
        g = build_graph(cat)
        res = generate_cases(g, classify_catalog(cat))
        want_emitted, want_excluded, want_pruned = oracle_bfs_emission(cat)
        assert [c.target_api for c in res.cases] == want_emitted
        assert sorted(api_id for api_id, _ in res.excluded) == sorted(want_excluded)
        assert sorted(res.pruned) == sorted(want_pruned)


def test_case_ids_and_dependencies():
    res = generate_cases(GRAPH, LABELS)
    by_api = {c.target_api: c for c in res.cases}
    assert by_api["SpreadsheetApp.getActiveSpreadsheet"].depends_on is None
    assert by_api["Cell.getValue"].depends_on == by_api["Range.getCell"].id
    assert all(c.id.startswith("tc") for c in res.cases)


def test_order_suite_example_mixed_ops():
    res = generate_cases(GRAPH, LABELS)
    keep = {"Sheet.insertRow", "Range.getCell", "Sheet.deleteRow"}
    # keep the dependency prefixes so ordering has a valid topology
    picked = [
        c for c in res.cases
        if c.target_api in keep
        or c.target_api in ("SpreadsheetApp.getActiveSpreadsheet",
                            "Spreadsheet.getActiveSheet", "Sheet.getRange")
    ]
    ordered = [c.target_api for c in order_suite(picked) if c.target_api in keep]
    assert ordered == ["Sheet.insertRow", "Range.getCell", "Sheet.deleteRow"]


def test_order_suite_example_sharing():
    res = generate_cases(GRAPH, LABELS)
    keep = {"Spreadsheet.addEditor", "Spreadsheet.getEditors", "Spreadsheet.removeEditor"}
    picked = [
        c for c in res.cases
        if c.target_api in keep or c.target_api == "SpreadsheetApp.getActiveSpreadsheet"
    ]
    ordered = [c.target_api for c in order_suite(picked) if c.target_api in keep]
    assert ordered == [
        "Spreadsheet.addEditor",
        "Spreadsheet.getEditors",
        "Spreadsheet.removeEditor",
    ]


def test_order_respects_dependencies():
    suite = generate_suite(GRAPH, LABELS).cases
    seen = set()
    for case in suite:
        assert case.depends_on is None or case.depends_on in seen
        seen.add(case.id)


def test_ordering_constraints_hold():
    suite = generate_suite(GRAPH, LABELS).cases
    ranks = [case.label.operation for case in suite]
    # every Create before any Delete
    last_create = max(i for i, op in enumerate(ranks) if op is Operation.CREATE)
    first_delete = min(i for i, op in enumerate(ranks) if op is Operation.DELETE)
    assert last_create < first_delete


def test_suite_jsonl_round_trip():
    suite = generate_suite(GRAPH, LABELS).cases
    text = suite_text(suite)
    back = load_suite(text)
    assert back == suite
    assert suite_text(back) == text


def _sharing(suite: list) -> list:
    """Each step of `suite`, its producer chains' included, depth first, as
    the index of the first step met that is the same object."""
    first: dict = {}
    return [first.setdefault(id(s), len(first)) for c in suite for s in _steps_below(c.chain)]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_a_loaded_suite_is_the_generated_object_graph(seed):
    """Read back, a suite shares its steps as the generated suite does:
    each chain is defined once, and each definition's step is one object."""
    for suite in (generate_suite(GRAPH, LABELS).cases, _rich_suite(seed)):
        back = load_suite(suite_text(suite))
        assert back == suite
        assert _sharing(back) == _sharing(suite)


def test_generation_is_deterministic():
    a = suite_text(generate_suite(GRAPH, LABELS).cases)
    b = suite_text(generate_suite(GRAPH, LABELS).cases)
    assert a == b


def _rich_suite(seed: int) -> list:
    cat = make_rich_catalog(random.Random(seed))
    return generate_suite(build_graph(cat), classify_catalog(cat)).cases


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_suite_jsonl_matches_the_dict_oracle(seed):
    """The writer gives, byte for byte, `json.dumps` of each case's dict."""
    suite = _rich_suite(seed)
    text = suite_text(suite)
    assert text == oracle_suite_jsonl(suite)
    for line in text.splitlines():
        assert json.dumps(json.loads(line)) == line
    assert suite_text(load_suite(text)) == text


def test_rich_catalogs_reach_every_part_of_a_suite_line():
    """The property's catalogs give suites with each thing a line can hold."""
    text = "".join(suite_text(_rich_suite(seed)) for seed in range(30))
    parts = ('"strategy": "producer"', '"value": 0}', '"value": 2}', '"value": true}')
    for part in parts:
        assert part in text, part
    for name in ODD_NAMES:
        assert json.dumps(name) in text, name


def test_each_class_has_one_planned_producer_chain(monkeypatch):
    """Every producer plan of a class holds the one chain `producer_plans`
    built for it in that generation, so the suite writer names each
    class's chain once and finds it again by its identity."""
    built = []
    original = testgen.producer_plans

    def recording(graph):
        built.append(original(graph))
        return built[-1]

    monkeypatch.setattr(testgen, "producer_plans", recording)
    seen = 0
    for seed in range(30):
        cat = make_rich_catalog(random.Random(seed))
        suite = generate_suite(build_graph(cat), classify_catalog(cat)).cases
        (plans,) = built  # one planning per generation
        built.clear()
        for case in suite:
            for step in case.chain.steps:
                types = {p.name: p.type for p in cat.apis[step.api_id].params}
                for name, strat in step.params:
                    if isinstance(strat, ProducerPlan):
                        assert strat.chain is plans[types[name]]
                        seen += 1
    assert seen > 0


def _steps_below(chain):
    """Every step of `chain` and of its steps' producer chains, depth first."""
    for step in chain.steps:
        yield step
        for _, strat in step.params:
            if isinstance(strat, ProducerPlan):
                yield from _steps_below(strat.chain)


def test_each_api_is_planned_once(monkeypatch):
    """In one generation, every step of an API outside tutorials is one
    object: in each class's producer plan, in BFS prefixes and as the last
    step of the API's own case.  `resolve_parameters` runs once per API."""
    built, resolved = [], []
    plan_chains, resolve = testgen.producer_plans, testgen.resolve_parameters

    def recording(graph):
        built.append(plan_chains(graph))
        return built[-1]

    def counting(api, graph, producers):
        resolved.append(api.id)
        return resolve(api, graph, producers)

    monkeypatch.setattr(testgen, "producer_plans", recording)
    monkeypatch.setattr(testgen, "resolve_parameters", counting)
    shared = 0
    for cat in [SHEETS] + [make_rich_catalog(random.Random(seed)) for seed in range(30)]:
        suite = generate_suite(build_graph(cat), classify_catalog(cat)).cases
        (plans,) = built
        assert sorted(resolved) == sorted(set(resolved))
        built.clear()
        resolved.clear()
        tutorial = {id(s) for c in suite if cat.apis[c.target_api].tutorial for s in c.chain.steps}
        steps = [s for chain in plans.values() for s in chain.steps]
        steps += [s for case in suite for s in _steps_below(case.chain) if id(s) not in tutorial]
        objects: dict = {}  # api id -> ids of its step objects
        for step in steps:
            objects.setdefault(step.api_id, set()).add(id(step))
        assert {api: len(ids) for api, ids in objects.items() if len(ids) > 1} == {}
        planned = {id(s) for chain in plans.values() for s in chain.steps}
        shared += sum(id(c.chain.steps[-1]) in planned for c in suite)
    assert shared > 0


def test_suite_jsonl_keeps_true_and_1_apart():
    """Equal plans with different JSON (True == 1) each keep their own text."""
    plans = [PrimitivePlan(1), PrimitivePlan(True), PrimitivePlan(False), PrimitivePlan(0)]
    label = PermissionLabel(Operation.VIEW, "Doc")
    steps = [ChainStep("Doc.get", (("x", p),)) for p in plans]
    suite = [
        TestCase(f"tc{n}", "Doc.get", label, CallChain((s,)))
        for n, s in enumerate(steps)
    ]
    text = suite_text(suite)
    assert text == oracle_suite_jsonl(suite)
    for line, value in zip(text.splitlines(), ("1", "true", "false", "0")):
        assert f'"x": {{"strategy": "primitive", "value": {value}}}' in line


class _UrlPlan(AttributePlan):
    """A value type whose fields equal an AttributePlan's, written apart."""

    def to_json(self) -> dict:
        return {"strategy": "attribute", "role": self.role + "-url"}


def test_suite_jsonl_keeps_equal_values_of_different_types_apart():
    """A NamedTuple equals any tuple of the same values, so the writer's
    value memo keys on the type as well: each plan keeps its own text."""
    label = PermissionLabel(Operation.VIEW, "Doc")
    assert AttributePlan("id") == _UrlPlan("id")
    for plans in ((AttributePlan("id"), _UrlPlan("id")), (_UrlPlan("id"), AttributePlan("id"))):
        suite = [
            TestCase(f"tc{n}", "Doc.get", label, CallChain((ChainStep("Doc.get", (("x", p),)),)))
            for n, p in enumerate(plans)
        ]
        text = suite_text(suite)
        assert text == oracle_suite_jsonl(suite)
        assert '"role": "id"' in text and '"role": "id-url"' in text


def test_each_planned_chain_is_its_parents_plus_one_planned_step():
    """A class's planned producer chain is its parent class's planned chain,
    the same step objects, plus its graph chain's last step with that
    API's plans."""
    rng = random.Random(7)
    catalogs = [SHEETS, parse_catalog(getter_chain_doc(300))]
    catalogs += [make_rich_catalog(rng) for _ in range(20)] + [make_catalog(rng, 40, 150) for _ in range(20)]
    multi_step = 0
    for cat in catalogs:
        g = build_graph(cat)
        plans = producer_plans(g)
        assert list(plans) == list(g.producer_chains)
        for cls, chain in plans.items():
            *prefix, last = chain.steps
            want = g.producer_chains[cls].steps[-1]
            assert last == want._replace(params=resolve_parameters(cat.apis[want.api_id], g, {}))
            if prefix:
                parent = plans[producible_class(g, prefix[-1].api_id)].steps
                assert len(parent) == len(prefix) and all(map(operator.is_, parent, prefix)), cls
                multi_step += 1
    assert multi_step > 0


def test_equal_parameter_lists_share_one_plans_tuple():
    """In one generation every step outside tutorials holds the plans a
    fresh `resolve_parameters` gives its API, and the APIs with equal
    parameter lists share one plans tuple."""
    catalogs = [SHEETS, load_catalog(str(DATA / "corpus_catalog.json")), parse_catalog(getter_chain_doc(40))]
    catalogs += [make_rich_catalog(random.Random(seed)) for seed in range(30)]
    shared = 0
    for cat in catalogs:
        g = build_graph(cat)
        suite = generate_suite(g, classify_catalog(cat)).cases
        producers = producer_plans(g)
        tutorial = {id(s) for c in suite if cat.apis[c.target_api].tutorial for s in c.chain.steps}
        plans: dict = {}  # parameter list -> {id of its plans tuple: the APIs holding it}
        for case in suite:
            for step in _steps_below(case.chain):
                if id(step) not in tutorial:
                    api = cat.apis[step.api_id]
                    assert step.params == resolve_parameters(api, g, producers), api.id
                    plans.setdefault(api.params, {}).setdefault(id(step.params), set()).add(api.id)
        assert [p for p, held in plans.items() if len(held) > 1] == []
        shared += sum(len(apis) > 1 for held in plans.values() for apis in held.values())
    assert shared > 0


def test_a_shared_class_typed_parameter_list_names_its_producer_chain_once():
    """Two APIs that take the same class-typed parameter list share one
    plans tuple, so their lines name one producer chain, defined on the
    first line that uses it; two writes of the suite are the same text,
    and it reads back to equal cases."""
    book = [{"name": "book", "kind": "class", "type": "Book"}]
    doc = books_catalog_doc(
        api_doc("App.getBook", {"class": "Book"}),
        {**api_doc("App.copyBook", {"void": True}), "params": book},
        {**api_doc("App.insertBook", {"void": True}), "params": book},
    )
    cat = parse_catalog(doc)
    suite = generate_suite(build_graph(cat), classify_catalog(cat)).cases
    steps = {c.target_api: c.chain.steps[-1] for c in suite}
    assert steps["App.copyBook"].params is steps["App.insertBook"].params
    text = suite_text(suite)
    assert suite_text(suite) == text == oracle_suite_jsonl(suite)
    lines = [json.loads(line) for line in text.splitlines()]
    (producer,) = [(n, d["name"]) for n, line in enumerate(lines) for d in line["chains"]
                   if d["step"]["api"] == "App.getBook"]
    users = [n for n, line in enumerate(lines) if f'"chain": "{producer[1]}"' in json.dumps(line)]
    assert producer[0] == users[0] == 0  # a case that takes the book comes first
    assert load_suite(text) == suite
