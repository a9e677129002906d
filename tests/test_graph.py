import operator
import random
from importlib import resources

import pytest

import permscan.graph as graph_module
from synth import catalog_doc, getter_chain_doc, make_catalog, oracle_best_chain, oracle_shortest_chain
from permscan.catalog import load_catalog, parse_catalog
from permscan.errors import NoProducer, UnresolvableReturn
from permscan.graph import (
    build_graph,
    eligible_producer,
    producible_class,
    shortest_producer_path,
    to_dot,
)

DATA = resources.files("permscan.data")
SHEETS = load_catalog(str(DATA / "spreadsheet.json"))
MINI = load_catalog(str(DATA / "mini_document.json"))


def test_graph_nodes_and_edges():
    g = build_graph(SHEETS)
    assert g.catalog is SHEETS
    assert "Sheet.getRange" in g.method_edges["Sheet"]
    # every class has a producer chain except the ambient root
    assert set(g.producer_chains) == set(SHEETS.classes) - {"SpreadsheetApp"}


def test_producible_and_eligible():
    g = build_graph(SHEETS)
    assert producible_class(g, "Sheet.getRange") == "Range"
    assert producible_class(g, "Sheet.deleteRow") is None  # void
    assert producible_class(g, "Cell.getValue") is None  # primitive
    assert eligible_producer(g, "Sheet.getRange")
    assert not eligible_producer(g, "Sheet.appendChart")  # enum param


def test_shortest_path_mini_document():
    g = build_graph(MINI)
    chain = shortest_producer_path(g, "Document")
    # three length-1 producers exist; the parameterless one wins the tie
    assert [s.api_id for s in chain.steps] == ["DocumentApp.getActiveDoc"]


def test_shortest_path_nested():
    g = build_graph(SHEETS)
    chain = shortest_producer_path(g, "Cell")
    assert [s.api_id for s in chain.steps] == [
        "SpreadsheetApp.getActiveSpreadsheet",
        "Spreadsheet.getActiveSheet",
        "Sheet.getRange",
        "Range.getCell",
    ]


def test_no_producer():
    g = build_graph(MINI)
    with pytest.raises(NoProducer):
        shortest_producer_path(g, "DocumentApp")  # roots are ambient, not produced


def test_array_returns_get_index_extraction():
    doc = catalog_doc(MINI)
    doc["apis"].append(
        {
            "id": "DocumentApp.allDocs",  # wins the tie: "allDocs" < "getActiveDoc"
            "parent_class": "DocumentApp",
            "method": "allDocs",
            "description": "Lists all documents.",
            "params": [],
            "returns": {"array_of": "Document"},
            "tutorial": None,
        }
    )
    g = build_graph(parse_catalog(doc))
    chain = shortest_producer_path(g, "Document")
    assert [s.api_id for s in chain.steps] == ["DocumentApp.allDocs"]


def test_unresolvable_return_raises():
    doc = catalog_doc(MINI)
    doc["apis"][0] = dict(doc["apis"][0], returns={"class": "Phantom"})
    cat = parse_catalog(doc)
    with pytest.raises(UnresolvableReturn):
        build_graph(cat)


def test_dot_export_shapes():
    dot = to_dot(build_graph(MINI))
    assert dot.startswith("digraph")
    assert '"DocumentApp"' in dot
    assert "shape=box" in dot  # method nodes
    assert "style=dashed" in dot  # return edges


def test_shortest_path_matches_bruteforce_oracle():
    rng = random.Random(20260826)
    for _ in range(20):
        cat = make_catalog(rng)
        g = build_graph(cat)
        for cls in sorted(cat.classes):
            want = oracle_shortest_chain(cat, cls)
            if want is None:
                continue
            got = shortest_producer_path(g, cls)
            assert len(got.steps) == want, cls


def test_tie_break_is_deterministic():
    rng = random.Random(99)
    cat = make_catalog(rng)
    g = build_graph(cat)
    for cls in sorted(cat.classes):
        runs = []
        for _ in range(3):
            try:
                runs.append(tuple(s.api_id for s in shortest_producer_path(g, cls).steps))
            except NoProducer:
                runs.append(None)
        assert runs[0] == runs[1] == runs[2]



def test_best_chain_equals_exhaustive_oracle():
    # limit = number of classes: every simple chain is enumerated, so a
    # class the oracle cannot produce is unreachable and must raise
    rng = random.Random(20261018)
    chains = unreachable = 0
    for _ in range(150):
        # more APIs per catalog make more chains and ties; much denser
        # catalogs make the enumeration too slow for a unit test
        cat = make_catalog(rng, max_classes=rng.randint(2, 40), max_apis=rng.randint(60, 120))
        g = build_graph(cat)
        for cls in sorted(cat.classes):
            want = oracle_best_chain(cat, cls, limit=len(cat.classes))
            if want is None:
                with pytest.raises(NoProducer):
                    shortest_producer_path(g, cls)
                unreachable += 1
            else:
                got = shortest_producer_path(g, cls)
                assert tuple(s.api_id for s in got.steps) == want, cls
                assert all(s.params == () for s in got.steps)  # testgen plans them
                chains += 1
    assert chains > 0 and unreachable > 0


def test_chains_are_computed_once_per_graph(monkeypatch):
    checked = []
    original = graph_module.eligible_producer

    def counting(graph, api_id):
        checked.append(api_id)
        return original(graph, api_id)

    monkeypatch.setattr(graph_module, "eligible_producer", counting)
    cat = make_catalog(random.Random(5), max_classes=40, max_apis=200)
    g = build_graph(cat)
    built = len(checked)
    assert built > 0 and len(set(checked)) == built  # each API checked at most once
    for cls in sorted(cat.classes):
        try:
            shortest_producer_path(g, cls)
        except NoProducer:
            pass
    assert len(checked) == built


def _assert_each_chain_extends_its_parents(g) -> None:
    """Every stored chain is its parent class's chain object's steps, the
    same objects, plus one step: the parent is the class the chain's
    next-to-last step produces.  So each produced class adds one step."""
    chains = g.producer_chains
    for cls, chain in chains.items():
        *prefix, last = chain.steps
        assert producible_class(g, last.api_id) == cls
        if prefix:
            parent = chains[producible_class(g, prefix[-1].api_id)].steps
            assert len(parent) == len(prefix) and all(map(operator.is_, parent, prefix)), cls
    assert len({id(s) for chain in chains.values() for s in chain.steps}) == len(chains)


def test_each_chain_is_its_parents_plus_one_step():
    rng = random.Random(20261021)
    for _ in range(40):
        cat = make_catalog(rng, max_classes=rng.randint(2, 40), max_apis=rng.randint(20, 150))
        _assert_each_chain_extends_its_parents(build_graph(cat))
    deep = build_graph(parse_catalog(getter_chain_doc(1200)))
    assert len(deep.producer_chains["C1199"].steps) == 1200
    _assert_each_chain_extends_its_parents(deep)
