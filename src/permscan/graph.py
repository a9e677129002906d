"""Class/method dependency graph and producer-path queries.

The graph connects every class to the APIs it owns; an API's return type
is read from the catalog.  Call chains are synthesized by walking from the
root app class along producer APIs until the requested class is reached;
the best chain of every class is built once, when the graph is built.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .catalog import PRIMITIVES, ApiSpec, Catalog
from .errors import NoProducer, UnresolvableReturn


class ChainStep(NamedTuple):
    api_id: str
    params: tuple = ()  # (param name, plan) pairs, attached by testgen


class CallChain(NamedTuple):
    steps: tuple[ChainStep, ...]


class DepGraph(NamedTuple):
    catalog: Catalog
    method_edges: dict  # class name -> tuple of api ids, sorted
    producer_chains: dict  # produced class -> its best CallChain from the root

    def api(self, api_id: str) -> ApiSpec:
        return self.catalog.apis[api_id]


def build_graph(catalog: Catalog) -> DepGraph:
    """One method edge per API and the best producer chain of every class
    the root reaches.  Raises UnresolvableReturn for undeclared return classes."""
    method_edges: dict = {name: [] for name in catalog.classes}
    for api_id in sorted(catalog.apis):
        api = catalog.apis[api_id]
        method_edges[api.parent_class].append(api_id)
        ret = api.returns
        if ret.is_class and not catalog.resolves(ret.name):
            raise UnresolvableReturn(f"{api_id}: returns unknown class {ret.name!r}")
    chains: dict = {}
    graph = DepGraph(catalog, {k: tuple(v) for k, v in method_edges.items()}, chains)
    chains.update(_best_chains(graph))  # the search reads the method edges
    return graph


def producible_class(graph: DepGraph, api_id: str) -> str | None:
    """The internal class an API produces, unwrapping arrays; None otherwise."""
    ret = graph.api(api_id).returns
    return ret.name if ret.is_class and ret.name in graph.catalog.classes else None


def eligible_producer(graph: DepGraph, api_id: str) -> bool:
    """Chain steps must be self-contained: no class- or enum-typed parameters."""
    return all(p.kind in PRIMITIVES for p in graph.api(api_id).params)


def _best_chains(graph: DepGraph) -> dict:
    """Best chain from the root to every other reachable internal class.

    Single-source shortest paths (Dijkstra) keyed by (length, number of
    parameterized steps, ids): shorter first, then fewer parameterized
    steps, then the lexicographically smallest id sequence.  Appending a
    step grows the key and keeps the order of any two keys, so a class is
    final when first popped.  Each reachable class is expanded once, so
    each of its APIs is checked once.  The root is ambient: it has no chain.

    Only a final class pushes, so every chain is its parent class's chain
    plus one step: it is built from that chain's steps and one new
    `ChainStep`, one per class, and is stored after its parent's.
    """
    root = graph.catalog.root
    best: dict = {}
    heap = [(0, 0, (), root, None)]  # key, class, the class that pushed it
    while heap:
        length, n_params, ids, cls, parent = heapq.heappop(heap)
        if cls in best:
            continue
        best[cls] = CallChain(best[parent].steps + (ChainStep(ids[-1]),) if ids else ())
        for api_id in graph.method_edges.get(cls, ()):
            nxt = producible_class(graph, api_id)
            if nxt is None or nxt in best or not eligible_producer(graph, api_id):
                continue
            parameterized = 1 if graph.api(api_id).params else 0
            heapq.heappush(heap, (length + 1, n_params + parameterized, ids + (api_id,), nxt, cls))
    del best[root]  # ambient, not produced
    return best


def shortest_producer_path(graph: DepGraph, target: str) -> CallChain:
    """Minimum-length chain from the root to an API producing `target`.

    Deterministic tie-break: parameterless steps preferred, then the
    lexicographically smallest id sequence.  The chain `build_graph`
    computed, the same object on every call; the root is ambient, so it
    has no producer.
    """
    if target not in graph.catalog.classes:
        raise NoProducer(f"{target!r} is not an internal class")
    chain = graph.producer_chains.get(target)
    if chain is None:
        raise NoProducer(f"no chain from {graph.catalog.root} produces {target!r}")
    return chain


def to_dot(graph: DepGraph) -> str:
    """DOT export: class nodes, solid method-ownership edges, dashed return edges."""
    lines = ["digraph dependencies {", "  rankdir=LR;"]
    for cls in sorted(graph.catalog.classes):
        shape = "doubleoctagon" if cls == graph.catalog.root else "ellipse"
        lines.append(f'  "{cls}" [shape={shape}];')
    for cls in sorted(graph.method_edges):
        for api_id in graph.method_edges[cls]:
            lines.append(f'  "{api_id}" [shape=box, label="{graph.api(api_id).method}"];')
            lines.append(f'  "{cls}" -> "{api_id}" [style=solid];')
            ret = graph.api(api_id).returns
            if ret.is_class:
                suffix = "[]" if ret.kind == "array" else ""
                lines.append(
                    f'  "{api_id}" -> "{ret.name}" [style=dashed, label="{suffix}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
