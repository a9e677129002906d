"""Class/method dependency graph and producer-path queries.

The graph connects every class to the APIs it owns and every API to its
return type.  Call chains are synthesized by walking from the root app
class along producer APIs until the requested class is reached; the best
chain of every class is computed once, when the graph is built.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .catalog import ApiSpec, Catalog, TypeRef
from .errors import NoProducer, UnresolvableReturn


class ChainStep(NamedTuple):
    api_id: str
    index_zero: bool = False  # array-typed producer: take element [0]
    args: object | None = None  # ArgPlan, attached by testgen


class CallChain(NamedTuple):
    steps: tuple[ChainStep, ...]
    produces: TypeRef


class DepGraph(NamedTuple):
    class_nodes: frozenset
    method_edges: dict  # class name -> tuple of api ids, sorted
    return_edges: dict  # api id -> TypeRef
    root: str
    producer_chains: dict  # internal class -> api ids of its best chain from the root
    catalog: Catalog

    def api(self, api_id: str) -> ApiSpec:
        return self.catalog.apis[api_id]


def build_graph(catalog: Catalog) -> DepGraph:
    """One node per class, one method edge per API, one return edge per
    non-void API.  Raises UnresolvableReturn for undeclared return classes."""
    class_nodes = frozenset(catalog.classes)
    method_edges: dict = {name: [] for name in class_nodes}
    return_edges: dict = {}
    for api_id in sorted(catalog.apis):
        api = catalog.apis[api_id]
        method_edges[api.parent_class].append(api_id)
        ret = api.returns
        if ret.kind != "void":
            if ret.is_class and not catalog.resolves(ret.name):
                raise UnresolvableReturn(f"{api_id}: returns unknown class {ret.name!r}")
            return_edges[api_id] = ret
    chains: dict = {}
    graph = DepGraph(
        class_nodes=class_nodes,
        method_edges={k: tuple(v) for k, v in method_edges.items()},
        return_edges=return_edges,
        root=catalog.root,
        producer_chains=chains,
        catalog=catalog,
    )
    chains.update(_best_chains(graph))  # the search reads the graph's other fields
    return graph


def producible_class(graph: DepGraph, api_id: str) -> str | None:
    """The internal class an API produces, unwrapping arrays; None otherwise."""
    ret = graph.return_edges.get(api_id)
    if ret is None or not ret.is_class:
        return None
    return ret.name if ret.name in graph.class_nodes else None


def eligible_producer(graph: DepGraph, api_id: str) -> bool:
    """Chain steps must be self-contained: no class- or enum-typed parameters."""
    api = graph.api(api_id)
    return all(p.kind in ("string", "integer", "boolean") for p in api.params)


def _step_for(graph: DepGraph, api_id: str) -> ChainStep:
    ret = graph.return_edges[api_id]
    return ChainStep(api_id, index_zero=(ret.kind == "array"))


def _best_chains(graph: DepGraph) -> dict:
    """Best chain (api ids) from the root to every reachable internal class.

    Single-source shortest paths (Dijkstra) keyed by (length, number of
    parameterized steps, ids): shorter first, then fewer parameterized
    steps, then the lexicographically smallest id sequence.  Appending a
    step grows the key and keeps the order of any two keys, so a class is
    final when first popped.  Each reachable class is expanded once, so
    each of its APIs is checked once.  The root maps to the empty chain.
    """
    best: dict = {}
    heap = [(0, 0, (), graph.root)]
    while heap:
        length, n_params, ids, cls = heapq.heappop(heap)
        if cls in best:
            continue
        best[cls] = ids
        for api_id in graph.method_edges.get(cls, ()):
            nxt = producible_class(graph, api_id)
            if nxt is None or nxt in best or not eligible_producer(graph, api_id):
                continue
            parameterized = 1 if graph.api(api_id).params else 0
            heapq.heappush(heap, (length + 1, n_params + parameterized, ids + (api_id,), nxt))
    return best


def shortest_producer_path(graph: DepGraph, target: str) -> CallChain:
    """Minimum-length chain from the root to an API producing `target`.

    Deterministic tie-break: parameterless steps preferred, then the
    lexicographically smallest id sequence.  A lookup into the chains
    `build_graph` computed; the root is ambient, so it has no producer.
    """
    if target not in graph.class_nodes:
        raise NoProducer(f"{target!r} is not an internal class")
    ids = graph.producer_chains.get(target)
    if not ids:
        raise NoProducer(f"no chain from {graph.root} produces {target!r}")
    steps = tuple(_step_for(graph, i) for i in ids)
    return CallChain(steps=steps, produces=TypeRef("class", target))


def to_dot(graph: DepGraph) -> str:
    """DOT export: class nodes, solid method-ownership edges, dashed return edges."""
    lines = ["digraph dependencies {", "  rankdir=LR;"]
    for cls in sorted(graph.class_nodes):
        shape = "doubleoctagon" if cls == graph.root else "ellipse"
        lines.append(f'  "{cls}" [shape={shape}];')
    for cls in sorted(graph.method_edges):
        for api_id in graph.method_edges[cls]:
            lines.append(f'  "{api_id}" [shape=box, label="{graph.api(api_id).method}"];')
            lines.append(f'  "{cls}" -> "{api_id}" [style=solid];')
            ret = graph.return_edges.get(api_id)
            if ret is not None and ret.is_class:
                suffix = "[]" if ret.kind == "array" else ""
                lines.append(
                    f'  "{api_id}" -> "{ret.name}" [style=dashed, label="{suffix}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
