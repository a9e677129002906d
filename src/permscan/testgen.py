"""Suite generation: BFS over the dependency graph with visited-class
pruning, parameter resolution strategies, and operation-ordered output."""

from __future__ import annotations

import heapq
import json
import re
from collections import deque
from operator import is_
from typing import NamedTuple

from .catalog import ApiSpec, expect
from .classify import Operation, PermissionLabel, effect_of
from .errors import CyclicDependency, UnresolvableParameter
from .graph import CallChain, ChainStep, DepGraph, producible_class, shortest_producer_path


# --- parameter strategies ----------------------------------------------------


class ProducerPlan(NamedTuple):
    """Class-typed parameter: run a producer chain and pass its product."""

    chain: CallChain


class AttributePlan(NamedTuple):
    """String parameter looked up from the runtime attribute table."""

    role: str  # id | url | name

    def to_json(self) -> dict:
        return {"strategy": "attribute", "role": self.role}


class PrimitivePlan(NamedTuple):
    """Integer/boolean parameter: the one value a run passes."""

    value: bool | int

    def to_json(self) -> dict:
        return {"strategy": "primitive", "value": self.value}


# --- test cases ---------------------------------------------------------------


class TestCase(NamedTuple):
    __test__ = False  # keep pytest from collecting this as a test class

    id: str
    target_api: str
    label: PermissionLabel
    chain: CallChain
    depends_on: str | None = None

    @staticmethod
    def from_json(obj: dict, chains: dict) -> "TestCase":
        """The case of one suite line as `suite_to_jsonl` writes it.
        `chains` maps the name of each chain the suite's earlier lines
        defined to (chain, whether a step of it takes a producer plan); the
        chains this line defines are added to it."""
        expect(obj, dict, "test case")
        for key in ("id", "target_api"):
            expect(obj[key], str, key)
        if obj["depends_on"] is not None:
            expect(obj["depends_on"], str, "depends_on")
        for definition in expect(obj["chains"], list, "chains"):
            _define_chain(definition, chains)
        chain = _chain_named(obj["chain"], chains)[0]
        # the last step is the call the case's records observe
        if not chain.steps:
            raise ValueError("case chain has no steps")
        if chain.steps[-1].api_id != obj["target_api"]:
            raise ValueError(f"case chain ends in {chain.steps[-1].api_id!r}, not its target_api")
        return TestCase(
            id=obj["id"],
            target_api=obj["target_api"],
            label=PermissionLabel.from_json(obj["label"]),
            chain=chain,
            depends_on=obj["depends_on"],
        )


class GenResult:
    __slots__ = ("cases", "excluded", "pruned")

    def __init__(self):
        self.cases = []
        self.excluded = []  # (api id, reason)
        self.pruned = []  # api ids of unreached classes


# --- parameter resolution ------------------------------------------------------

_TUTORIAL_CALL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)\((.*)\)")
_STRING_LITERAL = re.compile(r'"([^"]*)"')


def _infer_attr_role(param_name: str) -> str:
    low = param_name.lower()
    if "url" in low:
        return "url"
    if "id" in low:
        return "id"
    return "name"


def _integer_value(name: str, integers: set) -> int:
    """0, except that an (x, xEnd) integer pair passes lo < hi: x 1, xEnd 2."""
    if name.endswith("End") and name[:-3] in integers:
        return 2
    return 1 if name + "End" in integers else 0


def _parse_tutorial(api: ApiSpec, graph: DepGraph) -> CallChain:
    """Tutorial steps are call strings 'Class.method(args)'; resource-naming
    string literals become attribute-table markers resolved at run time.
    The last step must call the API itself: it is the case's target call."""
    steps = []
    for raw in api.tutorial:
        m = _TUTORIAL_CALL.search(raw)
        if m is None:
            raise UnresolvableParameter(api.id, "<tutorial>", f"(unparseable step {raw!r})")
        cls, method, argtext = m.groups()
        api_id = f"{cls}.{method}"
        if api_id not in graph.catalog.apis:
            raise UnresolvableParameter(api.id, "<tutorial>", f"(unknown step {api_id})")
        step_api = graph.api(api_id)
        params = []
        literals = _STRING_LITERAL.findall(argtext)
        for spec_param, value in zip(step_api.params, literals):
            if spec_param.kind == "string":
                params.append((spec_param.name, AttributePlan(_infer_attr_role(spec_param.name))))
        steps.append(ChainStep(api_id, tuple(params)))
    if steps[-1].api_id != api.id:
        raise UnresolvableParameter(api.id, "<tutorial>", f"(ends in {steps[-1].api_id}, not itself)")
    return CallChain(tuple(steps))


def producer_plans(graph: DepGraph) -> dict:
    """Every produced class's producer chain with each step's plan attached.
    A producer step has only primitive parameters, so planning cannot fail
    and needs no producers.

    A class's chain is its parent class's chain plus one step, and
    `build_graph` stores the parent's first (see `graph._best_chains`), so
    each planned chain is its parent's planned chain plus the class's last
    step, planned.  The parent is the class that the chain's next-to-last
    step produces.  So each API is planned once, as the last step of the
    class it produces, and that one step is shared by every chain that
    passes through the API."""
    plans: dict = {}
    signatures: dict = {}  # see `_plans_of`
    for cls in graph.producer_chains:
        steps = shortest_producer_path(graph, cls).steps
        prefix = plans[producible_class(graph, steps[-2].api_id)].steps if len(steps) > 1 else ()
        last = steps[-1]
        params = _plans_of(graph.api(last.api_id), graph, {}, signatures)
        plans[cls] = CallChain(prefix + (last._replace(params=params),))
    return plans


def _plans_of(api: ApiSpec, graph: DepGraph, producers: dict, signatures: dict) -> tuple:
    """`resolve_parameters`' plans, kept in `signatures` by parameter list,
    so APIs with equal lists share one plans tuple.  Plans depend on
    nothing else of the API, and a list planned without producers has no
    class-typed parameter.  A failure is not kept: each unresolvable API
    raises its own error."""
    key = api.params
    found = signatures.get(key)
    if found is None:
        found = signatures[key] = resolve_parameters(api, graph, producers)
    return found


def resolve_parameters(api: ApiSpec, graph: DepGraph, producers: dict) -> tuple:
    """One (name, plan) pair per parameter, each plan by the fixed priority order.

    A class-typed parameter runs its class's chain from `producers` (see
    `producer_plans`).  Raises UnresolvableParameter for enum parameters and
    for class parameters with no producer; callers exclude the API from the
    suite.
    """
    integers = None  # the integer parameters' names, once one is met
    params = []
    for p in api.params:
        if p.kind == "class":
            if p.type not in graph.catalog.classes:
                raise UnresolvableParameter(api.id, p.name, f"(external class {p.type})")
            if p.type not in producers:
                root = graph.catalog.root
                raise UnresolvableParameter(api.id, p.name, f"(no chain from {root} produces {p.type!r})")
            params.append((p.name, ProducerPlan(producers[p.type])))
        elif p.kind == "enum":
            raise UnresolvableParameter(api.id, p.name, "(enum type)")
        elif p.kind == "string":
            params.append((p.name, AttributePlan(_infer_attr_role(p.name))))
        elif p.kind == "integer":
            if integers is None:
                integers = {q.name for q in api.params if q.kind == "integer"}
            params.append((p.name, PrimitivePlan(_integer_value(p.name, integers))))
        elif p.kind == "boolean":
            params.append((p.name, PrimitivePlan(True)))
    return tuple(params)


# --- generation -----------------------------------------------------------------


def generate_cases(graph: DepGraph, labels: dict) -> GenResult:
    """BFS from the root; every method of an expanded class is emitted once,
    but an already-visited return class is never re-expanded (Pruning #1)."""
    result = GenResult()
    cases, apis, classes = result.cases, graph.catalog.apis, graph.catalog.classes
    root = graph.catalog.root
    visited = {root}
    queue = deque([root])
    class_chain: dict = {root: CallChain(())}
    case_by_api: dict = {}
    producers = producer_plans(graph)
    # a producer's own case ends in its one planned step, the last of the
    # class it produces: a producer step has only primitive plans, which
    # need no producers, so other APIs share them too (see `_plans_of`)
    planned = {c.steps[-1].api_id: c.steps[-1] for c in producers.values()}
    signatures = {apis[api_id].params: step.params for api_id, step in planned.items()}

    while queue:
        cls = queue.popleft()
        base = class_chain[cls]
        producer_case = case_by_api.get(base.steps[-1].api_id) if base.steps else None
        for api_id in graph.method_edges.get(cls, ()):
            api = apis[api_id]
            try:
                if api.tutorial:
                    chain = _parse_tutorial(api, graph)
                else:
                    step = planned.get(api_id) or ChainStep(api_id, _plans_of(api, graph, producers, signatures))
                    chain = CallChain(base.steps + (step,))
            except UnresolvableParameter as exc:
                result.excluded.append((api_id, str(exc)))
                continue
            case = TestCase(f"tc{len(cases) + 1:04d}", api_id, labels[api_id], chain, producer_case)
            cases.append(case)
            case_by_api.setdefault(api_id, case.id)
            ret = api.returns
            nxt = ret.name if ret.is_class and ret.name in classes else None
            if nxt is not None and nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
                # the producer chain, or the emission chain when only
                # parameterized producers reach the class
                class_chain[nxt] = producers.get(nxt, chain)

    for cls in sorted(classes.keys() - visited):
        result.pruned.extend(graph.method_edges.get(cls, ()))
    return result


# --- ordering --------------------------------------------------------------------

def _order_key(case: TestCase, seq: int) -> tuple:
    if not case.label.touches_sharing:  # only a share_* effect moves a case
        return (case.label.operation, 1, seq)
    effect = (effect_of(case.target_api.split(".", 1)[1], case.label) or "").partition(":")[0]
    if effect == "share_add":
        return (Operation.CREATE, 0, seq)
    if effect in ("share_remove", "share_transfer_owner"):
        return (Operation.DELETE, 2, seq)
    return (case.label.operation, 1, seq)


def order_suite(cases: list) -> list:
    """Stable operation-rank ordering (Create first, Delete last), sharing
    additions first and removals/ownership transfers last, with every
    dependency prefix case kept ahead of its dependents."""
    index = {c.id: i for i, c in enumerate(cases)}
    dependents: list = [[] for _ in cases]  # by index: the indices of the cases that wait on it
    heap = []
    for i, c in enumerate(cases):
        dep = index.get(c.depends_on)  # a case depends on at most one case
        if dep is None:
            heap.append((_order_key(c, i), i))
        else:
            dependents[dep].append(i)
    heapq.heapify(heap)
    out = []
    while heap:
        i = heapq.heappop(heap)[1]
        out.append(cases[i])
        for d in dependents[i]:
            heapq.heappush(heap, (_order_key(cases[d], d), d))
    if len(out) != len(cases):
        stuck = sorted(index.keys() - {c.id for c in out})
        raise CyclicDependency(f"unorderable cases: {stuck}")
    return out


def generate_suite(graph: DepGraph, labels: dict) -> GenResult:
    """Full generation: BFS emission followed by suite ordering."""
    result = generate_cases(graph, labels)
    result.cases = order_suite(result.cases)
    return result


# --- serialization -----------------------------------------------------------------


_string = json.encoder.encode_basestring_ascii  # exactly what json.dumps does with a str


def suite_to_jsonl(cases: list, out) -> None:
    """Write the suite to the text file `out`, one line per case, each as
    `json.dumps` writes the dict with keys id, target_api, label, chains,
    chain and depends_on.

    Each chain is named on the first line that uses it: `chains` lists the
    line's new definitions, each with keys name ("c1", "c2", ... in order
    of first use), parent (the name of the chain of all its steps but the
    last; null for none) and step, its last step.  A step has api, and
    params (name to plan) if it has any; a producer plan names its chain.
    A definition comes after those of its parent and of its step's producer
    chains, and `chain` names the case's chain.  So each step is written
    once, and a suite grows with its distinct steps, not with the square of
    hierarchy depth.

    A chain is named by the identity of its steps: each API's planned step
    is one object (see `producer_plans`), so shared prefixes share names,
    while equal steps that are distinct objects, such as a plan passing
    true and one passing 1, keep their own text.  A chain whose steps but
    the last are those of a chain object already named is named from that
    chain's name and its last step, with no walk over its steps.  Labels
    and attribute plans are encoded once per call, keyed by type and value
    (a NamedTuple equals any tuple of the same values).
    """
    out.writelines(map(_SuiteWriter().line, cases))


class _SuiteWriter:
    """What one `suite_to_jsonl` call has named and encoded."""

    __slots__ = ("names", "ends", "count", "texts", "params")

    def __init__(self):
        # name texts: of (parent's name text, id(step)), the chain of the
        # parent's steps and `step`; of id(chain), each chain object met
        self.names: dict = {}
        self.ends: dict = {}  # id(last step) -> [(steps, name text)] of each chain object met
        self.count = 0  # chains named so far
        self.texts: dict = {}  # (type, value) -> JSON text
        self.params: dict = {}  # id(step.params) -> the JSON text of its plans

    def line(self, c: TestCase) -> str:
        defined: list = []
        chain = self.name(c.chain, defined)
        depends_on = "null" if c.depends_on is None else _string(c.depends_on)
        return (
            f'{{"id": {_string(c.id)}, "target_api": {_string(c.target_api)}, '
            f'"label": {self.label(c.label)}, "chains": [{", ".join(defined)}], '
            f'"chain": {chain}, "depends_on": {depends_on}}}\n'
        )

    def name(self, chain: CallChain, defined: list) -> str:
        """The JSON text of `chain`'s name; each chain first named here
        appends its definition to `defined`."""
        names = self.names
        found = names.get(id(chain))
        if found is None:
            steps = rest = chain.steps
            found = "null"
            if len(steps) > 1:
                for named, text in self.ends.get(id(steps[-2]), ()):
                    if len(named) == len(steps) - 1 and all(map(is_, named, steps)):
                        found, rest = text, steps[-1:]
                        break
            for step in rest:
                found = names.get((found, id(step))) or self.define(found, step, defined)
            names[id(chain)] = found
            if steps:
                self.ends.setdefault(id(steps[-1]), []).append((steps, found))
        return found

    def define(self, parent: str, step: ChainStep, defined: list) -> str:
        if step.params:
            # a producer chain is defined on the first line that uses it
            # and keeps its name, so the text of a plans tuple, shared by
            # the APIs with equal parameter lists, is written once
            plans = self.params.get(id(step.params))
            if plans is None:
                plans = self.params[id(step.params)] = ", ".join(
                    [_string(n) + ": " + self.plan(p, defined) for n, p in step.params]
                )
            text = f'{{"api": {_string(step.api_id)}, "params": {{{plans}}}}}'
        else:
            text = f'{{"api": {_string(step.api_id)}}}'
        self.count += 1
        name = self.names[(parent, id(step))] = f'"c{self.count}"'
        defined.append(f'{{"name": {name}, "parent": {parent}, "step": {text}}}')
        return name

    def plan(self, p, defined: list) -> str:
        if isinstance(p, ProducerPlan):
            return '{"strategy": "producer", "chain": ' + self.name(p.chain, defined) + "}"
        if isinstance(p, AttributePlan):
            return self.value(p)
        v = p.value
        literal = "true" if v is True else "false" if v is False else int.__repr__(v)
        return '{"strategy": "primitive", "value": ' + literal + "}"

    def value(self, obj) -> str:
        key = (type(obj), obj)
        return self.texts.get(key) or self.texts.setdefault(key, json.dumps(obj.to_json()))

    def label(self, label: PermissionLabel) -> str:
        """`json.dumps(label.to_json())`, by hand."""
        key = (type(label), label)
        text = self.texts.get(key)
        if text is None:
            sharing = "true" if label.touches_sharing else "false"
            text = self.texts[key] = (
                f'{{"operation": "{label.operation.label}", "object_kind": '
                f'{_string(label.object_kind)}, "touches_sharing": {sharing}}}'
            )
        return text


_NO_CHAIN = (CallChain(()), False)


def _chain_named(ref, chains: dict) -> tuple:
    """(chain, whether a step of it takes a producer plan) of the chain an
    earlier definition named `ref`; null is the empty chain."""
    if ref is None:
        return _NO_CHAIN
    found = chains.get(expect(ref, str, "chain name"))
    if found is None:
        raise ValueError(f"chain {ref!r} is used before it is defined")
    return found


def _define_chain(obj: dict, chains: dict) -> None:
    """Add the chain `obj` defines to `chains`: its parent's steps, then its step."""
    if expect(obj, dict, "chain").keys() != {"name", "parent", "step"}:
        raise ValueError(f"a chain must hold only name, parent and step, got {sorted(obj)}")
    name = expect(obj["name"], str, "chain name")
    if name in chains:
        raise ValueError(f"chain {name!r} is defined twice")
    parent, nested = _chain_named(obj["parent"], chains)
    step = _step_from_json(obj["step"], chains)
    nested = nested or any(isinstance(p, ProducerPlan) for _, p in step.params)
    chains[name] = (CallChain(parent.steps + (step,)), nested)


def _plan_from_json(obj: dict, chains: dict):
    kind = obj["strategy"]
    if kind == "producer":
        # a producer step takes only primitive parameters, so a producer
        # chain takes no producer plan, and chains never nest
        chain, nested = _chain_named(obj["chain"], chains)
        if nested:
            raise ValueError(f"producer chain {obj['chain']!r} itself takes a producer plan")
        return ProducerPlan(chain)
    if kind == "attribute":
        return AttributePlan(expect(obj["role"], str, "role"))
    if kind == "primitive":
        if obj.keys() != {"strategy", "value"}:
            raise ValueError(f"primitive plan must hold only strategy and value, got {sorted(obj)}")
        if not isinstance(obj["value"], int):  # a bool is an int
            raise ValueError(f"primitive value must be a boolean or an integer, got {obj['value']!r}")
        return PrimitivePlan(obj["value"])
    raise ValueError(f"unknown strategy {kind!r}")


def _step_from_json(obj: dict, chains: dict) -> ChainStep:
    """A step as `suite_to_jsonl` writes it: api, and params if it has any."""
    if not expect(obj, dict, "step").keys() <= {"api", "params"}:
        raise ValueError(f"a step must hold only api and params, got {sorted(obj)}")
    api = expect(obj["api"], str, "api")
    if "params" not in obj:
        return ChainStep(api)
    plans = expect(obj["params"], dict, "params")
    if not plans:
        raise ValueError("a step without parameters must not hold params")
    return ChainStep(api, tuple((name, _plan_from_json(p, chains)) for name, p in plans.items()))
