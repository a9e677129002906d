"""Span tracer that measures permscan's layers from outside.

It wraps public functions where their callers look them up (a name imported
into `permscan.cli` or `permscan.executor` is patched there, a method is
patched on its class) and records one span per call: name, start, end and
parent.  Hot inner calls are only counted.  Spans stay in memory; the caller
turns each iteration's spans into per-layer metrics with `layer_metrics` and
may write them out when the run ends.

A hook whose target no longer exists is listed in `Tracer.missing` and its
metrics read as zero, so refactors that remove or rename a function do not
break the traced run.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute path, span or counter name, kind)
# kind "span" records a span per call; "count" only counts calls.
HOOKS = (
    ("permscan.cli", "load_catalog", "catalog.load", "span"),
    ("permscan.cli", "classify_catalog", "classify.catalog", "span"),
    ("permscan.classify", "classify_api", "classify.api", "count"),
    ("permscan.cli", "build_graph", "graph.build", "span"),
    ("permscan.testgen", "shortest_producer_path", "graph.shortest_path", "span"),
    ("permscan.cli", "generate_suite", "testgen.generate", "span"),
    ("permscan.testgen", "resolve_parameters", "testgen.resolve", "count"),
    ("permscan.cli", "suite_to_jsonl", "testgen.serialize", "span"),
    ("permscan.executor", "instantiate_template", "simulator.template", "span"),
    ("permscan.cli", "instantiate_template", "simulator.template", "span"),
    ("permscan.executor", "invoke_host_api", "simulator.invoke", "span"),
    ("permscan.simulator", "WorkspaceState.node", "simulator.node", "span"),
    ("permscan.simulator", "WorkspaceState.resource_of", "simulator.resource_of", "span"),
    ("permscan.simulator", "_find_of_kind", "simulator.find_of_kind", "span"),
    ("permscan.executor", "sharing_digest", "simulator.sharing_digest", "span"),
    ("permscan.simulator", "SharingConfig.digest", "simulator.config_digest", "count"),
    ("permscan.cli", "run_role_matrix", "executor.role_matrix", "span"),
    ("permscan.cli", "run_scope_ladder", "executor.scope_ladder", "span"),
    ("permscan.executor", "run_case", "executor.run_case", "span"),
    ("permscan.executor", "_run_chain", "executor.chain", "span"),
    ("permscan.cli", "records_to_jsonl", "executor.serialize", "span"),
    ("permscan.cli", "detect_full", "detector.detect", "span"),
    ("permscan.cli", "build_report", "detector.report", "span"),
    ("permscan.cli", "report_to_json", "detector.report", "span"),
)

# per-layer metric -> unit; every traced run reports all of them
LAYER_METRICS = {
    "cli.import_s": "s",
    "catalog.load_s": "s",
    "classify.catalog_s": "s",
    "classify.api_calls": "count",
    "graph.build_s": "s",
    "graph.shortest_path_calls": "count",
    "graph.shortest_path_s": "s",
    "testgen.generate_s": "s",
    "testgen.self_s": "s",
    "testgen.resolve_calls": "count",
    "testgen.serialize_s": "s",
    "testgen.suite_bytes": "bytes",
    "simulator.template_parses": "count",
    "simulator.template_s": "s",
    "simulator.invoke_calls": "count",
    "simulator.invoke_self_s": "s",
    "simulator.deny_ratio": "ratio",
    "simulator.node_lookups": "count",
    "simulator.node_lookup_s": "s",
    "simulator.resource_of_calls": "count",
    "simulator.resource_of_s": "s",
    "simulator.find_of_kind_calls": "count",
    "simulator.find_of_kind_s": "s",
    "simulator.sharing_digest_calls": "count",
    "simulator.sharing_digest_s": "s",
    "simulator.resources_at_end": "count",
    "executor.role_matrix_s": "s",
    "executor.scope_ladder_s": "s",
    "executor.records": "count",
    "executor.pruned_ratio": "ratio",
    "executor.steps_per_case": "count",
    "executor.combo_retries": "count",
    "executor.serialize_s": "s",
    "detector.detect_s": "s",
    "detector.report_s": "s",
    "detector.false_findings": "count",
    "tracer.wall_s": "s",
    "tracer.overhead_s": "s",
    "tracer.missing_hooks": "count",
}

NAME, START, END, PARENT = range(4)


class Tracer:
    """Installs the hooks, records spans and counts, and undoes the patches."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = {}
        self.missing: list = []
        self.sessions: dict = {}  # id -> executor session seen by run_case
        self._stack: list = []
        self._undo: list = []

    # --- recording ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = {"simulator.invoke": self._observe_invoke,
                   "executor.run_case": self._observe_run_case}.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            # the executor's per-step re-classification is what classify.api
            # measures; calls made by classify_catalog itself are not counted
            if not (name == "classify.api" and any(spans[i][NAME] == "classify.catalog" for i in stack)):
                self._bump(name)
            return fn(*args, **kwargs)

        return wrapper

    def _bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _observe_invoke(self, args, result) -> None:
        if getattr(result, "ok", True) is False and getattr(result, "error_kind", None) == "PermissionError":
            self._bump("simulator.denied")

    def _observe_run_case(self, args, result) -> None:
        if getattr(result, "outcome", None) == "Pruned":
            self._bump("executor.pruned")
        if args and hasattr(args[0], "state"):
            self.sessions[id(args[0])] = args[0]

    # --- installation -----------------------------------------------------------

    def install(self, hooks=HOOKS) -> "Tracer":
        for module_name, path, name, kind in hooks:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            setattr(owner, attr, make(name, original))
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        """Drop the spans, counts and sessions of the previous iteration."""
        self.spans.clear()
        self.counts.clear()
        self.sessions.clear()
        self._stack.clear()


# --- arithmetic over one iteration's spans ------------------------------------------


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(span)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child in sorted(children.get(i, ()), key=lambda s: s[START]):
            lo, hi = max(child[START], reach), min(child[END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced iteration.  Metrics taken outside the
    tracer (cli.import_s, suite bytes, false findings, tracer.*) are left at
    zero for the caller to fill in."""
    spans, counts = tracer.spans, tracer.counts
    total: dict = {}
    own: dict = {}
    calls: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1

    # top-level chain attempts per case: one per value combination tried
    index_of_case = {i for i, s in enumerate(spans) if s[NAME] == "executor.run_case"}
    attempts = sum(1 for s in spans if s[NAME] == "executor.chain" and s[PARENT] in index_of_case)
    cases = calls.get("executor.run_case", 0)
    pruned = counts.get("executor.pruned", 0)
    ran = cases - pruned
    invokes = calls.get("simulator.invoke", 0)

    out = dict.fromkeys(LAYER_METRICS, 0)
    out.update({
        "catalog.load_s": total.get("catalog.load", 0.0),
        "classify.catalog_s": total.get("classify.catalog", 0.0),
        "classify.api_calls": counts.get("classify.api", 0),
        "graph.build_s": total.get("graph.build", 0.0),
        "graph.shortest_path_calls": calls.get("graph.shortest_path", 0),
        "graph.shortest_path_s": total.get("graph.shortest_path", 0.0),
        "testgen.generate_s": total.get("testgen.generate", 0.0),
        "testgen.self_s": own.get("testgen.generate", 0.0),
        "testgen.resolve_calls": counts.get("testgen.resolve", 0),
        "testgen.serialize_s": total.get("testgen.serialize", 0.0),
        "simulator.template_parses": calls.get("simulator.template", 0),
        "simulator.template_s": total.get("simulator.template", 0.0),
        "simulator.invoke_calls": invokes,
        "simulator.invoke_self_s": own.get("simulator.invoke", 0.0),
        "simulator.deny_ratio": counts.get("simulator.denied", 0) / invokes if invokes else 0.0,
        "simulator.node_lookups": calls.get("simulator.node", 0),
        "simulator.node_lookup_s": total.get("simulator.node", 0.0),
        "simulator.resource_of_calls": calls.get("simulator.resource_of", 0),
        "simulator.resource_of_s": total.get("simulator.resource_of", 0.0),
        "simulator.find_of_kind_calls": calls.get("simulator.find_of_kind", 0),
        "simulator.find_of_kind_s": total.get("simulator.find_of_kind", 0.0),
        "simulator.sharing_digest_calls": counts.get("simulator.config_digest", 0),
        "simulator.sharing_digest_s": total.get("simulator.sharing_digest", 0.0),
        "simulator.resources_at_end": max(
            (len(getattr(getattr(s, "state", None), "resources", ())) for s in tracer.sessions.values()),
            default=0,
        ),
        "executor.role_matrix_s": total.get("executor.role_matrix", 0.0),
        "executor.scope_ladder_s": total.get("executor.scope_ladder", 0.0),
        "executor.records": cases,
        "executor.pruned_ratio": pruned / cases if cases else 0.0,
        "executor.steps_per_case": invokes / ran if ran else 0.0,
        "executor.combo_retries": max(attempts - ran, 0),
        "executor.serialize_s": total.get("executor.serialize", 0.0),
        "detector.detect_s": total.get("detector.detect", 0.0),
        "detector.report_s": total.get("detector.report", 0.0),
        "tracer.missing_hooks": len(tracer.missing),
    })
    return out
