"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 = ran clean, 2 = ran clean but findings were emitted
(CI-friendly), 1 = a usage error or any stage error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path

from .catalog import expect, load_catalog, object_census, read_json
from .classify import classify_catalog
from .detector import build_report, detect_full, report_to_json
from .errors import NotFound, PermscanError, UsageError
from .executor import (
    ExecutionRecord,
    SimulatorBackend,
    records_to_jsonl,
    run_role_matrix,
    run_scope_ladder,
)
from .graph import build_graph, to_dot
from .simulator import Role, faults_from_json, load_capability_matrix
from .testgen import TestCase, generate_suite, suite_to_jsonl

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2

SEED_HELP = "ignored: generation is deterministic (kept so existing scripts still run)"


def default_matrix_path() -> Path:
    return Path(__file__).with_name("data") / "capability_matrix.json"


def _load_matrix(path):
    return load_capability_matrix(path or default_matrix_path())


def cmd_ingest(args) -> int:
    # load_catalog validates: a catalog with problems never gets here
    census = object_census(load_catalog(args.catalog))
    print(json.dumps({"census": census, "total": sum(census.values())}, indent=2))
    return EXIT_OK


def cmd_classify(args) -> int:
    catalog = load_catalog(args.catalog)
    labels = classify_catalog(catalog)
    out = {api_id: label.to_json() for api_id, label in sorted(labels.items())}
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"labeled {len(out)} APIs -> {args.out}")
    return EXIT_OK


def cmd_graph_export(args) -> int:
    catalog = load_catalog(args.catalog)
    graph = build_graph(catalog)
    Path(args.out).write_text(to_dot(graph), encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    catalog = load_catalog(args.catalog)
    labels = classify_catalog(catalog)
    graph = build_graph(catalog)
    result = generate_suite(graph, labels)
    with open(args.out, "w", encoding="utf-8") as out:
        suite_to_jsonl(result.cases, out)
    print(
        f"generated {len(result.cases)} cases "
        f"(excluded {len(result.excluded)}, pruned {len(result.pruned)}) -> {args.out}"
    )
    return EXIT_OK


def _known_apis(catalog, parse, api_ids):
    """Builder for one suite or records line: `parse(doc)`, once every API
    `api_ids(doc)` finds in the parsed line is in `catalog`."""

    def build(doc):
        item = parse(doc)
        for api_id in api_ids(doc):
            if api_id not in catalog.apis:
                raise NotFound(f"unknown API {api_id!r}")
        return item

    return build


def _in_suite_order(build):
    """`build` for the lines of one suite, which must list each case once
    and after the case it depends on: Pruning #2 checks only a case's
    direct dependency.  A dependency that names no case of the suite is
    allowed, since it never runs and so never fails."""
    seen: set = set()
    waiting: dict = {}  # case id -> the first earlier case that depends on it

    def check(doc):
        case = build(doc)
        if case.id in seen:
            raise ValueError(f"case id {case.id!r} is repeated")
        if case.id in waiting:
            raise ValueError(f"case {case.id!r} comes after {waiting[case.id]!r}, which depends on it")
        seen.add(case.id)
        if case.depends_on is not None and case.depends_on not in seen:
            waiting.setdefault(case.depends_on, case.id)
        return case

    return check


def _backend(catalog, template_path, matrix, labels, faults_path) -> SimulatorBackend:
    """The backend with the faults file at `faults_path`, if any, resolved
    once against `catalog`; an error in the faults names the file."""

    def build(doc):
        return SimulatorBackend(catalog, template_path, matrix, labels, faults_from_json(doc))

    if faults_path:
        return read_json(faults_path, build)
    return SimulatorBackend(catalog, template_path, matrix, labels)


def cmd_run(args) -> int:
    catalog = load_catalog(args.catalog)
    labels = classify_catalog(catalog)
    # a suite line names the chains earlier lines defined, and its own
    # definitions hold the one step of each chain they add
    parse = functools.partial(TestCase.from_json, chains={})
    build = _known_apis(catalog, parse, lambda doc: [d["step"]["api"] for d in doc["chains"]])
    suite = read_json(args.suite, _in_suite_order(build), lines=True)
    matrix = _load_matrix(args.matrix)
    backend = _backend(catalog, args.template, matrix, labels, args.faults)
    if args.mode == "role-matrix":
        records = run_role_matrix(suite, backend)
    else:
        records = run_scope_ladder(suite, backend)
    with open(args.out, "w", encoding="utf-8") as out:
        records_to_jsonl(records, out)
    print(f"executed {len(suite)} cases in mode {args.mode} -> {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    catalog = load_catalog(args.catalog)
    labels = classify_catalog(catalog)
    matrix = _load_matrix(args.matrix)
    build = _known_apis(catalog, ExecutionRecord.from_json, lambda doc: (doc["api"],))
    records = read_json(args.records, build, lines=True)
    detection = detect_full(records, labels, matrix)
    report = build_report(detection, records, catalog)
    Path(args.out).write_text(report_to_json(report), encoding="utf-8")
    print(report.to_text())
    return EXIT_FINDINGS if report.findings else EXIT_OK


def _pipeline_config(doc: dict) -> dict:
    """Keys: catalog, template, faults, out_dir (paths; flags take precedence)
    and seed (accepted and ignored)."""
    expect(doc, dict, "config")
    for key in ("catalog", "template", "faults", "out_dir"):
        if doc.get(key) is not None:
            expect(doc[key], str, key)
    return doc


def cmd_pipeline(args) -> int:
    cfg = read_json(args.config, _pipeline_config) if args.config else {}
    catalog_path = args.catalog or cfg.get("catalog")
    template_path = args.template or cfg.get("template")
    faults_path = args.faults or cfg.get("faults")
    out_dir = Path(args.out_dir or cfg.get("out_dir") or ".")
    if not catalog_path or not template_path:
        print("pipeline: --catalog and --template are required", file=sys.stderr)
        return EXIT_ERROR

    catalog = load_catalog(catalog_path)
    matrix = _load_matrix(args.matrix)
    labels = classify_catalog(catalog)
    backend = _backend(catalog, template_path, matrix, labels, faults_path)
    for role in Role:  # read the template now: a bad one stops the run before anything is written
        backend.user_with_role(role)

    graph = build_graph(catalog)
    result = generate_suite(graph, labels)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "suite.jsonl").open("w", encoding="utf-8") as out:
        suite_to_jsonl(result.cases, out)

    records = run_role_matrix(result.cases, backend)
    records += run_scope_ladder(result.cases, backend)
    with (out_dir / "records.jsonl").open("w", encoding="utf-8") as out:
        records_to_jsonl(records, out)

    detection = detect_full(records, labels, matrix)
    exclusions = {
        "generated": len(result.cases),
        "excluded": len(result.excluded),
        "pruned": len(result.pruned),
    }
    report = build_report(detection, records, catalog, exclusions)
    (out_dir / "report.json").write_text(report_to_json(report), encoding="utf-8")
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    print(report.to_text())
    return EXIT_FINDINGS if report.findings else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, through `main`'s error path: the
    subcommands' parsers are of this class too."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # one per process: parsing leaves it as it was, and `main` may run many times
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permscan",
        description="Permission-escalation testing for add-on host APIs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, validate and summarize a catalog")
    p.add_argument("--catalog", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("classify", help="label every API in a catalog")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("graph", help="dependency graph utilities")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    ge = gsub.add_parser("export", help="export the dependency graph as DOT")
    ge.add_argument("--catalog", required=True)
    ge.add_argument("--out", required=True)
    ge.set_defaults(func=cmd_graph_export)

    p = sub.add_parser("gen", help="generate the ordered test suite")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="execute a suite against the simulator")
    p.add_argument("--suite", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--faults")
    p.add_argument("--matrix")
    p.add_argument("--mode", choices=("role-matrix", "scope-ladder"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="classify records into findings")
    p.add_argument("--records", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--matrix")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config")
    p.add_argument("--catalog")
    p.add_argument("--template")
    p.add_argument("--faults")
    p.add_argument("--matrix")
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int, help=SEED_HELP)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    """Run one command.  The cyclic collector is paused while it runs: a
    run makes no reference cycles, so a pass would only walk the live
    catalog, suite and records and free nothing.  A caller that had it
    paused finds it paused."""
    try:
        args = build_parser().parse_args(argv)
        collecting = gc.isenabled()
        gc.disable()
        try:
            return args.func(args)
        finally:
            if collecting:
                gc.enable()
    except UsageError as exc:
        print(exc, file=sys.stderr)
    except (PermscanError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
    return EXIT_ERROR


def entry() -> None:
    """The process entry point: `python -m permscan.cli` and the `permscan`
    script.  Runs `main` on `sys.argv`, then freezes the heap before
    exiting with its code, so the collections of interpreter shutdown skip
    every module, class and function the process loaded; they would free
    nothing the run needs.  Unlike `os._exit`, exiting this way still runs
    atexit handlers and flushes stdout and stderr.  `main` itself never
    freezes: an in-process caller keeps a heap the collector can clean."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
