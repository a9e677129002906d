"""Child process of the benchmark: runs permscan in a fresh interpreter.

    worker.py --out-dir D [--catalog C [--template T]] [--untraced-s S]
              [--traced-s S] [--spans F] -- ARGS...

Times `import permscan.cli`, and with --catalog the whole one-off set-up:
the import, catalog load and validation, and template parse.  Then runs
`permscan ARGS...` in-process, repeatedly, for S seconds per phase (at
least one iteration per phase given); the traced phase installs the
tracer.  Iterations alternate with the fixed reference work of
`reference.py`.  Prints one JSON object with the set-up times, every
iteration's wall time, reference time, exit code, error and output
digests, and the per-layer metrics of each traced iteration.  F receives
the spans of the first traced iteration.

The benchmark sets PYTHONPATH to the checkout's `src`; the worker refuses to
run against any other copy of permscan.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

from reference import reference_s

OUTPUTS = ("suite.jsonl", "records.jsonl", "report.json")


def _import_cli():
    """Import permscan.cli and return (module, seconds taken)."""
    start = time.perf_counter()
    import permscan.cli as cli

    elapsed = time.perf_counter() - start
    src = os.environ.get("PERMSCAN_SRC")
    if src and not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"worker: imported permscan from {cli.__file__}, expected under {src}")
    return cli, elapsed


def load_inputs(catalog_path: str, template_path: str | None) -> None:
    """The set-up work a campaign does before its first stage: catalog load
    and validation, and template parse."""
    from importlib import resources

    from permscan.catalog import load_catalog
    from permscan.simulator import instantiate_template, load_capability_matrix

    catalog = load_catalog(catalog_path)
    if template_path:
        matrix = load_capability_matrix(resources.files("permscan") / "data/capability_matrix.json")
        instantiate_template(template_path, catalog, matrix)


def digests(out_dir: Path) -> dict:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUTS
        if (out_dir / name).exists()
    }


def run_iteration(cli, argv: list, out_dir: Path) -> dict:
    for name in OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # counted as a failed iteration, never hidden
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "error": error, "digests": digests(out_dir)}


def timed_phase(budget_s: float, run_one, min_runs: int = 1, reference=None) -> list:
    """Iterate while the next iteration, at the mean pace so far, still ends
    within the budget; at least min_runs times.  With a reference, it is
    timed before the first iteration and after each one, and every
    iteration gets `ref_s`, the mean of the two reference times around it,
    and `wall_vs_ref`, its wall time divided by that."""
    out = []
    start = time.perf_counter()
    before = reference() if reference else None
    while len(out) < min_runs or (time.perf_counter() - start) * (len(out) + 1) / len(out) <= budget_s:
        it = run_one()
        if reference:
            after = reference()
            it["ref_s"] = (before + after) / 2
            it["wall_vs_ref"] = it["wall_s"] / it["ref_s"]
            before = after
        out.append(it)
    return out


def _write_spans(path: Path, spans: list) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"iteration": 0, "span": i, "name": name,
                                 "start": start, "end": end, "parent": parent}) + "\n")


def run(args, argv: list) -> dict:
    start = time.perf_counter()
    cli, import_s = _import_cli()
    setup_s = None
    if args.catalog:
        load_inputs(args.catalog, args.template)
        setup_s = time.perf_counter() - start
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {"import_s": import_s, "setup_s": setup_s, "untraced": [], "traced": [], "missing": []}
    if args.untraced_s is not None:
        result["untraced"] = timed_phase(args.untraced_s, lambda: run_iteration(cli, argv, out_dir),
                                         reference=reference_s)
    if args.traced_s is not None:
        import tracer as tracing

        tracer = tracing.Tracer().install()
        first_spans = None

        def traced_one():
            nonlocal first_spans
            tracer.reset()
            it = run_iteration(cli, argv, out_dir)
            it["layers"] = tracing.layer_metrics(tracer)
            if first_spans is None:
                first_spans = [list(s) for s in tracer.spans]
            return it

        try:
            # a lone traced iteration is spawned and referenced by the parent
            reference = reference_s if args.untraced_s is not None else None
            result["traced"] = timed_phase(args.traced_s, traced_one, reference=reference)
        finally:
            tracer.uninstall()
        result["missing"] = tracer.missing
        if args.spans and first_spans is not None:
            _write_spans(Path(args.spans), first_spans)
    return result


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    cli_argv: list = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--catalog")
    parser.add_argument("--template")
    parser.add_argument("--untraced-s", type=float)
    parser.add_argument("--traced-s", type=float)
    parser.add_argument("--spans")
    print(json.dumps(run(parser.parse_args(argv), cli_argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
