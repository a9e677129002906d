"""permscan benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's `src/`.  Set-up probes, the measured iterations and any traced
iterations run in fresh child processes, one at a time.  Every iteration
is timed between two runs of the fixed work in `reference.py`
(in the same process, or in a fresh one for a spawned iteration), and
`wall_vs_ref` is its wall time over theirs.  Each iteration's outputs
are checked; the last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (see BENCHMARK.json),
with --trace 1 the per-layer ones from `tracer.LAYER_METRICS`.  The lines
before it give sample counts, quartiles, output digests and the count of
confirmed findings not explained by a seeded fault.  See README.md for why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "permscan" / "data"
WORK = HERE / "out"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import tracer  # noqa: E402
from worker import OUTPUTS, digests, timed_phase  # noqa: E402

WORKLOADS = ("bundled-cli", "gen-deep-catalog", "campaign-reads", "campaign-writes")
END_TO_END = {"wall_vs_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 6
RUN_LIMIT_S = 170  # a run must end within 180 s
DEADLINE = time.perf_counter() + RUN_LIMIT_S
FAULT_KIND_TO_FINDING = {
    "SkipScopeCheck": "E1",
    "SkipRoleCheck": "E2",
    "AllowSharingMutation": "E3",
}


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


# --- output checks -----------------------------------------------------------------


def expected_pairs(faults: list) -> set:
    """(finding kind, api) pairs a seeded fault manifest should produce."""
    return {(FAULT_KIND_TO_FINDING[f["kind"]], f["api_pattern"]) for f in faults}


def found_pairs(report: dict) -> set:
    return {(f["kind"], f["api"]) for f in report["findings"]}


def false_findings(report: dict, expected: set) -> int:
    """Confirmed findings whose (kind, api) no seeded fault explains."""
    return sum(1 for f in report["findings"] if (f["kind"], f["api"]) not in expected)


def check_seeded_report(report: dict, expected: set) -> list:
    """Problems with a report of the seeded bundled run; empty when correct."""
    problems = []
    found = found_pairs(report)
    if found - expected:
        problems.append(f"unexpected findings {sorted(found - expected)}")
    if expected - found:
        problems.append(f"missed seeded faults {sorted(expected - found)}")
    if report.get("potential_only"):
        problems.append(f"{len(report['potential_only'])} potential-only entries")
    return problems


def check_iterations(iterations: list, expect_rc: tuple, outputs: tuple) -> int:
    """Give each iteration its list of problems and return how many failed.
    An iteration fails if it raised, exited with an unexpected code, missed
    an output, wrote outputs whose digests differ from the first
    iteration's, or (seeded run) wrote a wrong report."""
    reference = None
    for it in iterations:
        problems = list(it.get("report_problems", ()))
        if it.get("error"):
            problems.append(it["error"])
        if it.get("rc") not in expect_rc:
            problems.append(f"exit code {it.get('rc')}")
        missing = [name for name in outputs if name not in it["digests"]]
        if missing:
            problems.append(f"missing outputs {missing}")
        elif reference is None:
            reference = it["digests"]
        elif it["digests"] != reference:
            problems.append("outputs differ from the first iteration")
        it["problems"] = problems
    return sum(1 for it in iterations if it["problems"])


# --- child processes --------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PERMSCAN_SRC"] = str(SRC)
    return env


def _run(cmd: list) -> tuple:
    """Run one child to completion; returns (seconds, completed process).
    A child still running at the run's deadline is killed and the run
    fails, so the benchmark always ends in bounded time."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(DEADLINE - start, 1.0))
    return time.perf_counter() - start, proc


def _json_child(cmd: list) -> tuple:
    seconds, proc = _run(cmd)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return seconds, json.loads(proc.stdout.strip().splitlines()[-1])


def _worker(*args) -> list:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


# --- workloads -------------------------------------------------------------------------


class Workload:
    """Inputs, set-up probe, and iteration runners of one workload."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.out_dir = work / "outputs"
        self.spans = WORK / f"spans-{name}-seed{seed}.jsonl"
        if name == "bundled-cli":
            self.paths = {
                "catalog": DATA / "spreadsheet.json",
                "template": DATA / "template_spreadsheet.json",
                "faults": DATA / "faults_seeded.json",
            }
            faults = json.loads(self.paths["faults"].read_text(encoding="utf-8"))
            self.expected = expected_pairs(faults)
        else:
            self.paths = inputs.write_inputs(name, seed, work / "inputs")
            self.expected = set()
        if name == "gen-deep-catalog":
            self.cli_args = ["gen", "--catalog", self.paths["catalog"],
                             "--out", self.out_dir / "suite.jsonl"]
            self.outputs = ("suite.jsonl",)
            self.expect_rc = (0,)
        else:
            self.cli_args = ["pipeline", "--catalog", self.paths["catalog"],
                             "--template", self.paths["template"], "--out-dir", self.out_dir]
            if "faults" in self.paths:
                self.cli_args += ["--faults", self.paths["faults"]]
            self.outputs = ("suite.jsonl", "records.jsonl", "report.json")
            # exit 2 means confirmed findings exist; the campaigns have some
            # only while the simulator fails open, so 0 is also accepted there
            self.expect_rc = (2,) if name == "bundled-cli" else (0, 2)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    @property
    def in_process(self) -> bool:
        return self.name != "bundled-cli"

    def setup_probe(self) -> float:
        """Interpreter start-up plus `import permscan.cli`, spawn to exit."""
        seconds, proc = _run([sys.executable, "-c", "import permscan.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import permscan.cli failed: {proc.stderr.strip()[-400:]}")
        return seconds

    def reference_probe(self) -> float:
        """The reference work in a fresh interpreter, spawn to exit: the
        reference of a spawned iteration pays the same start-up."""
        seconds, proc = _run([sys.executable, str(HERE / "reference.py")])
        if proc.returncode != 0:
            raise BenchError(f"reference.py failed: {proc.stderr.strip()[-400:]}")
        return seconds

    def cli_iteration(self) -> dict:
        """One bundled run: `python -m permscan.cli` from spawn to exit."""
        for name in OUTPUTS:
            (self.out_dir / name).unlink(missing_ok=True)
        seconds, proc = _run([sys.executable, "-m", "permscan.cli", *map(str, self.cli_args)])
        error = proc.stderr.strip()[-400:] if proc.returncode not in (0, 2) else None
        return self._checked({"wall_s": seconds, "rc": proc.returncode, "error": error})

    def traced_cli_iteration(self) -> dict:
        """One bundled run in a fresh traced worker, spawn to exit."""
        seconds, result = _json_child(_worker("--out-dir", self.out_dir, "--traced-s", 0,
                                              "--spans", self.spans, "--", *self.cli_args))
        it = result["traced"][0]
        it["layers"]["cli.import_s"] = result["import_s"]
        it.update(wall_s=seconds, missing=result["missing"])
        return self._checked(it)

    def _checked(self, it: dict) -> dict:
        """Attach the digests and the seeded-report check of the outputs the
        iteration just wrote."""
        it["digests"] = digests(self.out_dir)
        if "report.json" in it["digests"]:
            it["report_problems"] = check_seeded_report(self.report(), self.expected)
        return it

    def report(self) -> dict:
        return json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Run the workload; returns set-up samples, untraced and traced
    iterations, the CLI import time and the absent hooks.

    Set-up samples are spread over the run so that a slow spell of the
    machine does not hit all of them: the bundled workload alternates a
    set-up probe with each iteration, the in-process workloads split the
    run over SETUP_SAMPLES fresh workers that each time their own set-up."""
    result = {"setup": [], "untraced": [], "traced": [], "import_s": None, "missing": []}
    untraced_s = seconds / 2 if trace else seconds
    if not wl.in_process:
        def cycle():
            if not trace:
                result["setup"].append(wl.setup_probe())
            return wl.cli_iteration()

        result["untraced"] = timed_phase(untraced_s, cycle, min_runs=3, reference=wl.reference_probe)
        if trace:
            result["traced"] = timed_phase(seconds / 2, wl.traced_cli_iteration, min_runs=3,
                                           reference=wl.reference_probe)
            result["import_s"] = statistics.median(it["layers"]["cli.import_s"] for it in result["traced"])
            result["missing"] = result["traced"][0]["missing"]
        return result
    args = ["--out-dir", wl.out_dir, "--catalog", wl.paths["catalog"]]
    if "template" in wl.paths:
        args += ["--template", wl.paths["template"]]
    if trace:
        _, loop = _json_child(_worker(*args, "--untraced-s", untraced_s, "--traced-s", seconds / 2,
                                      "--spans", wl.spans, "--", *wl.cli_args))
        result.update(traced=loop["traced"], import_s=loop["import_s"], missing=loop["missing"])
        loops = [loop]
    else:
        loops = [_json_child(_worker(*args, "--untraced-s", seconds / SETUP_SAMPLES,
                                     "--", *wl.cli_args))[1]
                 for _ in range(SETUP_SAMPLES)]
    for loop in loops:
        result["setup"].append(loop["setup_s"])
        result["untraced"] += loop["untraced"]
    return result


# --- reporting --------------------------------------------------------------------------


def _median_line(name: str, values: list, unit: str) -> str:
    """Median, quartiles, and the highest of p90/p75 with at least ten
    samples above it, with the sample count."""
    n = len(values)
    if n < 4:
        return f"{name}: median {statistics.median(values):.6g} {unit} (n={n})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    line = f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}"
    for pct in (90, 75):
        if n * (100 - pct) >= 1000:
            line += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
            break
    return line + f", n={n})"


def count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (human-readable lines, result object)."""
    if not (SRC / "permscan" / "cli.py").is_file():
        raise BenchError(f"no permscan sources under {SRC}")
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        wl = Workload(workload, seed, work)
        res = measure(wl, seconds, trace)
        iterations = res["untraced"] + res["traced"]
        failed = check_iterations(iterations, wl.expect_rc, wl.outputs)
        # the outputs left are the last iteration's; the checks above showed
        # whether every iteration wrote the same bytes
        suite = wl.out_dir / "suite.jsonl"
        cases = count_lines(suite)
        suite_bytes = suite.stat().st_size if suite.exists() else 0
        report = wl.report() if (wl.out_dir / "report.json").exists() else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [it["wall_s"] for it in res["untraced"]]
    ratios = [it["wall_vs_ref"] for it in res["untraced"]]
    lines = [f"workload {workload} seed {seed} trace {int(trace)}",
             _median_line("wall_s", walls, "s"),
             _median_line("ref_s", [it["ref_s"] for it in res["untraced"]], "s"),
             _median_line("wall_vs_ref", ratios, "ratio")]
    for name, digest in sorted(iterations[0]["digests"].items()):
        lines.append(f"digest {name} {digest}")
    lines.append(f"cases {cases}")
    findings = None
    if report is not None:
        findings = false_findings(report, wl.expected)
        lines.append(f"confirmed_findings {len(report['findings'])} false_findings {findings}")
    lines.append(f"failed_share {failed}/{len(iterations)}")
    for it in iterations:
        if it["problems"]:
            lines.append(f"failed iteration: {'; '.join(it['problems'])}")

    if not trace:
        lines.append(_median_line("setup_s", res["setup"], "s"))
        values = {
            "wall_vs_ref": statistics.median(ratios),
            "setup_s": statistics.median(res["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        layers = [it["layers"] for it in res["traced"]]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in tracer.LAYER_METRICS}
        traced_wall = statistics.median(it["wall_s"] for it in res["traced"])
        # the host's speed drifts between the two phases, so the overhead is
        # taken from the two wall_vs_ref medians, in seconds of reference work
        traced_ratio = statistics.median(it["wall_vs_ref"] for it in res["traced"])
        ref_s = statistics.median(it["ref_s"] for it in iterations)
        values.update({
            "cli.import_s": res["import_s"],
            "testgen.suite_bytes": suite_bytes,
            "detector.false_findings": findings or 0,
            "tracer.wall_s": traced_wall,
            "tracer.overhead_s": (traced_ratio - statistics.median(ratios)) * ref_s,
            "tracer.missing_hooks": len(res["missing"]),
        })
        units = tracer.LAYER_METRICS
        lines.append(f"traced iterations {len(layers)}, spans in {wl.spans.relative_to(ROOT)}")
        for hook in res["missing"]:
            lines.append(f"hook absent, its metrics read zero: {hook}")
    result = {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
