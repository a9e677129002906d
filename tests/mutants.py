"""Mutation check of the tier-1 tests, run by hand:

    python tests/mutants.py [NAME ...]

Each mutant below replaces one line of `src/permscan/` with a wrong one.
For each, the script copies the repository to a temporary directory,
applies the mutant there, runs the tier-1 tests on the copy and prints
`killed` (some test failed) or `survived`.  It first runs the unmutated
copy, which must pass.  Names on the command line pick mutants; by default
all run, one after another.  Exit status 1 means a mutant survived.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/permscan/, line as written, line as mutated)
MUTANTS = (
    # observe: what a user sees of a target
    ("editor-unhide-exception", "simulator.py",
     '            or (role == Role.EDITOR and node.kind == "Sheet" and node.protection is None)',
     "            or False"),
    ("protected-owner-exempt", "simulator.py",
     "        if node.protection is not None and role != Role.OWNER and user not in node.protection:",
     "        if node.protection is not None and user not in node.protection:"),
    ("protection-list-sees-hidden", "simulator.py",
     "            or (node.protection is not None and user in node.protection)",
     "            or False"),
    # decide: the three gates
    ("scope-gate-open", "simulator.py",
     '    if grant is not None and "SkipScopeCheck" not in skipped and not scope_covers(grant, operation):',
     "    if False:"),
    ("protected-view-denied", "simulator.py",
     "        or (observed.protected and operation in _WRITES)",
     "        or observed.protected"),
    ("sharing-gate-denies-owner", "simulator.py",
     "        and role != Role.OWNER",
     "        and True"),
    # _apply_effect's sharing branch
    ("share-add-demotes-owner", "simulator.py",
     "            if roles.get(subject_user) == Role.OWNER:",
     "            if False:"),
    ("share-remove-drops-owner", "simulator.py",
     "            if subject_user not in roles or roles[subject_user] == Role.OWNER:",
     "            if subject_user not in roles:"),
    # sharing_changes: a new root resource is not a sharing change
    ("root-create-is-sharing-change", "executor.py",
     "        if now and (any(r is not None for r in users.values()) or now.keys() - users.keys()):",
     "        if now:"),
    # the detector's E1 > E3 > E2 order
    ("e3-before-e1", "detector.py",
     "        if decision is Decision.DENY_SCOPE:",
     "        if decision is Decision.DENY_SCOPE and not record.sharing_changes:"),
    # replay: a write that moves the epoch drops every replayable step, and
    # a step is kept only if no call wrote while it ran
    ("sharing-keeps-epoch", "simulator.py",
     "        state.epoch += 1  # any other sharing effect may change a role",
     "        pass"),
    ("hide-keeps-epoch", "simulator.py",
     "            state.epoch += 1",
     "            pass"),
    ("detach-keeps-epoch", "simulator.py",
     "    state.epoch += 1",
     "    pass"),
    ("replay-stores-after-content-write", "executor.py",
     "    args = _resolve_args(session, step.params, touched) if step.params else None",
     "    args = _resolve_args(session, step.params, touched) if step.params else None;"
     " writes = session.writes"),
    # a create that adds a leaf drops only the kept steps that looked up its
    # kind, their replayed producer chains' lookups included
    ("no-lookup-logged", "simulator.py",
     "        state.lookups.append(kind)",
     "        pass"),
    ("replay-not-relogged", "executor.py",
     "            lookups.extend(kinds)",
     "            pass"),
    ("leaf-create-keeps-every-step", "executor.py",
     "        elif label.operation is Operation.CREATE and result.node is not None:",
     "        elif False:"),
    ("leaf-create-drops-every-step", "executor.py",
     "            for dropped in session.by_kind.pop(result.node.kind, ()):",
     "            for dropped in list(reuse):"),
    # replay is keyed by a step's value: a loaded suite's equal steps are
    # distinct objects
    ("replay-by-identity", "executor.py",
     "        key = (step, receiver)",
     "        key = (id(step), receiver)"),
    # a case's own last step may be a kept step (each API is planned once),
    # but it is the call the record observes, so it always runs
    ("replay-own-last-step", "executor.py",
     "        hit = None if i == last else reuse.get(key)",
     "        hit = reuse.get(key)"),
    # Pruning #2 checks a case's direct dependency, which the suite reader
    # makes sure comes first
    ("pruning-ignores-failed-dependency", "executor.py",
     "    if case.depends_on in session.failed_cases:",
     "    if False:"),
    ("suite-order-unchecked", "cli.py",
     "    suite = read_json(args.suite, _in_suite_order(build), lines=True)",
     "    suite = read_json(args.suite, build, lines=True)"),
    # a product is looked up strictly below its receiver
    ("lookup-includes-receiver", "simulator.py",
     "        stack = receiver.children[::-1]",
     "        stack = [receiver]"),
    # a command runs with the cyclic collector paused
    ("collector-left-running", "cli.py",
     "        gc.disable()",
     "        pass"),
    # the suite reader: steps, chains, plans and labels load only as written
    ("suite-step-extra-keys", "testgen.py",
     '    if not expect(obj, dict, "step").keys() <= {"api", "params"}:',
     '    if not expect(obj, dict, "step").keys() >= {"api"}:'),
    ("suite-chain-extra-keys", "testgen.py",
     '    if expect(obj, dict, "chain").keys() != {"steps"}:',
     '    if not expect(obj, dict, "chain").keys() >= {"steps"}:'),
    ("primitive-plan-extra-keys", "testgen.py",
     '        if obj.keys() != {"strategy", "value"}:',
     '        if not obj.keys() >= {"strategy", "value"}:'),
    ("label-operation-lenient", "classify.py",
     '        operation = obj["operation"]  # exactly as `to_json` writes it',
     '        operation = Operation.parse(obj["operation"]).label'),
)

IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out", ".git")


def _apply(copy: Path, file: str, line: str, mutated: str) -> None:
    path = copy / "src" / "permscan" / file
    lines = path.read_text().split("\n")
    hits = [i for i, text in enumerate(lines) if text == line]
    if len(hits) != 1:
        raise SystemExit(f"{file}: the line of a mutant occurs {len(hits)} times, not once:\n{line}")
    lines[hits[0]] = mutated
    path.write_text("\n".join(lines))


def _tier1_passes(copy: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def _run(mutant) -> bool:
    """True if tier-1 passes on a copy with `mutant` (None: no mutant) applied."""
    with tempfile.TemporaryDirectory(prefix="permscan-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        for part in ("src", "tests", "perfbench", "pyproject.toml"):
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=IGNORE)
            else:
                shutil.copy2(ROOT / part, copy / part)
        if mutant is not None:
            _apply(copy, *mutant[1:])
        return _tier1_passes(copy)


def main(names: list) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    if not _run(None):
        raise SystemExit("tier-1 fails without a mutant")
    survived = 0
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        start = time.monotonic()
        alive = _run(mutant)
        survived += alive
        print(f"{mutant[0]:32} {'survived' if alive else 'killed':8} {time.monotonic() - start:5.1f} s",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
