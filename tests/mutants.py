"""Mutation check of the tier-1 tests, run by hand:

    python tests/mutants.py [--full] [NAME ...]

Each mutant below replaces one line of `src/permscan/` with a wrong one and
names the tier-1 tests that must kill it.  For each, the script copies the
repository to a temporary directory, applies the mutant there, runs its
named tests on the copy and prints `killed` (some test failed) or
`survived`.  A mutant that survives its named tests is a failure of the map
from mutants to tests, even if the rest of tier-1 would kill it.  With
`--full` each mutant runs against all of tier-1 instead.  The script first
runs the unmutated copy, which must pass every test it is about to use, and
ends with the number of mutants defined and killed.  Names on the command
line pick mutants; by default all run, one after another.  Exit status 1
means a mutant survived.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/permscan/, line as written, line as mutated,
#  node ids of the tier-1 tests that must kill it)
MUTANTS = (
    # observe: what a user sees of a target
    ("editor-unhide-exception", "simulator.py",
     '            or (role == EDITOR and node.kind == "Sheet" and node.protection is None)',
     "            or False",
     ("tests/test_simulator.py::test_check_access_on_random_nodes_matches_the_oracle",)),
    ("protected-owner-exempt", "simulator.py",
     "        if node.protection is not None and role != OWNER and user not in node.protection:",
     "        if node.protection is not None and user not in node.protection:",
     ("tests/test_simulator.py::test_check_access_on_random_nodes_matches_the_oracle",)),
    ("protection-list-sees-hidden", "simulator.py",
     "            or (node.protection is not None and user in node.protection)",
     "            or False",
     ("tests/test_simulator.py::test_check_access_on_random_nodes_matches_the_oracle",)),
    # decide: the three gates
    ("scope-gate-open", "simulator.py",
     '    if grant is not None and "SkipScopeCheck" not in skipped and not scope_covers(grant, operation):',
     "    if False:",
     ("tests/test_simulator.py::test_scope_check_is_level_one",)),
    ("protected-view-denied", "simulator.py",
     "        or (observed.protected and operation in _WRITES)",
     "        or observed.protected",
     ("tests/test_simulator.py::test_check_access_matches_truth_table",
      "tests/test_detector.py::test_e2_role_bypass_protected_range")),
    ("sharing-gate-denies-owner", "simulator.py",
     "        and role != OWNER",
     "        and True",
     ("tests/test_simulator.py::test_sharing_mutation_is_owner_only",)),
    # _apply_effect's sharing branch
    ("share-add-demotes-owner", "simulator.py",
     "            if roles.get(subject_user) == OWNER:",
     "            if False:",
     ("tests/test_simulator.py::test_adding_the_owner_keeps_the_owner",)),
    ("share-remove-drops-owner", "simulator.py",
     "            if subject_user not in roles or roles[subject_user] == OWNER:",
     "            if subject_user not in roles:",
     ("tests/test_classify.py::test_order_and_simulator_follow_the_one_effect_function",)),
    # each distinct access check is decided once: the simulator's cache is
    # keyed by every input of `decide`, the detector's by all it passes
    ("decision-memo-drops-skipped", "simulator.py",
     "    key = (observed, ctx.grant, label, skipped)",
     "    key = (observed, ctx.grant, label)",
     ("tests/test_simulator.py::test_the_decision_cache_keys_every_input_of_decide",)),
    ("decision-memo-drops-grant", "simulator.py",
     "    key = (observed, ctx.grant, label, skipped)",
     "    key = (observed, label, skipped)",
     ("tests/test_simulator.py::test_the_decision_cache_keys_every_input_of_decide",)),
    ("detect-memo-drops-grant", "detector.py",
     "        key = (record.observed, record.grant, label)",
     "        key = (record.observed, label)",
     ("tests/test_detector.py::test_each_grant_gets_its_own_decision",)),
    # sharing_changes: a new root resource is not a sharing change
    ("root-create-is-sharing-change", "executor.py",
     "        if now and (any(r is not None for r in users.values()) or now.keys() - users.keys()):",
     "        if now:",
     ("tests/test_detector.py::test_root_create_and_delete_are_not_sharing_changes",)),
    # the detector's E1 > E3 > E2 order
    ("e3-before-e1", "detector.py",
     "        if decision is DENY_SCOPE:",
     "        if decision is DENY_SCOPE and not record.sharing_changes:",
     ("tests/test_detector.py::test_precedence_e1_over_e3",)),
    # replay: a write that moves the epoch drops every replayable step, and
    # a step is kept only if no call wrote while it ran
    ("sharing-keeps-epoch", "simulator.py",
     "        state.epoch += 1  # any other sharing effect may change a role",
     "        pass",
     ("tests/test_cli.py::test_bundled_pipeline_host_api_calls_are_pinned",
      "tests/test_simulator.py::test_a_write_that_keeps_the_epoch_appends_at_most_one_leaf")),
    ("hide-keeps-epoch", "simulator.py",
     "            state.epoch += 1",
     "            pass",
     ("tests/test_cli.py::test_bundled_pipeline_host_api_calls_are_pinned",
      "tests/test_simulator.py::test_a_write_that_keeps_the_epoch_appends_at_most_one_leaf")),
    ("detach-keeps-epoch", "simulator.py",
     "    state.epoch += 1",
     "    pass",
     ("tests/test_executor.py::test_a_root_create_that_replaces_a_resource_drops_every_step",
      "tests/test_simulator.py::test_a_write_that_keeps_the_epoch_appends_at_most_one_leaf")),
    ("replay-stores-after-content-write", "executor.py",
     "    args = _resolve_args(session, step.params, touched) if step.params else None",
     "    args = _resolve_args(session, step.params, touched) if step.params else None;"
     " writes = session.writes",
     ("tests/test_executor.py::test_a_step_whose_producer_chain_writes_runs_again",)),
    # a create that adds a leaf drops only the kept steps that looked up its
    # kind, their replayed producer chains' lookups included
    ("no-lookup-logged", "simulator.py",
     "        state.lookups.append(kind)",
     "        pass",
     ("tests/test_executor.py::test_a_create_drops_a_step_whose_producer_chain_replayed_its_kind",)),
    ("replay-not-relogged", "executor.py",
     "            lookups.extend(kinds)",
     "            pass",
     ("tests/test_executor.py::test_a_create_drops_a_step_whose_producer_chain_replayed_its_kind",)),
    ("leaf-create-keeps-every-step", "executor.py",
     "        elif label.operation is CREATE and result.node is not None:",
     "        elif False:",
     ("tests/test_executor.py::test_a_create_drops_a_step_whose_producer_chain_replayed_its_kind",)),
    ("leaf-create-drops-every-step", "executor.py",
     "            for dropped in session.by_kind.pop(result.node.kind, ()):",
     "            for dropped in list(reuse):",
     ("tests/test_executor.py::test_a_create_keeps_the_replay_of_other_kinds",)),
    # replay is keyed by a step's value: a loaded suite's equal steps are
    # distinct objects
    ("replay-by-identity", "executor.py",
     "        key = (step, receiver)",
     "        key = (id(step), receiver)",
     ("tests/test_executor.py::test_a_loaded_suite_replays_equal_steps",)),
    # a case's own last step may be a kept step (each API is planned once),
    # but it is the call the record observes, so it always runs
    ("replay-own-last-step", "executor.py",
     "        hit = None if i == last else reuse.get(key)",
     "        hit = reuse.get(key)",
     ("tests/test_executor.py::test_a_prefix_step_passing_true_replays_for_one_passing_1",)),
    # Pruning #2 checks a case's direct dependency, which the suite reader
    # makes sure comes first
    ("pruning-ignores-failed-dependency", "executor.py",
     "    if case.depends_on in session.failed_cases:",
     "    if False:",
     ("tests/test_executor.py::test_pruning_two_skips_dependents_of_failed_case",
      "tests/test_executor.py::test_a_case_is_pruned_iff_an_ancestor_did_not_succeed")),
    ("suite-order-unchecked", "cli.py",
     "    suite = read_json(args.suite, _in_suite_order(build), lines=True)",
     "    suite = read_json(args.suite, build, lines=True)",
     ("tests/test_cli.py::test_run_reads_each_case_after_its_dependency",)),
    # a product is looked up strictly below its receiver
    ("lookup-includes-receiver", "simulator.py",
     "        stack = receiver.children[::-1]",
     "        stack = [receiver]",
     ("tests/test_simulator.py::test_created_root_replaces_resource_with_the_same_id",
      "tests/test_simulator.py::test_workspace_index_matches_tree_walks")),
    # a command runs with the cyclic collector paused
    ("collector-left-running", "cli.py",
     "        gc.disable()",
     "        pass",
     ("tests/test_cli.py::test_main_runs_the_command_with_the_collector_paused",)),
    # only the process entry point freezes the heap before exiting
    ("exit-freeze-dropped", "cli.py",
     "    gc.freeze()",
     "    pass",
     ("tests/test_cli.py::test_only_the_process_entry_point_freezes_the_heap",)),
    # and still exits through `sys.exit`, which flushes stdout
    ("exit-without-flush", "cli.py",
     "    sys.exit(code)",
     '    __import__("os")._exit(code)',
     ("tests/test_cli.py::test_a_spawned_cli_process_writes_the_pins_and_prints_the_report",)),
    # each producer chain is built, and planned, as its parent class's chain
    # plus one step
    ("chain-from-the-root", "graph.py",
     "            heapq.heappush(heap, (length + 1, n_params + parameterized, ids + (api_id,), nxt, cls))",
     "            heapq.heappush(heap, (length + 1, n_params + parameterized, ids + (api_id,), nxt, root))",
     ("tests/test_acceptance.py::test_acceptance_06_shortest_path_oracle",)),
    ("plan-from-the-first-steps-class", "testgen.py",
     "        prefix = plans[producible_class(graph, steps[-2].api_id)].steps if len(steps) > 1 else ()",
     "        prefix = plans[producible_class(graph, steps[0].api_id)].steps if len(steps) > 1 else ()",
     ("tests/test_cli.py::test_gen_output_is_pinned",)),
    # each distinct parameter list is parsed, planned and written once per
    # run: the parse memo is keyed by every (name, kind, type) triple in
    # order, the plan memo by the whole parameter list, and the writer's
    # plans texts live for one call
    ("parse-memo-drops-repeated-names", "catalog.py",
     "        key = tuple(map(_PARAM_KEY, raw))",
     '        key = tuple({p["name"]: _PARAM_KEY(p) for p in raw}.values())',
     ("tests/test_cli.py::test_malformed_input_is_one_line_exit_1"
      "[catalog parameter list seen twice whose second copy repeats a name]",)),
    ("plan-memo-keyed-by-names", "testgen.py",
     "    key = api.params",
     "    key = tuple(p.name for p in api.params)",
     ("tests/test_testgen.py::test_equal_parameter_lists_share_one_plans_tuple",)),
    ("plan-texts-kept-across-writes", "testgen.py",
     "        self.params: dict = {}  # id(step.params) -> the JSON text of its plans",
     '        self.params = globals().setdefault("_plan_texts", {})',
     ("tests/test_testgen.py::test_a_shared_class_typed_parameter_list_names_its_producer_chain_once",)),
    # the suite reader: steps, chains, plans and labels load only as written,
    # and a chain name only after its definition
    ("suite-step-extra-keys", "testgen.py",
     '    if not expect(obj, dict, "step").keys() <= {"api", "params"}:',
     '    if not expect(obj, dict, "step").keys() >= {"api"}:',
     ("tests/test_cli.py::test_malformed_input_is_one_line_exit_1[suite step that holds args]",)),
    ("suite-chain-extra-keys", "testgen.py",
     '    if expect(obj, dict, "chain").keys() != {"name", "parent", "step"}:',
     '    if not expect(obj, dict, "chain").keys() >= {"name", "parent", "step"}:',
     ("tests/test_cli.py::test_malformed_input_is_one_line_exit_1[suite chain that holds produces]",)),
    ("undefined-chain-is-empty", "testgen.py",
     '    found = chains.get(expect(ref, str, "chain name"))',
     '    found = chains.get(expect(ref, str, "chain name"), _NO_CHAIN)',
     ("tests/test_cli.py::test_malformed_input_is_one_line_exit_1[suite chain whose parent is defined after it]",)),
    ("primitive-plan-extra-keys", "testgen.py",
     '        if obj.keys() != {"strategy", "value"}:',
     '        if not obj.keys() >= {"strategy", "value"}:',
     ("tests/test_cli.py::test_malformed_input_is_one_line_exit_1[suite primitive plan with a partner key]",)),
    ("label-operation-lenient", "classify.py",
     '        operation = obj["operation"]  # exactly as `to_json` writes it',
     '        operation = Operation.parse(obj["operation"]).label',
     ('tests/test_cli.py::test_malformed_input_is_one_line_exit_1[suite label whose operation is " VIEW "]',)),
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


def _tests_pass(copy: Path, tests: list) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def _run(mutant, tests: list) -> bool:
    """True if `tests` pass on a copy with `mutant` (None: no mutant) applied."""
    with tempfile.TemporaryDirectory(prefix="permscan-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        for part in ("src", "tests", "perfbench", "pyproject.toml"):
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=IGNORE)
            else:
                shutil.copy2(ROOT / part, copy / part)
        if mutant is not None:
            _apply(copy, *mutant[1:4])
        return _tests_pass(copy, tests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Mutation check of the tier-1 tests.")
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="run all of tier-1 against each mutant, not only its named tests")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]

    def tests_of(mutant) -> list:
        return ["tests"] if args.full else list(mutant[4])

    # the unmutated copy passes every test used below, so each named test
    # exists and a failure under a mutant is the mutant's doing
    if not _run(None, sorted({test for mutant in chosen for test in tests_of(mutant)})):
        raise SystemExit("the unmutated copy fails the tests the mutants are run against")
    killed = 0
    for mutant in chosen:
        start = time.monotonic()
        alive = _run(mutant, tests_of(mutant))
        killed += not alive
        verdict = "killed" if not alive else "survived" if args.full else "survived its named tests"
        print(f"{mutant[0]:34} {verdict:24} {time.monotonic() - start:5.1f} s", flush=True)
    print(f"{len(MUTANTS)} defined, {killed} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
