"""Acceptance criteria, one test per criterion.

Each test prints a single `[acceptance NN] PASS/FAIL` line directly to the
terminal (bypassing capture) so the gate is auditable from the test log,
then asserts.  All tolerances are pinned in-line.
"""

import json
import random
import time
from importlib import resources

import pytest

from synth import make_catalog, oracle_bfs_emission, oracle_shortest_chain, suite_text
from permscan.catalog import load_catalog
from permscan.classify import Operation, classify_api, classify_catalog
from permscan.cli import main
from permscan.detector import detect_full
from permscan.errors import NoProducer
from permscan.executor import (
    OUTCOME_PRUNED,
    OUTCOME_SUCCESS,
    SimulatorBackend,
    run_case,
    run_role_matrix,
    run_scope_ladder,
)
from permscan.graph import build_graph, shortest_producer_path
from permscan.simulator import (
    GRANT_FULL,
    GRANT_READ,
    GRANT_READ_EDIT,
    Decision,
    PermissionLabel,
    Role,
    Subject,
    check_access,
    instantiate_template,
    load_capability_matrix,
    load_faults,
    scope_covers,
)
from permscan.testgen import generate_cases, generate_suite

DATA = resources.files("permscan.data")
SHEETS = load_catalog(str(DATA / "spreadsheet.json"))
MATRIX = load_capability_matrix(str(DATA / "capability_matrix.json"))
TEMPLATE = str(DATA / "template_spreadsheet.json")
LABELS = classify_catalog(SHEETS)
GRAPH = build_graph(SHEETS)
SUITE = generate_suite(GRAPH, LABELS).cases

# 50 random catalogs (<= 15 classes, <= 60 APIs), seed pinned
_SYNTH_SEED = 20260826
_N_CATALOGS = 50


def _synth_catalogs():
    rng = random.Random(_SYNTH_SEED)
    return [make_catalog(rng, max_classes=15, max_apis=60) for _ in range(_N_CATALOGS)]


def _criterion(capsys, num, desc, fn):
    try:
        detail = fn() or ""
        ok = True
    except Exception as exc:  # report the line even when the check blows up
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    with capsys.disabled():
        suffix = f" [{detail}]" if detail else ""
        print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}{suffix}")
    if not ok:
        pytest.fail(f"criterion {num}: {desc} - {detail}")


def test_acceptance_01_containment_soundness(capsys):
    def check():
        state = instantiate_template(TEMPLATE, SHEETS, MATRIX)
        nodes = [n for root in state.resources.values() for n in root.walk()]
        users = sorted(state.users)
        grants = [GRANT_READ, GRANT_READ_EDIT, GRANT_FULL]
        rng = random.Random(1)
        start = time.perf_counter()
        violations = 0
        for _ in range(10_000):
            user = rng.choice(users)
            grant = rng.choice(grants)
            target = rng.choice(nodes)
            label = PermissionLabel(
                rng.choice(list(Operation)), target.kind, rng.random() < 0.3
            )
            decision = check_access(state, Subject(user, grant), label, target)
            if decision is Decision.ALLOW:
                role = state.role_of(user, "spreadsheet1")
                allowed = scope_covers(grant, label.operation) and MATRIX.allows(
                    role, label.operation, label.object_kind
                )
                violations += not allowed
        elapsed = time.perf_counter() - start
        assert violations == 0, f"{violations} allow decisions escaped containment"
        assert elapsed < 5.0, f"{elapsed:.2f}s >= 5s budget"
        return f"10000 queries, 0 violations, {elapsed:.2f}s"

    _criterion(capsys, 1, "containment soundness on 10k randomized queries", check)


def test_acceptance_02_role_monotonicity(capsys):
    def check():
        checked = 0
        for (role, op, kind), allowed in MATRIX.table.items():
            if not allowed:
                continue
            for higher in Role:
                if higher > role:
                    assert MATRIX.allows(higher, op, kind), (role, op, kind, higher)
                    checked += 1
        return f"{checked} implications, exhaustive over the matrix"

    _criterion(capsys, 2, "role monotonicity of the capability matrix", check)


def test_acceptance_03_seeded_fault_detection(capsys):
    def check():
        expected_kind = {
            "SkipScopeCheck": "E1",
            "SkipRoleCheck": "E2",
            "AllowSharingMutation": "E3",
        }
        faults = load_faults(str(DATA / "faults_seeded.json"))
        assert len(faults) == 12
        ground_truth = instantiate_template(TEMPLATE, SHEETS, MATRIX)
        start = time.perf_counter()
        recall = 0
        false_positives = 0
        for fault in faults:
            backend = SimulatorBackend(SHEETS, TEMPLATE, MATRIX, classify_catalog(SHEETS), faults=[fault])
            records = run_role_matrix(SUITE, backend) + run_scope_ladder(SUITE, backend)
            result = detect_full(records, LABELS, MATRIX, ground_truth)
            found = {(f.kind, f.api) for f in result.findings}
            want = (expected_kind[fault.kind], fault.api_pattern)
            recall += want in found
            false_positives += len(found - {want})
        # fault-free control run must stay silent
        backend = SimulatorBackend(SHEETS, TEMPLATE, MATRIX, classify_catalog(SHEETS), faults=[])
        records = run_role_matrix(SUITE, backend) + run_scope_ladder(SUITE, backend)
        clean = detect_full(records, LABELS, MATRIX, ground_truth)
        false_positives += len(clean.findings) + len(clean.potential_only)
        elapsed = time.perf_counter() - start
        assert recall == 12, f"recall {recall}/12"
        assert false_positives == 0, f"{false_positives} false positives"
        assert elapsed < 60.0, f"{elapsed:.1f}s >= 60s budget"
        return f"recall 12/12, 0 false positives, {elapsed:.1f}s"

    _criterion(capsys, 3, "seeded-fault detection recall and precision", check)


def test_acceptance_04_pruning_one_oracle(capsys):
    def check():
        mismatches = 0
        for cat in _synth_catalogs():
            graph = build_graph(cat)
            res = generate_cases(graph, classify_catalog(cat))
            want_emitted, want_excluded, want_pruned = oracle_bfs_emission(cat)
            got_emitted = [c.target_api for c in res.cases]
            mismatches += got_emitted != want_emitted
            mismatches += sorted(a for a, _ in res.excluded) != sorted(want_excluded)
            mismatches += sorted(res.pruned) != sorted(want_pruned)
        assert mismatches == 0, f"{mismatches} oracle mismatches"
        return f"{_N_CATALOGS} catalogs, membership and order equal, 0 mismatches"

    _criterion(capsys, 4, "Pruning #1 equals brute-force BFS oracle", check)


def test_acceptance_05_pruning_two_record_audit(capsys):
    def check():
        backend = SimulatorBackend(SHEETS, TEMPLATE, MATRIX, classify_catalog(SHEETS))
        session = backend.start_session("victor.viewer", GRANT_FULL)
        index = {c.id: c for c in SUITE}
        records = {c.id: run_case(session, c, index) for c in SUITE}

        def dependency_failed(case):
            dep = case.depends_on
            while dep is not None:
                if records[dep].outcome != OUTCOME_SUCCESS:
                    return True
                dep = index[dep].depends_on
            return False

        audited = 0
        for case in SUITE:
            rec = records[case.id]
            if dependency_failed(case):
                assert rec.outcome == OUTCOME_PRUNED, case.target_api
                assert rec.evidence is None and rec.touched == [], case.target_api
                audited += 1
            else:
                assert rec.outcome != OUTCOME_PRUNED, case.target_api
        assert audited > 0, "no failing dependency was exercised"
        return f"{audited} dependent cases pruned, zero executed records for them"

    _criterion(capsys, 5, "Pruning #2 completeness by record audit", check)


def test_acceptance_06_shortest_path_oracle(capsys):
    def check():
        compared = 0
        for cat in _synth_catalogs():
            graph = build_graph(cat)
            for cls in sorted(cat.classes):
                want = oracle_shortest_chain(cat, cls, limit=4)
                if want is None:
                    continue
                runs = []
                for _ in range(3):
                    chain = shortest_producer_path(graph, cls)
                    runs.append(tuple(s.api_id for s in chain.steps))
                assert len(runs[0]) == want, (cls, runs[0], want)
                assert runs[0] == runs[1] == runs[2], f"tie-break unstable for {cls}"
                compared += 1
        assert compared > 0
        return f"{compared} class targets, lengths equal brute force <= 4, 3-run stable"

    _criterion(capsys, 6, "shortest producer path equals exhaustive oracle", check)


def _ordering_violations(cases):
    """Checker over a serialized suite: Create before Delete, and
    collaborator-grant cases before every other sharing case."""
    ops = [c.label.operation for c in cases]
    violations = 0
    creates = [i for i, op in enumerate(ops) if op is Operation.CREATE]
    deletes = [i for i, op in enumerate(ops) if op is Operation.DELETE]
    if creates and deletes and max(creates) > min(deletes):
        violations += 1
    sharing = [
        (i, c) for i, c in enumerate(cases) if c.label.touches_sharing
    ]
    adds = [i for i, c in sharing if c.target_api.split(".")[1].startswith("add")]
    others = [i for i, c in sharing if i not in adds]
    if adds and others and max(adds) > min(others):
        violations += 1
    return violations


def test_acceptance_07_suite_ordering(capsys):
    def check():
        suites = [SUITE]
        for cat in _synth_catalogs():
            suites.append(generate_suite(build_graph(cat), classify_catalog(cat)).cases)
        bad = sum(_ordering_violations(s) for s in suites)
        assert bad == 0, f"{bad} ordering violations"
        return f"{len(suites)} suites checked, 100% satisfy the constraints"

    _criterion(capsys, 7, "suite ordering constraints hold on all suites", check)


def test_acceptance_08_classifier_accuracy(capsys):
    def check():
        corpus = load_catalog(str(DATA / "corpus_catalog.json"))
        truth = json.loads((DATA / "corpus_labels.json").read_text())
        assert len(corpus.apis) == 40
        hits = 0
        for api in corpus.apis.values():
            label, _ = classify_api(api, corpus)
            want = truth[api.id]
            hits += (
                label.operation is Operation.parse(want["operation"])
                and label.touches_sharing == want["touches_sharing"]
            )
        # the two trap APIs must be correct, not just the aggregate
        for trap in (
            "SpreadsheetApp.newAffineTransformBuilder",
            "Spreadsheet.waitForAllDataExecutionsCompletion",
        ):
            label, _ = classify_api(corpus.apis[trap], corpus)
            assert label.operation is Operation.VIEW, trap
        assert hits >= 38, f"{hits}/40 below the 38/40 bound"
        return f"{hits}/40 correct, both traps classified as View"

    _criterion(capsys, 8, "lexicon classifier >= 38/40 on labeled corpus", check)


def test_acceptance_09_fault_free_clean_run(capsys, tmp_path):
    def check():
        out = tmp_path / "clean"
        code = main([
            "pipeline", "--catalog", str(DATA / "spreadsheet.json"),
            "--template", TEMPLATE, "--out-dir", str(out),
        ])
        assert code == 0, f"exit code {code}"
        report = json.loads((out / "report.json").read_text())
        assert report["per_kind"] == {"E1": 0, "E2": 0, "E3": 0}
        assert report["findings"] == [] and report["potential_only"] == []
        return "0 findings, exit code 0"

    _criterion(capsys, 9, "fault-free pipeline run is clean", check)


def test_acceptance_10_determinism(capsys, tmp_path):
    def check():
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            code = main([
                "pipeline", "--catalog", str(DATA / "spreadsheet.json"),
                "--template", TEMPLATE, "--faults", str(DATA / "faults_seeded.json"),
                "--out-dir", str(out), "--seed", "7",
            ])
            assert code == 2
        for name in ("suite.jsonl", "records.jsonl", "report.json", "report.txt"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        # in-process generation is byte-stable as well
        assert suite_text(SUITE) == suite_text(generate_suite(GRAPH, LABELS).cases)
        return "suite, records and both reports byte-identical across runs"

    _criterion(capsys, 10, "same-seed pipeline runs are byte-identical", check)
