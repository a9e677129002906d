"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

They cover the input generator, the self-time arithmetic, the division by
the reference work, the tracer's tolerance of missing hooks, and the output
checks.  One test runs the bundled pipeline in-process from the
checkout's `src/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


class _TempDir(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class GeneratorTest(_TempDir):
    def _files(self, workload: str, seed: int, name: str) -> dict:
        paths = inputs.write_inputs(workload, seed, self.tmp / name)
        return {key: path.read_bytes() for key, path in paths.items()}

    def test_same_seed_gives_identical_bytes(self):
        for workload in ("gen-deep-catalog", "campaign-reads", "campaign-writes"):
            with self.subTest(workload=workload):
                first = self._files(workload, 7, f"{workload}-a")
                self.assertEqual(first, self._files(workload, 7, f"{workload}-b"))
                self.assertNotEqual(first, self._files(workload, 8, f"{workload}-c"))

    def test_campaigns_keep_fail_open_inputs(self):
        for workload in ("campaign-reads", "campaign-writes"):
            catalog = json.loads(inputs.write_inputs(workload, 1, self.tmp / workload)["catalog"]
                                 .read_text(encoding="utf-8"))
            root_apis = [a for a in catalog["apis"] if a["parent_class"] == catalog["root"]]
            with self.subTest(workload=workload):
                self.assertTrue(any("void" in a["returns"] and a["method"].startswith("set")
                                    for a in root_apis))
                self.assertTrue(any("primitive" in a["returns"] for a in root_apis))
            if workload == "campaign-writes":
                methods = {a["method"].rstrip("0123456789") for a in root_apis}
                self.assertLessEqual({"addEditor", "removeViewer", "setOwner"}, methods)

    def test_deep_catalog_has_class_typed_params(self):
        catalog = inputs.deep_catalog(random.Random(1))
        with_class = [a for a in catalog["apis"] if any(p["kind"] == "class" for p in a["params"])]
        self.assertGreater(len(with_class), len(catalog["apis"]) // 5)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 5.0, 7.0, 0],
            ["c", 6.0, 9.0, 0],  # overlaps b: [5, 9] is covered once
            ["a.child", 2.0, 3.0, 1],
            ["late", 11.0, 12.0, -1],
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 2.0, 3.0, 1.0, 1.0])

    def test_child_outside_parent_is_clipped(self):
        spans = [["p", 0.0, 2.0, -1], ["c", 1.0, 5.0, 0]]
        self.assertEqual(tracer.self_times(spans), [1.0, 4.0])

    def test_layer_metrics_use_self_time(self):
        t = tracer.Tracer()
        t.spans.extend([
            ["testgen.generate", 0.0, 10.0, -1],
            ["graph.shortest_path", 1.0, 4.0, 0],
            ["graph.shortest_path", 5.0, 6.0, 0],
            ["executor.run_case", 20.0, 30.0, -1],
            ["executor.chain", 21.0, 24.0, 3],
            ["simulator.invoke", 22.0, 23.0, 4],
            ["executor.chain", 25.0, 29.0, 3],
            ["simulator.invoke", 26.0, 27.0, 6],
            ["simulator.resource_of", 26.2, 26.7, 7],
        ])
        m = tracer.layer_metrics(t)
        self.assertEqual(m["testgen.generate_s"], 10.0)
        self.assertEqual(m["testgen.self_s"], 6.0)
        self.assertEqual(m["graph.shortest_path_calls"], 2)
        self.assertEqual(m["graph.shortest_path_s"], 4.0)
        self.assertEqual(m["executor.records"], 1)
        self.assertEqual(m["executor.combo_retries"], 1)
        self.assertEqual(m["executor.steps_per_case"], 2)
        self.assertAlmostEqual(m["simulator.invoke_self_s"], 1.5)
        self.assertEqual(set(m), set(tracer.LAYER_METRICS))


class ReferenceTest(unittest.TestCase):
    def test_each_iteration_is_divided_by_the_references_around_it(self):
        refs = iter([1.0, 3.0, 2.0])
        walls = iter([4.0, 5.0])
        its = worker.timed_phase(0.0, lambda: {"wall_s": next(walls)}, min_runs=2,
                                 reference=lambda: next(refs))
        self.assertEqual([it["ref_s"] for it in its], [2.0, 2.5])
        self.assertEqual([it["wall_vs_ref"] for it in its], [2.0, 2.0])

    def test_reference_work_is_fixed(self):
        self.assertEqual(reference._kernel(), reference._kernel())
        self.assertGreater(reference.reference_s(), 0.0)


class TracerToleranceTest(unittest.TestCase):
    def test_missing_hooks_are_listed_and_read_zero(self):
        hooks = (
            ("permscan.executor", "no_such_function", "executor.chain", "span"),
            ("permscan.simulator", "NoSuchClass.node", "simulator.node", "span"),
            ("no_such_module", "f", "graph.build", "span"),
        )
        t = tracer.Tracer().install(hooks)
        t.uninstall()
        self.assertEqual(len(t.missing), 3)
        m = tracer.layer_metrics(t)
        self.assertEqual(m["tracer.missing_hooks"], 3)
        self.assertEqual(m["executor.combo_retries"], 0)
        self.assertEqual(m["simulator.node_lookups"], 0)

    def test_install_and_uninstall_restore_originals(self):
        import permscan.executor as executor
        import permscan.simulator as simulator

        before = (executor.invoke_host_api, simulator.WorkspaceState.node)
        t = tracer.Tracer().install()
        self.assertEqual(t.missing, [])
        self.assertIsNot(executor.invoke_host_api, before[0])
        t.uninstall()
        self.assertEqual((executor.invoke_host_api, simulator.WorkspaceState.node), before)


class OutputCheckTest(_TempDir):
    @classmethod
    def setUpClass(cls):
        faults = json.loads((run.DATA / "faults_seeded.json").read_text(encoding="utf-8"))
        cls.expected = run.expected_pairs(faults)

    def _bundled_report(self) -> dict:
        from permscan import cli

        argv = ["pipeline", "--catalog", run.DATA / "spreadsheet.json",
                "--template", run.DATA / "template_spreadsheet.json",
                "--faults", run.DATA / "faults_seeded.json", "--out-dir", self.tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cli.main([str(a) for a in argv]), 2)
        return json.loads((self.tmp / "report.json").read_text(encoding="utf-8"))

    def test_expected_pairs_from_manifest(self):
        self.assertEqual(len(self.expected), 12)
        self.assertEqual({kind for kind, _ in self.expected}, {"E1", "E2", "E3"})

    def test_bundled_report_passes_and_tampering_is_rejected(self):
        report = self._bundled_report()
        self.assertEqual(run.check_seeded_report(report, self.expected), [])
        self.assertEqual(run.false_findings(report, self.expected), 0)

        # the check compares (kind, api) pairs, so drop a finding whose pair
        # no other finding repeats
        pairs = [(f["kind"], f["api"]) for f in report["findings"]]
        victim = next(f for f, pair in zip(report["findings"], pairs) if pairs.count(pair) == 1)
        dropped = json.loads(json.dumps(report))
        dropped["findings"].remove(victim)
        self.assertTrue(run.check_seeded_report(dropped, self.expected))

        added = json.loads(json.dumps(report))
        added["findings"].append(dict(victim, kind="E1", api="Sheet.getRange"))
        self.assertTrue(run.check_seeded_report(added, self.expected))
        self.assertEqual(run.false_findings(added, self.expected), 1)

        potential = json.loads(json.dumps(report))
        potential["potential_only"] = [victim]
        self.assertTrue(run.check_seeded_report(potential, self.expected))

    def test_iteration_checks(self):
        ok = {"rc": 2, "error": None, "digests": {"report.json": "aa"}}
        iterations = [
            dict(ok),
            dict(ok),
            dict(ok, digests={"report.json": "bb"}),
            dict(ok, rc=1),
            dict(ok, digests={}),
            dict(ok, error="KeyError: 'x'"),
            dict(ok, report_problems=["missed seeded faults"]),
        ]
        self.assertEqual(run.check_iterations(iterations, (2,), ("report.json",)), 5)
        self.assertEqual([bool(it["problems"]) for it in iterations],
                         [False, False, True, True, True, True, True])


if __name__ == "__main__":
    unittest.main()
