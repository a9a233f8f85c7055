"""Self-test of the benchmark: span arithmetic, tracer hygiene, and a tiny
run of each workload.  Run from the repository root with

    python3 -m unittest discover -s perfbench
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def _span(name, start, end, parent, ring_s=0.0):
    return [name, start, end, parent, ring_s]


class SelfTimeTest(unittest.TestCase):
    # root [0, 10] with ring time 1; children a [1, 4] and b [3, 6] overlap
    # (union 5), c [8, 12] runs past the root and counts only up to 10;
    # a has one child d [2, 3].
    SPANS = [
        _span("root", 0.0, 10.0, -1, ring_s=1.0),
        _span("a", 1.0, 4.0, 0),
        _span("d", 2.0, 3.0, 1),
        _span("b", 3.0, 6.0, 0),
        _span("c", 8.0, 12.0, 0),
        _span("a", 20.0, 21.5, -1),
    ]

    def test_self_times(self):
        got = tracer.self_times(self.SPANS)
        self.assertEqual(got, [10 - 5 - 2 - 1, 3 - 1, 1, 3, 4, 1.5])

    def test_aggregate_sums_by_name(self):
        agg = tracer.aggregate(self.SPANS)
        self.assertEqual(agg["a"], (2, 2 + 1.5, 3 + 1.5))
        self.assertEqual(agg["root"], (1, 2.0, 10.0))

    def test_inclusive_under_ancestor(self):
        # d sits under root through a; the second a has no root above it
        self.assertEqual(tracer.inclusive_under(self.SPANS, "d", "root"), 1.0)
        self.assertEqual(tracer.inclusive_under(self.SPANS, "a", "root"), 3.0)

    def test_covered_clips_and_merges(self):
        self.assertEqual(tracer._covered([(0, 2), (1, 3), (5, 9)], 1, 6), 3)
        self.assertEqual(tracer._covered([], 0, 1), 0)


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_site_and_uninstall_restores(self):
        lr = run.import_lrpairs()
        det = lr.matrix.det
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(lr.matrix.det, det)
            self.assertIs(lr.generic.det, lr.matrix.det)
            self.assertIs(sys.modules["lrpairs"].det, lr.matrix.det)
            lr.ring.T * lr.ring.T - lr.ring.ONE
            self.assertEqual(dict(tr.counters), {"ring.mul_calls": 1, "ring.add_calls": 1})
            m = lr.matrix.RMatrix([[lr.ring.T, lr.ring.ONE], [lr.ring.ZERO, lr.ring.ONE]])
            self.assertEqual(lr.generic.det(m), lr.ring.T)
        finally:
            tr.uninstall()
        self.assertIs(lr.matrix.det, det)
        self.assertIs(lr.generic.det, det)
        self.assertEqual(tracer.still_wrapped(), [])
        self.assertEqual([s[tracer.NAME] for s in tr.spans], ["matrix.det"])


class TinyRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lr = run.import_lrpairs()
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def _items(self, wl, state, ks):
        items = [run.run_item(wl, self.lr, state, k) for k in ks]
        self.assertEqual([it.error for it in items], [""] * len(items))
        self.assertTrue(all(it.ok for it in items))
        return items

    def test_roundtrip_two_items(self):
        wl = run.WORKLOADS["roundtrip"]
        self._items(wl, wl.setup(self.lr, 5, pool_blocks=1), (0, 1))

    def test_orbit_replay_one_item(self):
        wl = run.WORKLOADS["orbit-replay"]
        it, = self._items(wl, wl.setup(self.lr, 5, pool_blocks=1), (0,))
        self.assertGreater(it.replay_s, 0)

    def test_staircase_same_seed_twice(self):
        wl = run.WORKLOADS["staircase"]
        state = wl.setup(self.lr, 5)
        a, b = self._items(wl, state, (0, 2))     # r = 5 twice, one CLI seed
        self.assertEqual(a.answer, b.answer)
        self.assertEqual(len(state["digests"]), 1)

    def test_wrong_answer_and_raised_error_are_failed_items(self):
        wl = run.WORKLOADS["roundtrip"]
        state = wl.setup(self.lr, 5, pool_blocks=1)
        good = run.run_item(wl, self.lr, state, 0)
        filling, mu, nu, lam = state["pool"][0]
        wrong_lam = self.lr.tableaux.Partition(tuple(lam) + (1,))
        state["pool"][0] = (filling, mu, nu, wrong_lam)
        wrong = run.run_item(wl, self.lr, state, 0)

        class Raising:
            def item(self, lr, state, k):
                raise lr.errors.RetriesExhaustedError(20, "equation_first")

        raised = run.run_item(Raising(), self.lr, state, 0)
        self.assertTrue(good.ok)
        self.assertFalse(wrong.ok)
        self.assertIn("drawn", wrong.error)
        self.assertFalse(raised.ok)
        self.assertIn("RetriesExhaustedError", raised.error)

    def test_end_to_end_metrics_match_spec(self):
        wl = run.WORKLOADS["roundtrip"]
        items = self._items(wl, wl.setup(self.lr, 5, pool_blocks=1), (0, 1))
        got = run.end_to_end(items, [0.5])
        self.assertEqual(set(got), {m["name"] for m in self.spec["end_to_end"]})
        self.assertTrue(all(v > 0 for v, _ in got.values()))

    def test_traced_run_reports_every_layer_metric(self):
        wl = run.WORKLOADS["roundtrip"]
        state = wl.setup(self.lr, 5, pool_blocks=1)
        plain, traced, tr, stats = run.run_traced(wl, self.lr, state, 2)
        self.assertEqual([a.answer for a in plain], [b.answer for b in traced])
        self.assertEqual(tracer.still_wrapped(), [])
        self.assertEqual(stats["attempts"], 2)
        got = run.per_layer(tr, stats, plain, traced)
        self.assertEqual(set(got), {m["name"] for m in self.spec["per_layer"]})
        self.assertGreater(got["ring.mul_calls"][0], 0)
        self.assertGreater(got["realize.realize_s"][0], 0)


class StartFailureTest(unittest.TestCase):
    def test_without_src_exits_nonzero_and_prints_no_result(self):
        bare = run.OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "roundtrip",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120, check=False)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
