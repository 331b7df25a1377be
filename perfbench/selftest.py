"""The benchmark's own tests: python3 perfbench/selftest.py

Tiny-bound smoke passes of every workload through the real harness (child
processes, checker and tracer), the checker against tampered reports, the
self-time arithmetic on a synthetic span tree, and BENCHMARK.json against
the metrics the harness emits.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as harness  # noqa: E402  (puts src/ on sys.path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from freeops import cli  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


class SmokeRuns(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                run = harness.run_workload(name, seed=1, seconds=0, trace=True, smoke=True)
                self.assertEqual(run.failed, 0, run.problems)
                self.assertEqual(run.attempted, 2 * len(workloads.WORKLOADS[name].smoke))
                self.assertEqual(set(run.end_to_end()), {m["name"] for m in BENCHMARK["end_to_end"]})
                self.assertEqual(set(run.per_layer()), per_layer)
                self.assertEqual(run.metadata()["absent"], [])
                self.assertTrue(all(m["value"] > 0 for m in run.end_to_end().values()))


class Checker(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.paths = workloads.write_instances(self.dir, seed=0, pass_index=0)

    def tearDown(self):
        self.tmp.cleanup()

    def answer(self, query, tamper=None):
        """Checker problems for a real run of `query`, optionally tampered."""
        report = self.dir / "report.json"
        code = cli.main(workloads.resolve_argv(query, self.paths) + ["--out", str(report)])
        if tamper is not None:
            data = json.loads(report.read_text())
            code = tamper(data["outcome"], code)
            report.write_text(json.dumps(data))
        tiles = workloads.tiles_for(query.instance, 0, 0) if query.instance else ()
        return workloads.check(query, code, report, tiles)[0]

    def smoke_query(self, workload, subcommand, expect=None):
        for q in workloads.WORKLOADS[workload].smoke:
            if q.subcommand == subcommand and (expect is None or q.expect == expect):
                return q
        raise LookupError(subcommand)

    def test_untampered_reports_pass(self):
        for w in workloads.WORKLOADS.values():
            for q in w.smoke:
                self.assertEqual(self.answer(q), [], q.argv)

    def test_tampered_monotones(self):
        q = self.smoke_query("monotone-report", "monotones")

        def incomplete(out, code):
            out["complete"] = False
            return code

        self.assertTrue(self.answer(q, incomplete))

    def test_tampered_membership(self):
        q = self.smoke_query("semigroup-search", "membership", workloads.FOUND)

        def bad_word(out, code):
            out["membership"]["extracted"] = [1, 2]
            return code

        def disagree(out, code):
            out["statuses_agree"] = False
            return code

        def wrong_code(out, code):
            return workloads.EXIT_EXHAUSTED

        for tamper in (bad_word, disagree, wrong_code):
            with self.subTest(tamper=tamper.__name__):
                self.assertTrue(self.answer(q, tamper))

    def test_tampered_reach_diff_and_scan(self):
        def reachable(out, code):
            out["reach"]["status"] = "reachable"
            return code

        def indistinguishable(out, code):
            out["status"] = "indistinguishable_up_to_depth"
            return code

        def collision(out, code):
            out["collisions"] = [{"word_a": "0", "word_b": "1"}]
            return code

        cases = (
            (self.smoke_query("orbit-reach", "reach"), reachable),
            (self.smoke_query("semigroup-search", "diff"), indistinguishable),
            (self.smoke_query("semigroup-search", "verify-free"), collision),
        )
        for q, tamper in cases:
            with self.subTest(query=q.subcommand):
                self.assertTrue(self.answer(q, tamper))

    def test_crash_and_missing_report_fail(self):
        q = self.smoke_query("orbit-reach", "reach")
        self.assertTrue(workloads.check(q, None, self.dir / "none.json", ())[0])
        self.assertTrue(workloads.check(q, 10, self.dir / "none.json", ())[0])


class Seeds(unittest.TestCase):
    def test_seed_zero_is_listed_order_and_passes_cover_all_orders(self):
        self.assertEqual(workloads.tiles_for("classic3", 0, 0), workloads.INSTANCES["classic3"])
        orders = {workloads.tiles_for("classic3", 7, k) for k in range(6)}
        self.assertEqual(len(orders), 6)
        self.assertEqual(workloads.tiles_for("classic3", 7, 2), workloads.tiles_for("classic3", 7, 2))


def span(i, start, end, parent=None, kernel_s=0.0, name="x"):
    return {
        "id": i,
        "name": name,
        "start": start,
        "end": end,
        "parent": parent,
        "run": 0,
        "kernel_s": kernel_s,
        "counts": {},
    }


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0,10] has children [1,4] and [3,6] (overlapping) and [8,12]
        # (sticking out); [1,4] has a child [2,3].
        spans = [
            span(0, 0.0, 10.0, name="root"),
            span(1, 1.0, 4.0, 0, name="a"),
            span(2, 3.0, 6.0, 0, kernel_s=1.0, name="b"),
            span(3, 8.0, 12.0, 0, name="c"),
            span(4, 2.0, 3.0, 1, name="a"),
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})
        ranking = dict(
            tracing.self_time_ranking(
                {"spans": spans, "kernels": {"k": {"calls": 1, "s": 1.0, "self_s": 1.0}}}
            )
        )
        self.assertEqual(ranking, {"root": 3.0, "a": 3.0, "b": 2.0, "c": 4.0, "k": 1.0})

    def test_layer_values(self):
        trace = {
            "spans": [
                span(0, 0.0, 2.0, name="reduction.theory_diff"),
                span(1, 2.0, 3.0, name="resourcegraph.explore"),
            ],
            "kernels": {"exact.matmul": {"calls": 3, "s": 0.5, "self_s": 0.5, "mults": 24}},
        }
        trace["spans"][0]["counts"] = {"nodes": 4}
        trace["spans"][1]["counts"] = {"states": 9, "added": 8, "applications": 10}
        value = lambda name: tracing.layer_value(trace, name)  # noqa: E731
        self.assertEqual(value("reduction.theory_diff.s_per_node"), 0.5)
        self.assertEqual(value("resourcegraph.explore.new_frac"), 0.8)
        self.assertEqual(value("exact.matmul.mults"), 24)
        self.assertEqual(value("reduction.phase_canonical.calls"), 0)
        self.assertEqual(value("pcp.solve_bounded.s"), 0)

    def test_missing_names_are_absent(self):
        self.assertIsNone(tracing._resolve("freeops.reduction", "no_such_function"))
        self.assertIsNone(tracing._resolve("freeops.exact", "NoSuchClass.method"))
        self.assertIsNone(tracing._resolve("freeops.no_such_module", "f"))
        t = tracing.Tracer()
        t._patch("freeops.reduction", "no_such_function", "reduction.gone", lambda fn: fn)
        self.assertEqual(t.absent, ["reduction.gone"])

    def test_install_and_uninstall_restore_the_package(self):
        from freeops import exact, reduction

        before = (exact.ExactMatrix.__matmul__, reduction.phase_canonical, cli.canonical_json)
        t = tracing.Tracer().install()
        self.assertEqual(t.absent, [])
        self.assertIsNot(reduction.phase_canonical, before[1])
        t.uninstall()
        after = (exact.ExactMatrix.__matmul__, reduction.phase_canonical, cli.canonical_json)
        self.assertEqual(before, after)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]], list(harness.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
            [(n, harness.layer_unit(n)) for n in harness.SPAN_LAYERS + harness.HARNESS_LAYERS],
        )

    def test_tail_percentile(self):
        self.assertIsNone(harness.tail_percentile([1.0] * 10))
        tail = harness.tail_percentile([float(i) for i in range(1, 21)])
        self.assertEqual((tail["percentile"], tail["value"], tail["samples"]), (50, 10.0, 20))


if __name__ == "__main__":
    unittest.main()
