"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root.  The last test runs one traced pass of
every workload and takes about a minute.
"""

import itertools
import json
import os
import shutil
import sys
import time
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = run.ROOT


def span(job, sid, name, parent, start, end):
    return {"job": job, "id": sid, "name": name, "parent": parent,
            "start": start, "end": end}


def grid_dist(rows, cols):
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    return cells, lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1])


def workdir(tag):
    path = os.path.join(ROOT, ".perfbench", "%s-%d" % (tag, os.getpid()))
    os.makedirs(path)
    return path


class SpanArithmetic(unittest.TestCase):

    def test_self_time_is_duration_minus_child_coverage(self):
        tree = [span("a", 0, "job", None, 0.0, 10.0),
                span("a", 1, "cli.main", 0, 1.0, 9.0),
                span("a", 2, "cubes.extract", 1, 2.0, 6.0),
                span("a", 3, "model.measure_model", 2, 3.0, 5.5),
                span("a", 4, "chhs.build_w", 1, 6.0, 8.0),
                # a second job reusing ids must not mix with the first
                span("b", 0, "job", None, 20.0, 21.0),
                span("b", 1, "cli.main", 0, 20.5, 20.75)]
        own = spans.self_times(tree)
        self.assertEqual(own[("a", 0)], 2.0)
        self.assertEqual(own[("a", 1)], 2.0)
        self.assertEqual(own[("a", 2)], 1.5)
        self.assertEqual(own[("a", 3)], 2.5)
        self.assertEqual(own[("a", 4)], 2.0)
        self.assertEqual(own[("b", 0)], 0.75)
        # layers: extract, measure_model and build_w in a, none in b
        self.assertEqual(spans.layer_time(tree), 1.5 + 2.5 + 2.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        tree = [span("a", 0, "job", None, 0.0, 10.0),
                span("a", 1, "x", 0, 1.0, 4.0),
                span("a", 2, "y", 0, 3.0, 6.0),
                span("a", 3, "z", 0, 9.0, 12.0)]
        self.assertEqual(spans.self_times(tree)[("a", 0)], 10.0 - 5.0 - 1.0)

    def test_layer_metrics_split_self_from_inclusive_time(self):
        tree = [span("a", 0, "job", None, 0.0, 10.0),
                span("a", 1, "cli.main", 0, 1.0, 9.0),
                span("a", 2, "cubes.extract", 1, 1.0, 5.0),
                span("a", 3, "model.measure_model", 2, 2.0, 4.5),
                span("a", 4, "chhs.thresholds", 1, 5.0, 8.0),
                span("a", 5, "chhs.class_delta", 4, 7.0, 7.5)]
        got = spans.layer_metrics(tree, {"model.dist_calls": 7},
                                  {"model.points": 3}, 42)
        self.assertEqual(got["job.self_s"], 2.0)
        self.assertEqual(got["cli.self_s"], 1.0)
        self.assertEqual(got["cubes.extract_self_s"], 1.5)
        self.assertEqual(got["model.measure_model_s"], 2.5)
        self.assertEqual(got["model.measure_model_calls"], 1)
        self.assertEqual(got["chhs.thresholds_s"], 3.0)
        self.assertEqual(got["chhs.class_delta_s"], 0.5)
        self.assertEqual(got["cubes.four_point_delta_s"], 0)
        self.assertEqual(got["model.dist_calls"], 7)
        self.assertEqual(got["model.points"], 3)
        self.assertEqual(got["cli.input_bytes"], 42)


class Pace(unittest.TestCase):

    def test_times_read_at_the_reference_pace(self):
        ref = pace.REFERENCE_S
        self.assertEqual(pace.factor(ref, ref), 1.0)
        self.assertEqual(pace.factor(ref / 2, ref * 1.5), 1.0)
        self.assertEqual(pace.factor(ref * 2, ref * 2), 0.5)
        slow = [run.Result(None, 0.0, t, 1.0, 10.0, 0, "", [], {}, 0.5)
                for t in (4.0, 5.0, 9.0)]
        fast = [run.Result(None, 0.0, 1.0, 0.25, 20.0, 0, "", [], {})]
        got = run.pass_metrics([slow, fast])
        self.assertEqual(got["wall_s"], 2.5 + 1.0)
        self.assertEqual(got["slowest_job_s"], 2.5)
        self.assertEqual(got["peak_rss_mb"], 20.0)
        self.assertEqual(got["setup_s"], 0.5)
        self.assertGreater(pace.calibrate(), 0)

    def test_overhead_ratio_is_resolved_only_beyond_pair_spread(self):
        def runs(*times):
            return [run.Result(None, 0.0, t, 0.1, 1.0, 0, "", [], {})
                    for t in times]

        plain = [runs(10.0, 10.0, 10.0), runs(1.0, 1.0)]
        ratio, note = run.overhead(plain, [runs(11.0, 11.5, 10.5),
                                           runs(1.1, 1.1)])
        self.assertAlmostEqual(ratio, 12.1 / 11.0)
        self.assertTrue(note.endswith(": resolved"), note)
        ratio, note = run.overhead(plain, [runs(9.0, 11.5, 10.0),
                                           runs(1.0, 1.0)])
        self.assertAlmostEqual(ratio, 11.0 / 11.0)
        self.assertIn("unresolved", note)
        _, note = run.overhead([runs(10.0)], [runs(12.0)])
        self.assertIn("unresolved: 1 pair", note)


class Inputs(unittest.TestCase):

    def test_seeded_grids_stay_under_the_cap_and_near_default(self):
        for seed in range(1000):
            for job, (rows, cols) in workloads.grid_shapes(seed).items():
                default = workloads.GRID_SHAPES[job][0]
                self.assertLessEqual(rows * cols, workloads.MAX_GRID_VERTICES)
                self.assertLessEqual(abs(rows * cols - default),
                                     0.1 * default)
        self.assertLess(9 * workloads.MAX_GRID_VERTICES ** 3, 100 * 2 ** 20)

    def test_seed_fixes_the_jobs(self):
        path = workdir("seed")
        try:
            a = [j.argv for j in workloads.make_jobs("grid-scale", 3, path)]
            b = [j.argv for j in workloads.make_jobs("grid-scale", 3, path)]
            self.assertEqual(a, b)
            orders = set(tuple(j.name for j in
                               workloads.make_jobs("glued-verify", s, path))
                         for s in range(20))
            self.assertGreater(len(orders), 1)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_grid_text_matches_the_bundled_fixture(self):
        with open(os.path.join(ROOT, "fixtures", "grid.cplx")) as handle:
            self.assertEqual(workloads.complex_text(7, 7), handle.read())

    def test_prepared_models(self):
        data = os.path.join(ROOT, workloads.DATA)
        with open(os.path.join(data, "gamma4.model"), "rb") as a, \
                open(os.path.join(ROOT, "fixtures", "gamma4.model"),
                     "rb") as b:
            self.assertEqual(a.read(), b.read())
        with open(os.path.join(data, "gamma6.idx")) as handle:
            idx = handle.read().splitlines()
        with open(os.path.join(data, "gamma6.model")) as handle:
            model = handle.read().splitlines()
        self.assertEqual(model[1:1 + len(idx)], idx)
        self.assertEqual(model[1 + len(idx)], "E 3")

    def test_grid_four_point_delta_is_min_side_minus_one(self):
        for rows, cols in ((2, 3), (3, 3), (3, 4), (4, 4)):
            cells, d = grid_dist(rows, cols)
            best = 0
            for x, y, z, w in itertools.product(cells, repeat=4):
                sums = sorted((d(x, y) + d(z, w), d(x, z) + d(y, w),
                               d(x, w) + d(y, z)))
                best = max(best, sums[2] - sums[1])
            self.assertEqual(best / 2.0, min(rows, cols) - 1)


class KnownAnswers(unittest.TestCase):

    def setUp(self):
        self.dir = workdir("test")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_checker_fires_on_a_doctored_line(self):
        job = [j for j in workloads.make_jobs("glued-verify", 1, self.dir)
               if j.name == "lattice gamma6"][0]
        got = run.run_job(job, "k", self.dir, False, time.monotonic() + 60)
        self.assertEqual(got.problems, [])
        self.assertEqual(workloads.check(job, got.code, got.stdout), [])
        self.assertGreater(got.setup_s, 0)
        self.assertGreater(got.wall_s, got.setup_s)
        self.assertGreater(got.rss_mb, 1)

        doctored = list(job.verdicts)
        doctored[0] = doctored[0].replace("[c23]", "[c24]")
        job.verdicts = tuple(doctored)
        self.assertEqual(len(workloads.check(job, got.code, got.stdout)), 1)
        job.verdicts = ()
        job.lines = job.lines + ("extension_found=true",)
        problems = workloads.check(job, 0, got.stdout)
        self.assertEqual(len(problems), 3)


class BenchmarkSpec(unittest.TestCase):

    def test_spec_lists_exactly_what_the_run_measures(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))
        e2e = set(run.pass_metrics([[run.Result(None, 0.0, 1.0, 0.5, 1.0, 0,
                                                "", [], {})]]))
        self.assertEqual(set(e["name"] for e in spec["end_to_end"]), e2e)
        layer = set(spans.layer_metrics([], {}, {}, 0))
        self.assertEqual(set(e["name"] for e in spec["per_layer"]),
                         layer | {"trace.overhead_ratio"})
        for entry in spec["end_to_end"]:
            self.assertGreater(entry["bound"], 0, entry["name"])
            self.assertLessEqual(entry["bound"], 0.25, entry["name"])


class TracedWorkloads(unittest.TestCase):
    """One traced pass of every workload: every span is hit somewhere,
    the layer spans account for the time inside the entry points, and
    each workload bypasses the layers it should."""

    # share of the time inside the entry points that may lie outside
    # every layer span: cli's own parsing, file reading and printing
    UNATTRIBUTED_MAX = 0.02

    def test_traced_passes(self):
        path = workdir("trace")
        hit = set()
        layers = {}
        try:
            for name in sorted(workloads.WORKLOADS):
                jobs = workloads.make_jobs(name, 1, path)
                results = [run.run_job(job, "%s-%d" % (name, i), path, True,
                                       time.monotonic() + 170)
                           for i, job in enumerate(jobs)]
                for r in results:
                    self.assertEqual(r.problems, [], r.job.name)
                    hit.update(s[1] for s in r.record["spans"])
                layers[name], split = run.traced_layers(results)
                wall = sum(r.wall_s for r in results)
                self.assertAlmostEqual(split["outside_s"] + split["entry_s"],
                                       wall, delta=1e-6 * wall)
                # the job roots keep only the time outside the entry
                # points, which the jobs measured without spans
                self.assertAlmostEqual(layers[name]["job.self_s"],
                                       split["outside_s"],
                                       delta=1e-3 * wall, msg=name)
                self.assertLess(split["unattributed_s"],
                                self.UNATTRIBUTED_MAX * split["entry_s"],
                                name)
                self.assertGreaterEqual(split["unattributed_s"],
                                        layers[name]["cli.self_s"], name)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        hit.add(spans.ROOT_SPAN)
        self.assertEqual(sorted(set(spans.SPAN_NAMES) - hit), [])

        verify = layers["glued-verify"]
        for key, value in verify.items():
            if key.startswith("cubes."):
                self.assertEqual(value, 0, key)
        self.assertEqual(verify["model.measure_model_calls"], 0)
        self.assertGreater(verify["model.dist_calls"], 0)
        build = layers["glued-build"]
        self.assertEqual(build["chhs.coordinate_graph_calls"], 0)
        self.assertGreater(build["model.measure_model_calls"], 0)
        grid = layers["grid-scale"]
        self.assertGreater(grid["cubes.four_point_delta_s"], 0)
        self.assertGreater(grid["cubes.validate_peak_mb"], 0)


if __name__ == "__main__":
    unittest.main()
