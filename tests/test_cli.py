"""End-to-end checks of the command line driver.

Most cases call main() in process and capture the streams; a few go
through a real subprocess to pin down argparse exit codes and
byte-level determinism.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

import pytest

from hhsforge import chhs, cli, cubes, model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fix(name):
    return os.path.join(ROOT, "fixtures", name)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as stop:
        code = stop.code
    return code, out.getvalue(), err.getvalue()


def run_proc(args):
    return subprocess.run([sys.executable, "-m", "hhsforge.cli"] + args,
                          capture_output=True, text=True, cwd=ROOT)


class TestIndexSetCommand(unittest.TestCase):

    def test_b3_all_green(self):
        code, out, err = run_cli("check-indexset", fix("b3.idx"))
        self.assertEqual(code, 0)
        self.assertEqual(err, "")
        lines = out.splitlines()
        self.assertEqual(lines[0], "domains=7")
        props = [l for l in lines if l.startswith("property=")]
        self.assertEqual(len(props), 9)
        for line in props:
            self.assertTrue(line.endswith("verdict=true"), line)

    def test_wrong_file_kind_is_a_usage_error(self):
        code, out, err = run_cli("check-indexset", fix("square.cplx"))
        self.assertEqual(code, 2)
        self.assertIn("error:", err)


class TestLatticeCommand(unittest.TestCase):

    def test_hexagon_fails_with_witness_and_replay(self):
        code, out, err = run_cli("lattice", fix("o6.idx"))
        self.assertEqual(code, 1)
        lines = out.splitlines()
        self.assertEqual(lines[0], "elements=6")
        self.assertEqual(lines[1],
                         "property=orthomodular verdict=false witness=a,bp")
        self.assertTrue(lines[2].startswith("replay="))
        self.assertIn("extension_found=true", lines)
        self.assertIn("extension_target=boolean(3)", lines)

    def test_cube_lattice_is_orthomodular(self):
        code, out, err = run_cli("lattice", fix("b3.idx"))
        self.assertEqual(code, 0)
        self.assertIn("property=orthomodular verdict=true", out.splitlines())
        self.assertIn("extension_target=self", out.splitlines())

    def test_oversized_search_is_rejected(self):
        code, out, err = run_cli("lattice", fix("o6.idx"), "--max-size", "99")
        self.assertEqual(code, 2)
        self.assertIn("cap exceeded", err)


class TestCubesCommand(unittest.TestCase):

    def test_square_report_is_frozen(self):
        code, out, err = run_cli("cubes", fix("square.cplx"))
        self.assertEqual(code, 0)
        self.assertEqual(out.splitlines(), [
            "vertices=4",
            "edges=4",
            "hyperplanes=2",
            "classes=3",
            "chain_length=2",
            "weak_factor_system=true",
            "property=complement_involution verdict=true",
            "domains=3",
            "E=1",
        ])

    def test_emit_minorth_writes_dot(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.dot")
            code, out, err = run_cli("cubes", fix("grid.cplx"),
                                     "--emit-minorth", path)
            self.assertEqual(code, 0)
            with open(path) as handle:
                text = handle.read()
        self.assertTrue(text.startswith("graph minorth {"))
        self.assertIn('"[c0]" -- "[c1]";', text)


class TestCounterexampleCommand(unittest.TestCase):

    def test_depth_six_emits_figure_graph(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.dot")
            code, out, err = run_cli("counterexample", "--depth", "6",
                                     "--emit-minorth", path)
            self.assertEqual(code, 0)
            with open(path) as handle:
                text = handle.read()
        lines = out.splitlines()
        self.assertEqual(lines[0], "depth=6")
        self.assertIn("collapsed_E=3", lines)
        self.assertTrue(text.startswith("graph minorth {"))
        for label in ("[Sigma]", "[Delta]", "[Gamma1]", "[-1]", "[0]", "[9]"):
            self.assertIn('"%s"' % label, text)

    def test_dot_format_streams_the_same_graph(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.dot")
            code, out, err = run_cli("counterexample", "--depth", "3",
                                     "--format", "dot",
                                     "--emit-minorth", path)
            self.assertEqual(code, 0)
            with open(path) as handle:
                text = handle.read()
        self.assertEqual(out, text.rstrip("\n") + "\n")


class TestBlowupCommand(unittest.TestCase):

    def test_square_counts(self):
        code, out, err = run_cli("blowup", fix("square.cplx"))
        self.assertEqual(code, 0)
        lines = out.splitlines()
        self.assertIn("vertices=6", lines)
        self.assertIn("edges=13", lines)
        self.assertIn("maximal_simplices=4", lines)
        self.assertIn("classes=16", lines)

    def test_model_input(self):
        code, out, err = run_cli("blowup", fix("product.model"))
        self.assertEqual(code, 0)
        self.assertIn("maximal_simplices=9", out.splitlines())


class TestBuildWCommand(unittest.TestCase):

    def test_header_and_counts(self):
        code, out, err = run_cli("build-w", fix("square.cplx"))
        self.assertEqual(code, 0)
        lines = out.splitlines()
        self.assertEqual(lines[0], "E=1 kappa=20")
        self.assertEqual(lines[1],
                         "C0=1 M0=2 lambda0=2 lambda1=2 lambda2=4 lambda=4")
        self.assertIn("w_vertices=4", lines)
        self.assertIn("w_edges=6", lines)
        self.assertIn("w_connected=true", lines)

    def test_lambda_override_thins_the_graph(self):
        code, out, err = run_cli("build-w", fix("grid.cplx"))
        self.assertIn("w_edges=1176", out.splitlines())
        code, out, err = run_cli("build-w", fix("grid.cplx"),
                                 "--lambda", "1")
        self.assertEqual(code, 0)
        edges = int([l for l in out.splitlines()
                     if l.startswith("w_edges=")][0].split("=")[1])
        self.assertLess(edges, 1176)
        self.assertIn("lambda=1", out.splitlines()[1])

    def test_nonpositive_lambda_is_rejected(self):
        code, out, err = run_cli("build-w", fix("square.cplx"),
                                 "--lambda", "0")
        self.assertEqual(code, 2)
        self.assertIn("lambda must be positive", err)


class TestDisconnectedW(unittest.TestCase):
    """At lambda 0.001 no two maximal simplices of the grid or the
    square are joined: W has no edge, the realisation is no
    quasi-isometry and qi-report names the first separated pair."""

    def test_grid_and_square(self):
        for name in ("grid.cplx", "square.cplx"):
            with self.subTest(input=name):
                code, out, err = run_cli("build-w", fix(name),
                                         "--lambda", "0.001")
                self.assertEqual((code, err), (0, ""))
                self.assertIn("w_edges=0", out.splitlines())
                self.assertIn("w_connected=false", out.splitlines())
                code, out, err = run_cli("qi-report", fix(name),
                                         "--lambda", "0.001")
                lines = out.splitlines()
                self.assertEqual((code, err), (1, ""))
                self.assertIn("qi_lower=None", lines)
                self.assertIn("qi_quasi_isometry=False", lines)
                self.assertEqual(lines[-1], "property=quasi_isometry "
                                 "verdict=false witness=0_0,1_0")


class TestVerifyCommand(unittest.TestCase):

    def test_grid_passes_everything(self):
        code, out, err = run_cli("verify-chhs", fix("grid.cplx"))
        self.assertEqual(code, 0)
        lines = out.splitlines()
        self.assertEqual(lines[0], "E=3 kappa=60")
        self.assertEqual(lines[1],
                         "C0=2 M0=6 lambda0=4 lambda1=6 lambda2=12 lambda=12")
        self.assertIn("complexity=5", lines)
        verdicts = [l for l in lines if l.startswith("property=")]
        self.assertEqual(len(verdicts), 6)
        for line in verdicts:
            self.assertTrue(line.endswith("verdict=true"), line)
        self.assertIn("qi_surjectivity_defect=0", lines)

    def test_glued_complex_model_fails_with_witnesses(self):
        code, out, err = run_cli("verify-chhs", fix("gamma4.model"))
        self.assertEqual(code, 1)
        lines = out.splitlines()
        self.assertIn("property=common_nesting_extension verdict=false"
                      " witness=q1,q5,q31", lines)
        self.assertIn("property=simplicial_wedges verdict=false"
                      " witness=[1]|*,q1", lines)
        greens = [l for l in lines
                  if l.startswith("property=") and l.endswith("verdict=true")]
        self.assertEqual(len(greens), 4)


class TestQiReportCommand(unittest.TestCase):

    def test_grid_report(self):
        code, out, err = run_cli("qi-report", fix("grid.cplx"))
        self.assertEqual(code, 0)
        lines = out.splitlines()
        self.assertIn("qi_surjectivity_defect=0", lines)
        self.assertIn("qi_upper=(1, 11)", lines)
        self.assertIn("estimate_threshold=60", lines)

    def test_threshold_flag_reaches_the_estimate(self):
        code, out, err = run_cli("qi-report", fix("grid.cplx"),
                                 "--threshold", "10")
        self.assertEqual(code, 0)
        self.assertIn("estimate_threshold=10", out.splitlines())


class TestEquivarianceCommand(unittest.TestCase):

    def test_grid_transpose(self):
        code, out, err = run_cli("equivariance", fix("grid.cplx"),
                                 fix("grid_transpose.aut"))
        self.assertEqual(code, 0)
        lines = out.splitlines()
        self.assertIn("property=equivariance verdict=true", lines)
        self.assertIn("defect=0", lines)

    def test_map_against_wrong_model_is_an_input_error(self):
        code, out, err = run_cli("equivariance", fix("square.cplx"),
                                 fix("grid_transpose.aut"))
        self.assertEqual(code, 2)
        self.assertIn("error:", err)

    def test_map_missing_a_coordinate_is_an_input_error(self):
        with open(fix("grid_transpose.aut"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines.remove("coord [c1] 3_0 0_3")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "short.aut")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            code, out, err = run_cli("equivariance", fix("grid.cplx"), path)
        self.assertEqual(code, 2)
        self.assertIn("error: coordinate map misses a vertex, witness [c1]"
                      " 3_0", err)
        self.assertEqual(out, "")


class TestUsageErrors(unittest.TestCase):

    def test_missing_file(self):
        code, out, err = run_cli("verify-chhs", "does-not-exist.cplx")
        self.assertEqual(code, 2)
        self.assertIn("cannot read", err)

    def test_malformed_e_and_kappa_lines(self):
        with open(fix("chain.model"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for bad in ("E abc", "E", "E 1 2", "E 0", "kappa x", "kappa -3"):
            key = bad.split()[0]
            text = "\n".join(bad if line.split()[:1] == [key] else line
                             for line in lines) + "\n"
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "bad.model")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                code, out, err = run_cli("blowup", path)
            self.assertEqual(code, 2, bad)
            self.assertIn("error: line", err)
            self.assertEqual(out, "")

    def test_bad_complex_lines_are_usage_errors(self):
        with open(fix("square.cplx"), encoding="utf-8") as handle:
            square = handle.read()
        for extra, message in (("rim zz", "rim vertex zz is not a vertex"),
                               ("edge a b x\nedge a b y",
                                "edge a b given again with label y")):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "bad.cplx")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(square + extra + "\n")
                code, out, err = run_cli("cubes", path)
            self.assertEqual(code, 2, extra)
            self.assertIn(message, err)
            self.assertEqual(out, "")

    def test_stray_model_lines_are_usage_errors(self):
        # each line is a table entry that no relation of chain.model
        # calls for, or a coordinate graph of no domain
        with open(fix("chain.model"), encoding="utf-8") as handle:
            chain = handle.read()
        for extra, message in (
                ("pi ZZ p00 a", "projection outside the domains and points,"
                 " witness ZZ p00"),
                ("pi V nosuchpoint a", "projection outside the domains and"
                 " points, witness V nosuchpoint"),
                ("rho ZZ S a", "needs a nested or transverse pair,"
                 " witness ZZ S"),
                ("rho S V zz", "needs a nested or transverse pair,"
                 " witness S V"),
                ("rho S V a zz", "downward projection from outside the"
                 " coordinate graph, witness V S a"),
                ("rho V S c00 v0", "downward projection needs a nested pair,"
                 " witness S V"),
                ("coord ZZ edge a b", "line 92: coordinate graph of unknown"
                 " domain ZZ"),
                ("domain A B", "line 92: cannot parse 'domain A B'")):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "bad.model")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(chain + extra + "\n")
                code, out, err = run_cli("verify-chhs", path)
            self.assertEqual(code, 2, extra)
            self.assertIn(message, err)
            self.assertEqual(out, "")

    def test_non_utf8_input_is_a_usage_error(self):
        with open(fix("chain.model"), "rb") as handle:
            model = handle.read()
        cases = (("check-indexset", "bad.idx", b"domain S\ndomain \xff\n"),
                 ("blowup", "bad.model", model.replace(b"\n", b"\n\xfe", 1)))
        for command, name, data in cases:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, name)
                with open(path, "wb") as handle:
                    handle.write(data)
                code, out, err = run_cli(command, path)
            self.assertEqual(code, 2, name)
            self.assertIn("error: cannot read %s" % path, err)
            self.assertNotIn("Traceback", err)
            self.assertEqual(out, "")

    def test_numeric_flags_must_be_finite(self):
        for value in ("nan", "inf", "-1"):
            for command, flag in (("build-w", "--lambda"),
                                  ("qi-report", "--threshold")):
                code, out, err = run_cli(command, fix("square.cplx"),
                                         flag + "=" + value)
                self.assertEqual(code, 2, (flag, value))
                self.assertIn("error:", err)
                self.assertEqual(out, "")

    def test_max_size_must_not_be_negative(self):
        code, out, err = run_cli("lattice", fix("o6.idx"), "--max-size", "-5")
        self.assertEqual(code, 2)
        self.assertIn("max-size must be at least 0", err)
        self.assertEqual(out, "")
        code, out, err = run_cli("lattice", fix("o6.idx"), "--max-size", "0")
        self.assertEqual(code, 1)
        self.assertIn("targets_examined=0", out.splitlines())

    def test_zero_threshold_is_accepted(self):
        code, out, err = run_cli("qi-report", fix("square.cplx"),
                                 "--threshold", "0")
        self.assertEqual(code, 0)
        self.assertIn("estimate_threshold=0", out.splitlines())

    def test_crash_exits_3_not_1(self):
        with mock.patch.object(cli, "cmd_check_indexset",
                               side_effect=RuntimeError("boom")):
            code, out, err = run_cli("check-indexset", fix("b3.idx"))
        self.assertEqual(code, 3)
        self.assertIn("internal error: RuntimeError: boom", err)
        self.assertEqual(out, "")

    def test_unknown_subcommand(self):
        code, out, err = run_cli("frobnicate")
        self.assertEqual(code, 2)

    def test_unknown_flag(self):
        result = run_proc(["check-indexset", fix("b3.idx"), "--bogus"])
        self.assertEqual(result.returncode, 2)

    def test_help_exits_zero(self):
        result = run_proc(["--help"])
        self.assertEqual(result.returncode, 0)
        self.assertTrue(result.stdout.startswith("usage:"))
        result = run_proc(["verify-chhs", "--help"])
        self.assertEqual(result.returncode, 0)


# (fixture, subcommand arguments before the file, first word and word
# count of the keyed line kind, the value its changed copy gives)
REPEATS = (
    ("chain.model", ("verify-chhs",), "pi", 4, "c01"),
    ("chain.model", ("verify-chhs",), "rho", 4, "c10"),
    ("chain.model", ("verify-chhs",), "rho", 5, "v1"),
    ("chain.model", ("verify-chhs",), "E", 2, "5"),
    ("chain.model", ("verify-chhs",), "kappa", 2, "21"),
    ("grid_transpose.aut", ("equivariance", fix("grid.cplx")), "domain", 3,
     "[c2]"),
    ("grid_transpose.aut", ("equivariance", fix("grid.cplx")), "coord", 4,
     "9_9"),
    ("grid_transpose.aut", ("equivariance", fix("grid.cplx")), "point", 3,
     "9_9"),
)


@pytest.mark.parametrize("fixture, argv, word, count, value", REPEATS,
                         ids=["pi", "rho-up", "rho-down", "E", "kappa",
                              "domain", "coord", "point"])
def test_conflicting_repeat_exits_2(fixture, argv, word, count, value):
    """A keyed line given again with another value is an unusable input,
    named by both line numbers; the same value given again is accepted."""
    with open(fix(fixture), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    first = next(i for i, line in enumerate(lines, 1)
                 if line.split()[:1] == [word] and len(line.split()) == count)
    parts = lines[first - 1].split()
    for repeat, code in ((parts, 0), (parts[:-1] + [value], 2)):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, fixture)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines + [" ".join(repeat)]) + "\n")
            got, out, err = run_cli(*(argv + (path,)))
        assert got == code, (repeat, err)
    assert out == ""
    assert err == ("error: line %d: %s given again with %s, first at line %d"
                   " with %s\n" % (len(lines) + 1, " ".join(parts[:-1]),
                                    value, first, parts[-1]))


# (name, edges, the witness line of cubes) of small graphs that are not
# median: two vertices with three common neighbours, a hexagon, a square
# with a diagonal, the 3-cube less one vertex, and two triangles on one
# edge with a pendant edge, where no convex set crosses exactly one of
# the edge cuts
NON_MEDIAN = (
    ("K2,3", [(a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")],
     "b1 b2 b3"),
    ("C6", [("v%d" % i, "v%d" % ((i + 1) % 6)) for i in range(6)],
     "v0 v2 v4"),
    ("chord", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")],
     "a b c"),
    ("Q3-v", [("000", "001"), ("000", "010"), ("000", "100"), ("001", "011"),
              ("001", "101"), ("010", "011"), ("010", "110"), ("100", "101"),
              ("100", "110")], "011 101 110"),
    ("two-triangles", [("v0", "v1"), ("v1", "v2"), ("v1", "v3"),
                       ("v1", "v4"), ("v2", "v3"), ("v2", "v4")],
     "v0 v2 v3"),
)

# every subcommand that reads a .cplx file, COMPLEX standing for it
COMPLEX = "<complex>"
CPLX_COMMANDS = (("cubes", COMPLEX), ("blowup", COMPLEX),
                 ("build-w", COMPLEX), ("verify-chhs", COMPLEX),
                 ("qi-report", COMPLEX),
                 ("equivariance", COMPLEX, fix("grid_transpose.aut")))


def run_on_complex(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.cplx")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return run_cli(*(path if arg == COMPLEX else arg for arg in command))


@pytest.mark.parametrize("command", CPLX_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("name, edges, witness", NON_MEDIAN,
                         ids=[case[0] for case in NON_MEDIAN])
def test_non_median_complex_exits_2(name, edges, witness, command):
    """Every .cplx subcommand rejects a complex that is not a median
    graph with the least bad triple, before any later stage runs."""
    text = "".join("edge %s %s\n" % edge for edge in edges)
    assert run_on_complex(text, command) == (
        2, "", "error: not median, witness %s\n" % witness)


def _relabelled_counterexample():
    text = cubes.dump_complex(cubes.build_counterexample(3))
    return text.replace(" psi0\n", " 4\n")


def _rows_and_columns():
    return "".join("edge %d_%d %d_%d %s\n" % (i, j, i + di, j + dj, label)
                   for i in range(3) for j in range(3)
                   for di, dj, label in ((0, 1, "r"), (1, 0, "c"))
                   if i + di < 3 and j + dj < 3)


# (name, complex text, the label named twice): the glued complex with
# the psi0 edges relabelled as the hyperplane 4, and a 3 x 3 grid whose
# row edges are all r and column edges all c
SHARED_LABELS = (("relabelled", _relabelled_counterexample(), "4"),
                 ("rows-and-columns", _rows_and_columns(), "r"))


@pytest.mark.parametrize("command", CPLX_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("name, text, label", SHARED_LABELS,
                         ids=[case[0] for case in SHARED_LABELS])
def test_label_naming_two_hyperplanes_exits_2(name, text, label, command):
    """A label is the id of one hyperplane; two Theta-classes with the
    same label are an unusable input, not merged crossing sets."""
    assert run_on_complex(text, command) == (
        2, "", "error: label names two hyperplanes, witness %s\n" % label)


def test_generated_complexes_fail_alike():
    """Wherever cubes rejects a generated graph as not median,
    verify-chhs and blowup reject it with the same line."""
    hypothesis = pytest.importorskip("hypothesis")
    from test_cube_kernel import trees_with_extra_edges

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(trees_with_extra_edges(hypothesis.strategies))
    def check(g):
        text = cubes.dump_complex(g)
        code, out, err = run_on_complex(text, ("cubes", COMPLEX))
        if code == 2 and err.startswith("error: not median, witness"):
            for command in (("verify-chhs", COMPLEX), ("blowup", COMPLEX)):
                assert run_on_complex(text, command) == (2, "", err), text

    check()


class TestDeterminism(unittest.TestCase):

    def test_verify_chhs_is_byte_identical(self):
        first = run_proc(["verify-chhs", fix("grid.cplx")])
        second = run_proc(["verify-chhs", fix("grid.cplx")])
        self.assertEqual(first.returncode, 0)
        self.assertEqual(first.stdout, second.stdout)

    def test_counterexample_is_byte_identical(self):
        first = run_proc(["counterexample", "--depth", "4"])
        second = run_proc(["counterexample", "--depth", "4"])
        self.assertEqual(first.returncode, 0)
        self.assertEqual(first.stdout, second.stdout)


class TestClosedStdout(unittest.TestCase):
    """A reader that closes stdout before the report is written leaves
    the verdict's exit code and nothing on stderr."""

    def test_verify_chhs_grid(self):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hhsforge.cli", "verify-chhs",
                 fix("grid.cplx")],
                stdout=write, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        finally:
            os.close(write)
        self.assertEqual((proc.returncode, proc.stderr), (0, ""))


class TestDerivedTablesBuiltOnce(unittest.TestCase):
    """A verify-chhs run measures its thresholds, enumerates the blow-up's
    cliques and builds each domain's metric exactly once."""

    def test_verify_chhs_gamma4(self):
        with open(fix("gamma4.model"), encoding="utf-8") as handle:
            domains = model.load_model(handle.read()).index.domains
        with mock.patch.object(chhs, "thresholds",
                               side_effect=chhs.thresholds) as thresholds, \
             mock.patch.object(chhs, "enumerate_all_cliques",
                               side_effect=chhs.enumerate_all_cliques) \
                as cliques, \
             mock.patch.object(model._Metric, "__init__", autospec=True,
                               side_effect=model._Metric.__init__) as metric:
            code, out, err = run_cli("verify-chhs", fix("gamma4.model"))
        self.assertEqual((code, err), (1, ""))
        self.assertEqual(thresholds.call_count, 1)
        self.assertEqual(cliques.call_count, 1)
        # one metric per domain, each on its own numbered graph
        coords = [call.args[1] for call in metric.call_args_list]
        self.assertEqual(len(coords), len(domains))
        self.assertEqual(len(set(map(id, coords))), len(domains))


class TestWGraphViewUnread(unittest.TestCase):
    """The subcommands read W as its boolean matrix; none of them
    builds the `graph` view."""

    def test_gamma4(self):
        view = mock.Mock(side_effect=chhs.WGraph.graph.func)
        with mock.patch.object(chhs.WGraph, "graph", property(view)):
            for argv in (("verify-chhs",), ("qi-report",), ("build-w",),
                         ("build-w", "--format", "dot")):
                code, out, err = run_cli(*argv, fix("gamma4.model"))
                self.assertEqual(err, "", argv)
            self.assertEqual(view.call_count, 0)
            # the counter sees a read of the view
            with open(fix("gamma4.model"), encoding="utf-8") as handle:
                m = model.load_model(handle.read())
            w = chhs.build_w(m, chhs.blow_up(m))
            self.assertEqual(w.graph.number_of_edges(), 406)
            self.assertEqual(view.call_count, 1)


class TestVertexCap(unittest.TestCase):
    """A complex above cubes.MAX_VERTICES exits 2 before anything of its
    size is built: the glued complex from its depth, a .cplx file before
    its distances."""

    def counted(self, *argv):
        with mock.patch.object(cubes, "Graph", side_effect=cubes.Graph) \
                as graph, \
             mock.patch.object(cubes, "apsp", side_effect=cubes.apsp) as apsp:
            result = run_cli(*argv)
        return result, graph.call_count, apsp.call_count

    def exceeded(self, n):
        return (2, "", "error: cap exceeded: %d vertices > %d\n"
                % (n, cubes.MAX_VERTICES))

    def test_vertex_count_of_the_glued_complex(self):
        for depth in range(1, 9):
            self.assertEqual(
                cubes.build_counterexample(depth).number_of_nodes(),
                12 * depth + 23)

    def test_depth_past_the_cap_builds_nothing(self):
        least = (cubes.MAX_VERTICES - 23) // 12 + 1
        for depth in (least, 3000):
            with self.subTest(depth=depth):
                self.assertEqual(
                    self.counted("counterexample", "--depth", str(depth)),
                    (self.exceeded(12 * depth + 23), 0, 0))

    def test_complex_file_at_cap_plus_one(self):
        n = cubes.MAX_VERTICES + 1
        text = "".join("vertex v%d\n" % i for i in range(n))
        with mock.patch.object(cubes, "apsp", side_effect=cubes.apsp) as apsp:
            self.assertEqual(run_on_complex(text, ("cubes", COMPLEX)),
                             self.exceeded(n))
        self.assertEqual(apsp.call_count, 0)

    def test_at_the_cap(self):
        """A complex of exactly the cap runs; one vertex more does not."""
        for cap, argv, code in ((71, ("counterexample", "--depth", "4"), 0),
                                (70, ("counterexample", "--depth", "4"), 2),
                                (4, ("cubes", fix("square.cplx")), 0),
                                (3, ("cubes", fix("square.cplx")), 2)):
            with self.subTest(cap=cap, argv=argv), \
                 mock.patch.object(cubes, "MAX_VERTICES", cap):
                (got, out, err), _, searches = self.counted(*argv)
                self.assertEqual(got, code)
                if code:
                    self.assertEqual((got, out, err),
                                     self.exceeded(cap + 1))
                    self.assertEqual(searches, 0)


class TestSimplexCap(unittest.TestCase):
    """A model with more than chhs.MAX_SIMPLICES maximal simplices
    exits 2 once they are counted, before W's tuples or any table over
    pairs of simplices are built; grid.cplx has 49."""

    def test_at_the_cap(self):
        for cap, code in ((49, 0), (48, 2)):
            with self.subTest(cap=cap), \
                 mock.patch.object(chhs, "MAX_SIMPLICES", cap), \
                 mock.patch.object(chhs, "maximal_simplices",
                                   side_effect=chhs.maximal_simplices) \
                    as listed:
                got, out, err = run_cli("verify-chhs", fix("grid.cplx"))
                self.assertEqual(got, code)
                if code:
                    self.assertEqual(
                        (out, err),
                        ("", "error: cap exceeded: 49 maximal simplices"
                             " > 48\n"))
                    self.assertEqual(listed.call_count, 0)
                else:
                    self.assertEqual(err, "")


class TestMedianCheckedOnce(unittest.TestCase):
    """A .cplx input is checked to be median once, and the pipeline
    then relies on the theorems: it scans no set of its own for
    convexity."""

    def count(self, *argv):
        with mock.patch.object(cubes, "validate_median_graph",
                               side_effect=cubes.validate_median_graph) \
                as median, \
             mock.patch.object(cubes, "_is_convex",
                               side_effect=cubes._is_convex) as convex:
            code, out, err = run_cli(*argv)
        self.assertEqual((code, err), (0, ""))
        return median.call_count, convex.call_count

    def test_verify_chhs_grid(self):
        self.assertEqual(self.count("verify-chhs", fix("grid.cplx")), (1, 0))

    def test_counterexample(self):
        self.assertEqual(self.count("counterexample", "--depth", "4"), (0, 0))


class TestSlabScanNamesWitnessesOnly(unittest.TestCase):
    """The median check accepts by the local test; the slab scan runs
    once per rejected input, to name its witness."""

    def scans(self, text):
        with mock.patch.object(cubes, "_median_witness",
                               side_effect=cubes._median_witness) as scan:
            result = run_on_complex(text, ("cubes", COMPLEX))
        return scan.call_count, result

    def test_grid_20x20(self):
        count, (code, out, err) = self.scans(
            cubes.dump_complex(cubes.grid_complex(20, 20)))
        self.assertEqual((count, code, err), (0, 0, ""))
        self.assertIn("vertices=400", out.splitlines())

    def test_non_median(self):
        for name, edges, witness in NON_MEDIAN:
            with self.subTest(graph=name):
                text = "".join("edge %s %s\n" % edge for edge in edges)
                self.assertEqual(self.scans(text), (1, (
                    2, "", "error: not median, witness %s\n" % witness)))

    def test_disagreement_is_an_internal_error(self):
        """A local rejection that the slab scan cannot confirm is a
        fault of the program, never a verdict."""
        with mock.patch.object(cubes, "_locally_median", return_value=False):
            code, out, err = run_cli("cubes", fix("grid.cplx"))
        self.assertEqual((code, out), (3, ""))
        self.assertTrue(err.startswith("internal error: "), err)


if __name__ == "__main__":
    unittest.main()
