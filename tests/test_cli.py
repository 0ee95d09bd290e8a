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

from hhsforge import cli

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


if __name__ == "__main__":
    unittest.main()
