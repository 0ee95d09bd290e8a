import itertools
import os
import unittest

import networkx as nx
import numpy as np
import pytest

from hhsforge import cubes
from hhsforge.chhs import (dump_automorphism, identity_automorphism,
                           load_automorphism)
from hhsforge.indexset import IndexSet, check_property, complexity
from hhsforge.model import (
    ConsistentTuple,
    HHSModel,
    ModelError,
    augment_point_domains,
    check_metric_property,
    distance_profile,
    dump_model,
    load_model,
    measure_model,
)

from helpers import (
    distance_estimate,
    kernel_consistency,
    least_fit,
    make_behrstock_model,
    make_chain_model,
    make_product_model,
    make_transverse_model,
    scan_table,
    tuples_consistency,
)
from test_measure_kernel import tree_times_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestChainModel(unittest.TestCase):

    def setUp(self):
        self.m = make_chain_model()

    def test_measured_constants(self):
        expected = {"diameters": 0, "lipschitz": 1, "consistency": 0,
                    "rho_consistency": 0, "bgi": 0, "large_links": 0,
                    "partial_realisation": 0, "E": 1}
        self.assertEqual(scan_table(self.m), expected)
        self.assertEqual(measure_model(self.m), expected["E"])
        self.assertEqual(self.m.E, 1)
        self.assertEqual(self.m.kappa, 20)

    def test_point_tuples_are_consistent(self):
        tuples = [ConsistentTuple(self.m.index.domains,
                                  dict((u, self.m.named.pi[(u, p)])
                                       for u in self.m.index.domains))
                  for p in self.m.points]
        self.assertEqual(kernel_consistency(self.m, tuples), (0, None))

    def test_distance_estimate_threshold_is_strict(self):
        self.assertEqual(distance_estimate(self.m, "p00", "p11", 0), 11)
        self.assertEqual(distance_estimate(self.m, "p00", "p11", 10), 11)
        self.assertEqual(distance_estimate(self.m, "p00", "p11", 11), 0)
        # distance_profile fits the same estimates, pair by pair
        pairs = list(itertools.combinations(self.m.points, 2))
        pos = self.m.point_index
        dz = np.array([self.m.point_dist[pos[x], pos[y]] for x, y in pairs])
        for threshold in (0, 10, 11):
            est = np.array([distance_estimate(self.m, x, y, threshold)
                            for x, y in pairs])
            k, c = least_fit((est, dz), (dz, est))
            self.assertEqual(distance_profile(self.m, threshold),
                             {"threshold": threshold, "K": k, "C": c})

    def test_distance_profile_exact(self):
        self.assertEqual(distance_profile(self.m, 0),
                         {"threshold": 0, "K": 1, "C": 0})

    def test_dpr_fails_before_augmentation(self):
        report = check_metric_property(self.m, "dpr")
        self.assertFalse(report.verdict)
        self.assertEqual(report.constant, 11)
        self.assertEqual(report.witness, ("S", "c00"))

    def test_other_metric_properties(self):
        """dpr is the one metric property measured; the names of the
        ones no verdict read are unknown."""
        for name in ("edpr", "bounded_split", "normalised"):
            with self.assertRaisesRegex(ModelError,
                                        "unknown metric property %s" % name):
                check_metric_property(self.m, name)

    def test_augmentation_flips_dpr(self):
        before = dict((name, check_property(self.m.index, name).verdict)
                      for name in ("wedges", "clean_containers",
                                   "orthogonals_for_non_split"))
        big = augment_point_domains(self.m)
        self.assertEqual(len(big.index.domains), 14)
        self.assertIn("T_S_p00", big.index.domains)
        self.assertTrue(check_metric_property(big, "dpr").verdict)
        self.assertEqual(check_metric_property(big, "dpr").constant, 0)
        after = dict((name, check_property(big.index, name).verdict)
                     for name in before)
        self.assertEqual(before, after)
        self.assertEqual(complexity(self.m.index), complexity(big.index))

    def test_augmented_relations(self):
        big = augment_point_domains(self.m)
        t = "T_S_p03"
        self.assertTrue(big.index.nested(t, "S"))
        self.assertFalse(big.index.nested(t, "V"))
        self.assertFalse(big.index.nested("V", t))
        self.assertEqual(big.named.rho_up[(t, "S")], frozenset(["c03"]))
        self.assertEqual(big.named.rho_up[(t, "V")], frozenset(["v0"]))
        self.assertEqual(big.named.rho_up[("V", t)], frozenset(["0"]))
        self.assertEqual(big.named.rho_up[("T_S_p04", t)], frozenset(["0"]))

    def test_round_trip(self):
        text = dump_model(self.m)
        m2 = load_model(text)
        self.assertEqual(m2.index, self.m.index)
        self.assertEqual(m2.E, self.m.E)
        self.assertEqual(m2.kappa, self.m.kappa)
        self.assertEqual(m2.named.pi, self.m.named.pi)
        self.assertEqual(m2.named.rho_up, self.m.named.rho_up)
        self.assertEqual(m2.named.rho_down, self.m.named.rho_down)
        self.assertEqual(sorted(m2.space.edges()), sorted(self.m.space.edges()))
        self.assertEqual(text, dump_model(m2))

    def test_parse_errors(self):
        with self.assertRaisesRegex(ModelError, "line 1: cannot parse"):
            load_model("frob x\n")
        with self.assertRaisesRegex(ModelError,
                                    "line 1: cannot parse 'indexset missing"):
            load_model("indexset missing.idx\n")


class TestProductModel(unittest.TestCase):

    def setUp(self):
        self.m = make_product_model()

    def test_measured_constants(self):
        expected = {"diameters": 0, "lipschitz": 1, "consistency": 0,
                    "rho_consistency": 0, "bgi": 0, "large_links": 0,
                    "partial_realisation": 0, "E": 1}
        self.assertEqual(scan_table(self.m), expected)
        self.assertEqual(measure_model(self.m), expected["E"])

    def test_orthogonal_pairs_are_unconstrained(self):
        t = ConsistentTuple(["A", "B", "S"],
                            {"A": "a0", "B": "b2", "S": "s0"})
        # within kappa 0
        self.assertEqual(kernel_consistency(self.m, [t]), (0, None))

    def test_augmentation_adds_nine_domains(self):
        big = augment_point_domains(self.m)
        self.assertEqual(len(big.index.domains), 12)
        fresh = [u for u in big.index.domains if u.startswith("T_")]
        self.assertEqual(len(fresh), 9)
        self.assertTrue(check_metric_property(self.m, "dpr").verdict)
        self.assertTrue(check_metric_property(big, "dpr").verdict)
        self.assertEqual(complexity(self.m.index), complexity(big.index))

    def test_distance_profile_matches_l1(self):
        self.assertEqual(distance_profile(self.m, 0),
                         {"threshold": 0, "K": 1, "C": 0})


class TestTransverseModel(unittest.TestCase):

    def setUp(self):
        self.m = make_transverse_model()

    def test_measured_constants(self):
        expected = {"diameters": 0, "lipschitz": 1, "consistency": 0,
                    "rho_consistency": 0, "bgi": 0, "large_links": 0,
                    "partial_realisation": 1, "E": 1}
        self.assertEqual(scan_table(self.m), expected)
        self.assertEqual(measure_model(self.m), expected["E"])

    def test_inconsistent_tuple_detected(self):
        t = ConsistentTuple(["S", "U", "V"],
                            {"U": "u0", "V": "v5", "S": "s0"})
        # beyond kappa 2, within the default kappa
        self.assertEqual(kernel_consistency(self.m, [t]), (3, (0, "U", "V")))
        self.assertLessEqual(3, self.m.kappa)

    def test_missing_coordinate_rejected(self):
        # the scalar reference; the kernel reads canonical tuples,
        # which have every coordinate
        t = ConsistentTuple(["S", "U", "V"], {"U": "u0", "S": "s0"})
        with self.assertRaisesRegex(ModelError,
                                    "misses a coordinate, witness S V"):
            tuples_consistency(self.m, [t])

    def test_augmentation(self):
        big = augment_point_domains(self.m)
        fresh = [u for u in big.index.domains if u.startswith("T_")]
        self.assertEqual(len(fresh), 6)
        self.assertTrue(check_metric_property(big, "dpr").verdict)


class TestBehrstockModel(unittest.TestCase):

    def setUp(self):
        self.m = make_behrstock_model()

    def test_measured_constants(self):
        expected = {"diameters": 0, "lipschitz": 1, "consistency": 2,
                    "rho_consistency": 2, "bgi": 0, "large_links": 0,
                    "partial_realisation": 2, "E": 2}
        self.assertEqual(scan_table(self.m), expected)
        self.assertEqual(measure_model(self.m), expected["E"])
        self.assertEqual(self.m.kappa, 40)

    def test_dpr_constant(self):
        report = check_metric_property(self.m, "dpr")
        self.assertTrue(report.verdict)
        self.assertEqual(report.constant, 2)

    def test_unknown_property_rejected(self):
        with self.assertRaisesRegex(ModelError, "unknown metric property"):
            check_metric_property(self.m, "frobnication")


class TestSingleDomainAugmentation(unittest.TestCase):

    def test_one_tuple_one_new_domain(self):
        index = IndexSet(["S"], [], [])
        space = nx.Graph()
        space.add_node("p0")
        gs = nx.Graph()
        gs.add_node("c0")
        m = HHSModel(index, space, {"S": gs}, {("S", "p0"): {"c0"}}, {}, {})
        big = augment_point_domains(m)
        self.assertEqual(big.index.domains, ("S", "T_S_p0"))
        self.assertEqual(complexity(big.index), 1)
        self.assertTrue(check_metric_property(big, "dpr").verdict)


class TestModelValidation(unittest.TestCase):

    def _pieces(self):
        index = IndexSet(["S", "V"], [("V", "S")], [])
        space = nx.Graph()
        space.add_edge("p0", "p1")
        gs = nx.path_graph(2)
        gs = nx.relabel_nodes(gs, {0: "c0", 1: "c1"})
        gv = nx.Graph()
        gv.add_node("v0")
        pi = {("S", "p0"): {"c0"}, ("S", "p1"): {"c1"},
              ("V", "p0"): {"v0"}, ("V", "p1"): {"v0"}}
        rho_up = {("V", "S"): {"c1"}}
        rho_down = {("V", "S"): {"c0": {"v0"}, "c1": {"v0"}}}
        return index, space, {"S": gs, "V": gv}, pi, rho_up, rho_down

    def test_valid_base(self):
        HHSModel(*self._pieces())

    def test_disconnected_coordinate_graph(self):
        index, space, graphs, pi, up, down = self._pieces()
        graphs["S"].add_node("stray")
        with self.assertRaisesRegex(ModelError, "disconnected"):
            HHSModel(index, space, graphs, pi, up, down)

    def test_disconnected_point_graph(self):
        index, space, graphs, pi, up, down = self._pieces()
        space.add_node("p2")
        with self.assertRaisesRegex(ModelError, "point graph is disconnected"):
            HHSModel(index, space, graphs, pi, up, down)

    def test_missing_projection(self):
        index, space, graphs, pi, up, down = self._pieces()
        del pi[("V", "p1")]
        with self.assertRaisesRegex(ModelError, "missing projection"):
            HHSModel(index, space, graphs, pi, up, down)

    def test_missing_relative_projection(self):
        index, space, graphs, pi, up, down = self._pieces()
        with self.assertRaisesRegex(ModelError, "missing relative projection"):
            HHSModel(index, space, graphs, pi, {}, down)

    def test_missing_downward_projection(self):
        index, space, graphs, pi, up, down = self._pieces()
        with self.assertRaisesRegex(ModelError, "missing downward projection"):
            HHSModel(index, space, graphs, pi, up, {})

    def test_partial_downward_projection(self):
        index, space, graphs, pi, up, down = self._pieces()
        del down[("V", "S")]["c1"]
        with self.assertRaisesRegex(ModelError, "bad downward projection"):
            HHSModel(index, space, graphs, pi, up, down)

    def test_projection_outside_graph(self):
        index, space, graphs, pi, up, down = self._pieces()
        pi[("S", "p0")] = {"nowhere"}
        with self.assertRaisesRegex(ModelError, "leaves the coordinate graph"):
            HHSModel(index, space, graphs, pi, up, down)

    def test_empty_coordinate_rejected(self):
        with self.assertRaisesRegex(ModelError, "empty coordinate"):
            ConsistentTuple(["S"], {"S": []})
        with self.assertRaisesRegex(ModelError, "outside scope"):
            ConsistentTuple(["S"], {"V": "v0"})


class LoaderRepeats(unittest.TestCase):
    """Each keyed line of a .model file, given again: with another value
    the loader names the repeat, its value, and the first line and its
    value, before any table is numbered; with the same set in another
    order the model is the one loaded without it."""

    def setUp(self):
        with open(os.path.join(ROOT, "fixtures", "chain.model"),
                  encoding="utf-8") as handle:
            self.text = handle.read()
        self.count = len(self.text.splitlines())

    def test_each_keyed_line(self):
        # (repeat, first line of the key, first value), in chain.model
        for line, first, value in (
                ("pi S p00 c01", 55, "c00"),
                ("rho V S c10", 79, "c11"),
                ("rho S V c03 v1", 83, "v0"),
                ("E 2", 6, "1"),
                ("kappa 30", 7, "20")):
            with self.subTest(line=line):
                parts = line.split()
                with self.assertRaises(ModelError) as err:
                    load_model(self.text + line + "\n")
                self.assertEqual(
                    str(err.exception),
                    "line %d: %s given again with %s, first at line %d"
                    " with %s" % (self.count + 1, " ".join(parts[:-1]),
                                  parts[-1], first, value))

    def test_same_set_in_another_order(self):
        text = self.text.replace("pi S p00 c00", "pi S p00 c00,c01")
        m = load_model(text + "pi S p00 c01,c00\n")
        self.assertEqual(dump_model(m), dump_model(load_model(text)))
        self.assertEqual(m.named.pi[("S", "p00")], frozenset(["c00", "c01"]))


# -- the writers are fixed points of their round trips ------------------


def assert_model_round_trips(m):
    """dump(load(dump(x))) == dump(x) for the model and its identity
    automorphism."""
    text = dump_model(m)
    assert dump_model(load_model(text)) == text
    aut = dump_automorphism(identity_automorphism(m))
    assert dump_automorphism(load_automorphism(aut)) == aut


class DumpFixedPoints(unittest.TestCase):

    def test_gamma_models(self):
        for path in (os.path.join(ROOT, "fixtures", "gamma4.model"),
                     os.path.join(ROOT, "perfbench", "data", "gamma6.model")):
            with self.subTest(path=os.path.basename(path)):
                with open(path, encoding="utf-8") as handle:
                    assert_model_round_trips(load_model(handle.read()))


def test_tree_times_path_round_trips():
    """The complex of a tree times a path, its model and the model's
    identity automorphism."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parents = st.integers(0, 6).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(parents, st.integers(1, 4))
    def check(parents, length):
        g = tree_times_path(parents, length)
        text = cubes.dump_complex(g)
        assert cubes.dump_complex(cubes.load_complex(text)) == text
        assert_model_round_trips(cubes.index_set_from_hyperclosure(g))

    check()


if __name__ == "__main__":
    unittest.main()
