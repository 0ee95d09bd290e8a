import itertools
import os
import unittest

import networkx as nx
import numpy as np
import pytest

from hhsforge import cubes
from hhsforge.chhs import (
    APEX,
    SHAPE_ALL_EDGES,
    ChhsError,
    b_sigma,
    blow_up,
    blown_dot,
    build_w,
    check_chhs,
    check_equivariance,
    check_simplex,
    class_of,
    class_relation,
    collapse_unit_coordinates,
    colevel_of_complement,
    compose_automorphisms,
    coordinate_graph,
    coverage_constant,
    dump_automorphism,
    identity_automorphism,
    identity_suite,
    intersection_links_constructive,
    link,
    link_of_set,
    load_automorphism,
    maximal_simplices,
    pieces,
    realisation_qi,
    simplex_classes,
    simplices,
    support,
    thresholds,
    vertex_name,
    w_dot,
    _shape,
)
from hhsforge.indexset import (
    CONTAINS,
    EQUAL,
    NESTED_IN,
    ORTHOGONAL,
    IndexSet,
    check_property,
)
from hhsforge.model import HHSModel, load_model

from helpers import (as_nx, augmented_graph, make_rect_model,
                     make_star_model)
from test_measure_kernel import glued, tree_times_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


_CACHE = {}


def pipeline(name):
    """Build (model, blow-up, W) once per fixture and reuse it."""
    if name not in _CACHE:
        if name == "square":
            m = cubes.index_set_from_hyperclosure(cubes.grid_complex(2, 2))
        elif name == "b3":
            m = cubes.index_set_from_hyperclosure(cubes.b3_cube())
        elif name == "grid":
            m = cubes.index_set_from_hyperclosure(cubes.grid_complex(7, 7))
        elif name == "rect":
            m = make_rect_model()
        elif name == "star":
            m = make_star_model()
        else:
            raise ValueError(name)
        x = blow_up(m)
        _CACHE[name] = (m, x, build_w(m, x))
    return _CACHE[name]


def gamma_pipeline(depth):
    key = ("gamma", depth)
    if key not in _CACHE:
        g = cubes.build_counterexample(depth)
        m = collapse_unit_coordinates(cubes.index_set_from_hyperclosure(g))
        x = blow_up(m)
        _CACHE[key] = (m, x, build_w(m, x))
    return _CACHE[key]


def assert_blowup_shape(m):
    """What blow_up builds by construction: complete joins between the
    cones of orthogonal minimal domains and discrete cone bases.  A
    clique then holds an apex and one base vertex per cone of an
    orthogonal family, so the largest has twice the widest family."""
    x = blow_up(m)
    for u, v in x.base.edges():
        for a in x.cone(u):
            for b in x.cone(v):
                assert x.blown.has_edge(a, b), (a, b)
    for u in x.minimal:
        base = [v for v in x.cone(u) if v != x.apex(u)]
        for a, b in itertools.combinations(base, 2):
            assert not x.blown.has_edge(a, b), (a, b)
    top = max(len(c) for c in nx.find_cliques(as_nx(x.blown)))
    s = m.index
    assert top == 2 * max(len(f) for f in s.families(s.top)), top


def names(vs):
    return sorted(vertex_name(v) for v in vs)


class TestBlowUp(unittest.TestCase):

    def test_single_cone_is_a_star(self):
        m, x, _ = pipeline("star")
        self.assertEqual(x.blown.number_of_nodes(), 5)
        self.assertEqual(x.blown.number_of_edges(), 4)
        self.assertEqual(sorted(d for _, d in as_nx(x.blown).degree()),
                         [1, 1, 1, 1, 4])

    def test_two_cone_counts(self):
        m, x, _ = pipeline("rect")
        self.assertEqual(x.blown.number_of_nodes(), 9)
        self.assertEqual(x.blown.number_of_edges(), 27)
        cone_a = set(x.cone("A"))
        cone_b = set(x.cone("B"))
        joins = sum(1 for a, b in x.blown.edges()
                    if (a in cone_a) != (b in cone_a))
        self.assertEqual(joins, 20)
        self.assertEqual(len(cone_a), 4)
        self.assertEqual(len(cone_b), 5)

    def test_fixture_counts(self):
        expected = {"square": (6, 13), "b3": (9, 33), "grid": (16, 78)}
        for name, (nodes, edges) in expected.items():
            _, x, _ = pipeline(name)
            self.assertEqual(x.blown.number_of_nodes(), nodes, name)
            self.assertEqual(x.blown.number_of_edges(), edges, name)

    def test_counterexample_shape(self):
        m, x, _ = gamma_pipeline(2)
        self.assertEqual(len(x.minimal), 11)
        self.assertEqual(x.blown.number_of_nodes(), 22)
        self.assertEqual(x.blown.number_of_edges(), 79)
        for u in x.minimal:
            self.assertEqual(len(x.cone(u)), 2)
        maxs = maximal_simplices(x)
        self.assertEqual(len(maxs), x.base.number_of_edges())
        self.assertEqual(len(maxs), 17)
        for s in maxs:
            self.assertEqual(len(s), 4)

    def test_join_completion(self):
        _, x, _ = pipeline("grid")
        for u, v in x.base.edges():
            for a in x.cone(u):
                for b in x.cone(v):
                    self.assertTrue(x.blown.has_edge(a, b))

    def test_dimension_bound(self):
        for name in ("square", "b3", "grid"):
            _, x, _ = pipeline(name)
            width = max(len(c) for c in nx.find_cliques(as_nx(x.base)))
            top = max(len(s) for s in maximal_simplices(x))
            self.assertLessEqual(top, 2 * width, name)

    def test_shape_on_fixtures(self):
        for name in ("chain.model", "gamma4.model", "product.model",
                     "grid.cplx", "square.cplx"):
            with self.subTest(name=name), \
                 open(os.path.join(ROOT, "fixtures", name),
                      encoding="utf-8") as f:
                text = f.read()
                if name.endswith(".cplx"):
                    m = cubes.index_set_from_hyperclosure(
                        cubes.load_complex(text))
                else:
                    m = load_model(text)
                assert_blowup_shape(m)

    def test_shape_on_glued_and_grids(self):
        for depth in range(2, 7):
            for m in glued(depth):
                with self.subTest(depth=depth, E=m.E):
                    assert_blowup_shape(m)
        for size in range(3, 8):
            with self.subTest(size=size):
                assert_blowup_shape(cubes.index_set_from_hyperclosure(
                    cubes.grid_complex(size, size)))

    def test_apex_collision(self):
        index = IndexSet(["S", "V"], [("V", "S")], [])
        gv = nx.relabel_nodes(nx.path_graph(2), {0: "*", 1: "v1"})
        gs = nx.Graph()
        gs.add_node("s0")
        space = nx.relabel_nodes(nx.path_graph(2), {0: "z0", 1: "z1"})
        pi = {("V", "z0"): {"*"}, ("V", "z1"): {"v1"},
              ("S", "z0"): {"s0"}, ("S", "z1"): {"s0"}}
        m = HHSModel(index, space, {"S": gs, "V": gv}, pi,
                     {("V", "S"): {"s0"}}, {("V", "S"): {"s0": {"*"}}})
        with self.assertRaises(ChhsError) as err:
            blow_up(m)
        self.assertIn("apex marker collides", str(err.exception))


def test_blowup_shape_on_small_median_graphs():
    """Products of a random tree with up to seven vertices and a path
    with one to four edges."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parents = st.integers(0, 6).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(parents, st.integers(1, 4))
    def check(parents, length):
        assert_blowup_shape(cubes.index_set_from_hyperclosure(
            tree_times_path(parents, length)))

    check()


class TestSimplexCalculus(unittest.TestCase):

    def test_simplex_counts(self):
        for name, count in (("square", 36), ("b3", 216), ("grid", 256)):
            _, x, _ = pipeline(name)
            self.assertEqual(len(simplices(x)), count, name)
            self.assertIn(frozenset(), simplices(x))

    def test_check_simplex_errors(self):
        _, x, _ = pipeline("grid")
        with self.assertRaises(ChhsError) as err:
            check_simplex(x, {("[c9]", "nope")})
        self.assertIn("unknown vertex", str(err.exception))
        a = ("[c0]", "0_0")
        b = ("[c0]", "0_1")
        with self.assertRaises(ChhsError) as err:
            check_simplex(x, {a, b})
        self.assertIn("not a clique", str(err.exception))

    def test_maximal_link_empty(self):
        _, x, _ = pipeline("grid")
        for s in maximal_simplices(x):
            self.assertEqual(link(x, s), frozenset())

    def test_full_cone_edge_link(self):
        _, x, _ = pipeline("grid")
        edge = frozenset([("[c0]", APEX), ("[c0]", "0_3")])
        self.assertEqual(link(x, edge), frozenset(x.cone("[c1]")))
        self.assertEqual(_shape(x, edge), SHAPE_ALL_EDGES)

    def test_empty_link_is_everything(self):
        _, x, _ = pipeline("square")
        self.assertEqual(link_of_set(x, frozenset()),
                         frozenset(x.blown.nodes()))

    def test_support_and_pieces(self):
        _, x, w = pipeline("grid")
        s = w.simplices[0]
        self.assertEqual(support(x, s), frozenset(["[c0]", "[c1]"]))
        ps = pieces(x, s)
        self.assertEqual(sorted(ps), ["[c0]", "[c1]"])
        for u in ps:
            self.assertEqual(len(ps[u]), 2)
            self.assertIn((u, APEX), ps[u])


class TestSimplexClasses(unittest.TestCase):

    GRID_TABLE = [
        ("q0", "-", 1, 16, False),
        ("q1", "[c0]|*", 1, 15, False),
        ("q2", "[c0]|0_0", 7, 9, False),
        ("q3", "[c1]|*", 1, 15, False),
        ("q4", "[c1]|0_0", 7, 9, False),
        ("q5", "[c0]|*+[c0]|0_0", 7, 8, False),
        ("q6", "[c0]|*+[c1]|*", 1, 14, False),
        ("q7", "[c0]|*+[c1]|0_0", 7, 8, False),
        ("q8", "[c0]|0_0+[c1]|*", 7, 8, False),
        ("q9", "[c0]|0_0+[c1]|0_0", 49, 2, False),
        ("q10", "[c1]|*+[c1]|0_0", 7, 8, False),
        ("q11", "[c0]|*+[c0]|0_0+[c1]|*", 7, 7, False),
        ("q12", "[c0]|*+[c0]|0_0+[c1]|0_0", 49, 1, False),
        ("q13", "[c0]|*+[c1]|*+[c1]|0_0", 7, 7, False),
        ("q14", "[c0]|0_0+[c1]|*+[c1]|0_0", 49, 1, False),
        ("q15", "[c0]|*+[c0]|0_0+[c1]|*+[c1]|0_0", 49, 0, True),
    ]

    def table(self, x):
        return [(c.id, "+".join(names(c.rep)) or "-", len(c.members),
                 len(c.link), c.maximal) for c in simplex_classes(x)]

    def test_grid_table(self):
        _, x, _ = pipeline("grid")
        self.assertEqual(self.table(x), self.GRID_TABLE)

    def test_class_counts(self):
        for name, count in (("square", 16), ("b3", 64), ("grid", 16)):
            _, x, _ = pipeline(name)
            self.assertEqual(len(simplex_classes(x)), count, name)
        _, x, _ = gamma_pipeline(2)
        self.assertEqual(len(simplex_classes(x)), 122)

    def test_empty_class_is_top(self):
        _, x, _ = pipeline("grid")
        q0 = class_of(x, frozenset())
        self.assertEqual(q0.id, "q0")
        for c in simplex_classes(x):
            if c.maximal or c.id == "q0":
                continue
            self.assertEqual(class_relation(x, c, q0), NESTED_IN, c.id)

    def test_apex_classes_orthogonal(self):
        m, x, _ = pipeline("grid")
        base0 = frozenset(("[c0]", c) for c in m.coord_graphs["[c0]"].nodes())
        base1 = frozenset(("[c1]", c) for c in m.coord_graphs["[c1]"].nodes())
        a0 = next(c for c in simplex_classes(x) if c.link == base0)
        a1 = next(c for c in simplex_classes(x) if c.link == base1)
        self.assertEqual((a0.id, a1.id), ("q13", "q11"))
        self.assertEqual(class_relation(x, a0, a1), ORTHOGONAL)
        self.assertEqual(class_relation(x, a1, a0), ORTHOGONAL)

    def test_relation_on_maximal_raises(self):
        _, x, _ = pipeline("grid")
        cs = {c.id: c for c in simplex_classes(x)}
        with self.assertRaises(ChhsError) as err:
            class_relation(x, cs["q15"], cs["q0"])
        self.assertIn("class is maximal", str(err.exception))

    def test_saturation(self):
        _, x, _ = pipeline("grid")
        cs = {c.id: c for c in simplex_classes(x)}
        self.assertEqual(len(cs["q9"].saturation), 14)
        self.assertEqual(cs["q9"].saturation,
                         frozenset(v for v in x.blown.nodes()
                                   if v[1] != APEX))

    def test_counterexample_gamma_apex(self):
        _, x, _ = gamma_pipeline(2)
        apex = frozenset([("[Gamma1]", APEX)])
        c = class_of(x, apex)
        self.assertEqual(c.id, "q17")
        self.assertEqual(c.members, (apex,))
        self.assertEqual(c.saturation, apex)
        self.assertEqual(names(c.link),
                         ["[1]|*", "[1]|dv_o", "[3]|*", "[3]|dv_r1",
                          "[5]|*", "[5]|dv_r2", "[Gamma1]|ca1"])

    def test_class_of_unknown(self):
        _, x, _ = pipeline("square")
        with self.assertRaises(ChhsError):
            class_of(x, frozenset([("[c0]", "bogus")]))


class TestBSigma(unittest.TestCase):

    def test_grid_corner_tuple(self):
        m, x, w = pipeline("grid")
        t = w.tuples[0]
        self.assertEqual(t.coords["[c0]"], frozenset(["0_0"]))
        self.assertEqual(t.coords["[c1]"], frozenset(["0_0"]))
        self.assertEqual(
            t.coords["[c2]"],
            frozenset(["0_0", "0_1", "0_2", "0_3", "0_4", "0_5", "0_6",
                       "1_0", "2_0", "3_0", "4_0", "5_0", "6_0",
                       "H_0", "H_1"]))
        self.assertEqual(w.points[0], "0_0")

    def test_support_coordinates_exact(self):
        m, x, w = pipeline("grid")
        for i, s in enumerate(w.simplices):
            for u, c in s:
                if c == APEX:
                    continue
                self.assertEqual(w.tuples[i].coords[u], frozenset([c]))

    def test_spread_within_bound(self):
        for name in ("square", "b3", "grid", "rect"):
            m, x, w = pipeline(name)
            for t in w.tuples:
                for u in m.index.domains:
                    self.assertLessEqual(
                        m.dist(u, t.coords[u], t.coords[u]), 10 * m.E, name)

    def test_not_maximal_raises(self):
        m, x, _ = pipeline("grid")
        with self.assertRaises(ChhsError) as err:
            b_sigma(m, frozenset([("[c0]", APEX)]))
        self.assertIn("not a full cone edge", str(err.exception))

    def test_partial_join_raises(self):
        m, x, _ = pipeline("b3")
        us = sorted(x.minimal)[:2]
        s = frozenset((u, c) for u in us
                      for c in [APEX, sorted(x.base[u])[0]])
        with self.assertRaises(ChhsError) as err:
            b_sigma(m, s)
        self.assertIn("simplex not maximal", str(err.exception))


class TestThresholds(unittest.TestCase):

    FROZEN = {
        "square": {"C0": 1, "M0": 2, "lambda0": 2, "lambda1": 2,
                   "lambda2": 4, "default": 4},
        "b3": {"C0": 2, "M0": 3, "lambda0": 4, "lambda1": 3,
               "lambda2": 7, "default": 7},
        "grid": {"C0": 2, "M0": 6, "lambda0": 4, "lambda1": 6,
                 "lambda2": 12, "default": 12},
    }

    def test_frozen_tables(self):
        for name, want in self.FROZEN.items():
            m, _, _ = pipeline(name)
            self.assertEqual(thresholds(m), want, name)

    def test_counterexample_table(self):
        m, _, _ = gamma_pipeline(2)
        self.assertEqual(thresholds(m),
                         {"C0": 3, "M0": 5, "lambda0": 6, "lambda1": 5,
                          "lambda2": 11, "default": 11})

    def test_coverage_constant(self):
        for name in ("square", "grid"):
            m, _, _ = pipeline(name)
            self.assertEqual(coverage_constant(m),
                             self.FROZEN[name]["C0"], name)

    def test_w_carries_constants(self):
        m, _, w = pipeline("grid")
        self.assertEqual((w.c0, w.m0, w.lambda0, w.lambda1, w.lambda2),
                         (2, 6, 4, 6, 12))


class TestWGraph(unittest.TestCase):

    def test_fixture_graphs_complete(self):
        for name, nodes in (("square", 4), ("b3", 8), ("grid", 49),
                            ("rect", 12)):
            _, _, w = pipeline(name)
            self.assertEqual(w.graph.number_of_nodes(), nodes, name)
            self.assertEqual(w.graph.number_of_edges(),
                             nodes * (nodes - 1) // 2, name)

    def test_counterexample_graphs(self):
        for depth, nodes in ((2, 17), (4, 29)):
            m, x, w = gamma_pipeline(depth)
            self.assertEqual(w.graph.number_of_nodes(), nodes)
            self.assertEqual(w.graph.number_of_edges(),
                             nodes * (nodes - 1) // 2)
            big = build_w(m, x, lam=10 * thresholds(m)["default"])
            self.assertEqual(big.graph.number_of_edges(),
                             w.graph.number_of_edges())

    def test_monotone_in_lambda(self):
        m, x, _ = pipeline("grid")
        w1 = build_w(m, x, lam=1)
        w2 = build_w(m, x, lam=2)
        w12 = build_w(m, x, lam=12)
        e1 = set(map(frozenset, w1.graph.edges()))
        e2 = set(map(frozenset, w2.graph.edges()))
        e12 = set(map(frozenset, w12.graph.edges()))
        self.assertEqual((len(e1), len(e2), len(e12)), (396, 900, 1176))
        self.assertLess(e1, e2)
        self.assertLess(e2, e12)

    def test_equal_support_threshold(self):
        m, x, _ = pipeline("grid")
        w1 = build_w(m, x, lam=1)
        fam = sorted(support(x, w1.simplices[0]))
        k = colevel_of_complement(m, fam)
        self.assertEqual(k, 1)
        for i, j in itertools.combinations(range(len(w1.simplices)), 2):
            gap = max(m.dist(u, w1.tuples[i].coords[u],
                             w1.tuples[j].coords[u])
                      for u in m.index.domains)
            self.assertEqual(w1.graph.has_edge(i, j), gap <= k + 1,
                             "%d %d" % (i, j))

    def test_empty_intersection_colevel(self):
        m, _, _ = pipeline("grid")
        self.assertEqual(colevel_of_complement(m, []), 0)

    def test_no_self_loops(self):
        _, _, w = pipeline("grid")
        self.assertEqual(nx.number_of_selfloops(as_nx(w.graph)), 0)
        self.assertEqual(w.distances[3, 3], 0)
        self.assertEqual(w.distances[1, 5], w.distances[5, 1])

    def test_bad_lambda(self):
        m, x, _ = pipeline("square")
        with self.assertRaises(ChhsError) as err:
            build_w(m, x, lam=0)
        self.assertIn("lambda must be positive", str(err.exception))

    def test_simplex_names(self):
        _, _, w = pipeline("grid")
        self.assertEqual(w.simplex_name(0), "[c0]=0_0 [c1]=0_0")

    def test_realisation_bijection(self):
        m, _, w = pipeline("grid")
        self.assertEqual(sorted(w.points), sorted(m.points))

    def test_connected_at_lambda2(self):
        m, x, _ = pipeline("grid")
        w = build_w(m, x, lam=thresholds(m)["lambda2"])
        self.assertTrue(nx.is_connected(as_nx(w.graph)))


class TestCoordinateGraph(unittest.TestCase):

    def test_empty_class_gives_augmented(self):
        _, x, w = pipeline("grid")
        rec = coordinate_graph(w, class_of(x, frozenset()))
        aug = augmented_graph(w)
        names = sorted(aug.nodes())
        want = nx.floyd_warshall_numpy(aug, nodelist=names, weight=None)
        np.testing.assert_array_equal(rec["in_c"], want)
        np.testing.assert_array_equal(rec["in_y"], want)

    def test_record_keys(self):
        _, x, w = pipeline("square")
        c = next(c for c in simplex_classes(x) if not c.maximal)
        rec = coordinate_graph(w, c)
        self.assertEqual(sorted(rec), ["diam", "diam_in_y", "in_c", "in_y"])

    def test_compression_at_small_lambda(self):
        m, x, _ = pipeline("grid")
        w1 = build_w(m, x, lam=1)
        base0 = frozenset(("[c0]", c) for c in m.coord_graphs["[c0]"].nodes())
        apex_class = next(c for c in simplex_classes(x) if c.link == base0)
        rec = coordinate_graph(w1, apex_class)
        self.assertEqual(rec["diam"], 3)
        self.assertEqual(rec["diam_in_y"], 3)

    def test_errors(self):
        _, x, w = pipeline("grid")
        cs = {c.id: c for c in simplex_classes(x)}
        with self.assertRaises(ChhsError) as err:
            coordinate_graph(w, cs["q15"])
        self.assertIn("class is maximal", str(err.exception))


class TestMaximalSimplexChecks(unittest.TestCase):
    """coordinate_graph rejects a class whose Y swallows or splits a
    maximal simplex.  The class tables of a fresh gamma4 W are doctored
    to make each case."""

    def setUp(self):
        with open(os.path.join(ROOT, "fixtures", "gamma4.model"),
                  encoding="utf-8") as handle:
            m = load_model(handle.read())
        x = blow_up(m)
        self.w = build_w(m, x)
        self.t = self.w.class_tables
        self.c = next(c for c in simplex_classes(x) if not c.maximal)

    def call_error(self):
        with self.assertRaises(ChhsError) as err:
            coordinate_graph(self.w, self.c)
        return str(err.exception)

    def test_swallowed(self):
        """A saturation row covering the whole of simplex 0."""
        self.t.saturation[self.t.row[self.c.id]] |= self.t.sigma[0]
        self.assertEqual(self.call_error(),
                         "maximal simplex swallowed, witness %s %s"
                         % (self.c.id, self.w.simplex_name(0)))

    def test_split(self):
        """Two kept vertices of the first simplex that keeps two, no
        longer adjacent; every earlier simplex keeps one vertex."""
        kept = self.t.sigma & ~self.t.saturation[self.t.row[self.c.id]]
        i = int(np.flatnonzero(kept.sum(1) >= 2)[0])
        a, b = np.flatnonzero(kept[i])[:2]
        self.t.adj[a, b] = self.t.adj[b, a] = False
        self.assertEqual(self.call_error(),
                         "maximal simplex split, witness %s %s"
                         % (self.c.id, self.w.simplex_name(i)))


class TestCheckChhs(unittest.TestCase):

    VERDICT_NAMES = ["bounded_chains", "hyperbolic_links",
                     "common_nesting_extension", "link_edges_fill_in",
                     "simplicial_wedges", "simplicial_containers"]

    def test_fixture_reports(self):
        for name, comp in (("square", 5), ("b3", 7), ("grid", 5)):
            m, _, w = pipeline(name)
            rep = check_chhs(m, w)
            self.assertEqual(rep.complexity, comp, name)
            self.assertEqual(rep.delta, 0, name)
            self.assertEqual([r.name for r in rep.verdicts()],
                             self.VERDICT_NAMES, name)
            for r in rep.verdicts():
                self.assertTrue(r.verdict, "%s %s" % (name, r.name))

    def test_counterexample_report(self):
        m, _, w = gamma_pipeline(2)
        rep = check_chhs(m, w)
        self.assertEqual(rep.complexity, 6)
        got = dict((r.name, r) for r in rep.verdicts())
        self.assertTrue(got["bounded_chains"].verdict)
        self.assertTrue(got["hyperbolic_links"].verdict)
        self.assertTrue(got["link_edges_fill_in"].verdict)
        self.assertTrue(got["simplicial_containers"].verdict)
        self.assertFalse(got["common_nesting_extension"].verdict)
        self.assertEqual(got["common_nesting_extension"].witness,
                         ("q1", "q5", "q23"))
        self.assertFalse(got["simplicial_wedges"].verdict)
        self.assertEqual(got["simplicial_wedges"].witness, ("[1]|*", "q1"))

    def test_report_lines_deterministic(self):
        m, _, w = pipeline("square")
        first = check_chhs(m, w).lines()
        second = check_chhs(m, w).lines()
        self.assertEqual(first, second)
        self.assertTrue(first[0].startswith("complexity="))

    def test_wedge_containers_follow_index_properties(self):
        for name in ("square", "b3", "grid"):
            m, _, w = pipeline(name)
            strong = all(check_property(m.index, p).verdict
                         for p in ("wedges", "clean_containers",
                                   "strong_orth"))
            if not strong:
                continue
            rep = check_chhs(m, w)
            got = dict((r.name, r.verdict) for r in rep.verdicts())
            self.assertTrue(got["simplicial_wedges"], name)
            self.assertTrue(got["simplicial_containers"], name)

    def test_index_property_precondition_holds_somewhere(self):
        checked = [name for name in ("square", "b3", "grid")
                   if all(check_property(pipeline(name)[0].index, p).verdict
                          for p in ("wedges", "clean_containers",
                                    "strong_orth"))]
        self.assertTrue(checked)


class TestRealisationQi(unittest.TestCase):

    FROZEN = {
        "square": {"lipschitz": 2, "surjectivity_defect": 0,
                   "realisation_defect": 1, "lower": (1, 0),
                   "upper": (1, 1), "quasi_isometry": True},
        "b3": {"lipschitz": 3, "surjectivity_defect": 0,
               "realisation_defect": 2, "lower": (1, 0),
               "upper": (1, 2), "quasi_isometry": True},
        "grid": {"lipschitz": 12, "surjectivity_defect": 0,
                 "realisation_defect": 2, "lower": (1, 0),
                 "upper": (1, 11), "quasi_isometry": True},
    }

    def test_frozen_reports(self):
        for name, want in self.FROZEN.items():
            m, _, w = pipeline(name)
            self.assertEqual(realisation_qi(m, w), want, name)

    def test_defect_within_e(self):
        for name in self.FROZEN:
            m, _, w = pipeline(name)
            self.assertLessEqual(realisation_qi(m, w)["realisation_defect"],
                                 m.E, name)

    def test_equal_tuples_equal_points(self):
        for args in (("rect",), ("gamma", 2)):
            m, x, w = (pipeline(*args) if args[0] != "gamma"
                       else gamma_pipeline(args[1]))
            for i, j in itertools.combinations(range(len(w.tuples)), 2):
                if w.tuples[i].coords == w.tuples[j].coords:
                    self.assertEqual(w.points[i], w.points[j])

    def test_points_deterministic(self):
        m, x, w = pipeline("square")
        again = build_w(m, x)
        self.assertEqual(w.points, again.points)


class TestIntersectionConstructive(unittest.TestCase):

    def test_equal_simplices(self):
        _, x, _ = pipeline("grid")
        m = pipeline("grid")[0]
        for s in list(simplices(x))[:20]:
            if s in maximal_simplices(x):
                continue
            out = intersection_links_constructive(x, m, s, s)
            self.assertEqual(out["pi"], s)
            self.assertEqual(out["psi"], frozenset())

    def test_disjoint_support_pair(self):
        m, x, _ = pipeline("b3")
        us = sorted(x.minimal)
        base_a = sorted(v for v in x.cone(us[0]) if v[1] != APEX)
        base_b = sorted(v for v in x.cone(us[1]) if v[1] != APEX)
        sig = frozenset([(us[0], APEX), base_a[0]])
        del_ = frozenset([(us[1], APEX), base_b[0]])
        out = intersection_links_constructive(x, m, sig, del_)
        self.assertEqual(out["psi"], frozenset())
        self.assertEqual(link_of_set(x, out["pi"]),
                         link_of_set(x, sig) & link_of_set(x, del_))

    def test_square_full_scan(self):
        m, x, _ = pipeline("square")
        maxs = maximal_simplices(x)
        pool = [s for s in simplices(x) if s not in maxs]
        for sig in pool:
            for del_ in pool:
                out = intersection_links_constructive(x, m, sig, del_)
                want = link_of_set(x, sig) & link_of_set(x, del_)
                self.assertEqual(link_of_set(x, out["pi"]) | out["psi"],
                                 want)
                self.assertTrue(sig <= out["pi"])
                for v in out["psi"]:
                    self.assertTrue(link_of_set(x, out["pi"]) - {v}
                                    <= x.adj[v] | {v})

    def test_counterexample_hypothesis_failure(self):
        m, x, _ = gamma_pipeline(2)
        sig = frozenset([("[Gamma1]", APEX)])
        del_ = frozenset([("[Sigma]", APEX)])
        with self.assertRaises(ChhsError) as err:
            intersection_links_constructive(x, m, sig, del_)
        self.assertIn("no orthogonal inside", str(err.exception))
        self.assertIn("[c4] [c8]", str(err.exception))


class TestIdentitySuite(unittest.TestCase):

    SUITE_NAMES = ["link_decomposition", "shape_tags",
                   "containment_reversal", "link_complements",
                   "complement_dichotomy", "tuple_spread",
                   "tuple_consistency"]

    def test_all_green_fixtures(self):
        for name in ("square", "b3", "grid", "rect", "star"):
            m, x, _ = pipeline(name)
            reports = identity_suite(m, x)
            self.assertEqual([r.name for r in reports], self.SUITE_NAMES)
            for r in reports:
                self.assertTrue(r.verdict, "%s %s %s"
                                % (name, r.name, r.witness))

    def test_counterexample_dichotomy_fails(self):
        for depth in (2, 4):
            m, x, _ = gamma_pipeline(depth)
            got = dict((r.name, r) for r in identity_suite(m, x))
            self.assertFalse(got["complement_dichotomy"].verdict)
            self.assertEqual(got["complement_dichotomy"].witness, ("[1]",))
            for name in self.SUITE_NAMES:
                if name == "complement_dichotomy":
                    continue
                self.assertTrue(got[name].verdict, name)

    def test_measured_constants(self):
        m, x, _ = pipeline("grid")
        got = dict((r.name, r) for r in identity_suite(m, x))
        self.assertEqual(got["tuple_spread"].constant, 4)
        self.assertLessEqual(got["tuple_spread"].constant, 10 * m.E)
        self.assertEqual(got["tuple_consistency"].constant, 0)


def grid_transpose(m):
    """Axis-swap automorphism of the grid model, apexes matched through
    their neighbour sets."""

    def flip(name):
        i, j = name.split("_")
        return "%s_%s" % (j, i)

    hc = m.hyperclosure
    domains = {}
    for cid in hc.order:
        image = frozenset(flip(v) for v in hc.classes[cid].rep)
        domains[cid] = next(o for o in hc.order
                            if image in hc.classes[o].members)
    coords = {}
    for u in m.index.domains:
        gu = m.coord_graphs[u]
        gv = m.coord_graphs[domains[u]]
        apex_img = dict((frozenset(gv[h]), h) for h in gv.nodes()
                        if str(h).startswith("H_"))
        for c in gu.nodes():
            if str(c).startswith("H_"):
                coords[(u, c)] = apex_img[frozenset(flip(b)
                                                    for b in gu[c])]
            else:
                coords[(u, c)] = flip(c)
    return {"domains": domains, "coords": coords,
            "points": dict((z, flip(z)) for z in m.points)}


class TestEquivariance(unittest.TestCase):

    def test_identity(self):
        m, _, w = pipeline("grid")
        rep = check_equivariance(m, w, identity_automorphism(m))
        self.assertTrue(rep.verdict)
        self.assertEqual(rep.constant, 0)

    def test_transpose(self):
        m, _, w = pipeline("grid")
        rep = check_equivariance(m, w, grid_transpose(m))
        self.assertTrue(rep.verdict)
        self.assertEqual(rep.constant, 0)

    def test_realisation_defect(self):
        """The first simplex realised at the point the transpose moves
        farthest: the defect is the farthest a point's image lands from
        the realisation of the mapped simplex, in the point graph."""
        m, x, _ = pipeline("grid")
        g = grid_transpose(m)
        dist = dict(nx.all_pairs_shortest_path_length(as_nx(m.space)))
        w = build_w(m, x)
        w.points = (max(m.points, key=lambda z: dist[z][g["points"][z]]),
                    ) + w.points[1:]
        mapped = [w.index[frozenset(
            (g["domains"][u], c if c == APEX else g["coords"][(u, c)])
            for u, c in s)] for s in w.simplices]
        want = max(dist[g["points"][z]][w.points[j]]
                   for z, j in zip(w.points, mapped))
        rep = check_equivariance(m, w, g)
        self.assertGreater(want, m.E)
        self.assertEqual((rep.verdict, rep.constant, rep.witness),
                         (False, want, ("defect", "%d" % want)))

    def test_composition(self):
        m, _, w = pipeline("grid")
        g = grid_transpose(m)
        self.assertEqual(compose_automorphisms(m, g, g),
                         identity_automorphism(m))
        rep = check_equivariance(m, w, compose_automorphisms(m, g, g))
        self.assertTrue(rep.verdict)

    def test_round_trip(self):
        m, _, _ = pipeline("grid")
        g = grid_transpose(m)
        text = dump_automorphism(g)
        self.assertEqual(load_automorphism(text), g)
        self.assertEqual(len(text.splitlines()), 130)

    def test_load_errors(self):
        with self.assertRaises(ChhsError) as err:
            load_automorphism("domain A B\nwhat now\n")
        self.assertIn("line 2: cannot parse", str(err.exception))
        with self.assertRaises(ChhsError) as err:
            load_automorphism("coord A x y\n")
        self.assertIn("no domain lines declared", str(err.exception))

    def test_broken_domain_map(self):
        m, _, w = pipeline("grid")
        g = identity_automorphism(m)
        g["domains"]["[c1]"] = "[c0]"
        with self.assertRaises(ChhsError) as err:
            check_equivariance(m, w, g)
        self.assertIn("domain map is not a permutation",
                      str(err.exception))

    def test_broken_coordinate_map(self):
        m, _, w = pipeline("grid")
        g = identity_automorphism(m)
        g["coords"][("[c0]", "0_0")] = "0_1"
        g["coords"][("[c0]", "0_1")] = "0_0"
        with self.assertRaises(ChhsError) as err:
            check_equivariance(m, w, g)
        self.assertIn("coordinate map breaks an edge", str(err.exception))


class TestCollapse(unittest.TestCase):

    def test_counterexample_collapse(self):
        raw = cubes.index_set_from_hyperclosure(cubes.build_counterexample(2))
        m = collapse_unit_coordinates(raw)
        self.assertIsNot(m, raw)
        for u in m.index.domains:
            g = m.coord_graphs[u]
            if len(g) > 1:
                dist = dict(nx.all_pairs_shortest_path_length(as_nx(g)))
                self.assertGreater(max(dist[a][b] for a in g for b in g), 1)
        self.assertEqual(m.E, 3)

    def test_collapse_idempotent(self):
        m, _, _ = gamma_pipeline(2)
        self.assertIs(collapse_unit_coordinates(m), m)

    def test_no_op_on_grid(self):
        m, _, _ = pipeline("grid")
        self.assertIs(collapse_unit_coordinates(m), m)


class TestDotExports(unittest.TestCase):

    def test_shapes_and_determinism(self):
        m, x, w = pipeline("square")
        blown = blown_dot(x)
        wg = w_dot(w)
        self.assertTrue(blown.startswith("graph blowup {"))
        self.assertTrue(wg.startswith("graph wgraph {"))
        self.assertEqual(blown, blown_dot(x))
        self.assertEqual(wg, w_dot(w))

    def test_w_dot_labels(self):
        _, _, w = pipeline("square")
        self.assertIn(w.simplex_name(0), w_dot(w))


if __name__ == "__main__":
    unittest.main()
