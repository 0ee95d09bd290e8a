"""The array kernels of thresholds, build_w, coordinate_graph,
condition 4 and the distance profile against the loops they replaced.

The loops below are the reference implementations: each asks
HHSModel.dist for one pair of vertex sets at a time, runs a
breadth-first search per class on a copy of the augmented graph, or
intersects neighbour sets of W pair by pair.  The thresholds dict, the
W edge sets at three scales, the realisation points and every
coordinate-graph record must come out equal on the fixtures, the
collapsed glued complex, square grids and small generated median
graphs; condition 4's verdict and witness on the fixtures, gamma6 and a
W cut to make it fail.  The scalar consistency loop is the reference
for the consistency kernel on the canonical tuples and the points'
tuples, constant and witness.
"""

import itertools
import math
import os
import tracemalloc
import unittest
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from hhsforge import chhs, cubes, model
from hhsforge.chhs import (
    APEX,
    blow_up,
    build_w,
    check_chhs,
    colevel_of_complement,
    coordinate_graph,
    simplex_classes,
    support,
    thresholds,
)
from hhsforge.indexset import NESTED_IN, TRANSVERSE, relation
from hhsforge.model import (
    ConsistentTuple,
    HHSModel,
    distance_profile,
    load_model,
)

from helpers import augmented_graph, kernel_consistency, tuples_consistency
from test_measure_kernel import glued, tree_times_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- loop thresholds, the reference ----------------------------------


def point_pairs(m):
    """(space distance, coordinate distance in every domain) of every
    pair of points."""
    out = []
    for i, z in enumerate(m.points):
        for j in range(i + 1, len(m.points)):
            y = m.points[j]
            out.append((int(m.point_dist[i, j]),
                        [m.dist(u, m.named.pi[(u, z)], m.named.pi[(u, y)])
                         for u in m.index.domains]))
    return out


def _modulus(pairs, t):
    """Largest coordinate jump between points at space distance <= t."""
    return max([max(ds) for dz, ds in pairs if dz <= t] + [0])


def coverage_constant(m):
    families = m.index.families(m.index.top)
    worst = 0
    for z in m.points:
        best = None
        for fam in families:
            gap = 0
            for v in fam:
                for w in m.index.domains:
                    if relation(m.index, v, w) in (NESTED_IN, TRANSVERSE):
                        gap = max(gap, m.dist(w, m.named.pi[(w, z)],
                                              m.named.rho_up[(v, w)]))
            if best is None or gap < best:
                best = gap
        worst = max(worst, best)
    return worst


def oracle_thresholds(m, pairs):
    c0 = coverage_constant(m)
    m0 = _modulus(pairs, 2 * c0 + 2)
    lam0 = 2 * _modulus(pairs, c0)
    lam1 = _modulus(pairs, 4 * c0 + 1)
    lam2 = m0 + 2 * m.E
    return {"C0": c0, "M0": m0, "lambda0": lam0, "lambda1": lam1,
            "lambda2": lam2, "default": max(lam0, lam1, lam2, 1)}


# -- loop W graph, the reference -------------------------------------


def _tuple_gap(m, a, b, stop=None):
    worst = 0
    for u in m.index.domains:
        d = m.dist(u, a.coords[u], b.coords[u])
        if d > worst:
            worst = d
            if stop is not None and worst > stop:
                return worst
    return worst


def oracle_edges(m, w, lam):
    supports = [support(w.blowup, s) for s in w.simplices]
    edges = set()
    for i, j in itertools.combinations(range(len(w.simplices)), 2):
        bound = (colevel_of_complement(m, supports[i] & supports[j]) + 1) * lam
        if _tuple_gap(m, w.tuples[i], w.tuples[j], bound) <= bound:
            edges.add((i, j))
    return edges


def _realise_support_first(m, bar, b):
    bar = sorted(bar)
    rest = [u for u in m.index.domains if u not in bar]
    best = None
    for z in m.points:
        on = max(m.dist(u, m.named.pi[(u, z)], b.coords[u]) for u in bar)
        off = max([m.dist(u, m.named.pi[(u, z)], b.coords[u]) for u in rest] + [0])
        key = (on, off, z)
        if best is None or key < best:
            best = key
    return best[2]


def oracle_points(m, w):
    return tuple(_realise_support_first(m, [u for u, c in s if c != APEX], b)
                 for s, b in zip(w.simplices, w.tuples))


def oracle_defect(m, w):
    return max(m.dist(u, m.named.pi[(u, z)], b.coords[u])
               for z, b in zip(w.points, w.tuples) for u in m.index.domains)


def oracle_distance_profile(pairs, threshold, max_k=10):
    rows = [(sum(d for d in ds if d > threshold), dz) for dz, ds in pairs]
    best = None
    for k in range(1, max_k + 1):
        c = 0
        for est, dz in rows:
            c = max(c, est - k * dz, dz - k * est, 0)
        if best is None or (c, k) < best:
            best = (c, k)
    return {"threshold": threshold, "K": best[1], "C": best[0]}


# -- loop coordinate graphs, the reference ---------------------------


def _augmented_graph(w):
    g = nx.Graph()
    g.add_nodes_from(w.blowup.blown.nodes())
    g.add_edges_from(w.blowup.blown.edges())
    for i, j in w.graph.edges():
        for a in w.simplices[i]:
            for b in w.simplices[j]:
                if a != b:
                    g.add_edge(a, b)
    return g


def _graph_diameter(g):
    if g.number_of_nodes() <= 1:
        return 0
    if not nx.is_connected(g):
        return math.inf
    return nx.diameter(g)


def _embedding_constants(cg, dist_y, max_k=10):
    rows = []
    table = dict(nx.all_pairs_shortest_path_length(cg))
    for a, b in itertools.combinations(sorted(cg.nodes()), 2):
        dc = table[a].get(b, math.inf)
        dy = dist_y[a].get(b, math.inf)
        if dc is math.inf and dy is not math.inf:
            return None
        if dy is math.inf:
            continue
        rows.append((dc, dy))
    best = None
    for k in range(1, max_k + 1):
        c = 0
        for dc, dy in rows:
            c = max(c, dc - k * dy)
        if best is None or (c, k) < best:
            best = (c, k)
    return (best[1], best[0])


def oracle_record(w, aug, c):
    """The class graph C of a class as a set of edges, its diameters in
    C and in Y, and its (K, C) fit."""
    y = aug.subgraph(set(aug.nodes()) - c.saturation)
    dist = dict(nx.all_pairs_shortest_path_length(y))
    cg = nx.Graph(y.subgraph(sorted(c.link)))
    for sigma in w.simplices:
        meet = sorted(sigma - c.saturation)
        assert meet
        assert max(dist[a].get(b, math.inf) for a in meet for b in meet) <= 1
    members = sorted(c.link)
    diam_in_y = 0
    for a, b in itertools.combinations(members, 2):
        diam_in_y = max(diam_in_y, dist[a].get(b, math.inf))
    return {
        "C": set(map(frozenset, cg.edges())),
        "diam": _graph_diameter(cg),
        "diam_in_y": diam_in_y,
        "qi": _embedding_constants(cg, dist),
    }


# -- loop condition 4, the reference ----------------------------------


def oracle_fill_in(w):
    """(verdict, witness) of link_edges_fill_in, pair by pair over sets
    of neighbours in the `graph` view of W."""
    x = w.blowup
    contains = {}
    for i, sigma in enumerate(w.simplices):
        for v in sigma:
            contains.setdefault(v, set()).add(i)
    wadj = dict((i, set(w.graph[i])) for i in w.graph.nodes())
    for delta_s in chhs.simplices(x):
        lk = x.links[delta_s]
        for v, u in itertools.combinations(sorted(lk), 2):
            if u in x.adj[v]:
                continue
            around_v = contains.get(v, set())
            around_u = contains.get(u, set())
            if not any(wadj[i] & around_u for i in around_v):
                continue
            over_v = [i for i in around_v if delta_s <= w.simplices[i]]
            over_u = set(j for j in around_u if delta_s <= w.simplices[j])
            if not any(wadj[i] & over_u for i in over_v):
                return False, (chhs._set_name(delta_s), chhs.vertex_name(v),
                               chhs.vertex_name(u))
    return True, None


# -- models ------------------------------------------------------------


def fixture_model(name):
    path = os.path.join(ROOT, "fixtures", name)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if name.endswith(".cplx"):
        return cubes.index_set_from_hyperclosure(cubes.load_complex(text))
    return load_model(text)


def grid(size):
    return cubes.index_set_from_hyperclosure(cubes.grid_complex(size, size))


FIXTURES = ("square.cplx", "grid.cplx", "chain.model", "product.model",
            "gamma4.model")


def check_model(test, m, records=True):
    """Thresholds, W at three scales and the records at the default."""
    pairs = point_pairs(m)
    want = oracle_thresholds(m, pairs)
    test.assertEqual(thresholds(m), want)
    x = blow_up(m)
    points = None
    for lam in (1, want["default"], 10 * want["default"]):
        w = build_w(m, x, lam=lam)
        test.assertEqual(set(w.graph.edges()), oracle_edges(m, w, lam),
                         "lambda %s" % lam)
        # the tuples, and so the points, do not depend on lambda
        points = points or oracle_points(m, w)
        test.assertEqual(w.points, points)
        test.assertEqual(w.realisation_defect, oracle_defect(m, w))
    for threshold in (0, m.kappa):
        test.assertEqual(distance_profile(m, threshold),
                         oracle_distance_profile(pairs, threshold))
    if records:
        # at lambda 1 two class graphs of gamma4 are distorted in Y, so
        # their distances in C and in Y differ
        for lam in (1, want["default"]):
            with test.subTest(records=lam):
                check_records(test, build_w(m, x, lam=lam))


def check_records(test, w):
    aug = _augmented_graph(w)
    test.assertEqual(set(map(frozenset, augmented_graph(w).edges())),
                     set(map(frozenset, aug.edges())))
    for c in simplex_classes(w.blowup):
        if c.maximal:
            continue
        want = oracle_record(w, aug, c)
        got = coordinate_graph(w, c)
        members = sorted(c.link)
        with test.subTest(cls=c.id):
            # the edges of C are the link pairs at distance 1 in C
            a, b = np.nonzero(np.triu(got["in_c"] == 1))
            test.assertEqual(set(frozenset((members[i], members[j]))
                                 for i, j in zip(a.tolist(), b.tolist())),
                             want["C"])
            for key in ("diam", "diam_in_y"):
                test.assertEqual(got[key], want[key], key)
            test.assertEqual(
                chhs._embedding_constants(got["in_c"], got["in_y"]),
                want["qi"])


# -- tests -------------------------------------------------------------


class KernelAgreement(unittest.TestCase):

    def test_fixtures(self):
        for name in FIXTURES:
            with self.subTest(fixture=name):
                check_model(self, fixture_model(name))

    def test_glued_collapsed(self):
        for depth in (2, 3, 4, 5, 6):
            with self.subTest(depth=depth):
                check_model(self, glued(depth)[1])

    def test_grids(self):
        for size in (6, 7):
            with self.subTest(size=size):
                check_model(self, grid(size))


class FillInAgreement(unittest.TestCase):
    """Condition 4 as boolean products over the maximal-simplex rows
    against the pair loop, verdict and witness."""

    def check(self, w):
        got = chhs._link_edges_fill_in(w)
        self.assertEqual((got.verdict, got.witness), oracle_fill_in(w))
        return got.verdict

    def test_models(self):
        models = [(name, fixture_model(name)) for name in FIXTURES]
        with open(os.path.join(ROOT, "perfbench", "data", "gamma6.model"),
                  encoding="utf-8") as f:
            models.append(("gamma6.model", load_model(f.read())))
        for name, m in models:
            x = blow_up(m)
            for lam in (1, thresholds(m)["default"]):
                with self.subTest(model=name, lam=lam):
                    self.check(build_w(m, x, lam=lam))

    def test_edges_cleared_over_one_simplex(self):
        """No input fails condition 4, so cut W between the maximal
        simplices over one simplex, the first whose cut makes the loop
        fail, and ask for the same witness."""
        m = fixture_model("gamma4.model")
        x = blow_up(m)
        for delta_s in chhs.simplices(x):
            w = build_w(m, x)
            over = [i for i, s in enumerate(w.simplices) if delta_s <= s]
            w.adj[np.ix_(over, over)] = False
            if not oracle_fill_in(w)[0]:
                break
        else:
            self.fail("no cut makes condition 4 fail")
        self.assertFalse(self.check(w))


def canonical_tuples(m):
    return [chhs.b_sigma(m, s) for s in chhs.maximal_simplices(blow_up(m))]


def point_tuples(m):
    return [ConsistentTuple(m.index.domains,
                            dict((u, m.named.pi[(u, z)]) for u in m.index.domains))
            for z in m.points]


class TupleConsistencyAgreement(unittest.TestCase):
    """The consistency kernel against the scalar loop, constant and
    first (tuple, u, v) witness, whatever the verdict: on the canonical
    tuples as the identity suite gives them, and on the points' tuples
    as measure_model gives them."""

    def check(self, m):
        tuples = canonical_tuples(m)
        self.assertEqual(
            model._consistency(m, *chhs._canonical_rows(m, tuples)),
            tuples_consistency(m, tuples))
        ks = m.metrics
        self.assertEqual(
            model._consistency(
                m, ks, dict((u, k.point[:, None]) for u, k in ks.items()),
                dict((u, k.point_vertices) for u, k in ks.items())),
            tuples_consistency(m, point_tuples(m)))

    def test_fixtures(self):
        for name in ("square.cplx", "chain.model", "product.model",
                     "gamma4.model"):
            with self.subTest(fixture=name):
                self.check(fixture_model(name))

    def test_b3_and_grid(self):
        self.check(cubes.index_set_from_hyperclosure(cubes.b3_cube()))
        self.check(grid(7))

    def test_gamma6(self):
        self.check(glued(6)[1])

    def test_doctored_tuple(self):
        """Tuple 24 of grid 7x7 with its top coordinate moved to the
        projections of 0_1 and 0_3: the grid's tuples are consistent,
        this one is 1 off, first in the pair ([c1], [c2]).  Its
        coordinate unites two sets, and only their nearer one counts."""
        m = grid(7)
        tuples = canonical_tuples(m)
        spots = [m.named.pi[("[c2]", "0_1")], m.named.pi[("[c2]", "0_3")]]
        bad = ConsistentTuple(m.index.domains,
                              dict(tuples[24].coords,
                                   **{"[c2]": frozenset().union(*spots)}))
        bad.spots = {"[c2]": m.coords["[c2]"].lookup(spots)}
        tuples[24] = bad
        want = (1, (24, "[c1]", "[c2]"))
        self.assertEqual(tuples_consistency(m, tuples), want)
        self.assertEqual(
            model._consistency(m, *chhs._canonical_rows(m, tuples)), want)
        self.assertEqual(kernel_consistency(m, tuples), want)
        report = chhs.check_tuple_consistency(m, tuples)
        self.assertEqual((report.verdict, report.constant), (True, 1))
        # with E at 0 every gap is over the bound, and the report names
        # the pair
        with mock.patch.object(m, "E", 0):
            report = chhs.check_tuple_consistency(m, tuples)
        self.assertEqual((report.verdict, report.witness, report.constant),
                         (False, ("[c1]", "[c2]"), 1))


def oracle_tuple_distances(m, tuples):
    """The loop that _tuple_distances replaced: each domain's distinct
    coordinates measured on the distance matrix of C(u), one vertex
    row per coordinate."""
    gap = np.zeros((len(tuples), len(tuples)), dtype=np.int32)
    near = {}
    for u in m.index.domains:
        index, dist = m.coords[u].index, m.coords[u].dist
        sets = {}
        ids = np.array([sets.setdefault(b.coords[u], len(sets))
                        for b in tuples], dtype=np.intp)
        members = [[index[w] for w in s] for s in sets]
        rows = np.array([dist[mem].min(0) for mem in members])
        between = np.array([rows[:, mem].min(1) for mem in members])
        gap = np.maximum(gap, between[np.ix_(ids, ids)])
        near[u] = np.column_stack(
            [rows[:, [index[w] for w in m.named.pi[(u, z)]]].min(1)
             for z in m.points])[ids]
    return gap, near


def unprojected_vertex_model():
    """product.model with a vertex a3 of the minimal domain A that no
    point projects to: the one kind of input where `m.metrics` interns
    a support vertex as a set of its own."""
    path = os.path.join(ROOT, "fixtures", "product.model")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return load_model(text + "coord A vertex a3\ncoord A edge a2 a3\n")


class TupleDistanceAgreement(unittest.TestCase):
    """_tuple_distances reads the set table of `m.metrics` against the
    loop over each coordinate's vertex rows: gap and every near[u]."""

    def check(self, m):
        tuples = canonical_tuples(m)
        gap, near = chhs._tuple_distances(m, tuples)
        want_gap, want_near = oracle_tuple_distances(m, tuples)
        np.testing.assert_array_equal(gap, want_gap)
        self.assertEqual(sorted(near), sorted(want_near))
        for u in m.index.domains:
            np.testing.assert_array_equal(near[u], want_near[u], u)

    def test_fixtures(self):
        for name in FIXTURES:
            with self.subTest(fixture=name):
                self.check(fixture_model(name))

    def test_glued_collapsed(self):
        # depth 4 is gamma4's complex, depth 6 gamma6
        for depth in (2, 3, 4, 5, 6):
            with self.subTest(depth=depth):
                self.check(glued(depth)[1])

    def test_grids(self):
        for size in range(3, 10):
            with self.subTest(size=size):
                self.check(grid(size))

    def test_unprojected_vertex(self):
        self.check(unprojected_vertex_model())


class UnprojectedMinimalVertex(unittest.TestCase):
    """A support vertex that is no point's projection: `m.metrics`
    interns it after the model's own sets, and the identity suite and W
    read it there."""

    def setUp(self):
        self.m = unprojected_vertex_model()
        self.tuples = canonical_tuples(self.m)

    def test_singleton_interned_last(self):
        k = self.m.metrics["A"]
        c = self.m.coords["A"]
        a3 = frozenset(["a3"])
        (i,) = c.lookup([a3])
        self.assertEqual(i, len(c.rows) - 1)
        # the other vertices of A are point projections already
        self.assertEqual(len(c.rows), 4)
        mine = [b for b in self.tuples if b.coords["A"] == a3]
        self.assertEqual(len(mine), 3)
        for b in mine:
            self.assertNotIn("A", b.spots)
            self.assertEqual(chhs._coordinate_ids(k, "A", [b])[0].tolist(),
                             [i])

    def test_tuple_consistency(self):
        want = tuples_consistency(self.m, self.tuples)
        self.assertEqual(
            model._consistency(self.m,
                               *chhs._canonical_rows(self.m, self.tuples)),
            want)
        report = chhs.check_tuple_consistency(self.m, self.tuples)
        self.assertEqual(report.constant, want[0])


class IdentitySuiteGuard(unittest.TestCase):
    """The identity suite builds each canonical tuple once and measures
    them on the arrays: on gamma4 the scalar loop asked HHSModel.dist
    29,928 times, over 58 tuple builds."""

    def test_gamma4_fixture(self):
        m = fixture_model("gamma4.model")
        x = blow_up(m)
        with mock.patch.object(HHSModel, "dist", autospec=True,
                               side_effect=HHSModel.dist) as dist, \
             mock.patch.object(chhs, "b_sigma",
                               side_effect=chhs.b_sigma) as build:
            chhs.identity_suite(m, x)
        self.assertEqual(dist.call_count, 0)
        self.assertEqual(build.call_count, len(chhs.maximal_simplices(x)))
        self.assertEqual(build.call_count, 29)

    def test_gamma4_metrics_built_once(self):
        """The suite reads `m.metrics`: one _Metric per domain, where a
        second table of the suite's own built every domain again."""
        m = fixture_model("gamma4.model")
        x = blow_up(m)
        with mock.patch.object(model._Metric, "__init__", autospec=True,
                               side_effect=model._Metric.__init__) as metric:
            chhs.identity_suite(m, x)
        domain = dict((id(c), u) for u, c in m.coords.items())
        self.assertEqual(sorted(domain[id(call.args[1])]
                                for call in metric.call_args_list),
                         sorted(m.index.domains))
        self.assertEqual(metric.call_count, 37)


class DistanceCallGuard(unittest.TestCase):
    """thresholds, build_w, check_chhs and distance_profile read the
    per-domain arrays only: together they ask HHSModel.dist nothing,
    where the loops they replaced ask hundreds of thousands of times."""

    def test_gamma4_fixture(self):
        m = fixture_model("gamma4.model")
        x = blow_up(m)
        with mock.patch.object(HHSModel, "dist", autospec=True,
                               side_effect=HHSModel.dist) as dist:
            thresholds(m)
            w = build_w(m, x)
            check_chhs(m, w)
            distance_profile(m, m.kappa)
        self.assertEqual(dist.call_count, 0)


class MemoryGuard(unittest.TestCase):
    """check_chhs keeps each class's diameters, not its distances: with
    the projection tables built for every class it peaked at about
    18 MiB on gamma4, and with each class's Y distances kept it held on
    to 1.5 MiB once it returned."""

    def test_gamma4_fixture(self):
        m = fixture_model("gamma4.model")
        w = build_w(m, blow_up(m))
        tracemalloc.start()
        try:
            check_chhs(m, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assertLess(peak, 6 * 2 ** 20)

    def test_gamma4_keeps_nothing_per_class(self):
        """What check_chhs still holds once it returns, past the cached
        tables of the blow-up and of W, which are built first."""
        m = fixture_model("gamma4.model")
        x = blow_up(m)
        w = build_w(m, x)
        x.class_map, x.links, w.class_tables, w.distances
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            check_chhs(m, w)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        self.assertLess(kept, 2 ** 19)


class CheckSimplexGuard(unittest.TestCase):
    """check_chhs reads the class of each simplex the blow-up enumerated
    from its class map; it checks no simplex again, where a class
    lookup through check_simplex re-ran the clique test 621 times on
    gamma4."""

    def test_gamma4_fixture(self):
        m = fixture_model("gamma4.model")
        w = build_w(m, blow_up(m))
        with mock.patch.object(chhs, "check_simplex",
                               side_effect=chhs.check_simplex) as check:
            check_chhs(m, w)
        self.assertEqual(check.call_count, 0)


def test_small_median_graphs():
    """Products of a random tree with up to six vertices and a path with
    one to three edges."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parents = st.integers(0, 5).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))
    case = unittest.TestCase()

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(parents, st.integers(1, 3))
    def check(parents, length):
        check_model(case, cubes.index_set_from_hyperclosure(
            tree_times_path(parents, length)))

    check()


if __name__ == "__main__":
    unittest.main()
