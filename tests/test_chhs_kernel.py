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
W cut to make it fail.
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

from hhsforge import chhs, cubes
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
    HHSModel,
    distance_profile,
    load_model,
)

from helpers import augmented_graph
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
                        [m.dist(u, m.pi[(u, z)], m.pi[(u, y)])
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
                        gap = max(gap, m.dist(w, m.pi[(w, z)],
                                              m.rho_up[(v, w)]))
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
        on = max(m.dist(u, m.pi[(u, z)], b.coords[u]) for u in bar)
        off = max([m.dist(u, m.pi[(u, z)], b.coords[u]) for u in rest] + [0])
        key = (on, off, z)
        if best is None or key < best:
            best = key
    return best[2]


def oracle_points(m, w):
    return tuple(_realise_support_first(m, [u for u, c in s if c != APEX], b)
                 for s, b in zip(w.simplices, w.tuples))


def oracle_defect(m, w):
    return max(m.dist(u, m.pi[(u, z)], b.coords[u])
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
        lk = chhs.simplex_link(x, delta_s)
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


class DistanceCallGuard(unittest.TestCase):
    """thresholds, build_w, check_chhs and distance_profile read the
    per-domain arrays only: together they ask HHSModel.dist nothing,
    where the loops they replaced ask hundreds of thousands of times."""

    def test_gamma4_fixture(self):
        m = fixture_model("gamma4.model")
        x = blow_up(m)
        with mock.patch.object(HHSModel, "dist", autospec=True,
                               side_effect=HHSModel.dist) as dist, \
             mock.patch.object(HHSModel, "diam", autospec=True,
                               side_effect=HHSModel.diam) as diam:
            thresholds(m)
            w = build_w(m, x)
            check_chhs(m, w)
            distance_profile(m, m.kappa)
        self.assertEqual((dist.call_count, diam.call_count), (0, 0))


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
    from its class map; it checks no simplex again, where class_of
    re-ran the clique test 621 times on gamma4."""

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
