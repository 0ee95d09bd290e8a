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
tuples, constant and witness.  The per-class loop, two searches on
boolean matrices for each class with its own fit and delta, is the
reference for the class graph table and its stacked searches.
"""

import itertools
import math
import os
import tracemalloc
import types
import unittest
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from hhsforge import chhs, cubes, model
from hhsforge.chhs import (
    APEX,
    ChhsError,
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

from helpers import (
    augmented_graph,
    kernel_consistency,
    least_fit,
    tuples_consistency,
)
from test_measure_kernel import cube_product, glued, tree_times_path

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


# -- the per-class loop, the reference for the class graph table -----


def oracle_distances(adj, keep):
    """All-pairs distances in the subgraph of adj induced on one keep
    mask, by a breadth-first search on boolean matrices; inf between
    vertices it does not join."""
    adj = adj & keep & keep[:, None]
    reach = np.diag(keep)
    dist = np.where(reach, 0.0, math.inf)
    step = 0
    while True:
        step += 1
        grown = reach | (reach @ adj)
        fresh = grown & ~reach
        if not fresh.any():
            return dist
        dist[fresh] = step
        reach = grown


def _finite(value):
    return int(value) if math.isfinite(value) else math.inf


def oracle_coordinate_graph(w, c):
    """One class's record from two searches of its own, or its
    ChhsError."""
    t = w.class_tables
    row = t.row[c.id]
    keep = ~t.saturation[row]
    dist = oracle_distances(t.adj, keep)
    meet = t.sigma & keep
    split = (meet @ (dist > 1) & meet).any(1)
    for i in np.flatnonzero(~meet.any(1) | split)[:1]:
        raise ChhsError("maximal simplex %s, witness %s %s" % (
            "split" if meet[i].any() else "swallowed", c.id,
            w.simplex_name(i)))
    link = np.flatnonzero(t.link[row])
    in_c = oracle_distances(t.adj, t.link[row])[np.ix_(link, link)]
    in_y = dist[np.ix_(link, link)]
    return {"diam": _finite(in_c.max()), "diam_in_y": _finite(in_y.max()),
            "in_c": in_c, "in_y": in_y}


def oracle_embedding_constants(in_c, in_y):
    """Least (K, C) with the class metric below K * ambient + C; None
    when C leaves apart two vertices that Y joins."""
    upper = np.triu_indices(len(in_c), 1)
    dc, dy = in_c[upper], in_y[upper]
    if (np.isinf(dc) & np.isfinite(dy)).any():
        return None
    return least_fit((dc[np.isfinite(dy)], dy[np.isfinite(dy)]))


def check_class_graphs(test, w):
    """Every non-maximal class of w, read through coordinate_graph and
    the class graph table, against the per-class loop: the record, or
    the error, and the class's delta and fit.  Returns the number of
    classes whose error agreed."""
    errors = 0
    for c in simplex_classes(w.blowup):
        if c.maximal:
            continue
        with test.subTest(cls=c.id):
            try:
                want = oracle_coordinate_graph(w, c)
            except ChhsError as err:
                with test.assertRaises(ChhsError) as got:
                    coordinate_graph(w, c)
                test.assertEqual(str(got.exception), str(err))
                errors += 1
                continue
            got = coordinate_graph(w, c)
            test.assertEqual(sorted(got), sorted(want))
            for key in ("diam", "diam_in_y"):
                test.assertEqual(got[key], want[key], key)
                test.assertIs(type(got[key]), type(want[key]), key)
            for key in ("in_c", "in_y"):
                test.assertEqual(got[key].dtype, want[key].dtype, key)
                np.testing.assert_array_equal(got[key], want[key], key)
            test.assertEqual(w.class_graphs.delta[c.id],
                             chhs._component_delta(want["in_c"]))
            test.assertEqual(w.class_graphs.qi[c.id],
                             oracle_embedding_constants(want["in_c"],
                                                        want["in_y"]))
    return errors


def check_table(test, m):
    """The class graph table of W at lambda 1 and at the default."""
    x = blow_up(m)
    for lam in (1, thresholds(m)["default"]):
        with test.subTest(lam=lam):
            check_class_graphs(test, build_w(m, x, lam=lam))


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
                w = build_w(m, x, lam=lam)
                check_records(test, w)
                check_class_graphs(test, w)


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
            test.assertEqual(w.class_graphs.qi[c.id], want["qi"])


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


def stored(*path):
    with open(os.path.join(ROOT, *path), encoding="utf-8") as f:
        return load_model(f.read())


def gamma6():
    return stored("perfbench", "data", "gamma6.model")


class ClassGraphAgreement(unittest.TestCase):
    """The class graph table, its stacked searches in blocks of masks
    and its fits over every class at once, against the per-class loop:
    records, errors, deltas and fits.  check_model runs the same check
    on the fixtures, the collapsed glued models and the generated
    models."""

    def test_gamma6(self):
        """gamma6 takes several blocks of classes."""
        m = gamma6()
        with mock.patch.object(chhs, "_distances",
                               side_effect=chhs._distances) as search:
            check_table(self, m)
        # two searches per block, at two scales
        self.assertGreater(search.call_count, 2 * 2)

    def test_grids(self):
        for size in range(3, 10):
            with self.subTest(size=size):
                check_table(self, grid(size))

    def test_cube_product(self):
        check_table(self, cubes.index_set_from_hyperclosure(
            cube_product(3, 3, 3)))

    def test_one_mask_per_block(self):
        """A budget of one class per block, with each search's sources
        in one block; then of one cell, which also puts each source in a
        block of its own."""
        m = gamma6()
        w = build_w(m, blow_up(m))
        n, s = len(w.class_tables.names), len(w.simplices)
        with mock.patch.object(chhs, "_BLOCK_CELLS", n * max(n, s)), \
             mock.patch.object(chhs, "_distances",
                               side_effect=chhs._distances) as search:
            check_class_graphs(self, w)
        self.assertEqual(search.call_count, 2 * len(w.class_graphs.qi))
        with mock.patch.object(chhs, "_BLOCK_CELLS", 1):
            check_table(self, fixture_model("product.model"))

    def test_swallowed_and_split(self):
        """The doctored class tables of TestMaximalSimplexChecks: each
        class's own error and witness, and every other class's record."""
        m = fixture_model("gamma4.model")
        x = blow_up(m)
        c = next(c for c in simplex_classes(x) if not c.maximal)
        w = build_w(m, x)
        t = w.class_tables
        # two simplices swallowed: the witness is the first
        t.saturation[t.row[c.id]] |= t.sigma[0] | t.sigma[1]
        self.assertGreater(check_class_graphs(self, w), 0)
        w = build_w(m, x)
        t = w.class_tables
        kept = t.sigma & ~t.saturation[t.row[c.id]]
        i = int(np.flatnonzero(kept.sum(1) >= 2)[0])
        a, b = np.flatnonzero(kept[i])[:2]
        t.adj[a, b] = t.adj[b, a] = False
        self.assertGreater(check_class_graphs(self, w), 0)

    def test_disconnected_class_graph(self):
        """No input has one, so the link of a class of the grid at
        lambda 1 is cut down to two vertices 2 apart: C has no edge, Y
        joins them, so the diameter is inf and there is no fit."""
        m = fixture_model("grid.cplx")
        w = build_w(m, blow_up(m), lam=1)
        c = next(c for c in simplex_classes(w.blowup)
                 if not c.maximal and coordinate_graph(w, c)["diam"] > 1)
        w = build_w(m, blow_up(m), lam=1)
        t = w.class_tables
        rec = oracle_coordinate_graph(w, c)
        a, b = np.argwhere(rec["in_y"] == 2)[0]
        link = np.flatnonzero(t.link[t.row[c.id]])
        t.link[t.row[c.id]] = False
        t.link[t.row[c.id], link[[a, b]]] = True
        check_class_graphs(self, w)
        self.assertEqual(coordinate_graph(w, c)["diam"], math.inf)
        self.assertEqual(coordinate_graph(w, c)["diam_in_y"], 2)
        self.assertIsNone(w.class_graphs.qi[c.id])
        self.assertEqual(w.class_graphs.delta[c.id], 0.0)


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


def oracle_b_sigma(m, sigma):
    """One canonical tuple with a span gather per domain off the
    support: the builder that canonical_tuples replaced."""
    bar = {}
    for u, c in sigma:
        bar.setdefault(u, set()).add(c)
    coords = chhs._support_coords(m, bar)
    ks = m.metrics
    spots = {}
    spread = 0
    for v in m.index.domains:
        if v in coords:
            continue
        ids = [m.rho_up[(u, v)] for u in sorted(bar) if (u, v) in m.rho_up]
        if not ids:
            raise ChhsError("no projection target, witness %s" % v)
        ids = spots[v] = np.array(ids, dtype=np.intp)
        diam = int(ks[v].span[np.ix_(ids, ids)].max())
        if diam > 10 * m.E:
            raise ChhsError("coordinate too spread, witness %s" % v)
        spread = max(spread, diam)
        c = m.coords[v]
        coords[v] = frozenset(c.names[w] for i in ids.tolist()
                              for w in c.rows[i])
    t = ConsistentTuple(m.index.domains, coords)
    t.spots, t.spread = spots, spread
    return t


def first_error(build):
    try:
        build()
    except ChhsError as err:
        return str(err)
    return None


class CanonicalTupleAgreement(unittest.TestCase):
    """canonical_tuples, one diameter gather per domain over the
    distinct supports, against the tuple-by-tuple builder: coordinates,
    spots and spread of every tuple, and the first error of a list."""

    def check(self, m):
        sigmas = chhs.maximal_simplices(blow_up(m))
        got = chhs.canonical_tuples(m, sigmas)
        self.assertEqual(len(got), len(sigmas))
        for t, sigma in zip(got, sigmas):
            want = oracle_b_sigma(m, sigma)
            self.assertEqual(t, want)
            self.assertEqual(list(t.coords), list(want.coords))
            self.assertEqual(list(t.spots), list(want.spots))
            for v in want.spots:
                self.assertEqual(t.spots[v].tolist(), want.spots[v].tolist())
            self.assertEqual(t.spread, want.spread)
            self.assertIs(type(t.spread), int)
        return sigmas

    def test_models(self):
        models = [(name, fixture_model(name)) for name in FIXTURES]
        models.append(("gamma6", gamma6()))
        models += [("grid %d" % size, grid(size)) for size in (3, 5, 7)]
        models += [("glued %d" % depth, glued(depth)[1])
                   for depth in (2, 3, 5)]
        models.append(("unprojected vertex", unprojected_vertex_model()))
        for name, m in models:
            with self.subTest(model=name):
                self.check(m)

    def test_first_error(self):
        """With E at 0 every spread coordinate is too spread; a simplex
        that is no cone edge fails before any domain.  Either way round,
        the list's first error is the one tuple-by-tuple building meets
        first."""
        m = fixture_model("gamma4.model")
        sigmas = list(self.check(m))
        u = sorted(m.index.minimal_domains())[0]
        broken = frozenset([(u, APEX)])
        with mock.patch.object(m, "E", 0):
            for order in (sigmas + [broken], [broken] + sigmas,
                          sigmas[:3], [broken]):
                want = first_error(lambda: [oracle_b_sigma(m, s)
                                            for s in order])
                self.assertIsNotNone(want)
                self.assertEqual(
                    first_error(lambda: chhs.canonical_tuples(m, order)),
                    want)
            self.assertIn("too spread",
                          first_error(lambda: chhs.canonical_tuples(
                              m, sigmas + [broken])))


def point_tuples(m):
    return [ConsistentTuple(m.index.domains,
                            dict((u, m.named.pi[(u, z)]) for u in m.index.domains))
            for z in m.points]


class TupleConsistencyAgreement(unittest.TestCase):
    """The consistency kernel against the scalar loop, constant and
    first (tuple, u, v) witness, whatever the verdict: on the canonical
    tuples as the identity suite gives them, and on the points' tuples
    as the consistency scan gives them from floor 0."""

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


def stub_class_graphs(adj, keep, link):
    """The class graph table of a stand-in for W: class i keeps the
    vertices of keep[i] in Y and has the link link[i], over one boolean
    adjacency; one empty maximal simplex swallows every class, so no
    class measures a delta."""
    classes = [types.SimpleNamespace(id="q%d" % i, maximal=False)
               for i in range(len(keep))]
    tables = types.SimpleNamespace(
        row=dict((c.id, i) for i, c in enumerate(classes)), adj=adj,
        saturation=~keep, link=link,
        sigma=np.zeros((1, len(adj)), dtype=bool))
    w = types.SimpleNamespace(blowup=types.SimpleNamespace(classes=classes),
                              class_tables=tables, simplex_name=str)
    return chhs._ClassGraphs(w)


def test_embedding_fits():
    """The fits of every class at once against the fit of each: on
    random graphs on 1 to 9 vertices, disconnected ones included, with
    eight random classes each (pairs that neither Y nor C joins, pairs
    that only Y joins, links of one vertex), and on cycles whose link
    leaves out one vertex, so that C is a path (past 21 vertices the
    fit needs C above 0)."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(60):
        n = int(rng.integers(1, 10))
        y = np.triu(rng.random((n, n)) < rng.random(), 1)
        keep = rng.random((8, n)) < 0.8
        link = keep & (rng.random((8, n)) < 0.7)
        # every link keeps a vertex
        spot = rng.integers(0, n, 8)
        keep[range(8), spot] = link[range(8), spot] = True
        cases.append((y | y.T, keep, link))
    for n in range(3, 31):
        y = nx.to_numpy_array(nx.cycle_graph(n + 1), dtype=bool)
        link = np.ones((1, n + 1), dtype=bool)
        link[0, 0] = False
        cases.append((y, np.ones((1, n + 1), dtype=bool), link))
    want, got = [], []
    for adj, keep, link in cases:
        qi = stub_class_graphs(adj, keep, link).qi
        for i, (k, lk) in enumerate(zip(keep, link)):
            on = np.ix_(np.flatnonzero(lk), np.flatnonzero(lk))
            want.append(oracle_embedding_constants(
                oracle_distances(adj, lk)[on], oracle_distances(adj, k)[on]))
            got.append(qi["q%d" % i])
    assert got == want
    assert None in want and (1, 0) in want
    assert any(f and f[1] > 0 for f in want)


class ClassGraphGuard(unittest.TestCase):
    """The class graphs of gamma6 come from stacked searches, blocks of
    classes whose temporaries stay under 2 ** 16 cells: the per-class
    loop made two searches for each of the 249 classes, and W's
    distances one more (499), and one stack of every class at once
    peaked at about 4 MiB over the rest of check_chhs."""

    def setUp(self):
        m = self.m = gamma6()
        self.w = build_w(m, blow_up(m))

    def test_searches(self):
        with mock.patch.object(chhs, "_distances",
                               side_effect=chhs._distances) as search:
            check_chhs(self.m, self.w)
        n, s = len(self.w.class_tables.names), len(self.w.simplices)
        self.assertEqual((n, s, len(self.w.class_graphs.qi)), (38, 41, 249))
        block = 2 ** 16 // (38 * 41)
        self.assertEqual(search.call_count, 2 * math.ceil(249 / block) + 1)

    def test_memory(self):
        tracemalloc.start()
        try:
            check_chhs(self.m, self.w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assertLess(peak, 2 * 2 ** 20)


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
