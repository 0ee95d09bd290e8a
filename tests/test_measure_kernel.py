"""The array scans of measure_model against the loop scans they replaced.

The loop scans below are the reference implementations: each walks the
model's tables and asks HHSModel.dist and diam for one pair at a time.
Every array scan must give the same value as its loop scan, and
measure_model the same dict, on the fixtures, the glued complex, square
grids, the 3-cube and small generated median graphs.
"""

import functools
import itertools
import math
import os
import unittest
from unittest import mock

import networkx as nx
import pytest

from hhsforge import chhs, cubes, model
from hhsforge.indexset import CONTAINS, NESTED_IN, TRANSVERSE, relation
from hhsforge.model import (
    HHSModel,
    _consistency_value,
    _orth_cliques,
    load_model,
    measure_model,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- loop scans, the reference ---------------------------------------


def _scan_diameters(m):
    best = 0
    for (u, x), img in sorted(m.pi.items()):
        best = max(best, m.diam(u, img))
    for (u, v), img in sorted(m.rho_up.items()):
        best = max(best, m.diam(v, img))
    for (v, u), table in sorted(m.rho_down.items()):
        # a vertex close to the upward spot may map to a large set;
        # only far vertices need small images
        spot = m.rho_up[(v, u)]
        for w in sorted(table):
            gap = m.dist(u, frozenset([w]), spot)
            best = max(best, min(gap, m.diam(v, table[w])))
    return best


def _scan_lipschitz(m):
    best = 0
    for x, y in m.space.edges():
        for u in m.index.domains:
            d = m.dist(u, m.pi[(u, x)], m.pi[(u, y)])
            # (E, E)-coarse Lipschitz over an edge needs d <= 2E
            best = max(best, int(math.ceil(d / 2.0)))
    return best


def _scan_consistency(m):
    best = 0
    for x in m.points:
        coords = dict((u, m.pi[(u, x)]) for u in m.index.domains)
        for u, v in itertools.combinations(m.index.domains, 2):
            if relation(m.index, u, v) in (TRANSVERSE, NESTED_IN, CONTAINS):
                best = max(best, _consistency_value(m, coords, u, v))
    return best


def _scan_rho_consistency(m):
    best = 0
    for u in m.index.domains:
        for v in sorted(m.index.up[u] - frozenset([u])):
            for w in m.index.domains:
                if (u, w) in m.rho_up and (v, w) in m.rho_up:
                    best = max(best, m.dist(w, m.rho_up[(u, w)],
                                            m.rho_up[(v, w)]))
    return best


def _scan_bgi(m):
    """Least e with the edgewise bounded geodesic image condition."""
    worst = 0
    for (u, v), table in sorted(m.rho_down.items()):
        anchor = m.rho_up[(u, v)]
        for a, b in m.coord_graphs[v].edges():
            gap = min(m.dist(v, a, anchor), m.dist(v, b, anchor))
            spread = m.diam(u, table[a] | table[b])
            if spread > 0:
                # condition must hold once e >= gap, or e >= spread
                worst = max(worst, min(gap, spread))
    return worst


def _interval(m, v, sa, sb):
    cache = getattr(m, "_interval_cache", None)
    if cache is None:
        cache = m._interval_cache = {}
    key = (v, sa, sb) if sorted(sa) <= sorted(sb) else (v, sb, sa)
    if key not in cache:
        table = m._pairs(v)
        da = dict((w, min(table[x][w] for x in sa)) for w in table)
        db = dict((w, min(table[x][w] for x in sb)) for w in table)
        span = min(da[x] for x in sb)
        cache[key] = frozenset(w for w in table
                               if da[w] + db[w] == span)
    return cache[key]


def _scan_large_links(m):
    """Least e for the interval form of the large links condition."""
    worst = 0
    for u in m.index.domains:
        for v in sorted(m.index.up[u] - frozenset([u])):
            anchor = m.rho_up[(u, v)]
            reach_cache = {}
            for x, y in itertools.combinations(m.points, 2):
                gap = m.dist(u, m.pi[(u, x)], m.pi[(u, y)])
                if gap <= worst:
                    continue
                ends = (m.pi[(v, x)], m.pi[(v, y)])
                if ends not in reach_cache:
                    reach_cache[ends] = m.dist(v, anchor,
                                               _interval(m, v, *ends))
                reach = reach_cache[ends]
                if reach > 0:
                    worst = max(worst, min(gap, reach))
    return worst


def _scan_partial_realisation(m):
    worst = 0
    points = m.points
    # the nested and transverse bullets depend only on the family member
    # and the candidate point, never on the chosen image vertex
    base = {}
    for v in m.index.domains:
        terms = []
        for w in m.index.domains:
            rel = relation(m.index, v, w)
            if rel in (NESTED_IN, TRANSVERSE):
                spot = m.rho_up[(v, w)]
                terms.append(tuple(m.dist(w, m.pi[(w, z)], spot)
                                   for z in points))
        if terms:
            base[v] = tuple(max(col) for col in zip(*terms))
        else:
            base[v] = (0,) * len(points)
    coord = {}
    for v in m.index.domains:
        for p in sorted(m.images(v)):
            coord[(v, p)] = tuple(m.dist(v, m.pi[(v, z)], p)
                                  for z in points)
    for family in _orth_cliques(m.index):
        fam_base = tuple(max(base[v][i] for v in family)
                         for i in range(len(points)))
        pools = [sorted(m.images(v)) for v in family]
        for choice in itertools.product(*pools):
            rows = [coord[pair] for pair in zip(family, choice)]
            best = min(max(fam_base[i], *(r[i] for r in rows))
                       for i in range(len(points)))
            worst = max(worst, best)
    return worst


ORACLES = {
    "diameters": _scan_diameters,
    "lipschitz": _scan_lipschitz,
    "consistency": _scan_consistency,
    "rho_consistency": _scan_rho_consistency,
    "bgi": _scan_bgi,
    "large_links": _scan_large_links,
    "partial_realisation": _scan_partial_realisation,
}


def oracle_measure(m):
    scans = dict((key, scan(m)) for key, scan in ORACLES.items())
    scans["E"] = max(1, max(scans.values()))
    return scans


# -- models ------------------------------------------------------------


def fixture_model(name):
    with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as f:
        return load_model(f.read())


@functools.lru_cache(maxsize=None)
def glued(depth):
    """The raw and the collapsed glued model at a depth."""
    raw = cubes.index_set_from_hyperclosure(
        cubes.build_counterexample(depth))
    return raw, chhs.collapse_unit_coordinates(raw)


def unmeasured(m):
    """The same tables with E given, so nothing is measured yet."""
    return HHSModel(m.index, m.space, m.coord_graphs, m.pi, m.rho_up,
                    m.rho_down, E=m.E)


def tree_times_path(parents, length):
    """Cartesian product of a tree, given by each vertex's parent, with
    a path of `length` edges; vertices are named t_p."""
    g = nx.Graph()
    for t in range(len(parents) + 1):
        for p in range(length + 1):
            g.add_node("%d_%d" % (t, p))
            if p:
                g.add_edge("%d_%d" % (t, p - 1), "%d_%d" % (t, p))
    for t, parent in enumerate(parents, 1):
        for p in range(length + 1):
            g.add_edge("%d_%d" % (parent, p), "%d_%d" % (t, p))
    return g


# -- tests -------------------------------------------------------------


class ScanAgreement(unittest.TestCase):

    def check(self, m):
        expected = oracle_measure(m)
        for key in ORACLES:
            with self.subTest(scan=key):
                scan = getattr(model, "_scan_" + key)
                self.assertEqual(scan(m), expected[key])
        self.assertEqual(measure_model(m), expected)

    def test_chain_fixture(self):
        self.check(fixture_model("chain.model"))

    def test_product_fixture(self):
        self.check(fixture_model("product.model"))

    def test_gamma4_fixture(self):
        self.check(fixture_model("gamma4.model"))

    def test_glued_raw(self):
        for depth in (3, 4, 5, 6):
            with self.subTest(depth=depth):
                self.check(glued(depth)[0])

    def test_glued_collapsed(self):
        for depth in (3, 4, 5, 6):
            with self.subTest(depth=depth):
                self.check(glued(depth)[1])

    def test_grids(self):
        for size in (7, 9):
            with self.subTest(size=size):
                self.check(cubes.index_set_from_hyperclosure(
                    cubes.grid_complex(size, size)))

    def test_b3_cube(self):
        self.check(cubes.index_set_from_hyperclosure(cubes.b3_cube()))


class DistanceCallGuard(unittest.TestCase):
    """measure_model reads the per-domain arrays only: it asks
    HHSModel.dist and diam nothing, where the loop scans ask millions
    of times."""

    def calls(self, m):
        with mock.patch.object(HHSModel, "dist", autospec=True,
                               side_effect=HHSModel.dist) as dist, \
             mock.patch.object(HHSModel, "diam", autospec=True,
                               side_effect=HHSModel.diam) as diam:
            measure_model(m)
        return dist.call_count, diam.call_count

    def test_gamma4_fixture(self):
        self.assertEqual(self.calls(fixture_model("gamma4.model")), (0, 0))

    def test_glued_raw_depth_5(self):
        self.assertEqual(self.calls(unmeasured(glued(5)[0])), (0, 0))


def test_small_median_graphs():
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
        m = cubes.index_set_from_hyperclosure(tree_times_path(parents,
                                                               length))
        assert measure_model(m) == oracle_measure(m)

    check()
