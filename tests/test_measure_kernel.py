"""The array scans of measure_model and the dpr constant against the
loops they replaced.

The loop scans below are the reference implementations: each walks the
model's tables and asks HHSModel.dist and the test-side diam for one
pair at a time.
Every array scan must give the same value as its loop scan, from floor
0, and the larger of the floor and that value from every floor up to
E + 1; measure_model must give E, on the fixtures, the glued complex,
square grids, the 3-cube and small generated median graphs.  The loop
dpr constant is the reference for the one that reads each domain's
least-distance rows, witness included.
"""

import functools
import itertools
import math
import os
import sys
import unittest
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from hhsforge import chhs, cubes, model
from hhsforge.indexset import CONTAINS, NESTED_IN, TRANSVERSE, relation
from hhsforge.model import (
    HHSModel,
    augment_point_domains,
    load_model,
    measure_model,
)

import helpers
from golden.regenerate import CASES, run_case
from helpers import as_nx, consistency_value, diam, scan_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- loop scans, the reference ---------------------------------------


def _scan_diameters(m):
    best = 0
    for (u, x), img in sorted(m.named.pi.items()):
        best = max(best, diam(m, u, img))
    for (u, v), img in sorted(m.named.rho_up.items()):
        best = max(best, diam(m, v, img))
    for (v, u), table in sorted(m.named.rho_down.items()):
        # a vertex close to the upward spot may map to a large set;
        # only far vertices need small images
        spot = m.named.rho_up[(v, u)]
        for w in sorted(table):
            gap = m.dist(u, frozenset([w]), spot)
            best = max(best, min(gap, diam(m, v, table[w])))
    return best


def _scan_lipschitz(m):
    best = 0
    for x, y in m.space.edges():
        for u in m.index.domains:
            d = m.dist(u, m.named.pi[(u, x)], m.named.pi[(u, y)])
            # (E, E)-coarse Lipschitz over an edge needs d <= 2E
            best = max(best, int(math.ceil(d / 2.0)))
    return best


def _scan_consistency(m):
    best = 0
    for x in m.points:
        coords = dict((u, m.named.pi[(u, x)]) for u in m.index.domains)
        for u, v in itertools.combinations(m.index.domains, 2):
            if relation(m.index, u, v) in (TRANSVERSE, NESTED_IN, CONTAINS):
                best = max(best, consistency_value(m, coords, u, v))
    return best


def _scan_rho_consistency(m):
    best = 0
    for u in m.index.domains:
        for v in sorted(m.index.up[u] - frozenset([u])):
            for w in m.index.domains:
                if (u, w) in m.named.rho_up and (v, w) in m.named.rho_up:
                    best = max(best, m.dist(w, m.named.rho_up[(u, w)],
                                            m.named.rho_up[(v, w)]))
    return best


def _scan_bgi(m):
    """Least e with the edgewise bounded geodesic image condition."""
    worst = 0
    for (u, v), table in sorted(m.named.rho_down.items()):
        anchor = m.named.rho_up[(u, v)]
        for a, b in m.coord_graphs[v].edges():
            gap = min(m.dist(v, a, anchor), m.dist(v, b, anchor))
            spread = diam(m, u, table[a] | table[b])
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
        if v not in cache:
            cache[v] = dict(nx.all_pairs_shortest_path_length(
                as_nx(m.coord_graphs[v])))
        table = cache[v]
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
            anchor = m.named.rho_up[(u, v)]
            reach_cache = {}
            for x, y in itertools.combinations(m.points, 2):
                gap = m.dist(u, m.named.pi[(u, x)], m.named.pi[(u, y)])
                if gap <= worst:
                    continue
                ends = (m.named.pi[(v, x)], m.named.pi[(v, y)])
                if ends not in reach_cache:
                    reach_cache[ends] = m.dist(v, anchor,
                                               _interval(m, v, *ends))
                reach = reach_cache[ends]
                if reach > 0:
                    worst = max(worst, min(gap, reach))
    return worst


def _reach(k, sets, anchor):
    """reach[i, j]: the least anchor row value on a geodesic from set i
    to set j, so the distance from the anchor set to their interval."""
    rows = k.near[sets]
    span = k.gap[np.ix_(sets, sets)]
    far = np.iinfo(np.int32).max
    return np.array([np.where(row + rows == span[i][:, None], anchor, far)
                     .min(1) for i, row in enumerate(rows)])


def array_scan_large_links(m):
    """Large links from the full sets x sets reach of every nested pair
    whose largest C(u) gap beats the running worst: every row of it is
    reduced and every point pair scored."""
    ks = m.metrics
    worst = 0
    for v in m.index.domains:
        big = ks[v]
        sets, inv = np.unique(big.point, return_inverse=True)
        for u in m.index.domains:
            if u == v or v not in m.index.up[u]:
                continue
            gap = ks[u].point_gap()
            # a pair only counts up to its gap in C(u)
            if gap.max() <= worst:
                continue
            reach = _reach(big, sets, big.near[m.rho_up[(u, v)]])
            worst = max(worst,
                        int(np.minimum(gap, reach[np.ix_(inv, inv)]).max()))
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
                spot = m.named.rho_up[(v, w)]
                terms.append(tuple(m.dist(w, m.named.pi[(w, z)], spot)
                                   for z in points))
        if terms:
            base[v] = tuple(max(col) for col in zip(*terms))
        else:
            base[v] = (0,) * len(points)
    images = dict((v, sorted(frozenset().union(
        *(m.named.pi[(v, z)] for z in points)))) for v in m.index.domains)
    coord = {}
    for v in m.index.domains:
        for p in images[v]:
            coord[(v, p)] = tuple(m.dist(v, m.named.pi[(v, z)], p)
                                  for z in points)
    for family in m.index.cliques(m.index.domains):
        fam_base = tuple(max(base[v][i] for v in family)
                         for i in range(len(points)))
        pools = [images[v] for v in family]
        for choice in itertools.product(*pools):
            rows = [coord[pair] for pair in zip(family, choice)]
            best = min(max(fam_base[i], *(r[i] for r in rows))
                       for i in range(len(points)))
            worst = max(worst, best)
    return worst


def oracle_dpr(m):
    """(constant, witness) of dpr: the largest distance from a vertex of
    C(u) to the nearest upward spot of a minimal domain strictly below
    u, the first (u, vertex) to reach it."""
    worst = (0, None)
    minimal = m.index.minimal_domains()
    for u in m.index.domains:
        below = sorted(v for v in minimal
                       if v != u and v in m.index.down[u])
        if not below:
            continue
        for w in sorted(m.coord_graphs[u].nodes()):
            gap = min(m.dist(u, w, m.named.rho_up[(v, u)]) for v in below)
            if gap > worst[0]:
                worst = (gap, (u, w))
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


def from_floors(m, key, top):
    """A scan's value from each floor 0 .. top."""
    scan = getattr(model, "_scan_" + key)
    return [scan(m, floor) for floor in range(top + 1)]


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
    named = m.named
    return HHSModel(m.index, m.space, m.coord_graphs, named.pi, named.rho_up,
                    named.rho_down, E=m.E)


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


def cube_product(*sizes):
    """Cartesian product of paths with the given vertex counts; vertices
    are named by their coordinates joined with _."""
    g = nx.path_graph(sizes[0])
    for size in sizes[1:]:
        g = nx.cartesian_product(g, nx.path_graph(size))

    def name(v):
        # the product nests its vertices: ((a, b), c)
        return name(v[0]) + "_%d" % v[1] if isinstance(v, tuple) else str(v)

    return nx.relabel_nodes(g, dict((v, name(v)) for v in g))


def doctored(m, pair, vertex):
    """The same tables with rho_up of one nested pair moved to one
    vertex, and E = 1 given."""
    named = m.named
    rho_up = dict(named.rho_up)
    rho_up[pair] = frozenset([vertex])
    return HHSModel(m.index, m.space, m.coord_graphs, named.pi, rho_up,
                    named.rho_down, E=1)


def doctored_grid():
    """The 7 x 7 grid's model with rho_up([c0], [c2]) at the corner 0_0:
    its large links constant is 3."""
    return doctored(cubes.index_set_from_hyperclosure(
        cubes.grid_complex(7, 7)), ("[c0]", "[c2]"), "0_0")


def doctored_gamma4():
    """gamma4 with rho_up([c16], [c21]) at H_19: its large links
    constant is 3, and only a row after the first one visited for some
    nested pair reaches it."""
    return doctored(fixture_model("gamma4.model"), ("[c16]", "[c21]"),
                    "H_19")


# -- tests -------------------------------------------------------------


class ScanAgreement(unittest.TestCase):

    def check(self, m):
        expected = oracle_measure(m)
        top = expected["E"] + 1
        for key in ORACLES:
            with self.subTest(scan=key):
                scan = getattr(model, "_scan_" + key)
                self.assertEqual(scan(m), expected[key])
            with self.subTest(scan=key, floors=top):
                self.assertEqual(from_floors(m, key, top),
                                 [max(f, expected[key])
                                  for f in range(top + 1)])
        with self.subTest(scan="large_links, full reach"):
            self.assertEqual(array_scan_large_links(m),
                             expected["large_links"])
        self.assertEqual(scan_table(m), expected)
        self.assertEqual(measure_model(m), expected["E"])
        return expected

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
        for size in range(3, 10):
            with self.subTest(size=size):
                self.check(cubes.index_set_from_hyperclosure(
                    cubes.grid_complex(size, size)))

    def test_b3_cube(self):
        self.check(cubes.index_set_from_hyperclosure(cubes.b3_cube()))

    def test_cube_product(self):
        m = cubes.index_set_from_hyperclosure(cube_product(3, 3, 3))
        self.assertEqual(len(m.index.domains), 7)
        self.check(m)

    def test_doctored(self):
        """Models whose large links constant is neither 0 nor 2, so a
        scan that stops too early gives a smaller value here."""
        for make in (doctored_grid, doctored_gamma4):
            with self.subTest(model=make.__name__):
                self.assertEqual(self.check(make())["large_links"], 3)


class DistanceCallGuard(unittest.TestCase):
    """measure_model reads the per-domain arrays only: it asks
    HHSModel.dist nothing, where the loop scans ask millions of
    times."""

    def calls(self, m):
        with mock.patch.object(HHSModel, "dist", autospec=True,
                               side_effect=HHSModel.dist) as dist:
            measure_model(m)
        return dist.call_count

    def test_gamma4_fixture(self):
        self.assertEqual(self.calls(fixture_model("gamma4.model")), 0)

    def test_glued_raw_depth_5(self):
        self.assertEqual(self.calls(unmeasured(glued(5)[0])), 0)


class MeasureCounterGuard(unittest.TestCase):
    """measure_model reduces only the interval rows and measures only
    the union diameters that the running bound lets through, counted
    as calls of model._reach_row and _Metric.union_diam; the scans from
    floor 0 make many more."""

    def counts(self, measure, m):
        with mock.patch.object(model, "_reach_row",
                               side_effect=model._reach_row) as row, \
             mock.patch.object(model._Metric, "union_diam", autospec=True,
                               side_effect=model._Metric.union_diam) as union:
            measure(m)
        return row.call_count, union.call_count

    def test_glued_depth_6(self):
        raw, collapsed = glued(6)
        for m, exact in ((raw, (268, 198)), (collapsed, (134, 63))):
            with self.subTest(E=m.E, domains=len(m.index.domains)):
                self.assertEqual(self.counts(scan_table, m), exact)
                self.assertEqual(self.counts(measure_model, m), (19, 17))


class LargeLinksRowGuard(unittest.TestCase):
    """The large links scan reduces only the interval rows whose bound
    can beat the running worst, counted as calls of model._reach_row,
    where the full-reach oracle reduces every row of each nested pair
    that it does not skip whole."""

    def rows(self, m):
        with mock.patch.object(model, "_reach_row",
                               side_effect=model._reach_row) as row:
            model._scan_large_links(m)
        return row.call_count

    def full_rows(self, m):
        this = sys.modules[__name__]
        with mock.patch.object(this, "_reach", side_effect=_reach) as reach:
            array_scan_large_links(m)
        return sum(len(call.args[1]) for call in reach.call_args_list)

    def test_gamma4_fixture(self):
        m = fixture_model("gamma4.model")
        self.assertEqual(self.full_rows(m), 717)
        self.assertLessEqual(self.rows(m), 153)
        self.assertEqual(self.rows(m), 93)

    def test_grid_9x9(self):
        m = cubes.index_set_from_hyperclosure(cubes.grid_complex(9, 9))
        self.assertEqual(self.full_rows(m), 162)
        self.assertEqual(self.rows(m), 1)

    def test_no_point_gap(self):
        """The scan reads each metric's cached point row maxima and
        gathers only the gap rows of the sets it reduces."""
        for m in (fixture_model("gamma4.model"), unmeasured(glued(6)[0])):
            with mock.patch.object(model._Metric, "point_gap", autospec=True,
                                   side_effect=model._Metric.point_gap) \
                    as point_gap:
                model._scan_large_links(m)
            self.assertEqual(point_gap.call_count, 0)

    def test_doctored(self):
        for make, full, rows in ((doctored_grid, 98, 20),
                                 (doctored_gamma4, 504, 77)):
            with self.subTest(model=make.__name__):
                m = make()
                self.assertEqual(self.full_rows(m), full)
                self.assertEqual(self.rows(m), rows)


def oracle_metric_tables(c):
    """near, gap and span of the sets interned in c, the numbered C(u),
    one set at a time."""
    dist, members = c.dist, [list(row) for row in c.rows]
    near = np.array([dist[mem].min(0) for mem in members])
    far = np.array([dist[mem].max(0) for mem in members])
    gap = np.array([near[:, mem].min(1) for mem in members])
    span = np.array([far[:, mem].max(1) for mem in members])
    return near, gap, span


class MetricTables(unittest.TestCase):
    """The reduceat tables of every _Metric against the per-set loop,
    in blocks under the budget and one set to a block."""

    def check(self, m):
        for budget in (model._cells, lambda n: 1):
            for u, c in m.coords.items():
                with mock.patch.object(model, "_cells", budget):
                    tables = model._set_tables(c.dist, c.rows)
                with self.subTest(domain=u, one_set_blocks=budget(1) == 1):
                    for got, want in zip(tables, oracle_metric_tables(c)):
                        self.assertEqual(got.dtype, want.dtype)
                        np.testing.assert_array_equal(got, want)

    def test_fixtures(self):
        for name in ("chain.model", "product.model", "gamma4.model"):
            with self.subTest(name=name):
                self.check(fixture_model(name))

    def test_glued(self):
        for depth in (2, 4):
            for m in glued(depth):
                self.check(m)

    def test_grid(self):
        self.check(cubes.index_set_from_hyperclosure(
            cubes.grid_complex(5, 6)))


def check_dpr(m):
    """dpr, constant and witness, equals the loop oracle."""
    assert model._dpr_constant(m) == oracle_dpr(m)


class RealisationAgreement(unittest.TestCase):
    """The dpr constant against its loop oracle."""

    def test_fixtures(self):
        for name in ("chain.model", "product.model", "gamma4.model"):
            with self.subTest(name=name):
                check_dpr(fixture_model(name))
        with self.subTest(name="augmented chain.model"):
            check_dpr(augment_point_domains(
                fixture_model("chain.model")))
        for name in ("square.cplx", "grid.cplx"):
            with self.subTest(name=name), \
                 open(os.path.join(ROOT, "fixtures", name),
                      encoding="utf-8") as f:
                check_dpr(cubes.index_set_from_hyperclosure(
                    cubes.load_complex(f.read())))

    def test_helper_models(self):
        for make in (helpers.make_chain_model, helpers.make_product_model,
                     helpers.make_transverse_model,
                     helpers.make_behrstock_model, helpers.make_star_model,
                     helpers.make_rect_model):
            with self.subTest(model=make.__name__):
                check_dpr(make())

    def test_grids(self):
        for size in range(3, 8):
            with self.subTest(size=size):
                check_dpr(cubes.index_set_from_hyperclosure(
                    cubes.grid_complex(size, size)))

    def test_glued(self):
        for depth in (2, 3, 4, 5):
            for m in glued(depth):
                with self.subTest(depth=depth, E=m.E):
                    check_dpr(m)


def test_small_median_graphs_realisation():
    """dpr against the loop on products of a random tree
    with up to seven vertices and a path with one to four edges."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parents = st.integers(0, 6).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(parents, st.integers(1, 4))
    def check(parents, length):
        check_dpr(cubes.index_set_from_hyperclosure(
            tree_times_path(parents, length)))

    check()


class BulletTableOnce(unittest.TestCase):

    def test_gamma4_builds_it_once(self):
        # one build asks one to_set per domain that a nested or a
        # transverse domain projects to, for every such pair at once
        m = fixture_model("gamma4.model")
        pairs = [(v, w) for v, w in itertools.permutations(m.index.domains, 2)
                 if relation(m.index, v, w) in (NESTED_IN, TRANSVERSE)]
        targets = set(w for _, w in pairs)
        with mock.patch.object(model._Metric, "to_set", autospec=True,
                               side_effect=model._Metric.to_set) as to_set:
            model._scan_partial_realisation(m)
            chhs.thresholds(m)
        self.assertGreater(len(pairs), len(targets))
        self.assertEqual(to_set.call_count, len(targets))
        self.assertEqual(sum(len(call.args[1]) for call in
                             to_set.call_args_list), len(pairs))


class CliDistanceGuard(unittest.TestCase):
    """No subcommand asks HHSModel.dist anything: every path from the
    command line reads the per-domain arrays."""

    def test_every_subcommand(self):
        # the last golden case of each subcommand, dot output aside
        argvs = dict((argv[0], argv) for name, argv in CASES
                     if not name.endswith("_dot"))
        for command, argv in sorted(argvs.items()):
            with self.subTest(command=command), \
                 mock.patch.object(HHSModel, "dist", autospec=True,
                                   side_effect=HHSModel.dist) as dist:
                run_case(argv)
                self.assertEqual(dist.call_count, 0)


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
        expected = oracle_measure(m)
        assert scan_table(m) == expected
        assert measure_model(m) == expected["E"]
        assert array_scan_large_links(m) == expected["large_links"]
        top = expected["E"] + 1
        for key in ORACLES:
            assert from_floors(m, key, top) == [max(f, expected[key])
                                                for f in range(top + 1)]

    check()
