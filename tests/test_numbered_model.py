"""The numbered model against the named one it replaced.

A model keeps its tables on vertex numbers from the extraction, the
loader or the collapse to the measurement.  The references in
named_model.py keep them by name, as the model did before.  On every
input below the named views of the numbered model equal the
reference's tables, every set table of `m.metrics` equals the
reference's, set by set, and, where the loop scans are cheap enough,
every scan value and E equal the loop scans on the reference.
Validation gives the reference's message, first witness included, on
tables broken at random.
"""

import contextlib
import functools
import io
import os
import unittest
from unittest import mock

import numpy as np
import pytest

from hhsforge import chhs, cli, cubes, graph, model
from hhsforge.graph import Graph
from hhsforge.model import HHSModel, ModelError, load_model, measure_model

from helpers import scan_table
from named_model import NamedModel, named_collapse
from test_cube_kernel import oracle_extraction
from test_measure_kernel import cube_product, oracle_measure, tree_times_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(*path):
    with open(os.path.join(ROOT, *path), encoding="utf-8") as f:
        return f.read()


def parsed(text):
    """The pi and rho tables of a .model text, line by line."""
    pi, rho_up, rho_down = {}, {}, {}
    for line in text.splitlines():
        p = line.split("#", 1)[0].split()
        if p[:1] == ["pi"]:
            pi[(p[1], p[2])] = frozenset(p[3].split(","))
        elif p[:1] == ["rho"] and len(p) == 4:
            rho_up[(p[1], p[2])] = frozenset(p[3].split(","))
        elif p[:1] == ["rho"]:
            rho_down.setdefault((p[2], p[1]), {})[p[3]] = frozenset(
                p[4].split(","))
    return pi, rho_up, rho_down


def loaded(*path):
    """A .model file by the loader, and its tables by name."""
    text = read(*path)
    m = load_model(text)
    return m, NamedModel(m.index, m.space, m.coord_graphs, *parsed(text),
                         E=m.E)


def extracted(g):
    """The extracted model of a complex and its collapse, each with its
    reference: the loop extraction and the frozenset collapse."""
    hc = cubes.hyperclosure(g)
    m = cubes.index_set_from_hyperclosure(g, hc)
    want = NamedModel(*oracle_extraction(g, hc), E=m.E)
    collapsed = chhs.collapse_unit_coordinates(m)
    return ((m, want),
            (collapsed, named_collapse(want)))


def check_tables(test, m, want):
    named = m.named
    test.assertEqual(named.pi, want.pi)
    test.assertEqual(named.rho_up, want.rho_up)
    test.assertEqual(named.rho_down, want.rho_down)
    test.assertEqual(sorted(m.coord_graphs), sorted(want.coord_graphs))
    for u, g in m.coord_graphs.items():
        test.assertEqual(set(g.nodes()), set(want.coord_graphs[u].nodes()))
        test.assertEqual(set(map(frozenset, g.edges())),
                         set(map(frozenset, want.coord_graphs[u].edges())))
    for u, k in m.metrics.items():
        ids, near, gap, span = want.tables[u]
        c = m.coords[u]
        np.testing.assert_array_equal(c.dist, want.coord_dist[u][1])
        mine = dict((frozenset(c.names[i] for i in row), i)
                    for i, row in enumerate(c.rows))
        # every set the reference interns, and no other
        test.assertEqual(set(mine), set(ids))
        order = [mine[s] for s in ids]
        np.testing.assert_array_equal(k.near[order], near)
        np.testing.assert_array_equal(k.gap[np.ix_(order, order)], gap)
        np.testing.assert_array_equal(k.span[np.ix_(order, order)], span)


class Agreement(unittest.TestCase):

    def check(self, m, want, scans=True):
        with self.subTest(part="tables"):
            check_tables(self, m, want)
        if scans:
            with self.subTest(part="scans"):
                expected = oracle_measure(want)
                self.assertEqual(scan_table(m), expected)
                self.assertEqual(measure_model(m), expected["E"])
                self.assertEqual(m.E, expected["E"])

    def test_fixtures(self):
        for name in ("chain.model", "product.model", "gamma4.model"):
            with self.subTest(fixture=name):
                self.check(*loaded("fixtures", name))
        for name in ("square.cplx", "grid.cplx"):
            g = cubes.load_complex(read("fixtures", name))
            for m, want in extracted(g):
                with self.subTest(fixture=name, E=m.E):
                    self.check(m, want)

    def test_benchmark_models(self):
        """gamma4 and gamma6 as the benchmark stores them; the loop
        scans run on the glued complexes in test_glued."""
        for name in ("gamma4.model", "gamma6.model"):
            with self.subTest(model=name):
                self.check(*loaded("perfbench", "data", name), scans=False)

    def test_glued(self):
        for depth in (2, 3, 4, 5, 6):
            pairs = extracted(cubes.build_counterexample(depth))
            for collapsed, (m, want) in enumerate(pairs):
                with self.subTest(depth=depth, collapsed=collapsed):
                    self.check(m, want, scans=depth <= 4)

    def test_grids(self):
        for size in range(3, 10):
            for m, want in extracted(cubes.grid_complex(size, size)):
                with self.subTest(size=size):
                    self.check(m, want, scans=size <= 6)

    def test_cubes(self):
        for g in (cubes.b3_cube(), cube_product(3, 3, 3)):
            for m, want in extracted(g):
                self.check(m, want)


def test_tree_times_path():
    """Products of a random tree with up to seven vertices and a path
    with one to four edges."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parents = st.integers(0, 6).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))
    test = Agreement()

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(parents, st.integers(1, 4))
    def check(parents, length):
        for m, want in extracted(tree_times_path(parents, length)):
            test.check(m, want)

    check()


def outcome(make, *args):
    try:
        make(*args)
    except ModelError as err:
        return str(err)
    return "ok"


@functools.lru_cache(maxsize=None)
def fixture_tables(name):
    m = load_model(read("fixtures", name))
    named = m.named
    return m.index, m.space, m.coord_graphs, named.pi, named.rho_up, \
        named.rho_down


def broken_tables(st):
    """The tables of a model fixture with one to three entries, graphs
    or points broken, each in a way that validation names."""

    @st.composite
    def draw_tables(draw):
        name = draw(st.sampled_from(["chain.model", "product.model"]))
        index, space, graphs, pi, rho_up, rho_down = fixture_tables(name)
        space = space.subgraph(space.nodes())
        graphs = dict((u, g.subgraph(g.nodes())) for u, g in graphs.items())
        pi, rho_up = dict(pi), dict(rho_up)
        rho_down = dict((key, dict(t)) for key, t in rho_down.items())
        def pick(xs):
            return draw(st.sampled_from(sorted(xs, key=repr)))

        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from([
                "drop", "empty", "outside", "stray key", "stray pair",
                "isolated vertex", "drop graph", "empty graph",
                "isolated point"]))
            table = draw(st.sampled_from(["pi", "rho_up", "rho_down"]))
            entries = dict(pi=pi, rho_up=rho_up, rho_down=rho_down)[table]
            if not graphs or not entries:
                continue
            if kind == "isolated vertex":
                graphs[pick(graphs)].add_node("zz")
            elif kind == "drop graph":
                del graphs[pick(graphs)]
            elif kind == "empty graph":
                graphs[pick(graphs)] = Graph()
            elif kind == "isolated point":
                space.add_node("zz")
            elif kind == "stray pair":
                u, v = pick(index.domains), pick(index.domains)
                if table == "pi":
                    pi[(u, "zz" if draw(st.booleans()) else v)] = {"x"}
                elif table == "rho_up":
                    rho_up[(u, v)] = {"x"}
                else:
                    rho_down[(u, v)] = {}
            elif table == "rho_down":
                key = pick(rho_down)
                cells = rho_down[key]
                if kind == "stray key":
                    cells["zz"] = {"x"}
                elif cells:
                    w = pick(cells)
                    if kind == "drop":
                        del cells[w]
                    else:
                        cells[w] = set() if kind == "empty" else {"zz"}
            else:
                key = pick(entries)
                if kind == "drop":
                    del entries[key]
                elif kind != "stray key":
                    entries[key] = set() if kind == "empty" else {"zz"}
        return index, space, graphs, pi, rho_up, rho_down

    return draw_tables()


def test_validation_agrees():
    """HHSModel gives the message of the named validation loop, first
    witness included, or accepts what it accepts."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(broken_tables(hypothesis.strategies))
    def check(tables):
        want = outcome(NamedModel, *tables)
        assert outcome(HHSModel, *tables, 1) == want

    check()


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
         contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


class WorkGuard(unittest.TestCase):
    """Work the numbered model no longer does, counted: distance
    matrices of graphs it has a matrix of, and named views that only
    writers and readers of names need."""

    def apsp_orders(self, *argv):
        """The vertex order of every apsp call in a run, counted in both
        modules that call it."""
        orders = []

        def counted(g, order):
            orders.append(tuple(order))
            return graph.apsp(g, order)

        with mock.patch.object(cubes, "apsp", counted), \
             mock.patch.object(model, "apsp", counted):
            self.assertEqual(run_cli(*argv), 0)
        return orders

    def test_counterexample_depth_6(self):
        """The complex, then each of the raw model's 45 coordinate
        graphs once: the collapsed model shares 26 of them with their
        distances, and its 19 one-vertex graphs need none.  The named
        tables made 90 calls."""
        self.assertEqual(len(self.apsp_orders("counterexample", "--depth",
                                              "6")), 46)

    def test_one_complex_matrix_per_cplx_run(self):
        """The model's point distances are the complex's matrix."""
        path = os.path.join(ROOT, "fixtures", "grid.cplx")
        vertices = tuple(sorted(cubes.load_complex(read(path)).nodes()))
        for command in ("verify-chhs", "qi-report"):
            with self.subTest(command=command):
                self.assertEqual(self.apsp_orders(command, path).count(
                    vertices), 1)

    def test_no_named_views(self):
        for argv in (("counterexample", "--depth", "6"),
                     ("cubes", os.path.join(ROOT, "fixtures", "grid.cplx"))):
            with self.subTest(command=argv[0]), \
                 mock.patch.object(model, "_named_tables",
                                   side_effect=model._named_tables) as views:
                self.assertEqual(run_cli(*argv), 0)
            self.assertEqual(views.call_count, 0)
        # the counter sees a read of the views
        with mock.patch.object(model, "_named_tables",
                               side_effect=model._named_tables) as views:
            model.dump_model(cubes.index_set_from_hyperclosure(
                cubes.grid_complex(3, 3)))
        self.assertEqual(views.call_count, 1)
