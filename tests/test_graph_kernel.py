"""The graph kernel against networkx, which stays the oracle.

`apsp`, the clique enumeration and the reachability closure must give
what networkx gives, in the same order where the order reaches the
output, and the join test that reads `apsp` must find the graphs whose
complement networkx finds disconnected.  A subprocess pins that the
pipelines run without importing networkx at all.
"""

import os
import subprocess
import sys
import types
import unittest

import networkx as nx
import numpy as np
import pytest

from hhsforge import chhs, cubes
from hhsforge.graph import (
    Graph,
    apsp,
    as_graph,
    chain_lengths,
    enumerate_all_cliques,
    reachability,
)
from hhsforge.indexset import load_index_set
from hhsforge.model import load_model

from helpers import as_nx, make_b3
from test_measure_kernel import glued, tree_times_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


def oracle_apsp(g, order):
    index = dict((v, i) for i, v in enumerate(order))
    d = np.full((len(order), len(order)), -1, dtype=np.int32)
    for v, row in nx.all_pairs_shortest_path_length(as_nx(g)):
        for w, k in row.items():
            d[index[v], index[w]] = k
    return d


def named_graphs():
    """Complexes, model coordinate and point graphs, and W graphs."""
    out = [(name, cubes.load_complex(read("fixtures", name)))
           for name in ("square.cplx", "grid.cplx")]
    out.append(("3-cube", cubes.b3_cube()))
    out += [("grid %dx%d" % rc, cubes.grid_complex(*rc))
            for rc in ((3, 3), (4, 5), (6, 6), (7, 9), (9, 9), (10, 12),
                       (12, 14))]
    out += [("glued %d" % d, cubes.build_counterexample(d))
            for d in range(1, 7)]
    for name in ("chain.model", "product.model", "gamma4.model"):
        m = load_model(read("fixtures", name))
        out.append((name + " space", m.space))
        out += [("%s C(%s)" % (name, u), g)
                for u, g in sorted(m.coord_graphs.items())]
        out.append((name + " W", chhs.build_w(m, chhs.blow_up(m)).graph))
    return out


def both(edges, nodes=()):
    """The same additions made to a Graph and to a networkx graph."""
    g, h = Graph(), nx.Graph()
    for x in (g, h):
        x.add_nodes_from(nodes)
        x.add_edges_from(edges)
    return g, h


def graphs():
    """Hypothesis graphs on up to 12 vertices, disconnected ones and
    isolated vertices included."""
    st = pytest.importorskip("hypothesis").strategies
    return st.tuples(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                 max_size=30),
        st.lists(st.integers(0, 14), max_size=4))


def given(strategy, examples=200):
    hypothesis = pytest.importorskip("hypothesis")

    def wrap(check):
        return hypothesis.settings(
            max_examples=examples, deadline=None, derandomize=True,
            database=None)(hypothesis.given(strategy)(check))
    return wrap


class Distances(unittest.TestCase):

    def test_named_graphs(self):
        for name, g in named_graphs():
            order = sorted(g.nodes())
            with self.subTest(graph=name):
                got = apsp(g, order)
                self.assertEqual(got.dtype, np.int32)
                np.testing.assert_array_equal(got, oracle_apsp(g, order))

    def test_w_distances(self):
        """W's distances come from the boolean search over its matrix:
        inf where the search over its `graph` view gives -1.  At lambda
        0.001 W is disconnected."""
        separated = 0
        for name in ("chain.model", "product.model", "gamma4.model"):
            m = load_model(read("fixtures", name))
            x = chhs.blow_up(m)
            for lam in (None, 0.001):
                w = chhs.build_w(m, x, lam=lam)
                with self.subTest(model=name, lam=lam):
                    got = w.distances
                    want = oracle_apsp(w.graph, range(len(w.simplices)))
                    np.testing.assert_array_equal(
                        np.where(np.isinf(got), -1, got), want)
                    separated += int(np.isinf(got).any())
        self.assertGreater(separated, 0)

    def test_stacked_masks(self):
        """chhs._distances on one stack of masks over a 300-vertex path:
        the whole path (diameter 299, past what uint8 holds), no
        vertex, the path cut in two, and every third vertex.  Each mask
        gives the distances of its induced subgraph, in sorted order,
        with the sentinel between parts and on every vertex off the
        mask; the sources go in several row blocks."""
        n = 300
        path = nx.path_graph(n)
        adj = nx.to_numpy_array(path, dtype=bool)
        keep = np.ones((4, n), dtype=bool)
        keep[1] = False
        keep[2, 150] = False
        keep[3] = np.arange(n) % 3 == 0
        self.assertGreater(len(keep) * n * n, chhs._BLOCK_CELLS)
        got = chhs._distances(adj, keep)
        self.assertEqual(got.dtype, np.uint16)
        self.assertEqual(got.shape, (4, n, n))
        far = np.iinfo(np.uint16).max
        self.assertEqual(int(got[0].max()), n - 1)
        for mask, dist in zip(keep, got):
            on = np.flatnonzero(mask)
            want = oracle_apsp(path.subgraph(on.tolist()), on.tolist())
            part = dist[np.ix_(on, on)].astype(np.int32)
            np.testing.assert_array_equal(np.where(part == far, -1, part),
                                          want)
            self.assertTrue((dist[~mask] == far).all())
            self.assertTrue((dist[:, ~mask] == far).all())
        self.assertTrue((got[1] == far).all())
        self.assertEqual(int(got[2, 0, n - 1]), far)

    def test_unreachable_pairs_get_the_sentinel(self):
        g, _ = both([(0, 1), (1, 2)], nodes=[3])
        np.testing.assert_array_equal(apsp(g, [3, 2, 1, 0]),
                                      [[0, -1, -1, -1], [-1, 0, 1, 2],
                                       [-1, 1, 0, 1], [-1, 2, 1, 0]])
        self.assertEqual(apsp(Graph(), []).shape, (0, 0))


def test_apsp_on_generated_graphs():
    @given(graphs())
    def check(spec):
        g, h = both(*spec)
        order = sorted(g.nodes())
        np.testing.assert_array_equal(apsp(g, order), oracle_apsp(h, order))

    check()


def test_cliques_in_networkx_order():
    @given(graphs())
    def check(spec):
        g, h = both(*spec)
        assert list(enumerate_all_cliques(g)) == \
            list(nx.enumerate_all_cliques(h))

    check()


def test_reachability_matches_transitive_closure():
    @given(graphs())
    def check(spec):
        edges, nodes = spec
        dig = nx.DiGraph()
        dig.add_nodes_from(range(15))
        dig.add_edges_from(edges)
        closed = nx.transitive_closure(dig, reflexive=True)
        assert reachability(range(15), edges) == \
            dict((v, frozenset(closed[v])) for v in range(15))

    check()


def test_is_join_on_the_atlas():
    """On every graph of at most 6 vertices in the atlas, a vertex set
    of 2 or more spans a join exactly when its complement is
    disconnected."""
    joins = 0
    for h in nx.graph_atlas_g():
        if len(h) > 6:
            break
        x = types.SimpleNamespace(adj=dict((v, set(h[v])) for v in h))
        want = len(h) >= 2 and not nx.is_connected(nx.complement(h))
        assert chhs._is_join(x, set(h)) == want, sorted(h.edges())
        joins += want
    assert joins > 0


def test_chain_lengths_match_longest_paths():
    """On posets given by random edges i -> j with i < j, listed in a
    topological order of networkx's choosing."""
    st = pytest.importorskip("hypothesis").strategies

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                    max_size=30))
    def check(pairs):
        dig = nx.DiGraph()
        dig.add_nodes_from(range(12))
        dig.add_edges_from((min(a, b), max(a, b)) for a, b in pairs if a != b)
        got = chain_lengths(list(nx.topological_sort(dig)),
                            lambda x: nx.ancestors(dig, x))
        assert got == dict(
            (x, nx.dag_longest_path_length(
                dig.subgraph(nx.ancestors(dig, x) | {x}))) for x in dig)

    check()


# -- orthogonality cliques ---------------------------------------------


def oracle_cliques(s, domains):
    h = as_nx(s.orth_graph(domains))
    return sorted((tuple(sorted(c)) for c in nx.enumerate_all_cliques(h)),
                  key=lambda c: (len(c), c))


def oracle_families(s, u):
    """Maximal cliques of the orthogonality graph on the minimal domains
    nested in u."""
    below = [w for w in s.minimal_domains() if w in s.down[u]]
    return sorted(tuple(sorted(c))
                  for c in nx.find_cliques(as_nx(s.orth_graph(below))))


def assert_orth_cliques(s):
    for domains in (s.domains, s.minimal_domains()):
        assert list(s.cliques(domains)) == oracle_cliques(s, domains)
    for u in s.domains:
        assert list(s.families(u)) == oracle_families(s, u), u


def index_sets():
    """Fixture and stored index sets, the raw and collapsed glued ones
    at depths 1-8, and those of square grids."""
    out = [(name, load_index_set(read("fixtures", name)))
           for name in ("b3.idx", "o6.idx")]
    out.append(("gamma6.idx",
                load_index_set(read("perfbench", "data", "gamma6.idx"))))
    out += [(name, load_model(read("fixtures", name)).index)
            for name in ("chain.model", "product.model", "gamma4.model")]
    for depth in range(1, 9):
        raw, collapsed = glued(depth)
        out += [("glued %d" % depth, raw.index),
                ("collapsed %d" % depth, collapsed.index)]
    out += [("grid %dx%d" % rc, cubes.index_set_from_hyperclosure(
        cubes.grid_complex(*rc)).index) for rc in ((2, 3), (5, 5), (6, 9))]
    return out


def test_orth_cliques_on_tree_times_path():
    st = pytest.importorskip("hypothesis").strategies
    parents = st.integers(0, 6).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))

    @given(st.tuples(parents, st.integers(1, 4)), examples=25)
    def check(spec):
        assert_orth_cliques(cubes.index_set_from_hyperclosure(
            tree_times_path(*spec)).index)

    check()


class Graphs(unittest.TestCase):

    def test_orth_cliques_of_index_sets(self):
        for name, s in index_sets():
            with self.subTest(index=name):
                assert_orth_cliques(s)

    def test_cliques_of_string_graphs(self):
        for s in (make_b3(), load_index_set(read("perfbench", "data",
                                                 "gamma6.idx"))):
            g = s.orth_graph(s.domains)
            self.assertEqual(list(enumerate_all_cliques(g)),
                             list(nx.enumerate_all_cliques(as_nx(g))))

    def test_closure_matches_transitive_closure(self):
        for path in (("fixtures", "b3.idx"), ("fixtures", "o6.idx"),
                     ("perfbench", "data", "gamma6.idx")):
            text = read(*path)
            s = load_index_set(text)
            dig = nx.DiGraph()
            dig.add_nodes_from(s.domains)
            dig.add_edges_from(tuple(line.split()[1:]) for line
                               in text.splitlines() if line.startswith("nest"))
            closed = nx.transitive_closure(dig, reflexive=True)
            with self.subTest(index=path[-1]):
                self.assertEqual(s.up, dict((u, frozenset(closed[u]))
                                            for u in s.domains))
                self.assertEqual(s.down, dict(
                    (u, frozenset(closed.predecessors(u))) for u in s.domains))

    def test_copy_keeps_order_labels_and_attributes(self):
        h = nx.Graph()
        h.add_nodes_from("dcba")
        h.add_edge("a", "d", label="x")
        h.add_edge("c", "b")
        h.add_edge("a", "d", label="y")
        h.graph["rim"] = ("a",)
        g = as_graph(h)
        self.assertIs(as_graph(g), g)
        self.assertEqual(list(g.nodes()), list(h.nodes()))
        self.assertEqual(g.edges(), list(h.edges()))
        self.assertEqual(dict(g["a"]), dict(h["a"]))
        self.assertEqual(g["d"]["a"], {"label": "y"})
        self.assertEqual(g.graph, h.graph)
        self.assertEqual(list(g.subgraph("abd").edges()),
                         list(nx.Graph(h.subgraph("abd")).edges()))


class ImportGuard(unittest.TestCase):

    def test_pipelines_run_without_networkx(self):
        script = (
            "import sys\n"
            "from hhsforge import chhs, cli, cubes, indexset, lattice, model\n"
            "for argv in (['cubes', 'fixtures/square.cplx'],\n"
            "             ['verify-chhs', 'fixtures/chain.model']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "assert 'networkx' not in sys.modules\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(
                os.pathsep))
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)
