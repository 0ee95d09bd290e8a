"""The O(n^2)-memory cube kernels against the n^3 kernels they replaced.

The functions below are the reference implementations: the einsum
median check, the full four-point scan, the one-shot convexity check
and the per-component class delta that copies each component into its
own graph.  Every new kernel must give the same value, and the same
CubeError message, on the fixtures, the glued complex, grids, small
cycles and generated graphs, and each kernel's memory must stay
O(n^2).

The cube pipeline checks the median property once and then relies on
the theorems about median graphs; the cut-graph halfspace builder and
the checks it no longer runs are kept here as oracles of those theorems.
So are the searches that the halfspace table replaced: the union-find
over square-opposite edges for the hyperplanes, the closure that kept a
gate image of every key and found its parallel copies by translation
across hyperplanes, and the orthogonal complement built as an
intersection of gate images, which the side rows replaced.

Model extraction reads gates as arrays on vertex numbers; the loop it
replaced, one frozenset gate image per representative and member, is
the oracle for every table it builds.
"""

import contextlib
import itertools
import os
import tracemalloc
import unittest
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from hhsforge import chhs, cubes
from hhsforge.cubes import CubeError, _ctx
from hhsforge.graph import as_graph
from hhsforge.indexset import NESTED_IN, TRANSVERSE, IndexSet, relation
from hhsforge.model import HHSModel, load_model

from helpers import as_nx, convex_expansion, crossing, mask_gate_image
from test_chhs_kernel import _augmented_graph
from test_measure_kernel import cube_product, tree_times_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the n^3 kernels, the reference ------------------------------------


def oracle_validate_median_graph(g):
    ctx = _ctx(g)
    d = ctx["D"]
    between = (d[:, None, :] + d.T[None, :, :]) == d[:, :, None]
    im = between.astype(np.int32)
    counts = np.einsum("xyv,yzv,xzv->xyz", im, im, im)
    bad = np.argwhere(counts != 1)
    if len(bad):
        names = sorted(ctx["vertices"][i] for i in bad[0])
        raise CubeError("not median, witness %s %s %s" % tuple(names))
    return g


def oracle_four_point_delta(g):
    ctx = _ctx(g)
    d = ctx["D"].astype(np.int64)
    n = len(d)
    best = 0
    for x in range(n):
        s1 = d[x][:, None, None] + d[None, :, :]   # d(x,y) + d(z,w)
        s2 = d[x][None, :, None] + d[:, None, :]   # d(x,z) + d(y,w)
        s3 = d[x][None, None, :] + d[:, :, None]   # d(x,w) + d(y,z)
        # the two largest of the three pairings differ by at most 2 delta
        stack = np.stack([s1, s2, s3])
        stack.sort(axis=0)
        best = max(best, int((stack[2] - stack[1]).max()))
    return best / 2.0


def oracle_is_convex(ctx, s):
    si = sorted(ctx["index"][v] for v in s)
    so = sorted(i for i in range(len(ctx["vertices"])) if i not in set(si))
    if not si or not so:
        return None
    d = ctx["D"]
    inner = d[np.ix_(si, si)]
    cross = d[np.ix_(si, so)]
    through = cross[:, None, :] + cross[None, :, :]
    bad = (through.min(axis=2) == inner) & (inner > 0)
    if not bad.any():
        return None
    x, y = np.argwhere(bad)[0]
    return (ctx["vertices"][si[x]], ctx["vertices"][si[y]])


def oracle_gate_vertex(ctx, y, x):
    """The loop gate: y sorted on every call, the first closest vertex
    kept and its ties counted."""
    best = None
    ix = ctx["index"][x]
    for v in sorted(y):
        dv = int(ctx["D"][ix, ctx["index"][v]])
        if best is None or dv < best[1]:
            best = (v, dv, 1)
        elif dv == best[1]:
            best = (best[0], dv, best[2] + 1)
    if best[2] != 1:
        raise CubeError("gate not unique, witness %s" % x)
    return best[0]


def gate_images(image, ctx, g):
    """The gate image of every vertex into each subset, or the message
    of the CubeError raised; the vertices go in sorted order, so the
    witness is the least vertex with two closest ones."""
    everything = ctx["vertices"]
    out = []
    for y in subsets(g):
        try:
            out.append(image(ctx, y, everything))
        except CubeError as e:
            out.append("error: %s" % e)
    return out


def oracle_gate_image(ctx, y, f):
    return frozenset(oracle_gate_vertex(ctx, y, x) for x in f)


def oracle_complement_at(ctx, f, base):
    """Largest convex set at base spanning a product with f.

    Built as an intersection of gate images of combinatorial
    hyperplanes: first intersect the sides at base of the hyperplanes
    leaving base along f, then gate every side of every hyperplane
    crossing f into that intersection and intersect the images.
    """
    if base not in f:
        raise CubeError("base vertex outside the set, witness %s" % base)
    g = ctx["graph"]
    hs = cubes._hyperplanes(ctx)
    steps = set(frozenset((base, v)) for v in f if g.has_edge(base, v))
    y = set(g.nodes())
    for h in sorted((h for h in hs if h.edges & steps),
                    key=lambda h: h.hid):
        y &= h.sides[0] if base in h.sides[0] else h.sides[1]
    y = frozenset(y)
    out = y
    key = crossing(ctx, f)
    for h in sorted((h for h in hs if h.hid in key), key=lambda h: h.hid):
        for side in h.sides:
            out &= oracle_gate_image(ctx, y, side)
    return out


def oracle_component_delta(g):
    g = as_nx(g)
    best = 0.0
    for comp in nx.connected_components(g):
        sub = nx.Graph(g.subgraph(comp))
        if sub.number_of_nodes() >= 2:
            best = max(best, oracle_four_point_delta(sub))
    return best


def oracle_halfspaces(g, edges):
    """The components of g once a class's edges are cut, sorted: the
    halfspace builder that the distance columns replaced."""
    cut = as_nx(g)
    cut.remove_edges_from([e for e in g.edges() if frozenset(e) in edges])
    return tuple(frozenset(c) for c in
                 sorted(nx.connected_components(cut), key=sorted))


def oracle_hyperplanes(g):
    """(id, edges, halfspaces, sides) of every Theta-class: the classes
    of the union-find over square-opposite edges, by least edge, each
    halfspace read off the distance matrix at that edge."""
    ctx = _ctx(g)
    g = ctx["graph"]
    all_edges = g.edges()
    parent = {}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(a, b):
        parent[find(a)] = find(b)

    for e in all_edges:
        parent[frozenset(e)] = frozenset(e)
    for a, b in all_edges:
        for c in g.neighbors(a):
            if c == b:
                continue
            for d in g.neighbors(b):
                if d == a or d == c:
                    continue
                if g.has_edge(c, d):
                    union(frozenset((a, b)), frozenset((c, d)))
    groups = {}
    for e in parent:
        groups.setdefault(find(e), set()).add(e)
    labelled = all("label" in g[a][b] for a, b in all_edges)
    out = []
    dist, index = ctx["D"], ctx["index"]
    for (a, b), edges in sorted((min(tuple(sorted(e)) for e in group),
                                 frozenset(group))
                                for group in groups.values()):
        if labelled:
            hid = g[a][b]["label"]
        else:
            hid = "h%d" % len(out)
        near_a = dist[:, index[a]] < dist[:, index[b]]
        halves = tuple(sorted(
            (frozenset(itertools.compress(ctx["vertices"], side))
             for side in (near_a, ~near_a)), key=sorted))
        sides = tuple(frozenset(v for e in edges for v in e if v in half)
                      for half in halves)
        out.append((hid, edges, halves, sides))
    return out


def oracle_hyperclosure(g):
    """(records, chain length, top) of the hyperclosure, a record being
    (id, key, rep, members, minimal, boundary): keys closed in rounds of
    pairwise intersection, each new key with the gate image of one
    representative into another as its own, and members found from the
    representative by translation across the hyperplanes that do not
    cross it."""
    rim = frozenset(g.graph.get("rim", ()))
    ctx = _ctx(g)
    planes = oracle_hyperplanes(g)
    # partner[v]: the other end of v's edge in the hyperplane
    partners = [(hid, dict(p for e in edges for p in (tuple(e),
                                                      tuple(e)[::-1])))
                for hid, edges, _, _ in planes]

    def crossing(s):
        return frozenset(hid for hid, _, halves, _ in planes
                         if s & halves[0] and s - halves[0])

    def translates(f):
        key = crossing(f)
        seen = {f}
        queue = [f]
        while queue:
            cur = queue.pop()
            for hid, partner in partners:
                if hid not in key and all(v in partner for v in cur):
                    moved = frozenset(partner[v] for v in cur)
                    if moved not in seen:
                        seen.add(moved)
                        queue.append(moved)
        return tuple(sorted(seen, key=sorted))

    reps = {frozenset(hid for hid, _, _, _ in planes):
            frozenset(ctx["vertices"])}
    for _, _, _, sides in planes:
        for side in sides:
            if len(side) > 1:
                reps.setdefault(crossing(side), side)
    reps.pop(frozenset(), None)
    while True:
        added = []
        for k1, k2 in itertools.combinations(sorted(reps, key=sorted), 2):
            if k1 & k2 and k1 & k2 not in reps:
                added.append((k1 & k2,
                              oracle_gate_image(ctx, reps[k1], reps[k2])))
        if not added:
            break
        for key, rep in added:
            reps.setdefault(key, rep)
    records = []
    depth = {}
    for key in sorted(reps, key=lambda k: (len(k), sorted(k))):
        if len(key) == 1:
            cid = "[%s]" % min(key)
        else:
            cid = "[c%d]" % sum(len(k) > 1 for k in depth)
        depth[key] = 1 + max((depth[k] for k in depth if k < key), default=0)
        members = translates(reps[key])
        records.append((cid, key, members[0], members,
                        not any(k < key for k in reps),
                        bool(rim) and all(m & rim for m in members)))
    top = max(records, key=lambda r: len(r[1]))[0]
    return records, max(depth.values()), top


def check_closure(g):
    """hyperplanes and every hyperclosure record against the oracles."""
    assert [(h.hid, h.edges, h.halfspaces, h.sides)
            for h in cubes.hyperplanes(g)] == oracle_hyperplanes(g)
    hc = cubes.hyperclosure(g)
    records = [(r.id, r.key, r.rep, r.members, r.minimal, r.boundary)
               for r in map(hc.classes.__getitem__, hc.order)]
    assert (records, hc.chain_length, hc.top) == oracle_hyperclosure(g)


def oracle_extraction(g, hc):
    """The tables of index_set_from_hyperclosure by the loop it
    replaced: a frozenset gate image of every class member into every
    representative, and one gate per vertex and class.  Returns the
    arguments of the model, E left to measure."""
    ctx = _ctx(g)
    g = ctx["graph"]
    comp = cubes._complement_keys(ctx, hc)
    ids = list(hc.order)
    nesting = []
    orth = []
    for a, b in itertools.permutations(ids, 2):
        ka, kb = hc.classes[a].key, hc.classes[b].key
        if ka < kb:
            nesting.append((a, b))
    for a, b in itertools.combinations(ids, 2):
        ka, kb = hc.classes[a].key, hc.classes[b].key
        forward = kb <= comp[a]
        backward = ka <= comp[b]
        if forward != backward:
            raise CubeError("orthogonality asymmetric, witness %s %s"
                            % (a, b))
        if forward:
            orth.append((a, b))
    index = IndexSet(ids, nesting, orth)

    coord_graphs = {}
    apex_of = {}
    source_of = {}
    for cid in ids:
        rep = hc.classes[cid].rep
        images = set()
        for other in ids:
            for member in hc.classes[other].members:
                img = oracle_gate_image(ctx, rep, member)
                if 1 < len(img) < len(rep):
                    images.add(img)
        table = {}
        cg = g.subgraph(rep)
        for i, img in enumerate(sorted(images, key=sorted)):
            apex = "H_%d" % i
            if apex in rep:
                raise CubeError("apex id collides, witness %s" % apex)
            table[img] = apex
            cg.add_node(apex)
            for v in img:
                cg.add_edge(apex, v)
        coord_graphs[cid] = cg
        apex_of[cid] = table
        source_of[cid] = dict((apex, img) for img, apex in table.items())

    def land(cid, img):
        apex = apex_of[cid].get(img)
        return img | {apex} if apex else img

    pi = {}
    for cid in ids:
        rep = hc.classes[cid].rep
        for x in ctx["vertices"]:
            pi[(cid, x)] = frozenset([cubes._gate_vertex(ctx, rep, x)])
    rho_up = {}
    rho_down = {}
    for a, b in itertools.permutations(ids, 2):
        rel = relation(index, a, b)
        if rel not in (NESTED_IN, TRANSVERSE):
            continue
        ra, rb = hc.classes[a].rep, hc.classes[b].rep
        rho_up[(a, b)] = land(b, oracle_gate_image(ctx, rb, ra))
        if rel == NESTED_IN:
            table = {}
            for w in coord_graphs[b].nodes():
                if w in source_of[b]:
                    table[w] = land(a, oracle_gate_image(ctx, ra,
                                                         source_of[b][w]))
                else:
                    table[w] = frozenset([cubes._gate_vertex(ctx, ra, w)])
            rho_down[(a, b)] = table
    return index, g, coord_graphs, pi, rho_up, rho_down


def model_tables(m):
    """Every table of a model in its insertion order: pi, rho_up,
    rho_down, each coordinate graph's nodes and edges, and E."""
    return (list(m.named.pi.items()), list(m.named.rho_up.items()),
            [(key, list(table.items())) for key, table in m.named.rho_down.items()],
            [(u, list(cg.nodes()), list(cg.edges()))
             for u, cg in m.coord_graphs.items()],
            m.E)


def check_extraction(g):
    """The extracted model and its collapse against the loop oracle's
    tables and their collapse."""
    hc = cubes.hyperclosure(g)
    m = cubes.index_set_from_hyperclosure(g, hc)
    want = HHSModel(*oracle_extraction(g, hc), E=m.E)
    assert model_tables(m) == model_tables(want)
    assert model_tables(chhs.collapse_unit_coordinates(m)) == \
        model_tables(chhs.collapse_unit_coordinates(want))


def check_theorems(g):
    """What the pipeline no longer checks on a median graph g: every
    Theta-class cuts g into the two halfspaces read off the distance
    matrix, both convex, with sides that the partner map of its edges
    makes isomorphic (Mulder 1980, Djokovic 1973); both sides of a
    hyperplane give the same side row, and a row marks exactly the
    hyperplanes whose halfspaces meet those of h in all four quadrants,
    so the table of first sides is symmetric; every member of a class,
    its representative among them, is convex and crossed by exactly the
    class's key (Bandelt and Chepoi 2008)."""
    ctx = _ctx(g)
    graph = ctx["graph"]
    rows = cubes._side_rows(ctx)
    first = rows[0::2]
    np.testing.assert_array_equal(first, rows[1::2])
    np.testing.assert_array_equal(first, first.T)
    halves = ctx["halfspace"].astype(np.int64)
    halves = (halves, 1 - halves)
    quadrants = [a @ b.T for a in halves for b in halves]
    np.testing.assert_array_equal(first, np.minimum.reduce(quadrants) > 0)
    for h in cubes.hyperplanes(g):
        assert h.halfspaces == oracle_halfspaces(graph, h.edges), h.hid
        for half in h.halfspaces:
            assert cubes._is_convex(ctx, half) is None, h.hid
        partner = dict(p for e in h.edges for p in (tuple(e), tuple(e)[::-1]))
        assert frozenset(partner[v] for v in h.sides[0]) == h.sides[1]
        for x, y in itertools.combinations(sorted(h.sides[0]), 2):
            assert graph.has_edge(x, y) == \
                graph.has_edge(partner[x], partner[y]), h.hid
    hc = cubes.hyperclosure(g)
    for cid in hc.order:
        rec = hc.classes[cid]
        assert rec.rep in rec.members, cid
        for member in rec.members:
            assert crossing(ctx, member) == rec.key, cid
            assert cubes._is_convex(ctx, member) is None, cid


# -- graphs ------------------------------------------------------------


def outcome(func, g):
    """A kernel's value, or the message of the CubeError it raised."""
    try:
        value = func(g)
    except CubeError as e:
        return "error: %s" % e
    return "graph" if value is g else value


def named(g):
    return nx.relabel_nodes(g, dict((v, "v%d" % i)
                                    for i, v in enumerate(sorted(g))))


def fixture_complex(name):
    with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as f:
        return cubes.load_complex(f.read())


def small_graphs():
    """Fixtures, glued depths 1-6, square grids 3-9, cycles C4-C9, K2,3
    and the triangle, by name."""
    out = [("square.cplx", fixture_complex("square.cplx")),
           ("grid.cplx", fixture_complex("grid.cplx")),
           ("3-cube", cubes.b3_cube())]
    out += [("glued %d" % d, cubes.build_counterexample(d))
            for d in range(1, 7)]
    out += [("grid %d" % k, cubes.grid_complex(k, k)) for k in range(3, 10)]
    out += [("C%d" % k, named(nx.cycle_graph(k))) for k in range(4, 10)]
    out += [("K2,3", named(nx.complete_bipartite_graph(2, 3))),
            ("triangle", named(nx.cycle_graph(3)))]
    return out


def median_atlas_graphs():
    """Every connected median graph with 2 to 7 vertices."""
    return [g for g in map(named, nx.graph_atlas_g())
            if len(g) >= 2 and nx.is_connected(g)
            and outcome(cubes.validate_median_graph, g) == "graph"]


def subsets(g):
    """Every halfspace (convex when g is median), and some sets that are
    not convex: balls, pairs at distance two, and the set minus a
    vertex."""
    ctx = _ctx(g)
    verts = ctx["vertices"]
    out = [frozenset(verts), frozenset(verts[:1])]
    for h in cubes.hyperplanes(g):
        out.extend(h.halfspaces)
    d = ctx["D"]
    for i in range(0, len(verts), max(1, len(verts) // 5)):
        out.append(frozenset(verts[j] for j in np.flatnonzero(d[i] <= 1)))
        far = np.flatnonzero(d[i] == 2)
        if len(far):
            out.append(frozenset((verts[i], verts[far[0]])))
        out.append(frozenset(verts) - {verts[i]})
    return out


# -- tests -------------------------------------------------------------


class CubeKernelAgreement(unittest.TestCase):

    def check(self, name, g):
        for new, old in ((cubes.validate_median_graph,
                          oracle_validate_median_graph),
                         (cubes.four_point_delta, oracle_four_point_delta)):
            with self.subTest(graph=name, kernel=new.__name__):
                self.assertEqual(outcome(new, g), outcome(old, g))
        ctx = _ctx(g)
        for s in subsets(g):
            with self.subTest(graph=name, subset=sorted(s)):
                self.assertEqual(cubes._is_convex(ctx, s),
                                 oracle_is_convex(ctx, s))
        with self.subTest(graph=name, kernel="gates"):
            self.assertEqual(gate_images(mask_gate_image, ctx, g),
                             gate_images(oracle_gate_image, ctx, g))

    def test_small_graphs(self):
        for name, g in small_graphs():
            self.check(name, g)

    def test_one_row_blocks(self):
        """With a budget of one cell every slab holds one row, so the
        block boundaries are crossed everywhere."""
        with mock.patch.object(cubes, "_cells", lambda n: 1):
            for name, g in small_graphs():
                if name.startswith(("grid", "glued")) and len(g) > 40:
                    continue
                with self.subTest(graph=name):
                    want = outcome(oracle_validate_median_graph, g)
                    self.assertEqual(
                        outcome(cubes.validate_median_graph, g), want)
                    self.assertEqual(cubes._locally_median(_ctx(g)),
                                     want == "graph")
                    ctx = _ctx(g)
                    for s in subsets(g):
                        self.assertEqual(cubes._is_convex(ctx, s),
                                         oracle_is_convex(ctx, s))

    def test_gate_witnesses_are_compared(self):
        # some subsets have vertices with two closest members, so the
        # comparison in check() covers the first witness too
        square = fixture_complex("square.cplx")
        got = gate_images(mask_gate_image, _ctx(square), square)
        self.assertIn("error: gate not unique, witness", "".join(
            r for r in got if isinstance(r, str)))

    def test_rejections_keep_their_witness(self):
        messages = dict((name, outcome(cubes.validate_median_graph, g))
                        for name, g in small_graphs())
        self.assertEqual(messages["triangle"],
                         "error: not median, witness v0 v1 v2")
        self.assertEqual(messages["C5"],
                         "error: not median, witness v0 v1 v3")
        self.assertEqual(messages["K2,3"],
                         "error: not median, witness v2 v3 v4")
        self.assertEqual(messages["C6"],
                         "error: not median, witness v0 v2 v4")
        self.assertEqual(messages["C4"], "graph")

    def test_copies_are_judged_afresh(self):
        """A copy of an analysed graph carries the graph's attributes,
        its cube context among them; with a chord added, the copy is
        judged as a fresh graph with the same edges."""
        square = named(nx.cycle_graph(4))
        self.assertIs(cubes.validate_median_graph(square), square)
        for copy in (nx.Graph, as_graph):
            with self.subTest(copy=copy.__name__):
                chord = copy(square)
                chord.add_edge("v0", "v2")
                self.assertEqual(outcome(cubes.validate_median_graph, chord),
                                 "error: not median, witness v0 v1 v2")
        self.assertIs(cubes.validate_median_graph(square), square)

    def test_disconnected_graph(self):
        g = named(nx.Graph([(0, 1), (2, 3)]))
        for func in (cubes.validate_median_graph, cubes.four_point_delta):
            self.assertEqual(outcome(func, nx.Graph(g)),
                             "error: graph not connected")

    GRIDS = ((2, 9), (6, 6), (9, 4), (10, 12), (12, 14))

    def test_grids_match_the_closed_form(self):
        """The four-point constant of an r x c grid is min(r, c) - 1."""
        for rows, cols in self.GRIDS:
            with self.subTest(rows=rows, cols=cols):
                g = cubes.grid_complex(rows, cols)
                cubes.validate_median_graph(g)
                self.assertEqual(cubes.four_point_delta(g),
                                 min(rows, cols) - 1)

    def test_median_graphs_skip_the_slab_scan(self):
        """The slab scan only names the witness of a rejected graph: it
        never runs on the fixtures, glued depths 1-6 or the grids."""
        graphs = [(name, g) for name, g in small_graphs()
                  if name.endswith(".cplx") or name.startswith("glued")]
        graphs += [("grid %d x %d" % shape, cubes.grid_complex(*shape))
                   for shape in self.GRIDS]
        with mock.patch.object(cubes, "_median_witness",
                               side_effect=cubes._median_witness) as scan:
            for name, g in graphs:
                with self.subTest(graph=name):
                    self.assertIs(cubes.validate_median_graph(g), g)
        self.assertEqual(scan.call_count, 0)

    def test_atlas_graphs(self):
        """The local test against the n^3 oracle on every connected graph
        with 3 to 7 vertices."""
        graphs = [named(g) for g in nx.graph_atlas_g()
                  if len(g) >= 3 and nx.is_connected(g)]
        accepted = 0
        for g in graphs:
            median = outcome(oracle_validate_median_graph, g) == "graph"
            with self.subTest(edges=sorted(g.edges())):
                self.assertEqual(cubes._locally_median(_ctx(g)), median)
            accepted += median
        self.assertEqual((len(graphs), accepted), (994, 42))

    def test_self_loops_are_ignored(self):
        """A loop changes no distance, so neither check sees it."""
        for base in (nx.cycle_graph(4), nx.cycle_graph(6),
                     nx.complete_bipartite_graph(2, 3)):
            g = named(base)
            g.add_edge("v1", "v1")
            with self.subTest(graph=sorted(g.edges())):
                self.assertEqual(outcome(cubes.validate_median_graph, g),
                                 outcome(oracle_validate_median_graph, g))


class TheoremOracles(unittest.TestCase):
    """The median graphs among the small graphs (fixtures, glued depths
    1-6, square grids 3-9 and C4) and convex expansions."""

    def test_small_median_graphs(self):
        for name, g in small_graphs():
            if outcome(cubes.validate_median_graph, g) == "graph":
                with self.subTest(graph=name):
                    check_theorems(g)

    def test_convex_expansions(self):
        check_expansions(check_theorems)


class ClosureOracles(unittest.TestCase):
    """hyperplanes and hyperclosure against the union-find and the
    translation search, record by record."""

    def test_fixtures(self):
        for name, g in (("square.cplx", fixture_complex("square.cplx")),
                        ("grid.cplx", fixture_complex("grid.cplx")),
                        ("3-cube", cubes.b3_cube())):
            with self.subTest(graph=name):
                check_closure(g)

    def test_glued(self):
        for depth in range(1, 9):
            with self.subTest(depth=depth):
                check_closure(cubes.build_counterexample(depth))

    def test_grids(self):
        for rows, cols in ((2, 2), (2, 9), (3, 3), (5, 8), (9, 9),
                           (10, 12)):
            with self.subTest(rows=rows, cols=cols):
                check_closure(cubes.grid_complex(rows, cols))

    def test_products(self):
        for sizes in ((3, 3, 3), (2, 2, 2, 2), (3, 3, 3, 3),
                      (2, 2, 2, 2, 2)):
            with self.subTest(sizes=sizes):
                check_closure(cube_product(*sizes))

    def test_median_atlas_graphs(self):
        graphs = median_atlas_graphs()
        self.assertEqual(len(graphs), 43)
        for g in graphs:
            with self.subTest(edges=sorted(g.edges())):
                check_closure(g)

    def test_convex_expansions(self):
        check_expansions(check_closure)


def check_expansions(check):
    """check on generated median graphs: peripheral convex expansions
    from one vertex, up to six of them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pick = st.tuples(*[st.integers(0, 10 ** 3)] * 3)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(pick, min_size=1, max_size=6))
    def run(picks):
        g = convex_expansion(picks)
        assert cubes.validate_median_graph(g) is g
        check(g)

    run()


def check_complements(g):
    """Every class's complement key against the crossing set of the
    gate-image complement at the least vertex of its representative."""
    hc = cubes.hyperclosure(g)
    ctx = _ctx(g)
    comp = cubes._complement_keys(ctx, hc)
    for cid in hc.order:
        rep = hc.classes[cid].rep
        assert comp[cid] == crossing(
            ctx, oracle_complement_at(ctx, rep, min(rep))), cid


class ComplementOracles(unittest.TestCase):
    """The complement keys read off the side rows against the loop of
    gate images they replaced, class by class."""

    def test_fixtures(self):
        for name, g in (("square.cplx", fixture_complex("square.cplx")),
                        ("grid.cplx", fixture_complex("grid.cplx")),
                        ("3-cube", cubes.b3_cube())):
            with self.subTest(graph=name):
                check_complements(g)

    def test_glued(self):
        for depth in range(1, 9):
            with self.subTest(depth=depth):
                check_complements(cubes.build_counterexample(depth))

    def test_grids(self):
        for size in range(2, 13):
            with self.subTest(size=size):
                check_complements(cubes.grid_complex(size, size))

    def test_products(self):
        for sizes in ((3, 3, 3), (2, 2, 2, 2), (3, 3, 3, 3),
                      (2, 2, 2, 2, 2)):
            with self.subTest(sizes=sizes):
                check_complements(cube_product(*sizes))

    def test_median_atlas_graphs(self):
        for g in median_atlas_graphs():
            with self.subTest(edges=sorted(g.edges())):
                check_complements(g)

    def test_convex_expansions(self):
        check_expansions(check_complements)


class ExtractionAgreement(unittest.TestCase):
    """Every table of index_set_from_hyperclosure, raw and collapsed,
    equals the loop oracle's, in insertion order."""

    def test_fixtures(self):
        for name, g in (("square.cplx", fixture_complex("square.cplx")),
                        ("grid.cplx", fixture_complex("grid.cplx")),
                        ("3-cube", cubes.b3_cube())):
            with self.subTest(graph=name):
                check_extraction(g)

    def test_glued(self):
        for depth in range(1, 7):
            with self.subTest(depth=depth):
                check_extraction(cubes.build_counterexample(depth))

    def test_grids(self):
        for size in range(3, 10):
            with self.subTest(size=size):
                check_extraction(cubes.grid_complex(size, size))

    def test_cube_product(self):
        check_extraction(cube_product(3, 3, 3))

    def test_gate_witness(self):
        """On graphs that are not median, a gate with two closest
        vertices is named by the least such vertex of the first class
        member, in class order and then member order, that has one,
        where the loop named the first in the member's hash order.  An
        earlier error stays the loop's."""
        seen = 0
        for g in map(named, nx.graph_atlas_g()[:150]):
            if len(g) < 3 or not nx.is_connected(g):
                continue
            hc = outcome(cubes.hyperclosure, g)
            if isinstance(hc, str):
                continue
            ctx = _ctx(g)
            try:
                cubes._complement_keys(ctx, hc)
            except CubeError:
                continue
            got = outcome(cubes.index_set_from_hyperclosure, g)
            loop = outcome(lambda g: oracle_extraction(g, hc), g)
            with self.subTest(edges=sorted(g.edges())):
                if not str(loop).startswith("error: gate not unique"):
                    self.assertEqual(got if isinstance(loop, str)
                                     else loop, loop)
                    continue
                seen += 1
                self.assertEqual(got, "error: gate not unique, witness %s"
                                 % first_bad_gate(ctx, hc))
        self.assertGreater(seen, 0)


class GateMasks(unittest.TestCase):

    def test_least_witness(self):
        """v1 and v3 each have two closest vertices in {v0, v2}; the
        least of them is named, whatever the hash order of the set."""
        g = named(nx.cycle_graph(4))
        ctx = _ctx(g)
        y = frozenset(["v0", "v2"])
        sets = [cubes._numbers(ctx, s) for s in (y, {"v3", "v1"})]
        with self.assertRaisesRegex(CubeError,
                                    "^gate not unique, witness v1$"):
            list(cubes._gate_masks(ctx, y, sets))

    def test_one_row_blocks(self):
        """With a budget of one cell each block holds one row, and the
        rows are those of one block."""
        g = cubes.grid_complex(4, 5)
        ctx = _ctx(g)
        hc = cubes.hyperclosure(g)
        sets = [cubes._numbers(ctx, mem) for cid in hc.order
                for mem in hc.classes[cid].members]
        y = hc.classes[hc.order[0]].rep
        whole = np.concatenate(list(cubes._gate_masks(ctx, y, sets)))
        with mock.patch.object(cubes, "_cells", lambda n: 1):
            blocks = list(cubes._gate_masks(ctx, y, sets))
        self.assertEqual([len(b) for b in blocks], [1] * len(sets))
        np.testing.assert_array_equal(np.concatenate(blocks), whole)


def first_bad_gate(ctx, hc):
    """The least vertex with two closest vertices in a representative,
    of the first class member, in class order and then member order,
    that has one; None when every gate is unique."""
    for cid in hc.order:
        rep = hc.classes[cid].rep
        for other in hc.order:
            for member in hc.classes[other].members:
                for x in sorted(member):
                    try:
                        oracle_gate_vertex(ctx, rep, x)
                    except CubeError:
                        return x
    return None


def test_extraction_on_tree_times_path():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parents = st.integers(0, 6).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(parents, st.integers(1, 4))
    def check(parents, length):
        check_extraction(tree_times_path(parents, length))

    check()


class ExtractionGuards(unittest.TestCase):

    GATE_KERNELS = ("_gate_table", "_gate_vertex", "_gate_masks")

    def gate_calls(self, func, *args):
        """The calls func makes to each gate kernel."""
        with contextlib.ExitStack() as stack:
            mocks = [stack.enter_context(mock.patch.object(
                cubes, name, side_effect=getattr(cubes, name)))
                for name in self.GATE_KERNELS]
            func(*args)
        return [m.call_count for m in mocks]

    def test_one_gate_table_per_class(self):
        """The loop made 20,850 gate images and 87,625 gates on glued
        depth 6, and the complements of the classes 304 gate images and
        one more gate table.  The complements now read the side rows
        alone, and extraction builds the gate table of each
        representative once: 45 at depth 6 and 53 at depth 8."""
        for depth, classes in ((6, 45), (8, 53)):
            with self.subTest(depth=depth):
                g = cubes.build_counterexample(depth)
                hc = cubes.hyperclosure(g)
                self.assertEqual(
                    self.gate_calls(cubes._complement_keys, _ctx(g), hc),
                    [0, 0, 0])
                cubes.index_set_from_hyperclosure(g, hc)
                self.assertEqual(len(_ctx(g)["gates"]), classes)


def stored_model(path):
    with open(os.path.join(ROOT, *path), encoding="utf-8") as f:
        m = load_model(f.read())
    return m, chhs.build_w(m, chhs.blow_up(m))


def class_graphs(w):
    """(class id, C) for every non-maximal class: C is Y, the augmented
    graph without the class's saturation, restricted to the class's
    link."""
    aug = _augmented_graph(w)
    for c in chhs.simplex_classes(w.blowup):
        if not c.maximal:
            y = aug.subgraph(set(aug.nodes()) - c.saturation)
            yield c.id, y.subgraph(c.link)


GAMMA4 = ("fixtures", "gamma4.model")
GAMMA6 = ("perfbench", "data", "gamma6.model")


class ClassDeltas(unittest.TestCase):
    """Every class's delta in check_chhs against the nx-copy kernel on
    the class graph."""

    def check(self, path):
        m, w = stored_model(path)
        report = chhs.check_chhs(m, w)
        want = dict((cid, oracle_component_delta(g))
                    for cid, g in class_graphs(w))
        self.assertEqual(dict((cid, row["delta"]) for cid, row
                              in report.per_class.items()), want)
        self.assertEqual(report.delta, max(want.values()))

    def test_gamma4(self):
        self.check(GAMMA4)

    def test_gamma6(self):
        self.check(GAMMA6)

    def test_no_pair_scan_on_gamma4(self):
        """Every class graph of gamma4 has diameter at most 1, so no
        class delta is measured: each is 0 without a search for
        thin quadruples."""
        m, w = stored_model(GAMMA4)
        with mock.patch.object(chhs, "_component_delta",
                               side_effect=chhs._component_delta) as delta, \
             mock.patch.object(cubes, "_pair_scan",
                               side_effect=cubes._pair_scan) as scan:
            report = chhs.check_chhs(m, w)
        self.assertEqual(delta.call_count, 0)
        self.assertEqual(scan.call_count, 0)
        self.assertEqual(report.delta, 0)

    def test_deltas_only_above_diameter_one(self):
        """The grid's class graphs at lambda 1: the twelve of diameter
        2 are measured, once each, and the rest are not."""
        with open(os.path.join(ROOT, "fixtures", "grid.cplx"),
                  encoding="utf-8") as f:
            m = cubes.index_set_from_hyperclosure(cubes.load_complex(f.read()))
        w = chhs.build_w(m, chhs.blow_up(m), lam=1)
        with mock.patch.object(chhs, "_component_delta",
                               side_effect=chhs._component_delta) as delta, \
             mock.patch.object(cubes, "_pair_scan",
                               side_effect=cubes._pair_scan) as scan:
            report = chhs.check_chhs(m, w)
        diams = [row["diam"] for row in report.per_class.values()]
        self.assertEqual(delta.call_count, 12)
        self.assertEqual(delta.call_count, sum(d > 1 for d in diams))
        self.assertGreater(scan.call_count, 0)

    def test_disconnected_class_graph(self):
        # two components: a path, then a 4-cycle (delta 1)
        g = nx.Graph([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
        dist = np.full((7, 7), np.inf)
        for v, row in nx.all_pairs_shortest_path_length(g):
            for u, k in row.items():
                dist[v, u] = k
        self.assertEqual(chhs._component_delta(dist),
                         oracle_component_delta(g))
        self.assertEqual(chhs._component_delta(dist), 1.0)


class FourPointAgreement(unittest.TestCase):
    """The four-point kernel, with its exit for diameter at most 1,
    against the full scan."""

    def check(self, g):
        g = nx.Graph(g)
        self.assertEqual(cubes._four_point(_ctx(g)["D"]),
                         oracle_four_point_delta(g))

    def test_complete_graphs(self):
        for n in range(1, 9):
            with self.subTest(n=n):
                self.check(named(nx.complete_graph(n)))

    def test_diameter_two(self):
        """Distances of 2 and no more: the exit must not fire."""
        for name, g in (("K2,3", nx.complete_bipartite_graph(2, 3)),
                        ("4-star", nx.star_graph(4))):
            with self.subTest(graph=name):
                self.check(named(g))

    def test_class_graphs(self):
        for path in (GAMMA4, GAMMA6):
            _, w = stored_model(path)
            for cid, g in class_graphs(w):
                for comp in nx.connected_components(g):
                    with self.subTest(model=path[-1], cls=cid,
                                      component=sorted(comp)[0]):
                        self.check(g.subgraph(comp))


class MemoryGuards(unittest.TestCase):
    """The n^3 kernels needed about 45 MiB (the einsum) and 24 n^3 bytes
    per step (the four-point scan) on this grid."""

    LIMIT = 8 * 2 ** 20

    def peak(self, func):
        g = cubes.grid_complex(12, 14)
        tracemalloc.start()
        try:
            func(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_median_check(self):
        self.assertLess(self.peak(cubes.validate_median_graph), self.LIMIT)

    def test_four_point(self):
        self.assertLess(self.peak(cubes.four_point_delta), self.LIMIT)

    def test_extraction_and_measure_30x30(self):
        """The hyperclosure given: extraction and measure_model peaked at
        26.3 MiB with a frozenset per gate image and the per-set metric
        tables."""
        g = cubes.grid_complex(30, 30)
        hc = cubes.hyperclosure(g)
        tracemalloc.start()
        try:
            cubes.index_set_from_hyperclosure(g, hc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assertLess(peak, 26.3 * 2 ** 20)

    def test_median_check_30x30(self):
        """Distances included: they alone peak at about 6.4 MiB, and the
        local test without pair blocks at about 13 MiB."""
        g = cubes.grid_complex(30, 30)
        tracemalloc.start()
        try:
            cubes.validate_median_graph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assertLess(peak, 10 * 2 ** 20)


# -- generated graphs --------------------------------------------------


def _connected(parents, extra):
    """A tree given by each vertex's parent plus extra edges."""
    g = nx.Graph()
    g.add_node(0)
    g.add_edges_from((t, p) for t, p in enumerate(parents, 1))
    g.add_edges_from((a % len(g), b % len(g)) for a, b in extra
                     if a % len(g) != b % len(g))
    return named(g)


def trees_with_extra_edges(st):
    """Connected graphs on 3 to 12 vertices named v0, v1, ...: a random
    tree plus up to six extra edges."""
    parents = st.integers(2, 11).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))
    extra = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                     max_size=6)
    return st.builds(_connected, parents, extra)


def test_generated_graphs():
    """Random connected graphs: trees, which are median, and trees with
    extra edges, which mostly are not."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(trees_with_extra_edges(hypothesis.strategies))
    def check(g):
        want = outcome(oracle_validate_median_graph, g)
        assert outcome(cubes.validate_median_graph, g) == want
        assert cubes._locally_median(_ctx(g)) == (want == "graph")
        assert cubes.four_point_delta(g) == oracle_four_point_delta(g)
        ctx = _ctx(g)
        for s in subsets(g):
            assert cubes._is_convex(ctx, s) == oracle_is_convex(ctx, s)
        assert gate_images(mask_gate_image, ctx, g) == \
            gate_images(oracle_gate_image, ctx, g)

    check()


def test_tree_times_path_products():
    """Products of a tree and a path are median, have one hyperplane
    per factor edge, meet the theorem, closure and complement oracles,
    gate every vertex to its unique nearest vertex of an interval, and
    stop being median after one chord between two vertices at distance
    two."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parents = st.integers(0, 7).flatmap(lambda n: st.tuples(
        *(st.integers(0, i) for i in range(n))))

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(parents, st.integers(1, 4), st.integers(0, 10 ** 6))
    def check(parents, length, pick):
        g = tree_times_path(parents, length)
        assert cubes._locally_median(_ctx(g))
        assert cubes.validate_median_graph(g) is g
        assert len(cubes.hyperplanes(g)) == len(parents) + length
        check_theorems(g)
        check_closure(g)
        check_complements(g)
        ctx = _ctx(g)
        d, verts = ctx["D"], ctx["vertices"]
        x, y = pick % len(verts), (pick // len(verts)) % len(verts)
        span = np.flatnonzero(d[x] + d[y] == d[x, y])
        for z in range(len(verts)):
            near = span[d[z, span] == d[z, span].min()]
            assert len(near) == 1
            assert cubes.gate(g, verts[z], (verts[i] for i in span)) == \
                verts[near[0]]
        far = np.argwhere(d == 2)
        if len(far):
            a, b = far[pick % len(far)]
            chord = nx.Graph(g)
            chord.add_edge(verts[a], verts[b])
            got = outcome(cubes.validate_median_graph, chord)
            assert got.startswith("error: not median, witness")
            assert got == outcome(oracle_validate_median_graph, chord)
            assert not cubes._locally_median(_ctx(chord))

    check()
