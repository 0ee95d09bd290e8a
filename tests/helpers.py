"""Shared fixtures for the test modules, and the reference forms of
package internals that the tests compare against."""

import contextlib
import io
import itertools
import os
import random
import tempfile

import numpy as np

from hhsforge import cli, cubes, model
from hhsforge.indexset import (
    CONTAINS,
    NESTED_IN,
    TRANSVERSE,
    IndexSet,
    IndexSetError,
    _check_orth_determines_nesting,
    _check_wedges,
    check_property,
    relation,
)


def as_nx(g):
    """A networkx copy of a graph the package returns, nodes, edges,
    edge data and graph attributes included, for running networkx
    algorithms on it."""
    import networkx as nx
    out = nx.Graph()
    out.add_nodes_from(g.nodes())
    out.add_edges_from((a, b, dict(g[a][b])) for a, b in g.edges())
    out.graph.update(g.graph)
    return out


def augmented_graph(w):
    """The augmented graph of W as a networkx graph on the blown-up
    vertices, read from the boolean adjacency of its class tables."""
    import networkx as nx
    t = w.class_tables
    return nx.relabel_nodes(nx.from_numpy_array(t.adj),
                            dict(enumerate(t.names)))


def on_ctx(kernel, g, s, *args):
    """A private cube kernel on the context of g and the vertex set s."""
    return kernel(cubes._ctx(g), frozenset(s), *args)


def crossing(ctx, s):
    """Hyperplane ids separating some pair inside s (its internal edges
    suffice for convex s): the halfspace rows split on s's columns."""
    hs = cubes._hyperplanes(ctx)
    cols = ctx["halfspace"][:, [ctx["index"][v] for v in s]]
    return frozenset(hs[i].hid
                     for i in np.flatnonzero(cols.any(1) & ~cols.all(1)))


def mask_gate_image(ctx, y, f):
    """The gate image of the set f into y by `cubes._gate_masks`, the
    one gate-image kernel of the package, as a frozenset of names; a
    vertex with two closest vertices in y is named, the least of f."""
    mask = np.concatenate(list(cubes._gate_masks(
        ctx, y, [cubes._numbers(ctx, f)])))
    return frozenset(itertools.compress(ctx["vertices"], mask[0]))


def convex_expansion(picks):
    """A median graph grown from one vertex by peripheral convex
    expansions, one per pick (Mulder, "The structure of median graphs",
    Discrete Math. 24, 1978): an expansion along a convex set C adds a
    copy of C, joins each vertex of C to its copy and copies C's edges.

    A pick (a, b, c) expands along the interval I(u, v) of the vertices
    numbered a and b modulo the vertex count, cut down to the halfspace
    of the c-th hyperplane that holds u, modulo one more than the
    hyperplane count, the last meaning none.  Both are convex, so their
    intersection is.  Each vertex keeps its side of every hyperplane as
    one bit of a label, and the distance is the Hamming distance of
    labels.  Vertices are named v0, v1, ... in the order they are made.
    """
    import networkx as nx
    labels = [0]
    edges = []
    for k, (a, b, c) in enumerate(picks):
        u, v = labels[a % len(labels)], labels[b % len(labels)]
        cut = c % (k + 1)
        # w lies in I(u, v) iff it agrees with u wherever u and v agree
        agree = ((1 << k) - 1) & ~(u ^ v)
        if cut < k:
            agree |= 1 << cut
        keep = [i for i, w in enumerate(labels) if not (w ^ u) & agree]
        copy = dict((i, len(labels) + j) for j, i in enumerate(keep))
        labels.extend(labels[i] | 1 << k for i in keep)
        edges += [(copy[i], copy[j]) for i, j in edges
                  if i in copy and j in copy] + list(copy.items())
    g = nx.Graph()
    g.add_nodes_from("v%d" % i for i in range(len(labels)))
    g.add_edges_from(("v%d" % i, "v%d" % j) for i, j in edges)
    return g


def run_cli(*argv):
    """(exit code, stdout, stderr) of cli.main run in process."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as stop:
        code = stop.code
    return code, out.getvalue(), err.getvalue()


# the subcommands that take a median graph and nothing else
MEDIAN_COMMANDS = ("cubes", "blowup", "build-w", "verify-chhs", "qi-report")


def median_runs(seed, graphs, max_expansions=7):
    """Each of MEDIAN_COMMANDS run through cli.main on generated median
    graphs, as (picks, subcommand, exit code, stdout, stderr).  With
    random.Random(seed), each graph is the convex_expansion of
    rng.randint(2, max_expansions) picks of three rng.randrange(100),
    written by cubes.dump_complex."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(graphs):
            picks = [tuple(rng.randrange(100) for _ in range(3))
                     for _ in range(rng.randint(2, max_expansions))]
            path = os.path.join(tmp, "g%d.cplx" % k)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(cubes.dump_complex(convex_expansion(picks)))
            for command in MEDIAN_COMMANDS:
                yield (picks, command) + run_cli(command, path)


def false_properties(out):
    """The properties a run's output reports false with a witness."""
    return [line.split()[0][len("property="):] for line in out.splitlines()
            if line.startswith("property=")
            and " verdict=false witness=" in line]


def keeps_exit_contract(code, out, err):
    """Whether a run on a usable input keeps the exit-code contract:
    nothing on stderr, and exit 0 with no false verdict or exit 1 with
    a false verdict and its witness."""
    false = bool(false_properties(out))
    return not err and (code, false) in ((0, False), (1, True))


# a median graph with 12 vertices and 16 edges on which check_chhs fails
# common_nesting_extension, simplicial_wedges and simplicial_containers
FAILING_PICKS = [(92, 64, 87), (74, 3, 79), (39, 57, 87), (16, 19, 9),
                 (74, 18, 86), (27, 61, 98)]


def wedge(s, u, v, weak=False):
    """Largest common nested domain of u and v, or None when they share none.

    Strict mode wants a unique maximal common lower bound and raises when the
    maximal lower bounds form a bigger antichain.  Weak mode instead returns
    the smallest T nested in both that contains every minimal domain nested
    in both; it requires the weak wedge property to hold.  The reference for
    the ortholattice meet and for the lower-bound tables of an IndexSet.
    """
    s.check_ids(u, v)
    maxs = s.maximal_lower_bounds(u, v)
    if not maxs:
        return None
    if not weak:
        if len(maxs) == 1:
            return maxs[0]
        raise IndexSetError("wedge undefined, witness %s" % " ".join(maxs))
    rep = check_property(s, "weak_wedges")
    if not rep.verdict:
        raise IndexSetError(
            "weak wedge needs the weak_wedges property, witness %s"
            % " ".join(rep.witness))
    least = s.weak_wedge_candidates(u, v)
    if len(least) != 1:
        raise IndexSetError("weak wedge undefined, witness %s"
                            % " ".join(least))
    return least[0]


def oracle_orthogonal_set(s):
    """The orthogonal-set check that re-asserts the construction
    invariants and searches every domain for each complement: the
    reference for indexset's checker, which reads IndexSet.complement."""
    # anti-reflexivity and the unique maximal element are construction
    # invariants; re-assert them cheaply anyway
    for u in s.domains:
        if u in s.orth[u]:
            return (u,)
    for u, v, w in itertools.permutations(s.domains, 3):
        if v in s.up[u] and w in s.orth[v] and w not in s.orth[u]:
            return (u, v, w)
    bad = _check_wedges(s)
    if bad is not None:
        return bad
    for u in s.domains:
        if not s.orth[u]:
            continue
        found = None
        for c in s.domains:
            if not (s.orth[u] <= s.down[c]):
                continue
            if all((w in s.orth[c]) == (w in s.down[u]) for w in s.domains):
                found = c
                break
        if found is None:
            return (u,)
    return _check_orth_determines_nesting(s)


def random_index_sets(rng, draws):
    """The valid index sets among draws random ones: 2 to 7 domains
    d0, d1, ..., the last above all others, and below it each pair
    d_i, d_j with i < j nested (d_i in d_j) with probability 0.3 and
    orthogonal with probability 0.4.  Draws the constructor rejects are
    skipped."""
    for _ in range(draws):
        n = rng.randint(2, 7)
        ids = ["d%d" % i for i in range(n)]
        pairs = list(itertools.combinations(ids[:-1], 2))
        nest = [p for p in pairs if rng.random() < 0.3]
        orth = [p for p in pairs if rng.random() < 0.4]
        try:
            yield IndexSet(ids, nest + [(u, ids[-1]) for u in ids[:-1]],
                           orth)
        except IndexSetError:
            continue


def distance_estimate(m, x, y, threshold):
    """Sum of projection distances strictly above the threshold: the
    per-pair reference for model.distance_profile."""
    total = 0
    for u in m.index.domains:
        d = m.dist(u, m.named.pi[(u, x)], m.named.pi[(u, y)])
        if d > threshold:
            total += d
    return total


# -- the scalar slope loops, the references for model.fit_table ---------


def least_fit(*pairs):
    """The least (C, K), over K in 1 .. MAX_SLOPE, with ys <= K * xs + C
    for every pair (ys, xs) of arrays; returned as (K, C).  The rule of
    the distance profile and of the class graphs."""
    best = None
    for k in range(1, model.MAX_SLOPE + 1):
        c = max(int((ys - k * xs).max(initial=0)) for ys, xs in pairs)
        if best is None or (c, k) < best:
            best = (c, k)
    return best[1], best[0]


def cheapest_fit(ys, xs):
    """The least (C + K, K), over K in 1 .. MAX_SLOPE, with
    ys <= K * xs + C; returned as (K, C).  The rule of the realisation
    map."""
    best = None
    for k in range(1, model.MAX_SLOPE + 1):
        c = int((ys - k * xs).max(initial=0))
        if best is None or (c + k, k) < (best[1] + best[0], best[0]):
            best = (k, c)
    return best


# -- the exact scans ----------------------------------------------------


SCANS = ("diameters", "lipschitz", "consistency", "rho_consistency", "bgi",
         "large_links", "partial_realisation")


def scan_table(m):
    """Every constant that measure_model bounds, each scan run from floor
    0 so exact, and E, the largest of them and 1."""
    table = dict((key, getattr(model, "_scan_" + key)(m)) for key in SCANS)
    table["E"] = max(1, max(table.values()))
    return table


# -- the scalar consistency loop, the reference for model._consistency --


def diam(m, u, a):
    """Diameter in C(u) of a vertex set."""
    return max(m.dist(u, x, y) for x in a for y in a)


def down_image(m, small, big, vertices):
    """Image of a C(big) vertex set under the downward map onto
    C(small)."""
    table = m.named.rho_down[(small, big)]
    return frozenset().union(*(table[w] for w in vertices))


def consistency_value(m, coords, u, v):
    """Consistency gap of one coordinate pair, E-free."""
    rel = relation(m.index, u, v)
    if rel == TRANSVERSE:
        return min(m.dist(u, coords[u], m.named.rho_up[(v, u)]),
                   m.dist(v, coords[v], m.named.rho_up[(u, v)]))
    if rel == NESTED_IN:
        down = down_image(m, u, v, coords[v])
        return min(m.dist(v, coords[v], m.named.rho_up[(u, v)]),
                   diam(m, u, coords[u] | down))
    if rel == CONTAINS:
        return consistency_value(m, coords, v, u)
    return 0


def tuples_consistency(m, tuples):
    """(constant, witness) of a family of tuples, pair by pair: the
    largest gap and the first (tuple, u, v) to reach it, None for 0."""
    worst, witness = 0, None
    for i, t in enumerate(tuples):
        for u, v in itertools.combinations(t.scope, 2):
            if u not in t.coords or v not in t.coords:
                raise model.ModelError("tuple misses a coordinate, witness"
                                       " %s %s" % (u, v))
            value = consistency_value(m, t.coords, u, v)
            if value > worst:
                worst, witness = value, (i, u, v)
    return worst, witness


def kernel_consistency(m, tuples):
    """model._consistency on tuples of any vertex sets: each coordinate
    is interned whole, after the model's own sets, in a metric of the
    tuples' own, one id a row."""
    ks, sets, vertices = {}, {}, {}
    for u, c in m.coords.items():
        c = c.copy()
        rows = [tuple(sorted(c.index[w] for w in t.coords[u]))
                for t in tuples]
        sets[u] = np.array([[c.intern(row)] for row in rows], dtype=np.intp)
        vertices[u] = model._padded(rows)
        ks[u] = model._Metric(c, m.pi[u])
    return model._consistency(m, ks, sets, vertices)


B3_IDS = ["1", "2", "3", "12", "13", "23", "123"]


def make_b3():
    """Nonempty subsets of {1,2,3}: nesting is inclusion, orthogonality is
    disjointness."""
    nest = [("1", "12"), ("1", "13"), ("2", "12"), ("2", "23"),
            ("3", "13"), ("3", "23"), ("12", "123"), ("13", "123"),
            ("23", "123")]
    orth = [("1", "23"), ("2", "13"), ("3", "12")]
    return IndexSet(B3_IDS, nest, orth)


def make_o6_indexset():
    """Two chains a < bp and b < ap under a common top, with a orth ap and
    b orth bp: the standard six-element non-orthomodular ortholattice once a
    bottom is added."""
    return IndexSet(["S", "a", "b", "ap", "bp"],
                    [("a", "bp"), ("b", "ap"), ("ap", "S"), ("bp", "S")],
                    [("a", "ap"), ("b", "bp")])


def make_chain_model():
    """Two-domain chain with a long top coordinate path and one sparse
    minimal projection target, so product regions are nowhere dense before
    augmentation."""
    import networkx as nx
    from hhsforge.model import HHSModel

    index = IndexSet(["S", "V"], [("V", "S")], [])
    points = ["p%02d" % i for i in range(12)]
    cs = ["c%02d" % i for i in range(12)]
    space = nx.path_graph(12)
    space = nx.relabel_nodes(space, dict(enumerate(points)))
    gs = nx.path_graph(12)
    gs = nx.relabel_nodes(gs, dict(enumerate(cs)))
    gv = nx.Graph()
    gv.add_node("v0")
    pi = {}
    for i, p in enumerate(points):
        pi[("S", p)] = {cs[i]}
        pi[("V", p)] = {"v0"}
    rho_up = {("V", "S"): {"c11"}}
    rho_down = {("V", "S"): dict((c, {"v0"}) for c in cs)}
    return HHSModel(index, space, {"S": gs, "V": gv}, pi, rho_up, rho_down)


def make_product_model():
    """Two orthogonal path factors over a 3x3 grid of points."""
    import networkx as nx
    from hhsforge.model import HHSModel

    index = IndexSet(["S", "A", "B"], [("A", "S"), ("B", "S")], [("A", "B")])
    space = nx.Graph()
    for i in range(3):
        for j in range(3):
            space.add_node("%d_%d" % (i, j))
    for i in range(3):
        for j in range(3):
            if i + 1 < 3:
                space.add_edge("%d_%d" % (i, j), "%d_%d" % (i + 1, j))
            if j + 1 < 3:
                space.add_edge("%d_%d" % (i, j), "%d_%d" % (i, j + 1))
    ga = nx.path_graph(3)
    ga = nx.relabel_nodes(ga, {0: "a0", 1: "a1", 2: "a2"})
    gb = nx.path_graph(3)
    gb = nx.relabel_nodes(gb, {0: "b0", 1: "b1", 2: "b2"})
    gs = nx.Graph()
    gs.add_node("s0")
    pi = {}
    for i in range(3):
        for j in range(3):
            p = "%d_%d" % (i, j)
            pi[("A", p)] = {"a%d" % i}
            pi[("B", p)] = {"b%d" % j}
            pi[("S", p)] = {"s0"}
    rho_up = {("A", "S"): {"s0"}, ("B", "S"): {"s0"}}
    rho_down = {("A", "S"): {"s0": {"a1"}}, ("B", "S"): {"s0": {"b1"}}}
    return HHSModel(index, space, {"S": gs, "A": ga, "B": gb},
                    pi, rho_up, rho_down)


def make_transverse_model():
    """Two transverse domains seeing disjoint halves of a path of points."""
    import networkx as nx
    from hhsforge.model import HHSModel

    index = IndexSet(["S", "U", "V"], [("U", "S"), ("V", "S")], [])
    points = ["q%d" % i for i in range(6)]
    space = nx.path_graph(6)
    space = nx.relabel_nodes(space, dict(enumerate(points)))
    gu = nx.path_graph(6)
    gu = nx.relabel_nodes(gu, dict((i, "u%d" % i) for i in range(6)))
    gv = nx.path_graph(6)
    gv = nx.relabel_nodes(gv, dict((i, "v%d" % i) for i in range(6)))
    gs = nx.Graph()
    gs.add_node("s0")
    pi = {}
    for i, p in enumerate(points):
        pi[("U", p)] = {"u%d" % min(i, 3)}
        pi[("V", p)] = {"v%d" % max(i - 2, 0)}
        pi[("S", p)] = {"s0"}
    rho_up = {("U", "S"): {"s0"}, ("V", "S"): {"s0"},
              ("U", "V"): {"v0"}, ("V", "U"): {"u3"}}
    rho_down = {("U", "S"): {"s0": {"u0"}}, ("V", "S"): {"s0": {"v0"}}}
    return HHSModel(index, space, {"S": gs, "U": gu, "V": gv},
                    pi, rho_up, rho_down)


def make_behrstock_model():
    """Nested pair U inside V with a third transverse domain W whose
    relative projections from U and V sit two apart."""
    import networkx as nx
    from hhsforge.model import HHSModel

    index = IndexSet(["S", "V", "U", "W"],
                     [("U", "V"), ("V", "S"), ("W", "S")], [])
    points = ["z%d" % i for i in range(5)]
    space = nx.path_graph(5)
    space = nx.relabel_nodes(space, dict(enumerate(points)))
    gs = nx.Graph()
    gs.add_node("s0")
    gu = nx.Graph()
    gu.add_node("u0")
    gv = nx.path_graph(3)
    gv = nx.relabel_nodes(gv, {0: "v0", 1: "v1", 2: "v2"})
    gw = nx.path_graph(5)
    gw = nx.relabel_nodes(gw, dict((i, "w%d" % i) for i in range(5)))
    pi = {}
    for i, p in enumerate(points):
        pi[("S", p)] = {"s0"}
        pi[("U", p)] = {"u0"}
        pi[("V", p)] = {"v%d" % min(i, 2)}
        pi[("W", p)] = {"w%d" % i}
    rho_up = {("U", "V"): {"v0"}, ("U", "S"): {"s0"}, ("V", "S"): {"s0"},
              ("W", "S"): {"s0"}, ("U", "W"): {"w0"}, ("W", "U"): {"u0"},
              ("V", "W"): {"w2"}, ("W", "V"): {"v0"}}
    rho_down = {("U", "V"): {"v0": {"u0"}, "v1": {"u0"}, "v2": {"u0"}},
                ("U", "S"): {"s0": {"u0"}},
                ("V", "S"): {"s0": {"v0"}},
                ("W", "S"): {"s0": {"w0"}}}
    return HHSModel(index, space, {"S": gs, "U": gu, "V": gv, "W": gw},
                    pi, rho_up, rho_down)


def make_star_model():
    """One minimal domain with a four-vertex coordinate path under a
    point-like top."""
    import networkx as nx
    from hhsforge.model import HHSModel

    index = IndexSet(["S", "V"], [("V", "S")], [])
    points = ["p%d" % i for i in range(4)]
    space = nx.path_graph(4)
    space = nx.relabel_nodes(space, dict(enumerate(points)))
    gv = nx.path_graph(4)
    gv = nx.relabel_nodes(gv, dict((i, "v%d" % i) for i in range(4)))
    gs = nx.Graph()
    gs.add_node("s0")
    pi = {}
    for i, p in enumerate(points):
        pi[("V", p)] = {"v%d" % i}
        pi[("S", p)] = {"s0"}
    rho_up = {("V", "S"): {"s0"}}
    rho_down = {("V", "S"): {"s0": {"v0"}}}
    return HHSModel(index, space, {"S": gs, "V": gv}, pi, rho_up, rho_down)


def make_rect_model():
    """Two orthogonal factors with coordinate paths of lengths 3 and 4
    over a 3x4 grid of points."""
    import networkx as nx
    from hhsforge.model import HHSModel

    index = IndexSet(["S", "A", "B"], [("A", "S"), ("B", "S")], [("A", "B")])
    space = nx.Graph()
    for i in range(3):
        for j in range(4):
            space.add_node("%d_%d" % (i, j))
    for i in range(3):
        for j in range(4):
            if i + 1 < 3:
                space.add_edge("%d_%d" % (i, j), "%d_%d" % (i + 1, j))
            if j + 1 < 4:
                space.add_edge("%d_%d" % (i, j), "%d_%d" % (i, j + 1))
    ga = nx.path_graph(3)
    ga = nx.relabel_nodes(ga, dict((i, "a%d" % i) for i in range(3)))
    gb = nx.path_graph(4)
    gb = nx.relabel_nodes(gb, dict((j, "b%d" % j) for j in range(4)))
    gs = nx.Graph()
    gs.add_node("s0")
    pi = {}
    for i in range(3):
        for j in range(4):
            p = "%d_%d" % (i, j)
            pi[("A", p)] = {"a%d" % i}
            pi[("B", p)] = {"b%d" % j}
            pi[("S", p)] = {"s0"}
    rho_up = {("A", "S"): {"s0"}, ("B", "S"): {"s0"}}
    rho_down = {("A", "S"): {"s0": {"a1"}}, ("B", "S"): {"s0": {"b1"}}}
    return HHSModel(index, space, {"S": gs, "A": ga, "B": gb},
                    pi, rho_up, rho_down)
