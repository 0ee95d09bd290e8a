"""Shared fixtures for the test modules, and the reference forms of
package internals that the tests compare against."""

import itertools

from hhsforge import cubes, model
from hhsforge.indexset import (
    CONTAINS,
    NESTED_IN,
    TRANSVERSE,
    IndexSet,
    IndexSetError,
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


def distance_estimate(m, x, y, threshold):
    """Sum of projection distances strictly above the threshold: the
    per-pair reference for model.distance_profile."""
    total = 0
    for u in m.index.domains:
        d = m.dist(u, m.pi[(u, x)], m.pi[(u, y)])
        if d > threshold:
            total += d
    return total


# -- the scalar consistency loop, the reference for model._consistency --


def diam(m, u, a):
    """Diameter in C(u) of a vertex set."""
    index, d = m.coord_dist[u]
    return int(max(d[index[x], index[y]] for x in a for y in a))


def down_image(m, small, big, vertices):
    """Image of a C(big) vertex set under the downward map onto
    C(small)."""
    table = m.rho_down[(small, big)]
    return frozenset().union(*(table[w] for w in vertices))


def consistency_value(m, coords, u, v):
    """Consistency gap of one coordinate pair, E-free."""
    rel = relation(m.index, u, v)
    if rel == TRANSVERSE:
        return min(m.dist(u, coords[u], m.rho_up[(v, u)]),
                   m.dist(v, coords[v], m.rho_up[(u, v)]))
    if rel == NESTED_IN:
        down = down_image(m, u, v, coords[v])
        return min(m.dist(v, coords[v], m.rho_up[(u, v)]),
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
    is interned whole, in a table of the tuples' own, one id a row."""
    coords = dict((u, [t.coords[u] for t in tuples]) for u in m.index.domains)
    ks = model._metrics(m, coords)
    sets = dict((u, ks[u].lookup(coords[u])[:, None]) for u in coords)
    vertices = dict((u, model._padded([ks[u].index[w] for w in s]
                                      for s in coords[u]))
                    for u in coords)
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
