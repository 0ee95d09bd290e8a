"""Blow-ups of hierarchical models and the graphs of their maximal simplices.

The blow-up X of a model replaces every minimal domain by a cone over the
vertex set of its coordinate graph and joins the cones of orthogonal
domains.  A maximal simplex of X picks one coordinate per member of a
maximal orthogonal family of minimal domains; these simplices are the
vertices of a second graph W whose edges join simplices with
coordinatewise-close canonical tuples, where the threshold loosens as the
two supports share more domains.  The checkers in this module measure,
exactly and exhaustively on the finite data, the conditions that let the
pair (X, W) stand in for the original model: bounded link chains,
hyperbolic and undistorted class graphs, extension of common nestings,
fill-in of link edges, and the quality of the realisation map.
"""

import functools
import itertools
import math

import numpy as np

from .cubes import _four_point, graph_dot, sorted_dot
from .graph import Graph, apsp, chain_lengths, enumerate_all_cliques
from .indexset import (
    CONTAINS,
    EQUAL,
    NESTED_IN,
    ORTHOGONAL,
    TRANSVERSE,
    KeyedLines,
    PropertyReport,
    complexity,
    content_lines,
    depth_stats,
    orth_complement,
    relation,
    split_info,
)
from .model import (
    MAX_SLOPE,
    ConsistentTuple,
    HHSModel,
    _consistency,
    _Coord,
    _padded,
    fit_table,
)

APEX = "*"

SHAPE_POINT_OR_JOIN = "point-or-join"
SHAPE_ALL_EDGES = "all-edges"
SHAPE_ALMOST_MAXIMAL = "almost-maximal"


class ChhsError(ValueError):
    pass


def vertex_name(v):
    return "%s|%s" % v


def _set_name(vs):
    return "+".join(vertex_name(v) for v in sorted(vs)) or "-"


# -- blow-up -----------------------------------------------------------


class BlowupGraph(object):
    """Cones over the minimal-domain coordinate graphs, joined along
    orthogonality.

    base is the graph on the minimal domains with orthogonality edges,
    blown is the cone-and-join graph, and p retracts every blown vertex
    (domain, coordinate) onto its domain.  Simplices of the blown graph
    are cliques; the apex of the cone over U is the vertex (U, "*").
    The simplices, their links and their classes are built on first use.
    """

    def __init__(self, model, base, blown, p):
        self.model = model
        self.base = base
        self.blown = blown
        self.p = dict(p)
        self.minimal = tuple(sorted(base.nodes()))
        self.adj = dict((v, frozenset(blown[v])) for v in blown.nodes())
        cones = {}
        for v in sorted(blown.nodes()):
            cones.setdefault(self.p[v], []).append(v)
        self._cones = dict((u, tuple(vs)) for u, vs in cones.items())

    def apex(self, u):
        return (u, APEX)

    def cone(self, u):
        return self._cones.get(u, ())

    @functools.cached_property
    def simplices(self):
        """Every clique of the blown graph, the empty one included,
        ordered by size and then by sorted vertices."""
        found = [frozenset()]
        found.extend(frozenset(c) for c in enumerate_all_cliques(self.blown))
        found.sort(key=lambda s: (len(s), sorted(s)))
        return tuple(found)

    @functools.cached_property
    def links(self):
        return dict((s, link_of_set(self, s)) for s in self.simplices)

    @functools.cached_property
    def classes(self):
        """The simplices grouped by link.  Each group is listed, and
        numbered, in the order of the simplices, so its first member is
        its representative."""
        groups = {}
        for s in self.simplices:
            groups.setdefault(self.links[s], []).append(s)
        return tuple(SimplexClass("q%d" % i, members[0], tuple(members), lk,
                                  not lk, link_of_set(self, lk))
                     for i, (lk, members) in enumerate(groups.items()))

    @functools.cached_property
    def class_map(self):
        return dict((s, c) for c in self.classes for s in c.members)


def blow_up(m):
    """Cone every minimal domain over its coordinate vertices and join
    the cones of orthogonal domains."""
    minimal = m.index.minimal_domains()
    if not minimal:
        raise ChhsError("model has no minimal domains")
    base = m.index.orth_graph(minimal)
    blown = Graph()
    p = {}
    cones = {}
    for u in minimal:
        nodes = sorted(m.coord_graphs[u].nodes())
        if APEX in nodes:
            raise ChhsError("apex marker collides, witness %s" % u)
        cones[u] = [(u, APEX)] + [(u, c) for c in nodes]
        p.update((v, u) for v in cones[u])
        blown.add_node((u, APEX))
        blown.add_edges_from(((u, APEX), v) for v in cones[u][1:])
    for u, v in base.edges():
        blown.add_edges_from(itertools.product(cones[u], cones[v]))
    return BlowupGraph(m, base, blown, p)


# -- simplex calculus --------------------------------------------------


def check_simplex(x, delta):
    delta = frozenset(delta)
    for v in delta:
        if v not in x.adj:
            raise ChhsError("unknown vertex, witness %s" % (v,))
    for a, b in itertools.combinations(sorted(delta), 2):
        if b not in x.adj[a]:
            raise ChhsError("not a clique, witness %s %s"
                            % (vertex_name(a), vertex_name(b)))
    return delta


def support(x, delta):
    return frozenset(x.p[v] for v in delta)


def pieces(x, delta):
    out = {}
    for v in delta:
        out.setdefault(x.p[v], set()).add(v)
    return dict((u, frozenset(vs)) for u, vs in out.items())


def link_of_set(x, s):
    """Vertices outside s adjacent to all of s; the whole graph for s
    empty.  Applied to a simplex this is its link, applied to a link it
    gives the double link used by orthogonality."""
    s = frozenset(s)
    if not s:
        return frozenset(x.adj)
    out = None
    for v in s:
        out = x.adj[v] if out is None else out & x.adj[v]
    return out - s


def simplices(x):
    """Every clique of the blown graph, the empty one included."""
    return x.simplices


class SimplexClass(object):
    """All simplices sharing one link, with their saturation and the
    link of their link (the double link)."""

    def __init__(self, cid, rep, members, lk, maximal, double):
        self.id = cid
        self.rep = rep
        self.members = members
        self.link = lk
        self.maximal = maximal
        self.saturation = frozenset(v for s in members for v in s)
        self.double = double

    def __repr__(self):
        return "SimplexClass(%s, rep=%s)" % (self.id, _set_name(self.rep))


def simplex_classes(x):
    return x.classes


def _cone_link(x, u, piece):
    """Link of a piece inside its own cone: the apex sees the base, a
    base point sees the apex, an edge sees nothing."""
    if len(piece) == 2:
        return frozenset()
    v = next(iter(piece))
    if v == x.apex(u):
        return frozenset(w for w in x.cone(u) if w != v)
    return frozenset([x.apex(u)])


def _decomposed_link(x, delta):
    out = set()
    for u in x.model.index.bar_link(support(x, delta)):
        out.update(x.cone(u))
    for u, piece in pieces(x, delta).items():
        out.update(_cone_link(x, u, piece))
    return frozenset(out)


def _shape(x, delta):
    """Deterministic trichotomy tag, following the join-term count."""
    bar = support(x, delta)
    terms = []
    bar_term = frozenset(v for u in x.model.index.bar_link(bar)
                         for v in x.cone(u))
    if bar_term:
        terms.append(("bar", bar_term))
    apex_piece = None
    for u in sorted(bar):
        part = _cone_link(x, u, pieces(x, delta)[u])
        if part:
            terms.append(("cone", part))
            if pieces(x, delta)[u] == frozenset([x.apex(u)]):
                apex_piece = u
    if len(terms) >= 2:
        return SHAPE_POINT_OR_JOIN
    if not terms:
        return SHAPE_ALL_EDGES
    kind, part = terms[0]
    if kind == "bar":
        return SHAPE_ALL_EDGES
    if apex_piece is not None:
        return SHAPE_ALMOST_MAXIMAL
    return SHAPE_POINT_OR_JOIN


def class_relation(x, a, b):
    """Relation of two simplex classes, read off link containments."""
    if a.maximal or b.maximal:
        raise ChhsError("class is maximal, witness %s"
                        % (a.id if a.maximal else b.id))
    if a.link == b.link:
        return EQUAL
    if a.link <= b.link:
        return NESTED_IN
    if b.link <= a.link:
        return CONTAINS
    if b.link <= a.double:
        return ORTHOGONAL
    return TRANSVERSE


# -- maximal simplices and canonical tuples ----------------------------


def maximal_simplices(x):
    """Support-first enumeration: a maximal orthogonal family of minimal
    domains, then one coordinate per member."""
    m = x.model
    out = []
    for bar in m.index.families(m.index.top):
        pools = [sorted(m.coord_graphs[u].nodes()) for u in bar]
        for choice in itertools.product(*pools):
            s = set((u, APEX) for u in bar)
            s.update(zip(bar, choice))
            out.append(frozenset(s))
    return tuple(out)


def b_sigma(m, sigma):
    """Canonical tuple of a maximal simplex: the prescribed coordinate
    on the support, the union of the relative projections elsewhere.

    The tuple also keeps, per coordinate off the support, the ids in
    `m.metrics` of the projections it unites (`spots`), and the largest
    diameter of a coordinate (`spread`)."""
    return canonical_tuples(m, [sigma])[0]


def canonical_tuples(m, sigmas):
    """b_sigma of each maximal simplex, raising the error b_sigma would
    raise first, simplex by simplex.

    Off its support a canonical tuple depends on the support alone, so
    each domain measures the union diameters of every distinct support
    in one gather."""
    bars = {}
    for sigma in sigmas:
        bars.setdefault(frozenset(u for u, _ in sigma), len(bars))
    ks = m.metrics
    spots = dict((v, [[m.rho_up[(u, v)] for u in sorted(bar)
                       if (u, v) in m.rho_up] if v not in bar else []
                      for bar in bars]) for v in m.index.domains)
    diams = dict((v, ks[v].union_diam(_padded(i or [0] for i in ids))
                  .tolist()) for v, ids in spots.items())
    shared = {}
    off = [_off_support(m, bar, j, spots, diams, shared)
           for bar, j in bars.items()]
    out = []
    for sigma in sigmas:
        bar = {}
        for u, c in sigma:
            bar.setdefault(u, set()).add(c)
        coords = _support_coords(m, bar)
        error, rest, mine, spread = off[bars[frozenset(bar)]]
        if error:
            raise ChhsError(error)
        coords.update(rest)
        t = ConsistentTuple(m.index.domains, coords)
        t.spots, t.spread = dict(mine), spread
        out.append(t)
    return out


def _off_support(m, bar, j, spots, diams, shared):
    """(first error, coordinates, spots, spread) off the support bar,
    the j-th, with its spot ids and union diameters per domain.  Tuples
    share the id array and the coordinate of each (domain, spot ids),
    kept in `shared`."""
    coords, mine, spread = {}, {}, 0
    for v in m.index.domains:
        if v in bar:
            continue
        if not spots[v][j]:
            return "no projection target, witness %s" % v, None, None, None
        if diams[v][j] > 10 * m.E:
            return "coordinate too spread, witness %s" % v, None, None, None
        spread = max(spread, diams[v][j])
        ids = tuple(spots[v][j])
        if (v, ids) not in shared:
            c = m.coords[v]
            shared[(v, ids)] = (np.array(ids, dtype=np.intp), frozenset(
                c.names[w] for i in ids for w in c.rows[i]))
        mine[v], coords[v] = shared[(v, ids)]
    return None, coords, mine, spread


def _support_coords(m, bar):
    """The coordinate of each support domain of a simplex, given as
    domain -> its vertices, after checking that the support is a
    maximal orthogonal family of minimal domains, each with a full cone
    edge."""
    coords = {}
    for u in sorted(bar):
        if u not in m.index.down or m.index.down[u] != frozenset([u]):
            raise ChhsError("support not minimal, witness %s" % u)
        cs = bar[u] - set([APEX])
        if APEX not in bar[u] or len(cs) != 1:
            raise ChhsError("piece is not a full cone edge, witness %s" % u)
        coords[u] = frozenset(cs)
    for u, v in itertools.combinations(sorted(bar), 2):
        if relation(m.index, u, v) != ORTHOGONAL:
            raise ChhsError("support not orthogonal, witness %s %s" % (u, v))
    extra = m.index.bar_link(bar)
    if extra:
        raise ChhsError("simplex not maximal, witness %s" % min(extra))
    return coords


# -- thresholds --------------------------------------------------------


def _modulus(m):
    """t -> the largest coordinate jump between points at space
    distance <= t."""
    jump, space = m.coordinate_jump(), m.point_dist
    return lambda t: int(jump[space <= t].max())


def coverage_constant(m):
    """How far a point can sit, in coordinates, from the best maximal
    orthogonal family projecting near it."""
    base = m.bullet_rows
    fams = [np.max([base[v] for v in fam], axis=(0, 1))
            for fam in m.index.families(m.index.top)]
    return int(np.min(fams, axis=0).max())


def thresholds(m):
    """Edge thresholds measured from the model.

    c0 is the family-coverage constant, m0 the coordinate modulus at the
    matching space scale; the three lambdas are the loosest scales at
    which same-support completion, product-region adjacency and
    realisation backtracking stay edge-compatible.  The default lambda
    is their maximum, floored at one.
    """
    c0 = coverage_constant(m)
    modulus = _modulus(m)
    m0 = modulus(2 * c0 + 2)
    lam0 = 2 * modulus(c0)
    lam1 = modulus(4 * c0 + 1)
    lam2 = m0 + 2 * m.E
    return {
        "C0": c0,
        "M0": m0,
        "lambda0": lam0,
        "lambda1": lam1,
        "lambda2": lam2,
        "default": max(lam0, lam1, lam2, 1),
    }


# -- the W graph -------------------------------------------------------


def _tuple_distances(m, tuples):
    """gap[i, j]: the largest coordinate distance between tuples i and j;
    near[u][i, z]: the distance in C(u) from tuple i's coordinate to the
    projection of the z-th point.

    A coordinate is the union of some sets of `m.metrics` (its spots,
    or one support vertex); each domain measures its distinct
    coordinates once and spreads them by number.
    """
    gap = np.zeros((len(tuples), len(tuples)), dtype=np.int32)
    near = {}
    for u, k in m.metrics.items():
        first = {}
        for b in tuples:
            first.setdefault(b.coords[u], (len(first), b))
        ids = np.array([first[b.coords[u]][0] for b in tuples], dtype=np.intp)
        rows = _padded(_coordinate_ids(k, u, [b for _, b in first.values()]))
        # reach[r, s]: the distance from the union of row r to set s
        reach = k.gap[rows].min(1)
        between = reach[:, rows].min(2)
        gap = np.maximum(gap, between[np.ix_(ids, ids)])
        near[u] = reach[:, k.point][ids]
    return gap, near


def _coordinate_ids(k, u, tuples):
    """The ids in k, the metric of C(u), of the sets whose union is each
    tuple's coordinate in C(u)."""
    return [b.spots[u] if u in b.spots else k.coord.lookup([b.coords[u]])
            for b in tuples]


def _realise_support_first(m, supports, near):
    """The point of each tuple, with the largest coordinate distance
    between a tuple and its point.

    The point matches the coordinates on the support as well as possible
    (least `on`), the remaining coordinates break ties (least `off`),
    and then the point order.
    """
    on = np.zeros((len(supports), len(m.points)), dtype=np.int32)
    off = np.zeros_like(on)
    for u in m.index.domains:
        mine = np.array([u in s for s in supports])[:, None]
        on = np.maximum(on, np.where(mine, near[u], 0))
        off = np.maximum(off, np.where(mine, 0, near[u]))
    tied = np.where(on == on.min(1, keepdims=True), off,
                    np.iinfo(off.dtype).max)
    best = (tied == tied.min(1, keepdims=True)).argmax(1)
    defect = np.maximum(on, off)[np.arange(len(supports)), best].max()
    return tuple(m.points[z] for z in best), int(defect)


class WGraph(object):
    """Maximal simplices of the blow-up, joined when their canonical
    tuples are close in every coordinate graph.

    `adj` is W itself: a symmetric boolean matrix over the simplex
    numbers with a false diagonal.  The threshold for one pair is
    (k + 1) * lam, where k is the co-level of the orthogonal complement
    of the common support: disjoint supports get k = 0, a shared maximal
    family counts as deep as a minimal domain.  `points` realises each
    simplex and `realisation_defect` is the largest coordinate distance
    between a tuple and its point.  The class tables, the class graphs,
    the distances and the `graph` view are built on first use.
    """

    def __init__(self, model, blowup, lam, simplices_, tuples, adj, consts,
                 points, realisation_defect):
        self.model = model
        self.blowup = blowup
        self.lam = lam
        self.simplices = simplices_
        self.index = dict((s, i) for i, s in enumerate(simplices_))
        self.tuples = tuples
        self.adj = adj
        self.c0 = consts["C0"]
        self.m0 = consts["M0"]
        self.lambda0 = consts["lambda0"]
        self.lambda1 = consts["lambda1"]
        self.lambda2 = consts["lambda2"]
        self.points = points
        self.realisation_defect = realisation_defect

    def simplex_name(self, i):
        parts = {}
        for u, c in self.simplices[i]:
            if c != APEX:
                parts[u] = c
        return " ".join("%s=%s" % (u, parts[u]) for u in sorted(parts))

    @functools.cached_property
    def graph(self):
        """W as a `Graph`, for the one reader outside the package: the
        benchmark's trace counts its edges (`perfbench/spans.py`).  The
        package reads `adj`; drop this once the trace moves inside."""
        graph = Graph()
        graph.add_nodes_from(range(len(self.adj)))
        graph.add_edges_from(np.argwhere(np.triu(self.adj, 1)).tolist())
        return graph

    @functools.cached_property
    def distances(self):
        """Distance matrix of W, inf between simplices it does not
        join."""
        keep = np.ones((1, len(self.adj)), dtype=bool)
        return _with_inf(_distances(self.adj, keep)[0])

    @functools.cached_property
    def class_tables(self):
        return _ClassTables(self)

    @functools.cached_property
    def class_graphs(self):
        return _ClassGraphs(self)


def colevel_of_complement(m, parts):
    """Co-level of the orthogonal complement of a pairwise orthogonal
    family; the empty family points at the whole space, a maximal one
    leaves nothing and counts as deep as a minimal domain."""
    comp = orth_complement(m.index, sorted(parts), m.index.top)
    if comp is None:
        return complexity(m.index)
    return depth_stats(m.index, comp)["co_level"]


# Most maximal simplices that `build_w` accepts: its tables over pairs
# of simplices take about 42 bytes a pair, about 1 GiB at the cap.
MAX_SIMPLICES = 5000


def build_w(m, x, lam=None):
    consts = thresholds(m)
    if lam is None:
        lam = consts["default"]
    if lam <= 0:
        raise ChhsError("lambda must be positive")
    # one simplex per family and choice of a coordinate per member
    count = sum(math.prod(len(m.coord_graphs[u]) for u in bar)
                for bar in m.index.families(m.index.top))
    if count > MAX_SIMPLICES:
        raise ChhsError("cap exceeded: %d maximal simplices > %d"
                        % (count, MAX_SIMPLICES))
    sigmas = maximal_simplices(x)
    tuples = tuple(canonical_tuples(m, sigmas))
    supports = [support(x, s) for s in sigmas]
    kinds = {}
    ids = np.array([kinds.setdefault(s, len(kinds)) for s in supports],
                   dtype=np.intp)
    level = functools.cache(lambda common: colevel_of_complement(m, common))
    colevel = np.array([[level(a & b) for b in kinds] for a in kinds])
    bound = (colevel[np.ix_(ids, ids)] + 1) * lam
    gap, near = _tuple_distances(m, tuples)
    adj = gap <= bound
    np.fill_diagonal(adj, False)
    points, defect = _realise_support_first(m, supports, near)
    return WGraph(m, x, lam, sigmas, tuples, adj, consts, points, defect)


class _ClassTables(object):
    """The augmented graph on vertices numbered in sorted order, with
    every simplex class's link and saturation and every maximal simplex
    as boolean rows over those numbers."""

    def __init__(self, w):
        x = w.blowup
        self.names = sorted(x.adj)
        self.pos = pos = dict((v, i) for i, v in enumerate(self.names))

        def rows(sets):
            out = np.zeros((len(sets), len(self.names)), dtype=bool)
            for i, s in enumerate(sets):
                out[i, [pos[v] for v in s]] = True
            return out

        classes = simplex_classes(x)
        self.row = dict((c.id, i) for i, c in enumerate(classes))
        self.link = rows([c.link for c in classes])
        self.saturation = rows([c.saturation for c in classes])
        self.sigma = rows(w.simplices)
        self.blown = rows([x.adj[v] for v in self.names])
        # a complete join over every W-edge, on top of the blown graph
        self.adj = self.blown | (self.sigma.T @ w.adj @ self.sigma)
        np.fill_diagonal(self.adj, False)


# The stacked searches keep their temporaries under about this many
# cells.  On gamma6, where check_chhs peaks at 0.9 MiB with one class at a
# time, blocks of 2 ** 16 cells peak at 1.6 MiB, of 2 ** 18 at 4.9 MiB and
# one stack of all 249 classes at 7.1 MiB; the searches are no faster.
_BLOCK_CELLS = 2 ** 16


def _distances(adj, keep):
    """All-pairs distances in the subgraph of adj induced on each mask
    of keep, a stack of K vertex masks, by breadth-first search from
    every vertex of every mask at once.

    A level is one float32 product per mask, exact since no count
    exceeds n < 2 ** 24.  The sources go in row blocks whose frontier
    stays under `_BLOCK_CELLS` cells.  The K x n x n distances are in
    the least unsigned type that holds n; its largest value stands
    between two vertices a mask does not join, and on every vertex off
    the mask."""
    k, n = keep.shape
    dtype = np.min_scalar_type(n)
    far = np.iinfo(dtype).max
    edges = (adj & keep[:, :, None] & keep[:, None, :]).astype(np.float32)
    dist = np.full((k, n, n), far, dtype=dtype)
    rows = max(1, _BLOCK_CELLS // (k * n))
    for lo in range(0, n, rows):
        part = dist[:, lo:lo + rows]
        # row j starts from vertex lo + j, if the mask keeps it
        front = np.eye(part.shape[1], n, lo, dtype=np.float32) * keep[:, None]
        part[front > 0] = 0
        for step in range(1, n):
            fresh = np.matmul(front, edges) > 0
            fresh &= part == far
            if not fresh.any():
                break
            part[fresh] = step
            front = fresh.astype(np.float32)
    return dist


def _with_inf(dist):
    """Unsigned distances as floats, inf where they say "not joined"."""
    return np.where(dist == np.iinfo(dist.dtype).max, math.inf, dist)


class _ClassGraphs(object):
    """Every non-maximal class's record, error, delta and (K, C) fit, by
    class id, from stacked searches over blocks of classes.

    Per block, one search gives Y (the augmented graph without each
    class's saturation) and one gives C (its subgraph on the class's
    link).  The distances between link vertices go end to end, class by
    class, so the diameters and the fits reduce over every class at
    once.  A class's error is its first swallowed or split maximal
    simplex; `coordinate_graph` raises it when the class is read."""

    def __init__(self, w):
        t = w.class_tables
        classes = [c for c in simplex_classes(w.blowup) if not c.maximal]
        rows = np.array([t.row[c.id] for c in classes], dtype=np.intp)
        s, n = t.sigma.shape
        size = max(1, _BLOCK_CELLS // (n * max(n, s)))
        self.errors = {}
        in_c, in_y = [], []
        for lo in range(0, len(rows), size):
            keep = ~t.saturation[rows[lo:lo + size]]
            dist = _distances(t.adj, keep)
            meet = t.sigma & keep[:, None, :]
            split = np.matmul(meet.astype(np.float32),
                              (dist > 1).astype(np.float32)) > 0
            bad = ~meet.any(2) | (split & meet).any(2)
            for b in np.flatnonzero(bad.any(1)).tolist():
                i, c = int(bad[b].argmax()), classes[lo + b]
                self.errors[c.id] = "maximal simplex %s, witness %s %s" % (
                    "split" if meet[b, i].any() else "swallowed", c.id,
                    w.simplex_name(i))
            link = t.link[rows[lo:lo + size]]
            pairs = link[:, :, None] & link[:, None, :]
            in_y.append(dist[pairs])
            in_c.append(_distances(t.adj, link)[pairs])
        in_c, in_y = np.concatenate(in_c), np.concatenate(in_y)
        far = np.iinfo(in_c.dtype).max
        sizes = t.link[rows].sum(1)
        starts = np.cumsum(sizes ** 2) - sizes ** 2
        diam = np.maximum.reduceat(in_c, starts).tolist()
        diam_y = np.maximum.reduceat(in_y, starts).tolist()
        # the least (C, K) with C's metric below K * Y's + C over the
        # pairs Y joins; no fit where C leaves apart a pair Y joins
        joined = in_y != far
        torn = np.logical_or.reduceat((in_c == far) & joined, starts)
        consts = fit_table(np.where(joined, in_c, 0),
                           np.where(joined, in_y, 0), starts)
        k = consts.argmin(0)
        fits = zip((k + 1).tolist(), consts[k, range(len(k))].tolist())
        self.qi = dict((c.id, None if cut else fit)
                       for c, cut, fit in zip(classes, torn.tolist(), fits))
        in_c = np.split(_with_inf(in_c), starts[1:])
        in_y = np.split(_with_inf(in_y), starts[1:])
        self.records, self.delta = {}, {}
        for i, (c, side) in enumerate(zip(classes, sizes.tolist())):
            rec = self.records[c.id] = {
                "diam": math.inf if diam[i] == far else diam[i],
                "diam_in_y": math.inf if diam_y[i] == far else diam_y[i],
                "in_c": in_c[i].reshape(side, side),
                "in_y": in_y[i].reshape(side, side)}
            self.delta[c.id] = 0.0
            if diam[i] > 1 and c.id not in self.errors:
                self.delta[c.id] = _component_delta(rec["in_c"])


def coordinate_graph(w, c):
    """Link distances and diameters of one non-maximal simplex class.

    Y is the augmented graph without the class's saturation, and C is
    its subgraph on the class's link.  Every maximal simplex must keep a
    vertex in Y, all within 1 of each other.  `in_c` and `in_y` are the
    distances between the link vertices, in sorted order, in C and in
    Y.  The first read measures every class of W (`w.class_graphs`)."""
    if c.maximal:
        raise ChhsError("class is maximal, witness %s" % c.id)
    graphs = w.class_graphs
    if c.id in graphs.errors:
        raise ChhsError(graphs.errors[c.id])
    return dict(graphs.records[c.id])


def _component_delta(dist):
    """Exact thin-quadruple constant of a class graph from its distance
    matrix, componentwise where the graph is disconnected."""
    best = 0.0
    left = np.ones(len(dist), dtype=bool)
    while left.any():
        comp = np.isfinite(dist[np.argmax(left)])
        left &= ~comp
        best = max(best, _four_point(dist[np.ix_(comp, comp)].astype(int)))
    return best


# -- the verification suite --------------------------------------------


class ChhsReport(object):
    """Measured constants and verdicts for one (X, W) pair."""

    def __init__(self, complexity_, delta, per_class, conditions,
                 wedges, containers, qi):
        self.complexity = complexity_
        self.delta = delta
        self.per_class = per_class
        self.conditions = conditions
        self.simplicial_wedges = wedges
        self.simplicial_containers = containers
        self.qi = qi

    def verdicts(self):
        out = [self.conditions[k] for k in sorted(self.conditions)]
        out.append(self.simplicial_wedges)
        out.append(self.simplicial_containers)
        return out

    def lines(self):
        out = ["complexity=%d" % self.complexity, "delta=%g" % self.delta]
        for cid in sorted(self.per_class, key=lambda c: int(c[1:])):
            row = self.per_class[cid]
            out.append("class=%s rep=%s delta=%g qi_k=%s qi_c=%s"
                       " diam=%s diam_in_y=%s"
                       % (cid, row["rep"], row["delta"], row["qi_k"],
                          row["qi_c"], row["diam"], row["diam_in_y"]))
        for report in self.verdicts():
            out.append(report.line())
        for key in sorted(self.qi):
            out.append("qi_%s=%s" % (key, self.qi[key]))
        return out


def check_chhs(m, w):
    """Measure the four structural conditions plus the simplicial wedge
    and container properties, with per-class constants."""
    x = w.blowup
    classes = simplex_classes(x)
    nonmax = [c for c in classes if not c.maximal]

    by_size = sorted(classes, key=lambda c: len(c.link))
    best_chain = 1 + max(chain_lengths(
        by_size, lambda c: (d for d in by_size if d.link < c.link)).values())
    cond1 = PropertyReport("bounded_chains", True, None)
    cond1.constant = best_chain

    per_class = {}
    delta = 0.0
    bad_embed = None
    for c in nonmax:
        record = coordinate_graph(w, c)
        d, qi = w.class_graphs.delta[c.id], w.class_graphs.qi[c.id]
        if qi is None and bad_embed is None:
            bad_embed = c.id
        per_class[c.id] = {
            "rep": _set_name(c.rep),
            "delta": d,
            "qi_k": qi[0] if qi else math.inf,
            "qi_c": qi[1] if qi else math.inf,
            "diam": record["diam"],
            "diam_in_y": record["diam_in_y"],
        }
        delta = max(delta, d)
    cond2 = PropertyReport("hyperbolic_links", bad_embed is None,
                           None if bad_embed is None else (bad_embed,))
    cond2.constant = delta

    classes_above = {}
    for s in simplices(x):
        c = x.class_map[s]
        for r in range(len(s) + 1):
            for sub in itertools.combinations(sorted(s), r):
                classes_above.setdefault(frozenset(sub), set()).add(c.id)
    by_id = dict((c.id, c) for c in classes)
    cond3 = PropertyReport("common_nesting_extension", True, None)
    for dcls in nonmax:
        gammas = [g for g in nonmax
                  if g.link <= dcls.link and per_class[g.id]["diam"] >= delta]
        if not gammas:
            continue
        for sigma in simplices(x):
            scls = x.class_map[sigma]
            if scls.maximal:
                continue
            found = [g for g in gammas if g.link <= scls.link]
            if not found:
                continue
            ok = False
            for pid in sorted(classes_above.get(sigma, ())):
                pl = by_id[pid].link
                if pl <= dcls.link and all(g.link <= pl for g in found):
                    ok = True
                    break
            if not ok:
                cond3 = PropertyReport(
                    "common_nesting_extension", False,
                    (dcls.id, scls.id, found[0].id))
                break
        if not cond3.verdict:
            break

    cond4 = _link_edges_fill_in(w)

    links = dict((c.link, c.id) for c in classes)
    wedges = PropertyReport("simplicial_wedges", True, None)
    for sigma in simplices(x):
        lk_sigma = x.links[sigma]
        for dcls in classes:
            want = lk_sigma & dcls.link
            pid = links.get(want)
            if pid is not None and pid in classes_above.get(sigma, ()):
                continue
            wedges = PropertyReport("simplicial_wedges", False,
                                    (_set_name(sigma), dcls.id))
            break
        if not wedges.verdict:
            break

    containers = PropertyReport("simplicial_containers", True, None)
    for c in classes:
        if c.double not in links:
            containers = PropertyReport("simplicial_containers", False,
                                        (c.id,))
            break

    qi = realisation_qi(m, w)
    return ChhsReport(best_chain, delta, per_class,
                      {1: cond1, 2: cond2, 3: cond3, 4: cond4},
                      wedges, containers, qi)


def _link_edges_fill_in(w):
    """Condition 4: non-adjacent link vertices of a simplex that lie in
    maximal simplices joined in W lie in such simplices over it too.
    The witness is the first failing simplex and pair in sorted order."""
    x = w.blowup
    t = w.class_tables
    # joined through W and not adjacent in the blown graph
    unfilled = t.adj & ~t.blown
    for delta_s in simplices(x):
        lk = np.array(sorted(t.pos[v] for v in x.links[delta_s]),
                      dtype=np.intp)
        need = unfilled[np.ix_(lk, lk)]
        if not need.any():
            continue
        over = t.sigma[:, [t.pos[v] for v in delta_s]].all(1)
        s = t.sigma[np.ix_(over, lk)]
        missing = need & ~(s.T @ w.adj[np.ix_(over, over)] @ s)
        for a, b in np.argwhere(np.triu(missing, 1))[:1]:
            return PropertyReport(
                "link_edges_fill_in", False,
                (_set_name(delta_s), vertex_name(t.names[lk[a]]),
                 vertex_name(t.names[lk[b]])))
    return PropertyReport("link_edges_fill_in", True, None)


# -- realisation quality -----------------------------------------------


def realisation_qi(m, w):
    """Lipschitz, surjectivity and lower quasi-isometry constants of the
    realisation map, measured exhaustively."""
    space = m.point_dist
    pos = np.array([m.point_index[p] for p in w.points], dtype=np.intp)
    dz = space[np.ix_(pos, pos)]
    lip = int(dz[w.adj].max(initial=0))
    surj = int(space[:, pos].min(1).max())
    upper = np.triu(np.ones((len(pos),) * 2, dtype=bool), 1)
    dw, dz = w.distances[upper], dz[upper]
    lower = upper = None
    if not np.isinf(dw).any():
        # one column per direction; once joined, W's distances are whole
        dw = dw.astype(dz.dtype)
        consts = np.hstack([fit_table(dw, dz, [0]), fit_table(dz, dw, [0])])
        k = (consts + np.arange(1, MAX_SLOPE + 1)[:, None]).argmin(0)
        lower, upper = zip((k + 1).tolist(), consts[k, [0, 1]].tolist())
    return {
        "lipschitz": lip,
        "surjectivity_defect": surj,
        "realisation_defect": w.realisation_defect,
        "lower": lower,
        "upper": upper,
        "quasi_isometry": lower is not None,
    }


# -- constructive link intersection ------------------------------------


def _weak_complement(s, parts):
    """Least domain orthogonal to the parts that swallows every minimal
    domain orthogonal to them; None when no minimal qualifies."""
    need = s.bar_link(parts)
    if not need:
        return None
    cands = [t for t in s.domains
             if need <= s.down[t] and all(v in s.orth[t] for v in parts)]
    least = sorted(t for t in cands
                   if not any(r != t and r in s.down[t] for r in cands))
    if len(least) != 1:
        raise ChhsError("weak complement not unique, witness %s"
                        % " ".join(least))
    return least[0]


def _oc(s, parts, ambient):
    if ambient is None:
        return None
    return orth_complement(s, sorted(parts), ambient)


def _bar_split(m, bar_sigma, bar_delta):
    """The peeled and filled supports that decompose the common link of
    two supports: returns (phi, psi, theta)."""
    s = m.index
    minimal = frozenset(s.minimal_domains())
    phi = sorted(u for u in bar_delta if u not in bar_sigma
                 and all(v in s.orth[u] for v in bar_sigma))
    y = _oc(s, sorted(set(bar_sigma) | set(phi)), s.top)
    comp_sigma = _oc(s, sorted(bar_sigma), s.top)
    comp_delta = _oc(s, sorted(bar_delta), s.top)
    least = None
    if comp_sigma is not None and comp_delta is not None:
        least = s.weak_wedge_candidates(comp_sigma, comp_delta)
    if least is not None and len(least) != 1:
        raise ChhsError("weak wedge not unique, witness %s" % " ".join(least))
    w = least[0] if least else None
    psi = []
    theta = []
    while True:
        if w is None or w == y:
            break
        fill = sorted(v for v in s.down[y] & minimal if v in s.orth[w])
        if fill:
            theta.append(fill[0])
            y = _oc(s, [fill[0]], y)
            continue
        info = split_info(s, w)
        if not info["split"]:
            raise ChhsError("no orthogonal inside, witness %s %s" % (w, y))
        sam = info["samaritans"][0]
        psi.append(sam)
        w = _oc(s, [sam], w)
        y = _oc(s, [sam], y)
    if w is None:
        while y is not None:
            mins = sorted(s.down[y] & minimal)
            if not mins:
                break
            theta.append(mins[0])
            y = _oc(s, [mins[0]], y)
    return tuple(phi), tuple(psi), tuple(theta)


def _extend_piece(x, u, piece):
    """Complete a piece to a full cone edge, deterministically."""
    if len(piece) == 2:
        return piece
    v = next(iter(piece))
    if v == x.apex(u):
        others = sorted(w for w in x.cone(u) if w != v)
        return piece | frozenset([others[0]])
    return piece | frozenset([x.apex(u)])


def intersection_links_constructive(x, m, sigma, delta):
    """Extend one simplex so that its link, joined with a padding
    simplex, is exactly the intersection of the two links; verified
    against the direct intersection before returning."""
    sigma = check_simplex(x, sigma)
    delta = check_simplex(x, delta)
    goal = link_of_set(x, sigma) & link_of_set(x, delta)
    if link_of_set(x, sigma) <= link_of_set(x, delta):
        return {"pi": sigma, "psi": frozenset()}
    bar_sigma = sorted(support(x, sigma))
    bar_delta = sorted(support(x, delta))
    phi, psi_bar, theta = _bar_split(m, bar_sigma, bar_delta)
    star_delta = m.index.bar_link(bar_delta) | frozenset(bar_delta)
    sp = pieces(x, sigma)
    dp = pieces(x, delta)
    out = set()
    for u in bar_sigma:
        if u not in star_delta:
            out |= _extend_piece(x, u, sp[u])
        elif u in dp:
            if _cone_link(x, u, sp[u]) <= _cone_link(x, u, dp[u]):
                out |= sp[u]
            else:
                out |= _extend_piece(x, u, sp[u])
        else:
            out |= sp[u]
    for u in phi:
        out |= dp[u] if u in dp else frozenset([x.apex(u)])
    for u in psi_bar:
        out.add(x.apex(u))
    for u in theta:
        out |= _extend_piece(x, u, frozenset([x.apex(u)]))
    pi = frozenset(out)
    psi = frozenset(x.apex(u) for u in psi_bar)
    check_simplex(x, pi)
    got = link_of_set(x, pi)
    if not sigma <= pi:
        raise ChhsError("extension lost the simplex, witness %s"
                        % _set_name(sigma))
    if (got | psi) != goal or (got & psi):
        raise ChhsError("decomposition mismatch, witness %s %s"
                        % (_set_name(sigma), _set_name(delta)))
    for a in psi:
        if not got <= x.adj[a]:
            raise ChhsError("padding does not join the link, witness %s"
                            % vertex_name(a))
    return {"pi": pi, "psi": psi}


# -- identity suite ----------------------------------------------------


def check_link_decomposition(x):
    for s in simplices(x):
        if x.links[s] != _decomposed_link(x, s):
            return PropertyReport("link_decomposition", False,
                                  (_set_name(s),))
    return PropertyReport("link_decomposition", True, None)


def check_shape_tags(x):
    """Every simplex gets one tag, and the tag survives an independent
    recomputation from join structure."""
    for s in simplices(x):
        tag = _shape(x, s)
        lk = x.links[s]
        if tag == SHAPE_POINT_OR_JOIN:
            if len(lk) != 1 and not _is_join(x, lk):
                return PropertyReport("shape_tags", False, (_set_name(s),))
        elif tag == SHAPE_ALL_EDGES:
            if any(len(piece) != 2 for piece in pieces(x, s).values()):
                return PropertyReport("shape_tags", False, (_set_name(s),))
        else:
            bar = support(x, s)
            apexes = [u for u, piece in pieces(x, s).items()
                      if piece == frozenset([x.apex(u)])]
            crowd = x.model.index.bar_link(bar)
            if len(apexes) != 1 or crowd:
                return PropertyReport("shape_tags", False, (_set_name(s),))
    return PropertyReport("shape_tags", True, None)


def _is_join(x, vs):
    """A vertex set spans a nontrivial join exactly when the complement
    of its induced graph is disconnected."""
    if len(vs) < 2:
        return False
    vs = sorted(vs)
    comp = dict((a, [b for b in vs if b != a and b not in x.adj[a]])
                for a in vs)
    return bool((apsp(comp, vs) < 0).any())


def check_containment_reversal(x):
    """Bigger simplices land in smaller classes."""
    for s in simplices(x):
        for t in simplices(x):
            if s < t:
                a, b = x.class_map[t], x.class_map[s]
                if a.maximal or b.maximal:
                    continue
                if class_relation(x, a, b) not in (NESTED_IN, EQUAL):
                    return PropertyReport("containment_reversal", False,
                                          (_set_name(s), _set_name(t)))
    return PropertyReport("containment_reversal", True, None)


def _bar_simplices(x):
    s = x.model.index
    return ((),) + s.cliques(s.minimal_domains())


def check_link_complements(x):
    """Link containment between supports matches nesting of their weak
    complements."""
    m = x.model
    bars = _bar_simplices(x)
    comps = {}
    for bar in bars:
        comps[bar] = _weak_complement(m.index, bar)
    for a in bars:
        for b in bars:
            left = m.index.bar_link(a) <= m.index.bar_link(b)
            ca, cb = comps[a], comps[b]
            if ca is None:
                right = True
            elif cb is None:
                right = False
            else:
                right = m.index.nested(ca, cb)
            if left != right:
                return PropertyReport("link_complements", False,
                                      (",".join(a) or "-",
                                       ",".join(b) or "-"))
    return PropertyReport("link_complements", True, None)


def check_complement_dichotomy(x):
    """The weak complement of a support either is the full complement or
    is split, and a split one cones the link."""
    m = x.model
    s = m.index
    for bar in _bar_simplices(x):
        if not bar:
            continue
        weak = _weak_complement(s, bar)
        full = _oc(s, bar, s.top)
        if weak == full:
            continue
        if weak is None or not split_info(s, weak)["split"]:
            return PropertyReport("complement_dichotomy", False,
                                  (",".join(bar),))
        lk = s.bar_link(bar)
        if not any(all(v in s.orth[u] for v in lk if v != u) for u in lk):
            return PropertyReport("complement_dichotomy", False,
                                  (",".join(bar),))
    return PropertyReport("complement_dichotomy", True, None)


def check_tuple_spread(m, tuples):
    """The largest coordinate diameter of the canonical tuples, against
    10 E."""
    worst = max(b.spread for b in tuples)
    verdict = worst <= 10 * m.E
    report = PropertyReport("tuple_spread", verdict,
                            None if verdict else ("%d" % worst,))
    report.constant = worst
    return report


def _canonical_rows(m, tuples):
    """The canonical tuples as rows of the consistency kernel, on the
    sets of `m.metrics`: off the support a coordinate is the union of
    its spots, on the support one vertex of a minimal domain."""
    ks = m.metrics
    sets, vertices = {}, {}
    for u, k in ks.items():
        sets[u] = _padded(_coordinate_ids(k, u, tuples))
        vertices[u] = _padded([k.coord.index[w] for w in b.coords[u]]
                              for b in tuples)
    return ks, sets, vertices


def check_tuple_consistency(m, tuples):
    """The largest consistency gap of the canonical tuples, against
    20 E, by the kernel that measures the points' tuples."""
    worst, witness = _consistency(m, *_canonical_rows(m, tuples))
    verdict = worst <= 20 * m.E
    report = PropertyReport("tuple_consistency", verdict,
                            None if verdict else witness[1:])
    report.constant = worst
    return report


def identity_suite(m, x):
    """The structural identities that every blow-up must satisfy, plus
    the two complement laws that need the model's orthogonality to be
    rich enough."""
    tuples = [b_sigma(m, s) for s in maximal_simplices(x)]
    return [
        check_link_decomposition(x),
        check_shape_tags(x),
        check_containment_reversal(x),
        check_link_complements(x),
        check_complement_dichotomy(x),
        check_tuple_spread(m, tuples),
        check_tuple_consistency(m, tuples),
    ]


# -- equivariance ------------------------------------------------------


def identity_automorphism(m):
    coords = {}
    for u in m.index.domains:
        for c in m.coord_graphs[u].nodes():
            coords[(u, c)] = c
    return {
        "domains": dict((u, u) for u in m.index.domains),
        "coords": coords,
        "points": dict((z, z) for z in m.points),
    }


def compose_automorphisms(m, g, h):
    """Apply g after h."""
    coords = {}
    for (u, c), d in h["coords"].items():
        coords[(u, c)] = g["coords"][(h["domains"][u], d)]
    return {
        "domains": dict((u, g["domains"][h["domains"][u]])
                        for u in h["domains"]),
        "coords": coords,
        "points": dict((z, g["points"][h["points"][z]])
                       for z in h["points"]),
    }


def _check_automorphism(m, g):
    s = m.index
    dom = g["domains"]
    if sorted(dom) != list(s.domains) or sorted(
            dom.values()) != list(s.domains):
        raise ChhsError("domain map is not a permutation, witness %s"
                        % ",".join(sorted(dom)))
    for u, v in itertools.permutations(s.domains, 2):
        if relation(s, u, v) != relation(s, dom[u], dom[v]):
            raise ChhsError("domain map breaks a relation, witness %s %s"
                            % (u, v))
    for u in s.domains:
        src = sorted(m.coord_graphs[u].nodes())
        missing = [c for c in src if (u, c) not in g["coords"]]
        if missing:
            raise ChhsError("coordinate map misses a vertex, witness %s %s"
                            % (u, missing[0]))
        img = sorted(g["coords"][(u, c)] for c in src)
        if img != sorted(m.coord_graphs[dom[u]].nodes()):
            raise ChhsError("coordinate map not onto, witness %s" % u)
        for a, b in m.coord_graphs[u].edges():
            if not m.coord_graphs[dom[u]].has_edge(g["coords"][(u, a)],
                                                   g["coords"][(u, b)]):
                raise ChhsError("coordinate map breaks an edge,"
                                " witness %s %s %s" % (u, a, b))
    pts = g["points"]
    if sorted(pts) != list(m.points) or sorted(
            pts.values()) != list(m.points):
        raise ChhsError("point map is not a permutation, witness %s"
                        % ",".join(sorted(pts)))
    for a, b in m.space.edges():
        if not m.space.has_edge(pts[a], pts[b]):
            raise ChhsError("point map breaks an edge, witness %s %s"
                            % (a, b))

    def image(u, vs):
        return frozenset(g["coords"][(u, c)] for c in vs)

    named = m.named
    for u in s.domains:
        for z in m.points:
            if image(u, named.pi[(u, z)]) != named.pi[(dom[u], pts[z])]:
                raise ChhsError("projection diagram breaks, witness %s %s"
                                % (u, z))
    for (u, v), spot in named.rho_up.items():
        if image(v, spot) != named.rho_up[(dom[u], dom[v])]:
            raise ChhsError("relative projection diagram breaks,"
                            " witness %s %s" % (u, v))
    for (u, v), table in named.rho_down.items():
        other = named.rho_down[(dom[u], dom[v])]
        for c, cell in table.items():
            if image(u, cell) != other[g["coords"][(v, c)]]:
                raise ChhsError("downward diagram breaks, witness %s %s %s"
                                % (u, v, c))


def check_equivariance(m, w, g):
    """Exact action on the blow-up and the tuples, coarse action on the
    realisation points."""
    _check_automorphism(m, g)
    x = w.blowup

    def vmap(v):
        u, c = v
        if c == APEX:
            return (g["domains"][u], APEX)
        return (g["domains"][u], g["coords"][(u, c)])

    for a in x.blown.nodes():
        if vmap(a) not in x.adj:
            return PropertyReport("equivariance", False,
                                  (vertex_name(a),))
    for a, b in x.blown.edges():
        if vmap(b) not in x.adj[vmap(a)]:
            return PropertyReport("equivariance", False,
                                  (vertex_name(a), vertex_name(b)))
    mapped = []
    for i, sigma in enumerate(w.simplices):
        img = frozenset(vmap(v) for v in sigma)
        if img not in w.index:
            return PropertyReport("equivariance", False,
                                  (w.simplex_name(i),))
        mapped.append(w.index[img])
    lost = w.adj & ~w.adj[np.ix_(mapped, mapped)]
    for i, j in np.argwhere(np.triu(lost, 1))[:1]:
        return PropertyReport("equivariance", False,
                              (w.simplex_name(i), w.simplex_name(j)))
    for i in range(len(w.simplices)):
        b = w.tuples[i]
        c = w.tuples[mapped[i]]
        for u in m.index.domains:
            img = frozenset(g["coords"][(u, t)] for t in b.coords[u])
            if img != c.coords[g["domains"][u]]:
                return PropertyReport("equivariance", False,
                                      (w.simplex_name(i), u))
    pos = m.point_index
    worst = int(m.point_dist[[pos[g["points"][z]] for z in w.points],
                             [pos[w.points[i]] for i in mapped]].max())
    verdict = worst <= m.E
    report = PropertyReport("equivariance", verdict,
                            None if verdict else ("defect", "%d" % worst))
    report.constant = worst
    return report


def load_automorphism(text):
    """Parse domain/coord/point mapping lines; a line may be given twice
    only with the same image."""
    g = {"domains": {}, "coords": {}, "points": {}}
    once = KeyedLines(text, ChhsError)
    for lineno, raw, parts in content_lines(text):
        if parts[0] == "domain" and len(parts) == 3:
            once.put(g["domains"], parts[1], parts[2], lineno, parts)
        elif parts[0] == "coord" and len(parts) == 4:
            once.put(g["coords"], (parts[1], parts[2]), parts[3], lineno,
                     parts)
        elif parts[0] == "point" and len(parts) == 3:
            once.put(g["points"], parts[1], parts[2], lineno, parts)
        else:
            raise ChhsError("line %d: cannot parse %r" % (lineno, raw))
    if not g["domains"]:
        raise ChhsError("no domain lines declared")
    return g


def dump_automorphism(g):
    lines = ["# automorphism, %d domains" % len(g["domains"])]
    for u in sorted(g["domains"]):
        lines.append("domain %s %s" % (u, g["domains"][u]))
    for u, c in sorted(g["coords"]):
        lines.append("coord %s %s %s" % (u, c, g["coords"][(u, c)]))
    for z in sorted(g["points"]):
        lines.append("point %s %s" % (z, g["points"][z]))
    return "\n".join(lines) + "\n"


# -- model surgery -----------------------------------------------------


def collapse_unit_coordinates(m):
    """Shrink every coordinate graph of diameter at most one to a single
    vertex.

    A coordinate graph that small carries no geometry at the model's
    scale, so the collapse changes every distance by at most one;
    the kept vertex is the sorted-first one.  Projections and the
    downward tables are rewritten to land on the kept vertices and the
    constants are measured afresh.

    The tables are mapped on set ids: every set of a small domain
    becomes the one set of its kept vertex, and a downward table into a
    small domain the union of its cells.  Every other coordinate graph,
    its distances and its interned sets are shared with m.
    """
    small = [u for u in m.index.domains
             if len(m.coords[u].names) > 1 and m.coords[u].dist.max() <= 1]
    if not small:
        return m
    coords = dict(m.coords)
    for u in small:
        g = Graph()
        g.add_node(m.coords[u].names[0])
        coords[u] = _Coord(g, m.coords[u].names[:1],
                           np.zeros((1, 1), dtype=np.int32), [(0,)])
    pi = dict(m.pi)
    pi.update((u, np.zeros(len(m.points), dtype=np.intp)) for u in small)
    rho_up = dict(((u, v), 0 if v in small else spot)
                  for (u, v), spot in m.rho_up.items())
    rho_down = {}
    copied = set(small)
    for (v, u), cells in m.rho_down.items():
        if v in small:
            cells = np.zeros(1 if u in small else len(cells), dtype=np.intp)
        elif u in small:
            rows = m.coords[v].rows
            union = set().union(*(rows[i] for i in set(cells.tolist())))
            if v not in copied:
                # the union may be a new set, and m's tables stay as they are
                coords[v] = coords[v].copy()
                copied.add(v)
            cells = np.array([coords[v].intern(tuple(sorted(union)))],
                             dtype=np.intp)
        rho_down[(v, u)] = cells
    return HHSModel.numbered(m.index, m.space, coords, pi, rho_up, rho_down,
                             point_dist=m.point_dist)


# -- exports -----------------------------------------------------------


def blown_dot(x):
    return sorted_dot("blowup", x.blown, vertex_name)


def w_dot(w):
    nodes = [w.simplex_name(i) for i in range(len(w.simplices))]
    edges = sorted((nodes[i], nodes[j])
                   for i, j in np.argwhere(np.triu(w.adj, 1)))
    return graph_dot("wgraph", sorted(nodes), edges)
