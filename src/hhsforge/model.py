"""Finite models of hierarchical spaces.

A model couples an index set with a finite graph of points and one
coordinate graph per domain.  Projections land points in coordinate
graphs, relative projections tie the coordinate graphs to each other,
and E, the one constant of the axioms, is measured from the data
instead of assumed.
"""

import functools
import itertools
import types

import numpy as np

from .graph import Graph, _cells, apsp, as_graph
from .indexset import (
    CONTAINS,
    NESTED_IN,
    TRANSVERSE,
    IndexSet,
    KeyedLines,
    PropertyReport,
    content_lines,
    dump_index_set,
    index_set_from_lines,
    relation,
    split_info,
)

# the (K, C) fits try the slopes K = 1 .. MAX_SLOPE
MAX_SLOPE = 10


class ModelError(ValueError):
    pass


def _as_set(value):
    # strings are single vertices, never iterated characterwise
    if isinstance(value, str):
        return frozenset([value])
    return frozenset(value)


class ConsistentTuple:
    """Coordinates indexed by domains, one bounded vertex set each."""

    def __init__(self, scope, coords):
        self.scope = tuple(sorted(scope))
        self.coords = {}
        for u, val in coords.items():
            if u not in self.scope:
                raise ModelError("coordinate outside scope, witness %s" % u)
            vs = _as_set(val)
            if not vs:
                raise ModelError("empty coordinate, witness %s" % u)
            self.coords[u] = vs

    def __eq__(self, other):
        if not isinstance(other, ConsistentTuple):
            return NotImplemented
        return self.scope == other.scope and self.coords == other.coords

    def __repr__(self):
        parts = ["%s=%s" % (u, ",".join(sorted(self.coords[u])))
                 for u in self.scope if u in self.coords]
        return "ConsistentTuple(%s)" % " ".join(parts)


class HHSModel:
    """Index set + point graph + coordinate graphs + projection tables.

    pi maps (domain, point) to a nonempty vertex set of that domain's
    coordinate graph.  rho_up maps (U, V) with U nested in or transverse
    to V to a bounded set in CV.  rho_down maps (V, U) with V properly
    nested in U to a total map from CU vertices to nonempty CV sets.
    E is measured from the data when not supplied; kappa defaults to
    20 * E.

    The tables are given by vertex names and kept on vertex numbers:
    `coords[u]` numbers C(u) and interns its vertex sets (`_Coord`),
    `pi[u]` holds the set id of every point's projection in point
    order, `rho_up[(u, v)]` one set id of C(v) and `rho_down[(v, u)]`
    the set id of C(v) over every vertex of C(u).  `named` gives the
    tables by names again, built on first read.
    """

    def __init__(self, index, space, coord_graphs, pi, rho_up, rho_down,
                 E=None, kappa=None):
        space = as_graph(space)
        coords = dict((u, _Coord.of(as_graph(g)))
                      for u, g in coord_graphs.items() if u in index.up)
        tables = _number(index, sorted(space.nodes()), coords, pi, rho_up,
                         rho_down)
        self._setup(index, space, coords, *tables, E=E, kappa=kappa)

    @classmethod
    def numbered(cls, index, space, coords, pi, rho_up, rho_down,
                 point_dist):
        """A model on tables that are numbered already, in the form the
        model keeps them; point_dist is the distance matrix of the space
        on its sorted vertices.  E is measured."""
        m = cls.__new__(cls)
        m._setup(index, space, coords, pi, rho_up, rho_down, None,
                 point_dist=point_dist)
        return m

    def _setup(self, index, space, coords, pi, rho_up, rho_down, stray,
               E=None, kappa=None, point_dist=None):
        self.index = index
        self.space = space
        self.points = tuple(sorted(self.space.nodes()))
        if not self.points:
            raise ModelError("model needs at least one point")
        self.point_index = dict((x, i) for i, x in enumerate(self.points))
        self.coords = coords
        self.pi = pi
        self.rho_up = rho_up
        self.rho_down = rho_down
        self.point_dist = (apsp(self.space, self.points) if point_dist is None
                           else point_dist)
        self._validate(stray)
        # a canonical tuple's coordinate on its support is one vertex of
        # a minimal domain
        for u in index.minimal_domains():
            for i in range(len(coords[u].names)):
                coords[u].intern((i,))
        if E is None:
            E = measure_model(self)
        if E < 1:
            raise ModelError("E must be a positive integer")
        self.E = int(E)
        self.kappa = int(kappa) if kappa is not None else 20 * self.E

    def _validate(self, stray):
        """Connectivity from the distance matrices, then every table
        entry that a relation calls for, then stray, the first entry
        that none calls for."""
        if (self.point_dist < 0).any():
            raise ModelError("point graph is disconnected")
        for u in self.index.domains:
            if u not in self.coords:
                raise ModelError("no coordinate graph for %s" % u)
            if not self.coords[u].names:
                raise ModelError("empty coordinate graph for %s" % u)
            if (self.coords[u].dist < 0).any():
                raise ModelError("coordinate graph for %s is disconnected" % u)
        for u in self.index.domains:
            bad = np.flatnonzero(self.pi[u] < 0)
            if bad.size:
                x = self.points[bad[0]]
                if self.pi[u][bad[0]] == MISSING:
                    raise ModelError("missing projection, witness %s %s"
                                     % (u, x))
                raise ModelError("projection leaves the coordinate graph,"
                                 " witness %s %s" % (u, x))
        for u, v, rel in self.index.relations():
            if rel in (NESTED_IN, TRANSVERSE):
                spot = self.rho_up.get((u, v), MISSING)
                if spot == MISSING:
                    raise ModelError("missing relative projection,"
                                     " witness %s %s" % (u, v))
                if spot == OUTSIDE:
                    raise ModelError("relative projection leaves the coordinate"
                                     " graph, witness %s %s" % (u, v))
            if rel == NESTED_IN:
                table = self.rho_down.get((u, v))
                if table is None:
                    raise ModelError("missing downward projection,"
                                     " witness %s %s" % (u, v))
                if (table < 0).any():
                    c = self.coords[v]
                    bad = set(c.names[i] for i in np.flatnonzero(table < 0))
                    w = next(w for w in c.graph.nodes() if w in bad)
                    raise ModelError("bad downward projection,"
                                     " witness %s %s %s" % (u, v, w))
        if stray is not None:
            raise ModelError(stray)

    # -- derived tables, each built on first use and shared, so callers
    # must not write to them ------------------------------------------

    @functools.cached_property
    def coord_graphs(self):
        return dict((u, c.graph) for u, c in self.coords.items())

    @functools.cached_property
    def named(self):
        """pi, rho_up and rho_down by vertex names, as the constructor
        takes them, with frozenset values: for writers and readers of
        names."""
        return _named_tables(self)

    @functools.cached_property
    def metrics(self):
        """u -> the _Metric of C(u), which every measurement reads."""
        return dict((u, _Metric(c, self.pi[u])) for u, c in self.coords.items())

    @functools.cached_property
    def diameters(self):
        """u -> the diameter of C(u): no distance in C(u) exceeds it."""
        return dict((u, int(c.dist.max())) for u, c in self.coords.items())

    @functools.cached_property
    def bullet_rows(self):
        """rows[v][0, z] and rows[v][1, z]: the nested and the transverse
        realisation bullet of a family member v at the point z, the
        largest distance from z's projection to a relative projection of
        v into a domain that v is nested in, or transverse to."""
        domains = self.index.domains
        at = dict((v, i) for i, v in enumerate(domains))
        # row 2i of v = domains[i] is nested, 2i + 1 transverse; the keys
        # of rho_up are the nested and the transverse pairs, and those
        # into one w hold each v once
        into = dict((w, ([], [])) for w in domains)
        for (v, w), spot in self.rho_up.items():
            into[w][0].append(2 * at[v] + (w not in self.index.up[v]))
            into[w][1].append(spot)
        rows = np.zeros((2 * len(domains), len(self.points)), dtype=np.int32)
        for w, (slots, spots) in into.items():
            if slots:
                rows[slots] = np.maximum(rows[slots],
                                         self.metrics[w].to_set(spots).T)
        return dict((v, rows[2 * i:2 * i + 2]) for i, v in enumerate(domains))

    # -- distances ---------------------------------------------------

    def dist(self, u, a, b):
        """Distance in CU between two vertices or vertex sets (min pairwise).

        Nothing in the package calls this: every measurement reads the
        per-domain arrays.  It stays for the benchmark, which counts
        its calls."""
        c = self.coords[u]
        sa, sb = _as_set(a), _as_set(b)
        return int(min(c.dist[c.index[x], c.index[y]] for x in sa for y in sb))

    def coordinate_jump(self):
        """The largest coordinate distance between the projections of
        every two points, in point order."""
        return functools.reduce(np.maximum, (k.point_gap()
                                             for k in self.metrics.values()))

    def images(self, u):
        """The vertex numbers of C(u) that some point projects onto, in
        order."""
        rows = self.coords[u].rows
        return sorted(set().union(*(rows[i] for i in
                                    set(self.pi[u].tolist()))))


# set ids of a table entry that names no set, and of one that names a
# vertex outside its coordinate graph
MISSING = -1
OUTSIDE = -2


class _Coord:
    """One coordinate graph on vertex numbers.

    `names` lists the vertices in sorted order, so vertex i is names[i],
    and `dist` is the distance matrix in that order, -1 between vertices
    that no path joins.  `rows` holds the vertex sets that models use in
    the graph, each interned once as the sorted tuple of its vertex
    numbers: a set's id is its row's place.  The set tables are built
    from the rows on first use and shared by every model that holds
    this object, so rows are interned only before then.
    """

    def __init__(self, graph, names, dist, rows=()):
        self.graph = graph
        self.names = names
        self.dist = dist
        self.rows = list(rows)
        self.ids = dict((row, i) for i, row in enumerate(self.rows))

    @classmethod
    def of(cls, graph):
        names = tuple(sorted(graph.nodes()))
        return cls(graph, names, apsp(graph, names))

    def copy(self):
        """The same graph, names and distances, with rows of its own."""
        return _Coord(self.graph, self.names, self.dist, self.rows)

    def intern(self, row):
        """The id of a row, interned last when it is new."""
        i = self.ids.setdefault(row, len(self.rows))
        if i == len(self.rows):
            self.rows.append(row)
        return i

    def lookup(self, sets):
        """The ids of vertex sets given by names."""
        return np.array([self.ids[tuple(sorted(self.index[w] for w in s))]
                         for s in sets], dtype=np.intp)

    @functools.cached_property
    def index(self):
        return dict((w, i) for i, w in enumerate(self.names))

    @functools.cached_property
    def edges(self):
        index = self.index
        return np.array([(index[a], index[b]) for a, b in self.graph.edges()],
                        dtype=np.intp).reshape(-1, 2).T

    @functools.cached_property
    def tables(self):
        """near, gap and span of the rows (see _Metric)."""
        return _set_tables(self.dist, self.rows)


def _number(index, points, coords, pi, rho_up, rho_down):
    """The named tables on the vertex numbers of coords, interning their
    sets, with the message of the first entry that no relation calls
    for, or None: pi entries first, then rho_up, then rho_down, each in
    its own order.  An empty set is MISSING and a set with a vertex
    outside its graph OUTSIDE; entries of domains without a coordinate
    graph are left out, since validation stops at the missing graph."""
    position = dict((x, i) for i, x in enumerate(points))
    memo = dict((u, {}) for u in coords)

    def number(u, s):
        if not isinstance(s, frozenset):
            s = _as_set(s)
        got = memo[u].get(s)
        if got is None:
            c = coords[u]
            try:
                got = c.intern(tuple(sorted(c.index[w] for w in s))) \
                    if s else MISSING
            except KeyError:
                got = OUTSIDE
            memo[u][s] = got
        return got

    rels = dict(((u, v), rel) for u, v, rel in index.relations()
                if rel in (NESTED_IN, TRANSVERSE))
    strays = [None, None, None]
    ids = dict((u, np.full(len(points), MISSING, dtype=np.intp))
               for u in coords)
    for (u, x), s in pi.items():
        if u in coords and x in position:
            ids[u][position[x]] = number(u, s)
        elif strays[0] is None and (u not in index.up or x not in position):
            strays[0] = ("projection outside the domains and points,"
                         " witness %s %s" % (u, x))
    up = {}
    for (u, v), s in rho_up.items():
        if (u, v) in rels:
            if v in coords:
                up[(u, v)] = number(v, s)
        elif strays[1] is None:
            strays[1] = ("relative projection needs a nested or transverse"
                         " pair, witness %s %s" % (u, v))
    down = {}
    for (u, v), table in rho_down.items():
        if rels.get((u, v)) != NESTED_IN:
            strays[2] = strays[2] or ("downward projection needs a nested"
                                      " pair, witness %s %s" % (u, v))
            continue
        if u not in coords or v not in coords:
            continue
        at = coords[v].index
        stray = [w for w in table if w not in at]
        if stray:
            strays[2] = strays[2] or ("downward projection from outside the"
                                      " coordinate graph, witness %s %s %s"
                                      % (u, v, min(stray)))
        row = down[(u, v)] = np.full(len(at), MISSING, dtype=np.intp)
        for w, s in table.items():
            if w in at:
                row[at[w]] = number(u, s)
    stray = next((s for s in strays if s is not None), None)
    return ids, up, down, stray


def _named_tables(m):
    """The tables of m by names: pi, rho_up and rho_down as the public
    constructor takes them, each set a frozenset, pi in domain and then
    point order and each downward table in its graph's node order."""
    sets = dict((u, [frozenset(map(c.names.__getitem__, row))
                     for row in c.rows]) for u, c in m.coords.items())
    pi = {}
    for u in m.index.domains:
        pi.update(zip([(u, x) for x in m.points],
                      map(sets[u].__getitem__, m.pi[u].tolist())))
    rho_up = dict(((u, v), sets[v][i]) for (u, v), i in m.rho_up.items())
    rho_down = {}
    for (v, u), table in m.rho_down.items():
        c = m.coords[u]
        rho_down[(v, u)] = dict((w, sets[v][table[c.index[w]]])
                                for w in c.graph.nodes())
    return types.SimpleNamespace(pi=pi, rho_up=rho_up, rho_down=rho_down)


# -- measurement -----------------------------------------------------


class _Metric:
    """One coordinate graph's set tables, read for one model.

    `near` holds every interned set's least distance to each vertex;
    `gap` and `span` hold the least and the greatest distance between
    two sets, so the diagonal of `span` is each set's diameter.  The
    three are reductions over the sets' vertex rows laid end to end
    (`_set_reduce`), built once per `_Coord`.  `point` gives the id of
    every point's projection and `point_vertices` its vertex numbers,
    padded by repeats to one width.
    """

    def __init__(self, coord, point):
        self.coord = coord
        self.near, self.gap, self.span = coord.tables
        self.point = point

    @functools.cached_property
    def point_vertices(self):
        sets, inv = np.unique(self.point, return_inverse=True)
        rows = self.coord.rows
        return _padded(rows[i] for i in sets.tolist())[inv]

    def diam(self, ids):
        return self.span[ids, ids]

    def union_diam(self, ids):
        """Diameter of the union of the sets in each row of ids."""
        return self.span[ids[:, :, None], ids[:, None, :]].max(axis=(1, 2))

    def to_set(self, ids):
        """Distance from every point's projection to each set of ids, a
        column per set."""
        return self.gap[np.ix_(self.point, ids)]

    def point_gap(self):
        """Distance between the projections of every two points."""
        return self.gap[np.ix_(self.point, self.point)]

    @functools.cached_property
    def point_max(self):
        """The largest distance from each point's projection to another
        point's projection."""
        return self.gap[:, self.point].max(1)[self.point]


def _set_tables(dist, rows):
    """near, gap and span of the vertex sets in rows, on the distance
    matrix dist."""
    sizes = [len(row) for row in rows]
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp,
                       count=sum(sizes))
    near = _set_reduce(np.minimum, dist, flat, sizes)
    far = _set_reduce(np.maximum, dist, flat, sizes)
    # the distance between two sets is symmetric: gap[i, j] is the
    # least of row j of near over the vertices of set i
    return (near, _set_reduce(np.minimum, near.T, flat, sizes),
            _set_reduce(np.maximum, far.T, flat, sizes))


def _set_reduce(ufunc, table, flat, sizes):
    """Row i of the result reduces, by ufunc, the rows of table at the
    vertices of set i; the sets' vertex numbers lie end to end in flat.
    Sets go in blocks, of one set at least, whose gathered rows stay
    under `_cells` of the table's row count."""
    out = np.empty((len(sizes), table.shape[1]), dtype=table.dtype)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    rows = _cells(len(table)) // table.shape[1]
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + rows,
                                             "right")))
        out[lo:hi] = ufunc.reduceat(table[flat[starts[lo]:ends[hi - 1]]],
                                    starts[lo:hi] - starts[lo], axis=0)
        lo = hi
    return out


def _padded(rows):
    """The rows as one array, each padded by repeats of its first entry
    to the longest row's length."""
    rows = [list(row) for row in rows]
    width = max(map(len, rows))
    return np.array([row + row[:1] * (width - len(row)) for row in rows],
                    dtype=np.intp)


# Each scan takes a floor, the largest constant found so far, and
# returns the larger of it and its own constant.  A scan's terms are
# distances inside coordinate graphs, so a term in C(u) is at most the
# diameter of C(u), and a min of terms in C(u) and C(v) at most the
# smaller diameter; what these bounds keep at or under the running
# value is never gathered.


def _scan_diameters(m, floor=0):
    ks, diam = m.metrics, m.diameters
    best = floor
    for u, k in ks.items():
        if diam[u] > best:
            best = max(best, int(k.diam(k.point).max()))
    for (u, v), spot in m.rho_up.items():
        if diam[v] > best:
            best = max(best, int(ks[v].span[spot, spot]))
    for (v, u), cells in m.rho_down.items():
        # a vertex close to the upward spot may map to a large set;
        # only far vertices need small images
        if min(diam[u], diam[v]) > best:
            gap = ks[u].near[m.rho_up[(v, u)]]
            spread = ks[v].diam(cells)
            best = max(best, int(np.minimum(gap, spread).max()))
    return best


def _scan_lipschitz(m, floor=0):
    # (E, E)-coarse Lipschitz over an edge needs d <= 2E, and d is at
    # most the diameter of its graph
    ks = [k for u, k in m.metrics.items()
          if (m.diameters[u] + 1) // 2 > floor]
    pos = m.point_index
    a, b = np.array([(pos[x], pos[y]) for x, y in m.space.edges()],
                    dtype=np.intp).reshape(-1, 2).T
    if not a.size or not ks:
        return floor
    d = max(int(k.gap[k.point[a], k.point[b]].max()) for k in ks)
    return max(floor, (d + 1) // 2)


def _related(m, domains):
    """The pairs u < v of the domains that consistency constrains, with
    their relation, in pair order."""
    pairs = ((u, v, relation(m.index, u, v))
             for u, v in itertools.combinations(domains, 2))
    return [p for p in pairs if p[2] in (TRANSVERSE, NESTED_IN, CONTAINS)]


def _consistency(m, ks, sets, vertices, related=None):
    """The largest consistency gap of a family of tuples over the
    related pairs, by default every pair that it constrains, and the first
    (tuple, u, v) to reach it in tuple order and then pair order; None
    for a gap of 0.

    Row i of sets[u] holds ks[u] set ids whose union is tuple i's
    coordinate in C(u), and row i of vertices[u] that coordinate's
    vertex numbers, each padded by repeats to one width; the pairs'
    domains need them.
    """
    if related is None:
        related = _related(m, m.index.domains)
    if not related:
        return 0, None
    # the distance from each tuple's coordinate in C(w) to rho_up(s, w)
    # is column col[(s, w)] of reach, gathered once per w for the pairs
    # that read it
    found = {}
    for u, v, rel in related:
        if rel != CONTAINS:
            found.setdefault(v, []).append(u)
        if rel != NESTED_IN:
            found.setdefault(u, []).append(v)
    col, reach = {}, []
    for w, sources in found.items():
        col.update([((s, w), len(col) + j) for j, s in enumerate(sources)])
        reach.append(ks[w].gap[:, [m.rho_up[(s, w)] for s in sources]]
                     [sets[w]].min(1))
    reach = np.hstack(reach)
    # the gap of every related pair, in pair order: the transverse pairs
    # in one gather, the nested ones with the downward image of the big
    # coordinate one by one
    value = np.empty((len(reach), len(related)), dtype=reach.dtype)
    across = []
    for j, (u, v, rel) in enumerate(related):
        if rel == TRANSVERSE:
            across.append((j, col[(v, u)], col[(u, v)]))
            continue
        a, b = (u, v) if rel == NESTED_IN else (v, u)
        down = m.rho_down[(a, b)][vertices[b]]
        value[:, j] = np.minimum(reach[:, col[(a, b)]], ks[a].union_diam(
            np.column_stack([sets[a], down])))
    if across:
        j, a, b = np.array(across, dtype=np.intp).T
        value[:, j] = np.minimum(reach[:, a], reach[:, b])
    top = value.max(0, initial=0)
    best = int(top.max(initial=0))
    if best == 0:
        return 0, None
    hit = np.flatnonzero(top == best)
    first = value[:, hit].argmax(0)
    u, v, _ = related[hit[first.argmin()]]
    return best, (int(first.min()), u, v)


def _scan_consistency(m, floor=0):
    # a pair's gap is a min of a term in C(u) and one in C(v)
    ks = m.metrics
    wide = [u for u in m.index.domains if m.diameters[u] > floor]
    gap, _ = _consistency(m, ks, dict((u, ks[u].point[:, None]) for u in wide),
                          dict((u, ks[u].point_vertices) for u in wide),
                          _related(m, wide))
    return max(floor, gap)


def _scan_rho_consistency(m, floor=0):
    """The largest gap in C(w) between rho_up(u, w) and rho_up(v, w),
    over u properly nested in v: one gap lookup per w whose diameter
    beats the running value."""
    ks, up = m.metrics, m.index.up
    best = floor
    for w in m.index.domains:
        if m.diameters[w] <= best:
            continue
        spot = dict((u, m.rho_up[(u, w)]) for u in m.index.domains
                    if (u, w) in m.rho_up)
        pairs = [(spot[u], spot[v]) for u in spot for v in up[u]
                 if v != u and v in spot]
        if pairs:
            a, b = np.array(pairs, dtype=np.intp).T
            best = max(best, int(ks[w].gap[a, b].max()))
    return best


def _scan_bgi(m, floor=0):
    """Least e with the edgewise bounded geodesic image condition."""
    ks, diam = m.metrics, m.diameters
    worst = floor
    for (u, v), cells in m.rho_down.items():
        if min(diam[u], diam[v]) <= worst:
            continue
        a, b = m.coords[v].edges
        anchor = ks[v].near[m.rho_up[(u, v)]]
        gap = np.minimum(anchor[a], anchor[b])
        # condition must hold once e >= gap, or e >= spread: only an
        # edge whose gap beats worst can raise it
        far = gap > worst
        if not far.any():
            continue
        a, b = cells[a[far]], cells[b[far]]
        span = ks[u].span
        spread = np.maximum(span[a, b], np.maximum(span[a, a], span[b, b]))
        worst = max(worst, int(np.minimum(gap[far], spread).max()))
    return worst


_FAR = np.iinfo(np.int32).max


def _reach_row(rows, i, span, anchor):
    """The least anchor value on a geodesic from set i to each set, so
    the distance from the anchor set to their interval.

    rows holds every set's least distance to each vertex and span the
    distance from set i to each set; only this one (set x vertex) slice
    of the interval mask is ever held.
    """
    return np.where(rows[i] + rows == span[:, None], anchor, _FAR).min(1)


def _scan_large_links(m, floor=0):
    """Least e for the interval form of the large links condition.

    For u nested in v, two points count up to the smaller of their gap
    in C(u) and their reach in C(v): the distance from rho_up(u, v) to
    the interval between their projections.  Each projection's nearest
    vertex to the other lies on a geodesic between them, so the reach
    from set i is at most the largest anchor value over set i's
    vertices, and a pair with a point x counts at most x's largest C(u)
    gap.  Each point is bounded by the smaller of the two, and the sets
    are visited by their points' largest bound, decreasing.  The scan
    stops at the first set whose bound cannot beat the running worst:
    every row left is at most that bound, so only the rows that can
    raise worst are reduced.
    """
    ks, diam = m.metrics, m.diameters
    worst = floor
    for v in m.index.domains:
        if diam[v] <= worst:
            continue
        below = [u for u in m.index.domains
                 if u != v and v in m.index.up[u] and diam[u] > worst]
        if not below:
            continue
        big = ks[v]
        sets, inv = np.unique(big.point, return_inverse=True)
        rows = big.near[sets]
        anchors = big.near[[m.rho_up[(u, v)] for u in below]]
        bounds = np.minimum([ks[u].point_max for u in below],
                            anchors[:, big.point_vertices].max(2))
        for u, anchor, bound in zip(below, anchors, bounds):
            small = ks[u]
            x = bound.argmax()
            while bound[x] > worst:
                i = inv[x]
                mine = inv == i
                reach = _reach_row(rows, i, big.gap[sets[i], sets], anchor)
                # the C(u) gaps from the points whose C(v) set is i
                gap = small.gap[small.point[mine]][:, small.point]
                worst = max(worst, int(np.minimum(gap, reach[inv]).max()))
                # worst >= 0, so a set once reduced is never chosen again
                bound[mine] = 0
                x = bound.argmax()
    return worst


def _scan_partial_realisation(m, floor=0):
    ks = m.metrics
    domains = m.index.domains
    # the nested and transverse bullets depend only on the family member
    # and the candidate point, never on the chosen image vertex
    base = m.bullet_rows
    coord = {}
    for v in domains:
        k = ks[v]
        # coord[v][z, j]: distance from z's projection to image vertex j
        coord[v] = k.near[np.ix_(k.point, m.images(v))]
    # every choice for a family is at most the family's bound: the least
    # over z of its members' largest bullet and farthest image vertex
    cap = np.array([np.maximum(base[v].max(0), coord[v].max(1))
                    for v in domains])
    at = dict((v, i) for i, v in enumerate(domains))
    families = m.index.cliques(domains)
    bounds = cap[_padded([at[v] for v in family] for family in families)]
    worst = floor
    for family, bound in zip(families, bounds.max(1).min(1).tolist()):
        if bound <= worst:
            continue
        fam_base = np.max([base[v] for v in family], axis=(0, 1))
        head, last = family[:-1], family[-1]
        # every choice for the last member at once, the others in turn
        for choice in itertools.product(*(range(coord[v].shape[1])
                                          for v in head)):
            acc = fam_base
            for v, j in zip(head, choice):
                acc = np.maximum(acc, coord[v][:, j])
            acc = np.maximum(acc[:, None], coord[last])
            worst = max(worst, int(acc.min(0).max()))
    return worst


# the order in which measure_model runs the scans: the diameters first,
# since their value bounds away most domain pairs of the later ones
_SCANS = (_scan_diameters, _scan_bgi, _scan_large_links, _scan_consistency,
          _scan_rho_consistency, _scan_lipschitz, _scan_partial_realisation)


def measure_model(m):
    """E, the largest of 1 and the seven axiom constants, measured
    through one running bound: each scan starts from the largest
    constant that the scans before it found and gathers only the terms
    that the coordinate diameters let beat it."""
    E = 1
    for scan in _SCANS:
        E = scan(m, E)
    return E


# -- distance formula -------------------------------------------------


def fit_table(ys, xs, starts):
    """The least C >= 0 with ys <= K * xs + C on each segment of two
    flat arrays of non-negative ints, a segment starting at each of
    `starts`, in row K - 1 for K = 1 .. MAX_SLOPE; 0 for empty arrays.
    The slopes go one at a time over every segment, in the least signed
    type that holds max(ys) + MAX_SLOPE * max(xs).

    Each caller picks a slope by one argmin over the table, ties going
    to the flatter slope: the distance formula and the class graphs
    take the least (C, K), the realisation map the least (C + K, K)."""
    if not len(ys):
        return np.zeros((MAX_SLOPE, len(starts)), dtype=np.intp)
    far = int(ys.max()) + MAX_SLOPE * int(xs.max())
    dtype = np.min_scalar_type(-far - 1)
    ys, xs = ys.astype(dtype, copy=False), xs.astype(dtype, copy=False)
    return np.maximum([np.maximum.reduceat(ys - k * xs, starts)
                       for k in range(1, MAX_SLOPE + 1)], 0)


def distance_profile(m, threshold):
    """Best (K, C) comparing the estimate with the point-graph metric."""
    gaps = (k.point_gap() for k in m.metrics.values())
    upper = np.triu(np.ones((len(m.points),) * 2, dtype=bool), 1)
    est = sum(np.where(g > threshold, g, 0) for g in gaps)[upper]
    dz = m.point_dist[upper]
    consts = np.maximum(fit_table(est, dz, [0]), fit_table(dz, est, [0]))[:, 0]
    k = int(consts.argmin())
    return {"threshold": threshold, "K": k + 1, "C": int(consts[k])}


# -- metric properties ------------------------------------------------


def _dpr_constant(m):
    """The largest distance from a vertex of C(u) to the nearest upward
    spot of a minimal domain strictly below u, with its first witness
    (u, vertex) in domain order and then vertex order."""
    worst = (0, None)
    minimal = m.index.minimal_domains()
    for u in m.index.domains:
        below = [v for v in minimal if v != u and v in m.index.down[u]]
        if not below:
            continue
        gap = m.metrics[u].near[[m.rho_up[(v, u)] for v in below]].min(0)
        far = int(gap.argmax())
        if gap[far] > worst[0]:
            worst = (int(gap[far]), (u, m.coords[u].names[far]))
    return worst


def check_metric_property(m, name):
    """Measure dpr, the one metric property a verdict reads: the report
    carries the least constant and compares it against the measured E."""
    if name != "dpr":
        raise ModelError("unknown metric property %s" % name)
    constant, witness = _dpr_constant(m)
    verdict = constant <= m.E
    report = PropertyReport("dpr", verdict, None if verdict else witness)
    report.constant = constant
    return report


# -- point-domain augmentation ----------------------------------------


def augment_point_domains(m):
    """Hang a point domain under every wide domain per realised tuple.

    A domain is wide when it is the top or fails to be split.  For each
    wide U the points are classified by their projections to everything
    nested in U; each class z gets a minimal domain T_<U>_<z> with a
    one-vertex coordinate graph, nested exactly where U is nested plus
    under U itself, and orthogonal exactly where U is orthogonal.
    """
    s = m.index
    wide = []
    for u in s.domains:
        if u == s.top or not split_info(s, u)["split"]:
            wide.append(u)
    fresh = []
    for u in sorted(wide):
        seen = {}
        scope = sorted(s.down[u])
        for i, z in enumerate(m.points):
            key = tuple(m.pi[v][i] for v in scope)
            if key not in seen:
                seen[key] = z
        for key in sorted(seen, key=lambda k: seen[k]):
            z = seen[key]
            t = "T_%s_%s" % (u, z)
            if t in s.domains:
                raise ModelError("augmented id collides, witness %s" % t)
            fresh.append((t, u, z))
    domains = list(s.domains) + [t for t, _, _ in fresh]
    nesting = [(v, u) for u in s.domains
               for v in sorted(s.down[u] - frozenset([u]))]
    nesting += [(t, u) for t, u, _ in fresh]
    orth = [(u, v) for u in s.domains for v in sorted(s.orth[u]) if u < v]
    orth += [(t, v) for t, u, _ in fresh for v in sorted(s.orth[u])]
    index = IndexSet(domains, nesting, orth)

    named = m.named
    coord_graphs = dict(m.coord_graphs)
    pi = dict(named.pi)
    rho_up = dict(named.rho_up)
    rho_down = dict((k, dict(v)) for k, v in named.rho_down.items())
    for t, u, z in fresh:
        g = Graph()
        g.add_node("0")
        coord_graphs[t] = g
        for x in m.points:
            pi[(t, x)] = frozenset(["0"])
        for v in sorted(index.up[t] - frozenset([t])):
            rho_up[(t, v)] = named.pi[(u, z)] if v == u else (
                named.rho_up[(u, v)] if v in s.up[u] else None)
            if rho_up[(t, v)] is None:
                raise ModelError("augment lost a projection, witness %s" % v)
            rho_down[(t, v)] = dict(
                (w, frozenset(["0"])) for w in coord_graphs[v].nodes())
    for t, u, z in fresh:
        for v in index.domains:
            if relation(index, t, v) != TRANSVERSE:
                continue
            rho_up[(v, t)] = frozenset(["0"])
            if (t, v) in rho_up:
                continue
            if v in s.domains:
                # v transverse to t: either transverse to u or below u
                if v in s.up[u] or v in s.orth[u]:
                    raise ModelError("augment relation drift, witness %s" % v)
                if (u, v) in named.rho_up:
                    rho_up[(t, v)] = named.rho_up[(u, v)]
                else:
                    rho_up[(t, v)] = named.pi[(v, z)]
    return HHSModel(index, m.space, coord_graphs, pi, rho_up, rho_down)


# -- file format -------------------------------------------------------


def load_model(text):
    """Parse a model description.

    Index lines (domain/nest/orth) give the index set.  The remaining
    lines are point/space/coord/pi/rho tables plus optional E and kappa
    lines.  A pi, rho, E or kappa line may be given twice only with the
    same value.
    """
    index_lines = []
    points = []
    space_edges = []
    coord_nodes = {}
    coord_edges = {}
    coord_lines = {}
    pi = {}
    rho_up = {}
    rho_down = {}
    constants = {}
    once = KeyedLines(text, ModelError)
    # one frozenset per distinct set word, so the tables share them
    sets = {}

    def vertex_set(word):
        got = sets.get(word)
        if got is None:
            got = sets[word] = frozenset(word.split(","))
        return got

    for lineno, raw, parts in content_lines(text):
        key, args = parts[0], parts[1:]
        if key in ("domain", "nest", "orth"):
            index_lines.append((lineno, raw, parts))
        elif key == "point":
            if len(args) != 1:
                raise ModelError("line %d: cannot parse %r" % (lineno, raw))
            points.append(args[0])
        elif key == "space":
            if len(args) != 2:
                raise ModelError("line %d: cannot parse %r" % (lineno, raw))
            space_edges.append((args[0], args[1]))
        elif key == "coord":
            if len(args) == 3 and args[1] == "vertex":
                coord_nodes.setdefault(args[0], []).append(args[2])
            elif len(args) == 4 and args[1] == "edge":
                coord_edges.setdefault(args[0], []).append((args[2], args[3]))
            else:
                raise ModelError("line %d: cannot parse %r" % (lineno, raw))
            coord_lines.setdefault(args[0], lineno)
        elif key == "pi":
            if len(args) != 3:
                raise ModelError("line %d: cannot parse %r" % (lineno, raw))
            once.put(pi, (args[0], args[1]), vertex_set(args[2]), lineno,
                     parts)
        elif key == "rho":
            if len(args) == 3:
                once.put(rho_up, (args[0], args[1]), vertex_set(args[2]),
                         lineno, parts)
            elif len(args) == 4:
                once.put(rho_down.setdefault((args[1], args[0]), {}),
                         args[2], vertex_set(args[3]), lineno, parts)
            else:
                raise ModelError("line %d: cannot parse %r" % (lineno, raw))
        elif key in ("E", "kappa"):
            try:
                value = int(args[0]) if len(args) == 1 else 0
            except ValueError:
                value = 0
            if value < 1:
                raise ModelError("line %d: %s needs one positive integer,"
                                 " got %r" % (lineno, key, raw))
            once.put(constants, key, value, lineno, parts)
        else:
            raise ModelError("line %d: cannot parse %r" % (lineno, raw))
    index = index_set_from_lines(index_lines)
    for u, lineno in coord_lines.items():
        if u not in index.up:
            raise ModelError("line %d: coordinate graph of unknown domain %s"
                             % (lineno, u))
    space = Graph()
    space.add_nodes_from(points)
    space.add_edges_from(space_edges)
    coord_graphs = {}
    for u in index.domains:
        g = Graph()
        g.add_nodes_from(coord_nodes.get(u, []))
        g.add_edges_from(coord_edges.get(u, []))
        coord_graphs[u] = g
    return HHSModel(index, space, coord_graphs, pi, rho_up, rho_down,
                    E=constants.get("E"), kappa=constants.get("kappa"))


def dump_model(m):
    lines = ["# model, %d points, %d domains" % (len(m.points),
                                                 len(m.index.domains))]
    lines.extend(dump_index_set(m.index).splitlines())
    lines.append("E %d" % m.E)
    lines.append("kappa %d" % m.kappa)
    for p in m.points:
        lines.append("point %s" % p)
    for a, b in sorted(tuple(sorted(e)) for e in m.space.edges()):
        lines.append("space %s %s" % (a, b))
    for u in m.index.domains:
        g = m.coord_graphs[u]
        for v in sorted(g.nodes()):
            lines.append("coord %s vertex %s" % (u, v))
        for a, b in sorted(tuple(sorted(e)) for e in g.edges()):
            lines.append("coord %s edge %s %s" % (u, a, b))
    named = m.named
    for u in m.index.domains:
        for x in m.points:
            lines.append("pi %s %s %s" % (u, x,
                                          ",".join(sorted(named.pi[(u, x)]))))
    for u, v in sorted(named.rho_up):
        lines.append("rho %s %s %s" % (u, v,
                                       ",".join(sorted(named.rho_up[(u, v)]))))
    for v, u in sorted(named.rho_down):
        table = named.rho_down[(v, u)]
        for w in sorted(table):
            lines.append("rho %s %s %s %s" % (u, v, w,
                                              ",".join(sorted(table[w]))))
    return "\n".join(lines) + "\n"
