"""Finite models of hierarchical spaces.

A model couples an index set with a finite graph of points and one
coordinate graph per domain.  Projections land points in coordinate
graphs, relative projections tie the coordinate graphs to each other,
and every axiom constant is measured from the data instead of assumed.
"""

import functools
import itertools

import numpy as np

from .graph import Graph, apsp, as_graph, is_connected
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
    """

    def __init__(self, index, space, coord_graphs, pi, rho_up, rho_down,
                 E=None, kappa=None):
        self.index = index
        self.space = as_graph(space)
        self.points = tuple(sorted(self.space.nodes()))
        if not self.points:
            raise ModelError("model needs at least one point")
        self.point_index = dict((x, i) for i, x in enumerate(self.points))
        self.coord_graphs = dict((u, as_graph(g))
                                 for u, g in coord_graphs.items())
        self.pi = dict(((u, x), _as_set(v)) for (u, x), v in pi.items())
        self.rho_up = dict(((u, v), _as_set(w)) for (u, v), w in rho_up.items())
        self.rho_down = {}
        for (v, u), table in rho_down.items():
            self.rho_down[(v, u)] = dict((w, _as_set(t)) for w, t in table.items())
        self._validate()
        if E is None:
            E = measure_model(self)["E"]
        if E < 1:
            raise ModelError("E must be a positive integer")
        self.E = int(E)
        self.kappa = int(kappa) if kappa is not None else 20 * self.E

    def _validate(self):
        if not is_connected(self.space):
            raise ModelError("point graph is disconnected")
        for u in self.index.domains:
            if u not in self.coord_graphs:
                raise ModelError("no coordinate graph for %s" % u)
            g = self.coord_graphs[u]
            if g.number_of_nodes() == 0:
                raise ModelError("empty coordinate graph for %s" % u)
            if not is_connected(g):
                raise ModelError("coordinate graph for %s is disconnected" % u)
        for u in self.index.domains:
            nodes = set(self.coord_graphs[u].nodes())
            for x in self.points:
                img = self.pi.get((u, x))
                if not img:
                    raise ModelError("missing projection, witness %s %s" % (u, x))
                if not img <= nodes:
                    raise ModelError("projection leaves the coordinate graph,"
                                     " witness %s %s" % (u, x))
        for u, v in itertools.permutations(self.index.domains, 2):
            rel = relation(self.index, u, v)
            if rel in (NESTED_IN, TRANSVERSE):
                img = self.rho_up.get((u, v))
                if not img:
                    raise ModelError("missing relative projection,"
                                     " witness %s %s" % (u, v))
                if not img <= set(self.coord_graphs[v].nodes()):
                    raise ModelError("relative projection leaves the coordinate"
                                     " graph, witness %s %s" % (u, v))
            if rel == NESTED_IN:
                table = self.rho_down.get((u, v))
                if table is None:
                    raise ModelError("missing downward projection,"
                                     " witness %s %s" % (u, v))
                small = set(self.coord_graphs[u].nodes())
                for w in self.coord_graphs[v].nodes():
                    cell = table.get(w)
                    if not cell or not cell <= small:
                        raise ModelError("bad downward projection,"
                                         " witness %s %s %s" % (u, v, w))
        # every table entry must be one that a relation calls for
        known = self.index.up
        for u, x in self.pi:
            if u not in known or x not in self.point_index:
                raise ModelError("projection outside the domains and points,"
                                 " witness %s %s" % (u, x))
        for u, v in self.rho_up:
            if (u not in known or v not in known
                    or relation(self.index, u, v) not in (NESTED_IN,
                                                          TRANSVERSE)):
                raise ModelError("relative projection needs a nested or"
                                 " transverse pair, witness %s %s" % (u, v))
        for (u, v), table in self.rho_down.items():
            if u == v or u not in known or v not in known[u]:
                raise ModelError("downward projection needs a nested pair,"
                                 " witness %s %s" % (u, v))
            stray = table.keys() - self.coord_graphs[v].nodes()
            if stray:
                raise ModelError("downward projection from outside the"
                                 " coordinate graph, witness %s %s %s"
                                 % (u, v, min(stray)))

    # -- derived tables, each built on first use and shared, so callers
    # must not write to them ------------------------------------------

    @functools.cached_property
    def coord_dist(self):
        """u -> the numbers of the vertices of C(u), in sorted order, and
        its distance matrix."""
        out = {}
        for u in self.index.domains:
            names = sorted(self.coord_graphs[u].nodes())
            out[u] = (dict((w, i) for i, w in enumerate(names)),
                      apsp(self.coord_graphs[u], names))
        return out

    @functools.cached_property
    def point_dist(self):
        """Point-graph distance between every two points, in point order."""
        return apsp(self.space, self.points)

    @functools.cached_property
    def metrics(self):
        """u -> the _Metric of C(u), which every measurement reads."""
        return _metrics(self)

    @functools.cached_property
    def bullet_rows(self):
        """rows[v][0, z] and rows[v][1, z]: the nested and the transverse
        realisation bullet of a family member v at the point z, the
        largest distance from z's projection to a relative projection of
        v into a domain that v is nested in, or transverse to."""
        rows = {}
        for v in self.index.domains:
            row = rows[v] = np.zeros((2, len(self.points)), dtype=np.int32)
            for w in self.index.domains:
                rel = relation(self.index, v, w)
                if rel in (NESTED_IN, TRANSVERSE):
                    i = int(rel == TRANSVERSE)
                    row[i] = np.maximum(
                        row[i], self.metrics[w].to_set(self.rho_up[(v, w)]))
        return rows

    # -- distances ---------------------------------------------------

    def dist(self, u, a, b):
        """Distance in CU between two vertices or vertex sets (min pairwise).

        Nothing in the package calls this: every measurement reads the
        per-domain arrays.  It stays for the benchmark, which counts
        its calls."""
        index, d = self.coord_dist[u]
        sa, sb = _as_set(a), _as_set(b)
        return int(min(d[index[x], index[y]] for x in sa for y in sb))

    def coordinate_jump(self):
        """The largest coordinate distance between the projections of
        every two points, in point order."""
        return functools.reduce(np.maximum, (k.point_gap()
                                             for k in self.metrics.values()))

    def images(self, u):
        return frozenset().union(*(self.pi[(u, x)] for x in self.points))


# -- measurement -----------------------------------------------------


class _Metric:
    """One coordinate graph and the vertex sets the model uses in it.

    Vertices are numbered in sorted order and each set is interned once:
    the point projections, the relative projections landing here, and
    the cells of the downward tables leaving here.  `near` holds every
    set's least distance to each vertex; `gap` and `span` hold the least
    and the greatest distance between two sets, so the diagonal of
    `span` is each set's diameter.  `extra` sets are interned last, so
    they leave every other set's id as it is.  `projections` gives the
    ids of the point and relative projections, `point` the id of every
    point's projection and `point_vertices` its vertices, padded by
    repeats to one width; `cells[v]` gives the id of the cell over every
    vertex of C(v).
    """

    def __init__(self, m, u, projections, cells, extra=()):
        self.index, dist = m.coord_dist[u]
        self.edges = np.array([(self.index[a], self.index[b])
                               for a, b in m.coord_graphs[u].edges()],
                              dtype=np.intp).reshape(-1, 2).T
        self.ids = {}
        members = []
        for s in itertools.chain(projections, cells, extra):
            if s not in self.ids:
                self.ids[s] = len(members)
                members.append([self.index[w] for w in s])
        self.near = np.array([dist[mem].min(0) for mem in members])
        far = np.array([dist[mem].max(0) for mem in members])
        self.gap = np.array([self.near[:, mem].min(1) for mem in members])
        self.span = np.array([far[:, mem].max(1) for mem in members])
        self.projections = self.lookup(projections)
        self.point = self.lookup(m.pi[(u, x)] for x in m.points)
        self.point_vertices = _padded(members[i] for i in self.point)
        self.cells = {}

    def lookup(self, sets):
        return np.array([self.ids[s] for s in sets], dtype=np.intp)

    def diam(self, ids):
        return self.span[ids, ids]

    def union_diam(self, ids):
        """Diameter of the union of the sets in each row of ids."""
        return self.span[ids[:, :, None], ids[:, None, :]].max(axis=(1, 2))

    def union_gap(self, ids, s):
        """Distance from the union of the sets in each row of ids to the
        set s."""
        return self.gap[ids, self.ids[s]].min(1)

    def to_set(self, s):
        """Distance from every point's projection to the set s."""
        return self.gap[self.point, self.ids[s]]

    def point_gap(self):
        """Distance between the projections of every two points."""
        return self.gap[np.ix_(self.point, self.point)]


def _padded(rows):
    """The rows as one array, each padded by repeats of its first entry
    to the longest row's length."""
    rows = [list(row) for row in rows]
    width = max(map(len, rows))
    return np.array([row + row[:1] * (width - len(row)) for row in rows],
                    dtype=np.intp)


def _metrics(m, extra=None):
    """u -> the _Metric of C(u), with the vertex sets extra[u] interned
    after the model's own."""
    extra = extra or {}
    projections = dict((u, []) for u in m.index.domains)
    cells = dict((u, []) for u in m.index.domains)
    for (u, x), img in m.pi.items():
        projections[u].append(img)
    for (u, v), img in m.rho_up.items():
        projections[v].append(img)
    for (v, u), table in m.rho_down.items():
        cells[v].extend(table.values())
    metrics = dict((u, _Metric(m, u, projections[u], cells[u],
                               extra.get(u, ())))
                   for u in m.index.domains)
    for (v, u), table in m.rho_down.items():
        # the index of C(u) is in vertex order
        metrics[v].cells[u] = metrics[v].lookup(
            table[w] for w in metrics[u].index)
    return metrics


def _scan_diameters(m):
    ks = m.metrics
    best = max(int(k.diam(k.projections).max()) for k in ks.values())
    for (v, u) in m.rho_down:
        # a vertex close to the upward spot may map to a large set;
        # only far vertices need small images
        big, small = ks[u], ks[v]
        gap = big.near[big.ids[m.rho_up[(v, u)]]]
        spread = small.diam(small.cells[u])
        best = max(best, int(np.minimum(gap, spread).max()))
    return best


def _scan_lipschitz(m):
    pos = m.point_index
    a, b = np.array([(pos[x], pos[y]) for x, y in m.space.edges()],
                    dtype=np.intp).reshape(-1, 2).T
    if not a.size:
        return 0
    d = max(int(k.gap[k.point[a], k.point[b]].max())
            for k in m.metrics.values())
    # (E, E)-coarse Lipschitz over an edge needs d <= 2E
    return (d + 1) // 2


def _consistency(m, ks, sets, vertices):
    """The largest consistency gap of a family of tuples, and the first
    (tuple, u, v) to reach it in tuple order and then domain pair order;
    None for a gap of 0.

    Row i of sets[u] holds ks[u] set ids whose union is tuple i's
    coordinate in C(u), and row i of vertices[u] that coordinate's
    vertex numbers, each padded by repeats to one width.
    """
    best, witness = 0, None
    for u, v in itertools.combinations(m.index.domains, 2):
        rel = relation(m.index, u, v)
        if rel == TRANSVERSE:
            value = np.minimum(ks[u].union_gap(sets[u], m.rho_up[(v, u)]),
                               ks[v].union_gap(sets[v], m.rho_up[(u, v)]))
        elif rel in (NESTED_IN, CONTAINS):
            # the small coordinate with the downward image of the big one
            a, b = (u, v) if rel == NESTED_IN else (v, u)
            small, big = ks[a], ks[b]
            down = small.cells[b][vertices[b]]
            value = np.minimum(big.union_gap(sets[b], m.rho_up[(a, b)]),
                               small.union_diam(np.column_stack(
                                   [sets[a], down])))
        else:
            continue
        top = int(value.max())
        if top > best or (witness is not None and top == best
                          and value.argmax() < witness[0]):
            best, witness = top, (int(value.argmax()), u, v)
    return best, witness


def _scan_consistency(m):
    ks = m.metrics
    return _consistency(m, ks,
                        dict((u, k.point[:, None]) for u, k in ks.items()),
                        dict((u, k.point_vertices) for u, k in ks.items()))[0]


def _scan_rho_consistency(m):
    ks = m.metrics
    best = 0
    for u in m.index.domains:
        for v in sorted(m.index.up[u] - frozenset([u])):
            for w in m.index.domains:
                if (u, w) in m.rho_up and (v, w) in m.rho_up:
                    k = ks[w]
                    best = max(best, int(k.gap[k.ids[m.rho_up[(u, w)]],
                                               k.ids[m.rho_up[(v, w)]]]))
    return best


def _scan_bgi(m):
    """Least e with the edgewise bounded geodesic image condition."""
    ks = m.metrics
    worst = 0
    for (u, v) in m.rho_down:
        small, big = ks[u], ks[v]
        a, b = big.edges
        if not a.size:
            continue
        anchor = big.near[big.ids[m.rho_up[(u, v)]]]
        gap = np.minimum(anchor[a], anchor[b])
        cells = small.cells[v]
        spread = small.union_diam(np.column_stack([cells[a], cells[b]]))
        # condition must hold once e >= gap, or e >= spread
        worst = max(worst, int(np.minimum(gap, spread).max()))
    return worst


def _reach(k, sets, anchor):
    """reach[i, j]: the least anchor row value on a geodesic from set i
    to set j, so the distance from the anchor set to their interval.

    The (set x set x vertex) interval mask is made and reduced one
    source row at a time, so only (set x vertex) cells are ever held;
    the whole mask of the depth-6 glued complex would outweigh every
    other array of its measurement together.
    """
    rows = k.near[sets]
    span = k.gap[np.ix_(sets, sets)]
    far = np.iinfo(np.int32).max
    return np.array([np.where(row + rows == span[i][:, None], anchor, far)
                     .min(1) for i, row in enumerate(rows)])


def _scan_large_links(m):
    """Least e for the interval form of the large links condition."""
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
            reach = _reach(big, sets, big.near[big.ids[m.rho_up[(u, v)]]])
            worst = max(worst,
                        int(np.minimum(gap, reach[np.ix_(inv, inv)]).max()))
    return worst


def _scan_partial_realisation(m):
    ks = m.metrics
    # the nested and transverse bullets depend only on the family member
    # and the candidate point, never on the chosen image vertex
    base = m.bullet_rows
    coord = {}
    for v in m.index.domains:
        k = ks[v]
        images = [k.index[p] for p in sorted(m.images(v))]
        # coord[v][z, j]: distance from z's projection to image vertex j
        coord[v] = k.near[np.ix_(k.point, images)]
    worst = 0
    for family in m.index.cliques(m.index.domains):
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


def measure_model(m):
    """Measure every axiom constant from the tables and report E."""
    scans = {
        "diameters": _scan_diameters(m),
        "lipschitz": _scan_lipschitz(m),
        "consistency": _scan_consistency(m),
        "rho_consistency": _scan_rho_consistency(m),
        "bgi": _scan_bgi(m),
        "large_links": _scan_large_links(m),
        "partial_realisation": _scan_partial_realisation(m),
    }
    scans["E"] = max(1, max(scans.values()))
    return scans


# -- distance formula -------------------------------------------------


def least_fit(*pairs):
    """The least (C, K), over K in 1 .. MAX_SLOPE, with ys <= K * xs + C
    for every pair (ys, xs) of arrays; returned as (K, C)."""
    best = None
    for k in range(1, MAX_SLOPE + 1):
        c = max(int((ys - k * xs).max(initial=0)) for ys, xs in pairs)
        if best is None or (c, k) < best:
            best = (c, k)
    return best[1], best[0]


def distance_profile(m, threshold):
    """Best (K, C) comparing the estimate with the point-graph metric."""
    gaps = (k.point_gap() for k in m.metrics.values())
    upper = np.triu_indices(len(m.points), 1)
    est = sum(np.where(g > threshold, g, 0) for g in gaps)[upper]
    dz = m.point_dist[upper]
    k, c = least_fit((est, dz), (dz, est))
    return {"threshold": threshold, "K": k, "C": c}


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
        k = m.metrics[u]
        gap = k.near[k.lookup(m.rho_up[(v, u)] for v in below)].min(0)
        far = int(gap.argmax())
        if gap[far] > worst[0]:
            worst = (int(gap[far]), (u, sorted(k.index)[far]))
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
        for z in m.points:
            key = tuple((v, m.pi[(v, z)]) for v in scope)
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

    coord_graphs = dict(m.coord_graphs)
    pi = dict(m.pi)
    rho_up = dict(m.rho_up)
    rho_down = dict((k, dict(v)) for k, v in m.rho_down.items())
    for t, u, z in fresh:
        g = Graph()
        g.add_node("0")
        coord_graphs[t] = g
        for x in m.points:
            pi[(t, x)] = frozenset(["0"])
        for v in sorted(index.up[t] - frozenset([t])):
            rho_up[(t, v)] = m.pi[(u, z)] if v == u else (
                m.rho_up[(u, v)] if v in s.up[u] else None)
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
                if (u, v) in m.rho_up:
                    rho_up[(t, v)] = m.rho_up[(u, v)]
                else:
                    rho_up[(t, v)] = m.pi[(v, z)]
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
            once.put(pi, (args[0], args[1]), frozenset(args[2].split(",")),
                     lineno, parts)
        elif key == "rho":
            if len(args) == 3:
                once.put(rho_up, (args[0], args[1]),
                         frozenset(args[2].split(",")), lineno, parts)
            elif len(args) == 4:
                once.put(rho_down.setdefault((args[1], args[0]), {}),
                         args[2], frozenset(args[3].split(",")), lineno,
                         parts)
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
    for u in m.index.domains:
        for x in m.points:
            lines.append("pi %s %s %s" % (u, x, ",".join(sorted(m.pi[(u, x)]))))
    for u, v in sorted(m.rho_up):
        lines.append("rho %s %s %s" % (u, v, ",".join(sorted(m.rho_up[(u, v)]))))
    for v, u in sorted(m.rho_down):
        table = m.rho_down[(v, u)]
        for w in sorted(table):
            lines.append("rho %s %s %s %s" % (u, v, w,
                                              ",".join(sorted(table[w]))))
    return "\n".join(lines) + "\n"
