"""Finite models of hierarchical spaces.

A model couples an index set with a finite graph of points and one
coordinate graph per domain.  Projections land points in coordinate
graphs, relative projections tie the coordinate graphs to each other,
and every axiom constant is measured from the data instead of assumed.
"""

import itertools

import networkx as nx
import numpy as np

from .indexset import (
    CONTAINS,
    NESTED_IN,
    ORTHOGONAL,
    TRANSVERSE,
    IndexSet,
    PropertyReport,
    load_index_set,
    dump_index_set,
    relation,
    split_info,
)

METRIC_PROPERTIES = ("dpr", "edpr", "bounded_split", "normalised")


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

    def restrict(self, domains):
        keep = set(domains)
        coords = dict((u, v) for u, v in self.coords.items() if u in keep)
        return ConsistentTuple(sorted(keep & set(self.scope)), coords)

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
        self.space = space
        self.points = tuple(sorted(space.nodes()))
        if not self.points:
            raise ModelError("model needs at least one point")
        self.coord_graphs = dict(coord_graphs)
        self.pi = dict(((u, x), _as_set(v)) for (u, x), v in pi.items())
        self.rho_up = dict(((u, v), _as_set(w)) for (u, v), w in rho_up.items())
        self.rho_down = {}
        for (v, u), table in rho_down.items():
            self.rho_down[(v, u)] = dict((w, _as_set(t)) for w, t in table.items())
        self._dist_cache = {}
        self._zdist = None
        self._image_cache = {}
        self._metric_cache = None
        self._validate()
        if E is None:
            E = measure_model(self)["E"]
        if E < 1:
            raise ModelError("E must be a positive integer")
        self.E = int(E)
        self.kappa = int(kappa) if kappa is not None else 20 * self.E

    def _validate(self):
        for u in self.index.domains:
            if u not in self.coord_graphs:
                raise ModelError("no coordinate graph for %s" % u)
            g = self.coord_graphs[u]
            if g.number_of_nodes() == 0:
                raise ModelError("empty coordinate graph for %s" % u)
            if not nx.is_connected(g):
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

    # -- distances ---------------------------------------------------

    def _pairs(self, u):
        if u not in self._dist_cache:
            g = self.coord_graphs[u]
            self._dist_cache[u] = dict(nx.all_pairs_shortest_path_length(g))
        return self._dist_cache[u]

    def dist(self, u, a, b):
        """Distance in CU between two vertices or vertex sets (min pairwise)."""
        table = self._pairs(u)
        sa, sb = _as_set(a), _as_set(b)
        return min(table[x][y] for x in sa for y in sb)

    def diam(self, u, a):
        table = self._pairs(u)
        sa = _as_set(a)
        return max(table[x][y] for x in sa for y in sa)

    def zdist(self, x, y):
        if self._zdist is None:
            self._zdist = dict(nx.all_pairs_shortest_path_length(self.space))
        return self._zdist[x][y]

    def projection(self, u, x):
        return self.pi[(u, x)]

    def images(self, u):
        if u not in self._image_cache:
            acc = set()
            for x in self.points:
                acc |= self.pi[(u, x)]
            self._image_cache[u] = frozenset(acc)
        return self._image_cache[u]

    def point_tuple(self, x, scope=None):
        if scope is None:
            scope = self.index.domains
        coords = dict((u, self.pi[(u, x)]) for u in scope)
        return ConsistentTuple(scope, coords)

    def down_image(self, small, big, vertices):
        """Image of a CV vertex set under the downward map onto C(small)."""
        table = self.rho_down[(small, big)]
        acc = set()
        for w in _as_set(vertices):
            acc |= table[w]
        return frozenset(acc)


# -- measurement -----------------------------------------------------


class _Metric:
    """One coordinate graph and the vertex sets the model uses in it.

    Vertices are numbered in sorted order and each set is interned once:
    the point projections, the relative projections landing here, and
    the cells of the downward tables leaving here.  `near` holds every
    set's least distance to each vertex; `gap` and `span` hold the least
    and the greatest distance between two sets, so the diagonal of
    `span` is each set's diameter.  `projections` gives the ids of the
    point and relative projections, `point` the id of every point's
    projection and `point_vertices` its vertices, padded by repeats to
    one width; `cells[v]` gives the id of the cell over every vertex of
    C(v).
    """

    def __init__(self, m, u, projections, cells):
        table = m._pairs(u)
        names = sorted(table)
        self.index = dict((w, i) for i, w in enumerate(names))
        dist = np.empty((len(names), len(names)), dtype=np.int32)
        for i, a in enumerate(names):
            dist[i] = [table[a][b] for b in names]
        self.edges = np.array([(self.index[a], self.index[b])
                               for a, b in m.coord_graphs[u].edges()],
                              dtype=np.intp).reshape(-1, 2).T
        self.ids = {}
        members = []
        for s in itertools.chain(projections, cells):
            if s not in self.ids:
                self.ids[s] = len(members)
                members.append([self.index[w] for w in s])
        self.near = np.array([dist[mem].min(0) for mem in members])
        far = np.array([dist[mem].max(0) for mem in members])
        self.gap = np.array([self.near[:, mem].min(1) for mem in members])
        self.span = np.array([far[:, mem].max(1) for mem in members])
        self.projections = self.lookup(projections)
        self.point = self.lookup(m.pi[(u, x)] for x in m.points)
        width = max(len(members[i]) for i in self.point)
        self.point_vertices = np.array(
            [members[i] + members[i][:1] * (width - len(members[i]))
             for i in self.point], dtype=np.intp)
        self.cells = {}

    def lookup(self, sets):
        return np.array([self.ids[s] for s in sets], dtype=np.intp)

    def diam(self, ids):
        return self.span[ids, ids]

    def union_diam(self, ids):
        """Diameter of the union of the sets in each row of ids."""
        return self.span[ids[:, :, None], ids[:, None, :]].max(axis=(1, 2))

    def to_set(self, s):
        """Distance from every point's projection to the set s."""
        return self.gap[self.point, self.ids[s]]


def _metrics(m):
    """The model's per-domain metrics, built on the first measurement."""
    if m._metric_cache is None:
        projections = dict((u, []) for u in m.index.domains)
        cells = dict((u, []) for u in m.index.domains)
        for (u, x), img in m.pi.items():
            projections[u].append(img)
        for (u, v), img in m.rho_up.items():
            projections[v].append(img)
        for (v, u), table in m.rho_down.items():
            cells[v].extend(table.values())
        metrics = dict((u, _Metric(m, u, projections[u], cells[u]))
                       for u in m.index.domains)
        for (v, u), table in m.rho_down.items():
            # the index of C(u) is in vertex order
            metrics[v].cells[u] = metrics[v].lookup(
                table[w] for w in metrics[u].index)
        m._metric_cache = metrics
    return m._metric_cache


def _scan_diameters(m):
    ks = _metrics(m)
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
    pos = dict((x, i) for i, x in enumerate(m.points))
    a, b = np.array([(pos[x], pos[y]) for x, y in m.space.edges()],
                    dtype=np.intp).reshape(-1, 2).T
    if not a.size:
        return 0
    d = max(int(k.gap[k.point[a], k.point[b]].max())
            for k in _metrics(m).values())
    # (E, E)-coarse Lipschitz over an edge needs d <= 2E
    return (d + 1) // 2


def _scan_consistency(m):
    ks = _metrics(m)
    best = 0
    for u, v in itertools.combinations(m.index.domains, 2):
        rel = relation(m.index, u, v)
        if rel == CONTAINS:
            u, v, rel = v, u, NESTED_IN
        if rel == TRANSVERSE:
            value = np.minimum(ks[u].to_set(m.rho_up[(v, u)]),
                               ks[v].to_set(m.rho_up[(u, v)]))
        elif rel == NESTED_IN:
            # each point's projection to C(u) with the downward image of
            # its projection to C(v)
            small, big = ks[u], ks[v]
            down = small.cells[v][big.point_vertices]
            value = np.minimum(big.to_set(m.rho_up[(u, v)]),
                               small.union_diam(np.column_stack(
                                   [small.point, down])))
        else:
            continue
        best = max(best, int(value.max()))
    return best


def _scan_rho_consistency(m):
    ks = _metrics(m)
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
    ks = _metrics(m)
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
    ks = _metrics(m)
    worst = 0
    for v in m.index.domains:
        big = ks[v]
        sets, inv = np.unique(big.point, return_inverse=True)
        for u in m.index.domains:
            if u == v or v not in m.index.up[u]:
                continue
            small = ks[u]
            gap = small.gap[np.ix_(small.point, small.point)]
            # a pair only counts up to its gap in C(u)
            if gap.max() <= worst:
                continue
            reach = _reach(big, sets, big.near[big.ids[m.rho_up[(u, v)]]])
            worst = max(worst,
                        int(np.minimum(gap, reach[np.ix_(inv, inv)]).max()))
    return worst


def _orth_cliques(s):
    g = nx.Graph()
    g.add_nodes_from(s.domains)
    for u in s.domains:
        for v in s.orth[u]:
            g.add_edge(u, v)
    for clique in nx.enumerate_all_cliques(g):
        yield tuple(sorted(clique))


def _realisation_defect(m, pairs, z):
    coordinate = 0
    nested = 0
    transverse = 0
    for v, p in pairs:
        coordinate = max(coordinate, m.dist(v, m.pi[(v, z)], p))
        for w in m.index.domains:
            rel = relation(m.index, v, w)
            if rel == NESTED_IN:
                nested = max(nested,
                             m.dist(w, m.pi[(w, z)], m.rho_up[(v, w)]))
            elif rel == TRANSVERSE:
                transverse = max(transverse,
                                 m.dist(w, m.pi[(w, z)], m.rho_up[(v, w)]))
    return {"coordinate": coordinate, "nested": nested,
            "transverse": transverse}


def _scan_partial_realisation(m):
    ks = _metrics(m)
    # the nested and transverse bullets depend only on the family member
    # and the candidate point, never on the chosen image vertex
    base = {}
    coord = {}
    for v in m.index.domains:
        terms = [ks[w].to_set(m.rho_up[(v, w)]) for w in m.index.domains
                 if relation(m.index, v, w) in (NESTED_IN, TRANSVERSE)]
        base[v] = (np.max(terms, axis=0) if terms
                   else np.zeros(len(m.points), dtype=np.int32))
        k = ks[v]
        images = [k.index[p] for p in sorted(m.images(v))]
        # coord[v][z, j]: distance from z's projection to image vertex j
        coord[v] = k.near[np.ix_(k.point, images)]
    worst = 0
    for family in _orth_cliques(m.index):
        fam_base = np.max([base[v] for v in family], axis=0)
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


# -- consistency and realisation -------------------------------------


def _consistency_value(m, coords, u, v):
    """Defn-style consistency gap of a coordinate pair, E-free."""
    rel = relation(m.index, u, v)
    if rel == TRANSVERSE:
        return min(m.dist(u, coords[u], m.rho_up[(v, u)]),
                   m.dist(v, coords[v], m.rho_up[(u, v)]))
    if rel == NESTED_IN:
        down = m.down_image(u, v, coords[v])
        return min(m.dist(v, coords[v], m.rho_up[(u, v)]),
                   m.diam(u, coords[u] | down))
    if rel == CONTAINS:
        return _consistency_value(m, coords, v, u)
    return 0


def check_consistency(m, t, kappa=None):
    """Check the pairwise consistency inequalities for a tuple."""
    if kappa is None:
        kappa = m.kappa
    worst = 0
    witness = None
    for u, v in itertools.combinations(t.scope, 2):
        if u not in t.coords or v not in t.coords:
            raise ModelError("tuple misses a coordinate, witness %s %s" % (u, v))
        if relation(m.index, u, v) not in (TRANSVERSE, NESTED_IN, CONTAINS):
            continue
        value = _consistency_value(m, t.coords, u, v)
        if value > worst:
            worst = value
            witness = (u, v)
    verdict = worst <= kappa
    report = PropertyReport("consistent", verdict,
                            None if verdict else witness)
    report.constant = worst
    return report


def realise(m, t):
    """Find the point that best matches a tuple or a partial family.

    A ConsistentTuple is matched on every domain it carries.  A list of
    (domain, vertex) pairs must be pairwise orthogonal with vertices in
    the projection images; the returned dict then also reports the
    three defect families separately.
    """
    if isinstance(t, ConsistentTuple):
        best = None
        for z in m.points:
            score = max(m.dist(u, m.pi[(u, z)], t.coords[u])
                        for u in sorted(t.coords))
            if best is None or score < best[1]:
                best = (z, score)
        return {"point": best[0], "defect": best[1]}
    pairs = [(v, p) for v, p in t]
    for (u, _), (v, _) in itertools.combinations(pairs, 2):
        if relation(m.index, u, v) != ORTHOGONAL:
            raise ModelError("family not pairwise orthogonal,"
                             " witness %s %s" % tuple(sorted((u, v))))
    for v, p in pairs:
        if p not in m.images(v):
            raise ModelError("vertex outside the projection image,"
                             " witness %s %s" % (v, p))
    best = None
    for z in m.points:
        bullets = _realisation_defect(m, pairs, z)
        score = max(bullets.values())
        if best is None or score < best[1]:
            best = (z, score, bullets)
    return {"point": best[0], "defect": best[1], "bullets": best[2]}


# -- distance formula -------------------------------------------------


def distance_estimate(m, x, y, threshold):
    """Sum of projection distances strictly above the threshold."""
    total = 0
    for u in m.index.domains:
        d = m.dist(u, m.pi[(u, x)], m.pi[(u, y)])
        if d > threshold:
            total += d
    return total


def distance_profile(m, threshold, max_k=10):
    """Best (K, C) comparing the estimate with the point-graph metric."""
    rows = []
    for x, y in itertools.combinations(m.points, 2):
        rows.append((distance_estimate(m, x, y, threshold), m.zdist(x, y)))
    best = None
    for k in range(1, max_k + 1):
        c = 0
        for est, dz in rows:
            c = max(c, est - k * dz, dz - k * est, 0)
        if best is None or (c, k) < best:
            best = (c, k)
    return {"threshold": threshold, "K": best[1], "C": best[0]}


def uniqueness_profile(m):
    """For each bound on coordinate distances, the largest point distance."""
    pairs = []
    top = 0
    for x, y in itertools.combinations(m.points, 2):
        mc = max(m.dist(u, m.pi[(u, x)], m.pi[(u, y)])
                 for u in m.index.domains)
        pairs.append((mc, m.zdist(x, y)))
        top = max(top, mc)
    profile = []
    for kappa in range(1, top + 2):
        theta = 0
        for mc, dz in pairs:
            if mc < kappa:
                theta = max(theta, dz)
        profile.append((kappa, theta))
    return tuple(profile)


# -- metric properties ------------------------------------------------


def _dpr_constant(m):
    worst = (0, None)
    minimal = m.index.minimal_domains()
    for u in m.index.domains:
        below = sorted(v for v in minimal
                       if v != u and v in m.index.down[u])
        if not below:
            continue
        for w in sorted(m.coord_graphs[u].nodes()):
            gap = min(m.dist(u, w, m.rho_up[(v, u)]) for v in below)
            if gap > worst[0]:
                worst = (gap, (u, w))
    return worst


def _edpr_constant(m):
    worst = 0
    minimal = set(m.index.minimal_domains())
    for u in m.index.domains:
        below = sorted(minimal & m.index.down[u])
        if not below:
            continue
        g = nx.Graph()
        g.add_nodes_from(below)
        for a, b in itertools.combinations(below, 2):
            if b in m.index.orth[a]:
                g.add_edge(a, b)
        families = [tuple(sorted(c)) for c in nx.find_cliques(g)]
        families.sort()
        inside = sorted(m.index.down[u])
        for x in m.points:
            best = None
            for family in families:
                pairs = [(v, m.pi[(v, x)]) for v in family]
                y = None
                score = None
                for z in m.points:
                    bullets = _realisation_defect(m, pairs, z)
                    s = max(bullets.values())
                    if score is None or s < score:
                        score, y = s, z
                gap = max(m.dist(v, m.pi[(v, x)], m.pi[(v, y)])
                          for v in inside)
                if best is None or gap < best:
                    best = gap
            worst = max(worst, best)
    return worst


def check_metric_property(m, name):
    """Measure one of dpr, edpr, bounded_split, normalised.

    The report carries the least constant; dpr and normalised compare
    it against the measured E, the other two always hold with a finite
    constant on a finite model.
    """
    if name == "dpr":
        constant, witness = _dpr_constant(m)
        verdict = constant <= m.E
        report = PropertyReport("dpr", verdict, None if verdict else witness)
        report.constant = constant
        return report
    if name == "edpr":
        report = PropertyReport("edpr", True, None)
        report.constant = _edpr_constant(m)
        return report
    if name == "bounded_split":
        constant = 0
        top = m.index.top
        minimal = set(m.index.minimal_domains())
        for u in m.index.domains:
            if u == top or u in minimal:
                continue
            if split_info(m.index, u)["split"]:
                constant = max(constant, m.diam(u, m.coord_graphs[u].nodes()))
        report = PropertyReport("bounded_split", True, None)
        report.constant = constant
        return report
    if name == "normalised":
        constant = 0
        witness = None
        for u in m.index.domains:
            img = m.images(u)
            for w in sorted(m.coord_graphs[u].nodes()):
                gap = m.dist(u, w, img)
                if gap > constant:
                    constant = gap
                    witness = (u, w)
        verdict = constant <= m.E
        report = PropertyReport("normalised", verdict,
                                None if verdict else witness)
        report.constant = constant
        return report
    raise ModelError("unknown metric property %s" % name)


def check_orth_projection_agreement(m):
    """Orthogonal domains project to nearby spots in every third domain."""
    worst = 0
    witness = None
    for u in m.index.domains:
        for v in sorted(m.index.orth[u]):
            if v < u:
                continue
            for w in m.index.domains:
                if (u, w) in m.rho_up and (v, w) in m.rho_up:
                    d = m.dist(w, m.rho_up[(u, w)], m.rho_up[(v, w)])
                    if d > worst:
                        worst = d
                        witness = (u, v, w)
    verdict = worst <= 2 * m.E
    report = PropertyReport("orth_projection_agreement", verdict,
                            None if verdict else witness)
    report.constant = worst
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
        g = nx.Graph()
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


def load_model(text, resolve=None):
    """Parse a model description.

    Index lines (domain/nest/orth) may appear inline, or a single
    `indexset <name>` line can pull them from elsewhere through the
    resolve callback.  The remaining lines are point/space/coord/pi/rho
    tables plus optional E and kappa lines.
    """
    index_lines = []
    points = []
    space_edges = []
    coord_nodes = {}
    coord_edges = {}
    pi = {}
    rho_up = {}
    rho_down = {}
    e_value = None
    kappa_value = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key in ("domain", "nest", "orth"):
            index_lines.append(line)
        elif key == "indexset":
            if len(args) != 1 or resolve is None:
                raise ModelError("line %d: cannot resolve indexset" % lineno)
            index_lines.extend(resolve(args[0]).splitlines())
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
        elif key == "pi":
            if len(args) != 3:
                raise ModelError("line %d: cannot parse %r" % (lineno, raw))
            pi[(args[0], args[1])] = frozenset(args[2].split(","))
        elif key == "rho":
            if len(args) == 3:
                rho_up[(args[0], args[1])] = frozenset(args[2].split(","))
            elif len(args) == 4:
                table = rho_down.setdefault((args[1], args[0]), {})
                table[args[2]] = frozenset(args[3].split(","))
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
            if key == "E":
                e_value = value
            else:
                kappa_value = value
        else:
            raise ModelError("line %d: cannot parse %r" % (lineno, raw))
    index = load_index_set("\n".join(index_lines))
    space = nx.Graph()
    space.add_nodes_from(points)
    space.add_edges_from(space_edges)
    coord_graphs = {}
    for u in index.domains:
        g = nx.Graph()
        g.add_nodes_from(coord_nodes.get(u, []))
        g.add_edges_from(coord_edges.get(u, []))
        coord_graphs[u] = g
    return HHSModel(index, space, coord_graphs, pi, rho_up, rho_down,
                    E=e_value, kappa=kappa_value)


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
