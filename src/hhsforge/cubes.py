"""Finite cube complexes through their median 1-skeleta.

Everything here works on a plain graph and its distance matrix:
hyperplanes are the cuts {v : d(v,a) < d(v,b)} of edges ab, parallelism
classes and orthogonal complements are read off the table of
halfspaces, and convexity and gates come from shortest paths.  The main
export turns a complex into a finite hierarchical model whose domains
are parallelism classes of the hyperclosure.
"""

import itertools

import numpy as np

from .graph import Graph, _cells, apsp, as_graph, chain_lengths
from .indexset import (IndexSet, PropertyReport, content_lines,
                       NESTED_IN, TRANSVERSE)
from .model import HHSModel, _Coord


class CubeError(ValueError):
    pass


class Hyperplane(object):

    def __init__(self, hid, edges, halfspaces, sides):
        self.hid = hid
        self.edges = edges
        self.halfspaces = halfspaces
        self.sides = sides

    def __repr__(self):
        return "Hyperplane(%s, %d edges)" % (self.hid, len(self.edges))


class ClassRecord(object):

    def __init__(self, cid, key, rep, members, minimal, boundary):
        self.id = cid
        self.key = key
        self.rep = rep
        self.members = members
        self.minimal = minimal
        self.boundary = boundary

    def __repr__(self):
        return "ClassRecord(%s)" % self.id


class Hyperclosure(object):
    """Parallelism classes of the minimal factor-system candidate."""

    def __init__(self, graph, hyperplanes, records, chain_length):
        self.graph = graph
        self.hyperplanes = hyperplanes
        self.classes = dict((r.id, r) for r in records)
        self.order = tuple(r.id for r in records)
        self.by_key = dict((r.key, r.id) for r in records)
        self.chain_length = chain_length
        # chains are trivially bounded on a finite complex
        self.weak_factor_system = True
        self.top = max(records, key=lambda r: len(r.key)).id

    def __len__(self):
        return len(self.classes)


# -- context: distances, hyperplanes, convexity ------------------------


# Largest complex, in vertices, that any cube pipeline accepts: its
# distance matrix takes 4 n^2 bytes, and the search that fills it about
# as much again.
MAX_VERTICES = 10000


def _check_cap(n):
    if n > MAX_VERTICES:
        raise CubeError("cap exceeded: %d vertices > %d"
                        % (n, MAX_VERTICES))


def _ctx(g):
    """The distance matrix of a complex on its sorted vertices, with the
    caches built on it, kept among the graph's attributes.  A graph of
    another type is converted once; ctx["graph"] is the Graph.  A graph
    can change after it was analysed, and copies carry its attributes
    along, so a context is reused only while the graph's nodes, edges
    and edge labels are the ones it was built from.  Each public
    function calls this once and passes the context down."""
    shape = (tuple(g.nodes()),
             tuple((a, b, g[a][b].get("label")) for a, b in g.edges()))
    ctx = g.graph.get("_cube_ctx")
    if ctx is None or ctx["shape"] != shape:
        _check_cap(len(shape[0]))
        local = as_graph(g)
        vertices = tuple(sorted(local.nodes()))
        d = apsp(local, vertices)
        if (d < 0).any():
            raise CubeError("graph not connected")
        ctx = {"graph": local, "vertices": vertices, "D": d, "gates": {},
               "index": dict((v, i) for i, v in enumerate(vertices)),
               "shape": shape}
        g.graph["_cube_ctx"] = local.graph["_cube_ctx"] = ctx
    return ctx


def _is_convex(ctx, s):
    """No geodesic between members passes outside; returns a witness pair.

    Source rows are reduced in blocks of at most `_cells(n)` cells, so
    the first witness is the first bad pair in row-major order.
    """
    inside = np.zeros(len(ctx["vertices"]), dtype=bool)
    inside[[ctx["index"][v] for v in s]] = True
    si, so = np.flatnonzero(inside), np.flatnonzero(~inside)
    if not len(si) or not len(so):
        return None
    d = ctx["D"]
    inner = d[np.ix_(si, si)]
    cross = d[np.ix_(si, so)]
    step = max(1, _cells(len(d)) // (len(si) * len(so)))
    for start in range(0, len(si), step):
        block = cross[start:start + step]
        through = (block[:, None, :] + cross[None, :, :]).min(axis=2)
        rows = inner[start:start + step]
        bad = np.argwhere((through == rows) & (rows > 0))
        if len(bad):
            x, y = bad[0]
            return (ctx["vertices"][si[start + x]], ctx["vertices"][si[y]])
    return None


def _gate_table(ctx, y):
    """For every vertex, the number of the vertex of y closest to it,
    or -1 where two are closest, as an intp array; one block of rows of
    D, kept per set."""
    table = ctx["gates"].get(y)
    if table is None:
        # vertex numbers follow the sorted order of the names
        cols = _numbers(ctx, y)
        rows = ctx["D"][:, cols]
        unique = (rows == rows.min(1, keepdims=True)).sum(1) == 1
        table = ctx["gates"][y] = np.where(unique, cols[rows.argmin(1)], -1)
    return table


def _numbers(ctx, s):
    """The vertex numbers of the set s, sorted."""
    return np.array(sorted(ctx["index"][v] for v in s), dtype=np.intp)


def _gate_vertex(ctx, y, x):
    gate = _gate_table(ctx, y)[ctx["index"][x]]
    if gate < 0:
        raise CubeError("gate not unique, witness %s" % x)
    return ctx["vertices"][gate]


def _gate_masks(ctx, y, sets):
    """The gate images into y of a run of sets, each given by its sorted
    vertex numbers, as boolean rows over the vertices, one per set, in
    blocks of rows under the cell budget.  A vertex with two closest
    vertices in y is named: the least one of the first set that has one.
    """
    if not sets:
        return
    n = len(ctx["vertices"])
    flat = np.concatenate(sets)
    gates = _gate_table(ctx, y)[flat]
    bad = gates < 0
    if bad.any():
        raise CubeError("gate not unique, witness %s"
                        % ctx["vertices"][flat[bad.argmax()]])
    sizes = np.array([len(s) for s in sets])
    ends = np.cumsum(sizes)
    step = max(1, _cells(n) // n)
    for lo in range(0, len(sets), step):
        hi = min(lo + step, len(sets))
        mask = np.zeros((hi - lo, n), dtype=bool)
        mask[np.repeat(np.arange(hi - lo), sizes[lo:hi]),
             gates[ends[lo] - sizes[lo]:ends[hi - 1]]] = True
        yield mask


# -- public geometry ---------------------------------------------------


def validate_median_graph(g):
    """Accept a finite connected graph iff every vertex triple has a
    unique median, that is a vertex on a geodesic between each two.

    The graph is accepted by a local test.  A connected graph is modular
    (every triple has a median) iff it is bipartite and meets the
    quadrangle condition, and a modular graph is median iff it has no
    induced K2,3 (Bandelt and Chepoi, "Metric graph theory and geometry:
    a survey", Contemp. Math. 453, 2008; Klavzar and Mulder, "Median
    graphs: characterizations, location theory and related structures",
    JCMCC 30, 1999).  Only a rejected graph is scanned for its least bad
    triple, which the error names.
    """
    ctx = _ctx(g)
    if not _locally_median(ctx):
        witness = _median_witness(ctx)
        if witness is None:
            raise RuntimeError("local median test rejects a median graph")
        raise CubeError("not median, witness %s %s %s" % witness)
    return g


def _locally_median(ctx):
    """Bipartite, no induced K2,3 and the quadrangle condition against
    every base u, in O(n sum deg^2).

    Loops are ignored, as distances ignore them.  In a bipartite graph
    the pairs v < w at distance 2 are the pairs of neighbours of some z;
    with no K2,3 each pair has one or two such z.  The quadrangle
    condition fails exactly when some base u is as far from v as from w
    and every such z is one step farther.  Pairs go through the rows of
    D in blocks of at most `_cells(n)` cells.
    """
    d, index = ctx["D"], ctx["index"]
    n = len(d)
    if n < 3:
        # one vertex or one edge
        return True
    parity = (d[0] % 2).tolist()
    nbrs = [[] for _ in range(n)]
    for a, b in ctx["graph"].edges():
        i, j = index[a], index[b]
        if i != j:
            if parity[i] == parity[j]:
                return False
            nbrs[i].append(j)
            nbrs[j].append(i)
    # (v, w, z) for v < w both neighbours of z, grouped by (v, w)
    triples = np.array([(v, w, z) for z in range(n)
                        for v, w in itertools.combinations(sorted(nbrs[z]),
                                                           2)],
                       dtype=np.intp).reshape(-1, 3)
    key = triples[:, 0] * n + triples[:, 1]
    order = np.argsort(key)
    triples = triples[order]
    _, first, count = np.unique(key[order], return_index=True,
                                return_counts=True)
    if count.max() > 2:
        return False
    v, w = triples[first, 0], triples[first, 1]
    z1, z2 = triples[first, 2], triples[first + count - 1, 2]
    small = d.astype(np.min_scalar_type(int(d.max())))
    step = max(1, _cells(n) // n)
    for start in range(0, len(v), step):
        block = slice(start, start + step)
        near = small[v[block]]
        np.maximum(near, small[w[block]], out=near)
        far = small[z1[block]]
        np.minimum(far, small[z2[block]], out=far)
        if (far > near).any():
            return False
    return True


def _median_witness(ctx):
    """The least bad triple x < y < z by the slab scan, as sorted names,
    or None when every triple has a unique median.

    v is a median of x, y, z exactly when 2 (d(x,v) + d(y,v) + d(z,v))
    equals the perimeter, and never less.  A triple with a repeated
    vertex has one median, so only x < y < z are counted, one slab of
    y rows at a time; the first bad triple is the least in that order.
    """
    d = ctx["D"]
    n = len(d)
    # sums reach 3 diam; no sum meets half an odd perimeter, rounded down
    small = d.astype(np.min_scalar_type(3 * int(d.max())))
    step = max(1, _cells(n) // (n * n))
    for x in range(n - 2):
        for y0 in range(x + 1, n - 1, step):
            ys = np.arange(y0, min(y0 + step, n - 1))
            zs = np.arange(y0 + 1, n)
            perimeter = d[x, ys, None] + d[ys[:, None], zs] + d[x, zs]
            target = (perimeter // 2).astype(small.dtype)
            pair = small[x] + small[ys]
            sums = pair[:, None, :] + small[None, zs, :]
            counts = (sums == target[:, :, None]).sum(2)
            bad = np.argwhere((counts != 1) & (zs > ys[:, None]))
            if len(bad):
                y, z = ys[bad[0][0]], zs[bad[0][1]]
                return tuple(sorted(ctx["vertices"][i] for i in (x, y, z)))
    return None


def hyperplanes(g):
    """Theta-classes of edges with their halfspaces and sides.

    g must be a median graph (see validate_median_graph), and nothing
    here checks that again.  There every Theta-class cuts g into two
    convex halfspaces with isomorphic sides (Mulder, "The interval
    function of a graph", 1980), and the class of an edge ab is the set
    of edges with one end on each side of the cut {v : d(v,a) < d(v,b)}
    (Djokovic, JCTB 14, 1973).  So the class of the least edge not yet
    assigned is one comparison of two columns of the distance matrix,
    and its halfspaces are the two sides of that cut.  Loops are
    ignored, as distances ignore them.

    When every edge carries a label, hyperplanes take the common label
    of their class as id, and two classes may not share one; otherwise
    ids are h0, h1, ... in order of the least edge.
    """
    return _hyperplanes(_ctx(g))


def _hyperplanes(ctx):
    if "hyperplanes" in ctx:
        return ctx["hyperplanes"]
    g, dist, vertices = ctx["graph"], ctx["D"], ctx["vertices"]
    # each edge as its two vertex numbers, the lesser first, least first;
    # vertex numbers follow the sorted order of the names
    pairs = sorted(tuple(sorted((ctx["index"][a], ctx["index"][b])))
                   for a, b in g.edges() if a != b)
    lo, hi = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    labelled = all("label" in g[a][b] for a, b in g.edges())
    free = np.ones(len(pairs), dtype=bool)
    out, rows, sides = [], [], []
    ids = set()
    while free.any():
        e = free.argmax()
        row = dist[:, lo[e]] < dist[:, hi[e]]
        if not row[0]:
            # the half that holds the least vertex comes first
            row = ~row
        cut = np.flatnonzero(row[lo] != row[hi])
        free[cut] = False
        edges = [(vertices[i], vertices[j])
                 for i, j in zip(lo[cut].tolist(), hi[cut].tolist())]
        if labelled:
            labels = set(g[a][b]["label"] for a, b in edges)
            if len(labels) != 1:
                raise CubeError("mixed labels in one hyperplane, witness %s"
                                % " ".join(sorted(labels)))
            hid = labels.pop()
            if hid in ids:
                raise CubeError("label names two hyperplanes, witness %s"
                                % hid)
            ids.add(hid)
        else:
            hid = "h%d" % len(out)
        rows.append(row)
        halves = (row, ~row)
        ends = np.zeros(len(vertices), dtype=bool)
        ends[lo[cut]] = ends[hi[cut]] = True
        pair = [np.flatnonzero(half & ends) for half in halves]
        sides.extend(pair)
        out.append(Hyperplane(
            hid, frozenset(map(frozenset, edges)),
            tuple(frozenset(itertools.compress(vertices, half))
                  for half in halves),
            tuple(frozenset(map(vertices.__getitem__, side.tolist()))
                  for side in pair)))
    ctx["hyperplanes"] = out
    # row h: the vertices of halfspaces[0] of hyperplane h
    ctx["halfspace"] = np.array(rows, dtype=bool).reshape(
        len(out), len(vertices))
    # entry 2 h + b: the vertex numbers of sides[b] of hyperplane h
    ctx["sides"] = sides
    return out


def _split(table, runs):
    """For each nonempty run of column numbers, the rows of a boolean
    table that are neither all true nor all false on its columns, as
    one column per run; on the halfspace table, the hyperplanes crossing
    each set.  One pass over the columns of all runs."""
    sizes = np.array([len(run) for run in runs])
    cols = table[:, np.concatenate(runs)]
    starts = np.cumsum(sizes) - sizes
    return (np.logical_or.reduceat(cols, starts, axis=1)
            & ~np.logical_and.reduceat(cols, starts, axis=1))


def _side_rows(ctx):
    """Row 2 h + b: the hyperplanes crossing side b of hyperplane h.  On
    a median graph both sides give the same row, the hyperplanes that
    cross h, and the table is symmetric.  Built on each call and not
    kept."""
    _hyperplanes(ctx)
    return _split(ctx["halfspace"], ctx["sides"]).T


def _row(ctx, key):
    """A key as a boolean row over the hyperplanes."""
    return np.array([h.hid in key for h in _hyperplanes(ctx)], dtype=bool)


def _key(ctx, row):
    """The key of the hyperplanes a boolean row marks."""
    hs = _hyperplanes(ctx)
    return frozenset(hs[i].hid for i in np.flatnonzero(row).tolist())


def gate(g, x, y):
    """The unique vertex of the convex set y closest to x."""
    ctx = _ctx(g)
    y = frozenset(y)
    if not y:
        raise CubeError("gate target empty")
    witness = _is_convex(ctx, y)
    if witness is not None:
        raise CubeError("gate target not convex, witness %s %s" % witness)
    return _gate_vertex(ctx, y, x)


def _members(ctx, key):
    """Every convex set crossed by exactly the hyperplanes of key, by
    least vertex.

    A convex set of a median graph is the intersection of the
    halfspaces that hold it, so these sets are the groups of vertices
    that agree on every hyperplane outside key, kept when every
    hyperplane in key crosses the group.
    """
    table = ctx["halfspace"]
    inside = _row(ctx, key)
    # a row of zeros keeps all vertices one group when key is every
    # hyperplane
    _, first, group = _distinct_rows(np.vstack(
        [table[~inside], np.zeros(table.shape[1], dtype=bool)]).T)
    order = np.argsort(group, kind="stable")
    runs = np.split(order, np.cumsum(np.bincount(group))[:-1])
    crossed = _split(table[inside], runs).all(0)
    return tuple(frozenset(ctx["vertices"][v] for v in runs[i].tolist())
                 for i in sorted(np.flatnonzero(crossed).tolist(),
                                 key=first.__getitem__))


# -- hyperclosure -------------------------------------------------------


def hyperclosure(g):
    """Close combinatorial hyperplanes and Z under gates and parallelism.

    g must be a median graph (see validate_median_graph).  There the
    gate image of a convex set B in a convex set A is crossed by exactly
    the hyperplanes crossing both, and a parallel copy of a convex set
    is crossed by the same hyperplanes as the set (Bandelt and Chepoi,
    "Metric graph theory and geometry: a survey", Contemp. Math. 453,
    2008).  So a class is its key, the set of hyperplanes crossing it:
    the keys are those of Z and of every side of more than one vertex,
    which are rows of `_side_rows`, closed under nonempty intersection,
    and the members of a key are read off the halfspace table
    (`_members`).  Every such key has a member, a gate image; off median
    graphs one may have none, which is an error.  A class's
    representative is its least member.  Singletons (empty keys) are
    dropped throughout.
    """
    rim = frozenset(g.graph.get("rim", ()))
    ctx = _ctx(g)
    g = ctx["graph"]
    if g.number_of_edges() == 0:
        raise CubeError("complex needs at least one edge")
    hs = _hyperplanes(ctx)
    big = np.array([len(side) > 1 for side in ctx["sides"]])
    keys = set(_key(ctx, row) for row in _side_rows(ctx)[big])
    keys.add(frozenset(h.hid for h in hs))
    keys.discard(frozenset())
    new = keys
    while new:
        # an intersection of two older keys was found a round before
        new = set(a & b for a in new for b in keys) - keys - {frozenset()}
        keys |= new
    records = []
    ordered = sorted(keys, key=lambda k: (len(k), sorted(k)))
    counter = 0
    for key in ordered:
        if len(key) == 1:
            cid = "[%s]" % min(key)
        else:
            cid = "[c%d]" % counter
            counter += 1
        members = _members(ctx, key)
        if not members:
            raise CubeError("no convex set crosses exactly %s"
                            % " ".join(sorted(key)))
        minimal = not any(other < key for other in keys)
        boundary = bool(rim) and all(mem & rim for mem in members)
        records.append(ClassRecord(cid, key, members[0], members, minimal,
                                   boundary))
    steps = chain_lengths(ordered, lambda k: (o for o in ordered if o < k))
    return Hyperclosure(g, hs, records, 1 + max(steps.values()))


def check_complement_involution(g, hc=None):
    """Complements of classes stay in the closure and square to identity."""
    if hc is None:
        hc = hyperclosure(g)
    comp = _complement_keys(_ctx(g), hc)
    for cid in hc.order:
        if cid == hc.top:
            continue
        if comp[cid] not in hc.by_key:
            return PropertyReport("complement_involution", False, (cid,))
        comp_id = hc.by_key[comp[cid]]
        if comp[comp_id] != hc.classes[cid].key:
            return PropertyReport("complement_involution", False,
                                  (cid, comp_id))
    return PropertyReport("complement_involution", True)


# -- model extraction ---------------------------------------------------


def _complement_keys(ctx, hc):
    """The key of the orthogonal complement of every class.

    In a median graph the parallel copies of a convex set F span a
    product F x F-perp (Behrstock, Hagen and Sisto, "Hierarchically
    hyperbolic spaces I", Geom. Topol. 2017; Bandelt and Chepoi 2008).
    So the key of F-perp is the set of hyperplanes that cross every
    hyperplane in key(F), and a hyperplane crosses h exactly when it
    crosses h's first side: one lookup in the side rows.  No hyperplane
    crosses its own sides, so the key lies outside key(F), and the top
    class's, which holds every hyperplane, is empty.  Off median graphs
    the rows may be asymmetric, and so may orthogonality, which
    extraction checks.
    """
    cross = _side_rows(ctx)[0::2]
    out = {}
    for cid in hc.order:
        inside = _row(ctx, hc.classes[cid].key)
        out[cid] = _key(ctx, cross[:, inside].all(1))
    return out


def _distinct_rows(mask):
    """The distinct rows of a boolean mask: each one's bytes, packed,
    in byte order, the first row that has it, and the row's place among
    them for every row."""
    packed = np.ascontiguousarray(np.packbits(mask, axis=1))
    keys, first, inv = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    return keys.tolist(), first.tolist(), inv.ravel()


def index_set_from_hyperclosure(g, hc=None):
    """Hierarchical model on the parallelism classes of the closure.

    g must be a median graph, for the theorems that hyperplanes and
    hyperclosure cite.  Nesting compares crossing sets, orthogonality
    tests against the complement, coordinate graphs cone off the
    nontrivial proper gate images inside each representative, and all
    projections are gates.  The constant E is measured from the finished
    tables.

    Gates are read on vertex numbers (`_gate_masks`), and the tables go
    to the model on the numbers of each coordinate graph: a vertex set
    is interned once per distinct image row.  Point projections and the
    downward cells at vertices share one singleton set per vertex.
    """
    if hc is None:
        hc = hyperclosure(g)
    ctx = _ctx(g)
    g = ctx["graph"]
    comp = _complement_keys(ctx, hc)
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
    related = dict(((a, b), rel) for a, b, rel in index.relations()
                   if rel in (NESTED_IN, TRANSVERSE))
    rels = dict((pair, related[pair])
                for pair in itertools.permutations(ids, 2) if pair in related)
    vertices = ctx["vertices"]
    reps = dict((cid, hc.classes[cid].rep) for cid in ids)
    members = [_numbers(ctx, mem) for cid in ids
               for mem in hc.classes[cid].members]
    coords = {}
    # local[c][i]: the number in C(c) of complex vertex i, -1 off c's
    # rep; rank[c][i]: the id of its one-vertex set, which comes first
    local = {}
    rank = {}
    # apex_of[c]: the number in C(c) of the apex over each coned image
    # row; sources[c]: the complex vertex numbers of each coned image
    apex_of = {}
    sources = {}
    numbers = {}
    for cid in ids:
        rep = numbers[cid] = _numbers(ctx, reps[cid])
        distinct = {}
        for mask in _gate_masks(ctx, reps[cid], members):
            size = mask.sum(1)
            mask = mask[(size > 1) & (size < len(rep))]
            for key, i in zip(*_distinct_rows(mask)[:2]):
                distinct.setdefault(key, np.flatnonzero(mask[i]).tolist())
        images = sorted((img, key) for key, img in distinct.items())
        cg = g.subgraph(reps[cid])
        apexes = []
        for i, (img, _) in enumerate(images):
            apex = "H_%d" % i
            if apex in reps[cid]:
                raise CubeError("apex id collides, witness %s" % apex)
            apexes.append(apex)
            cg.add_node(apex)
            for v in img:
                cg.add_edge(apex, vertices[v])
        names = tuple(sorted(cg.nodes()))
        at = dict((w, i) for i, w in enumerate(names))
        local[cid] = np.full(len(vertices), -1, dtype=np.intp)
        local[cid][rep] = [at[vertices[v]] for v in rep.tolist()]
        rank[cid] = np.full(len(vertices), -1, dtype=np.intp)
        rank[cid][rep] = np.arange(len(rep))
        coords[cid] = _Coord(cg, names, apsp(cg, names),
                             [(i,) for i in local[cid][rep].tolist()])
        apex_of[cid] = dict((key, at[apex])
                            for (_, key), apex in zip(images, apexes))
        sources[cid] = [np.array(img, dtype=np.intp) for img, _ in images]

    def landed(cid, masks):
        """The set id of the image in every row of the masks, one set
        per distinct row; a coned image carries its apex."""
        memo = {}
        out = [np.empty(0, dtype=np.intp)]
        for mask in masks:
            keys, first, inv = _distinct_rows(mask)
            for key, i in zip(keys, first):
                if key not in memo:
                    vs = local[cid][np.flatnonzero(mask[i])].tolist()
                    if key in apex_of[cid]:
                        vs = sorted(vs + [apex_of[cid][key]])
                    memo[key] = coords[cid].intern(tuple(vs))
            out.append(np.array([memo[key] for key in keys],
                                dtype=np.intp)[inv])
        return np.concatenate(out)

    # the top class's one member is every vertex, so the member images
    # above have met every gate: no table below holds a -1.
    pi = dict((cid, rank[cid][_gate_table(ctx, reps[cid])]) for cid in ids)
    up = {}
    for b in ids:
        # every rep that needs a relative projection into b gated at
        # once, one block of the mask at a time
        pairs = [(a, b) for a in ids if (a, b) in rels]
        up.update(zip(pairs, landed(b, _gate_masks(
            ctx, reps[b], [numbers[a] for a, _ in pairs]))))
    rho_up = dict((pair, up[pair]) for pair in rels)
    rho_down = {}
    for a in ids:
        above = [b for b in ids if rels.get((a, b)) == NESTED_IN]
        # the apex sources of every class above a gated into a at once,
        # each distinct row landed once
        cells = landed(a, _gate_masks(
            ctx, reps[a], [src for b in above for src in sources[b]]))
        gate = rank[a][_gate_table(ctx, reps[a])]
        for b in above:
            table = rho_down[(a, b)] = np.empty(len(coords[b].names),
                                                dtype=np.intp)
            table[local[b][numbers[b]]] = gate[numbers[b]]
            table[list(apex_of[b].values())] = cells[:len(apex_of[b])]
            cells = cells[len(apex_of[b]):]
    model = HHSModel.numbered(index, g, coords, pi, rho_up, rho_down,
                              point_dist=ctx["D"])
    model.hyperclosure = hc
    return model


# -- fixtures ------------------------------------------------------------


def b3_cube():
    """The 3-cube."""
    g = Graph()
    bits = ["%d%d%d" % t for t in itertools.product((0, 1), repeat=3)]
    g.add_nodes_from(bits)
    for a, b in itertools.combinations(bits, 2):
        if sum(x != y for x, y in zip(a, b)) == 1:
            g.add_edge(a, b)
    return g


def grid_complex(rows=7, cols=7):
    """Square grid with rows x cols vertices named i_j."""
    g = Graph()
    for i in range(rows):
        for j in range(cols):
            g.add_node("%d_%d" % (i, j))
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                g.add_edge("%d_%d" % (i, j), "%d_%d" % (i + 1, j))
            if j + 1 < cols:
                g.add_edge("%d_%d" % (i, j), "%d_%d" % (i, j + 1))
    return g


def build_counterexample(depth):
    """Finite truncation of the glued three-piece complex.

    A central path (the line) carries odd labels on one ray and even
    labels on the other.  Three full copies of the line are glued along
    Sigma, Delta rungs and two half copies along Gamma1/Gamma2 rungs,
    so Gamma1 crosses exactly the odd labels and Gamma2 the even ones.
    Small square flaps put every line edge, both special edges 0 and
    -1, and one rung of each Gamma rail into the hyperclosure as
    combinatorial hyperplane sides.
    """
    if depth < 1:
        raise CubeError("depth must be at least 1")
    # three lines of 2 depth + 2 vertices, the gamma rails, a pair of
    # flap ends per line edge and 12 on the special squares and flaps
    _check_cap(12 * depth + 23)
    d = depth
    g = Graph()
    line = ["b%d" % j for j in range(d, 0, -1)] + ["o"] + \
           ["r%d" % i for i in range(1, d + 2)]
    labels = {}
    for i in range(1, d + 2):
        a = "o" if i == 1 else "r%d" % (i - 1)
        labels[(a, "r%d" % i)] = str(2 * i - 1)
    for j in range(1, d + 1):
        a = "o" if j == 1 else "b%d" % (j - 1)
        labels[(a, "b%d" % j)] = str(2 * j)
    red = ["o"] + ["r%d" % i for i in range(1, d + 2)]
    blue = ["o"] + ["b%d" % j for j in range(1, d + 1)]

    def add(a, b, label):
        g.add_edge(a, b, label=label)

    for (a, b), n in labels.items():
        add(a, b, n)
    for rail, verts, greek in (("sv", line, "Sigma"), ("dv", line, "Delta"),
                               ("gv1", red, "Gamma1"), ("gv2", blue, "Gamma2")):
        for v in verts:
            add(v, "%s_%s" % (rail, v), greek)
        for (a, b), n in labels.items():
            if a in verts and b in verts:
                add("%s_%s" % (rail, a), "%s_%s" % (rail, b), n)
    # special squares on the central rungs
    add("o", "n0", "0")
    add("sv_o", "n1", "0")
    add("n0", "n1", "Sigma")
    add("o", "m0", "-1")
    add("dv_o", "m1", "-1")
    add("m0", "m1", "Delta")
    # flaps exposing the 0 and -1 edges as hyperplane sides
    add("o", "u0", "psi0")
    add("n0", "u1", "psi0")
    add("u0", "u1", "0")
    add("o", "w0", "psi-1")
    add("m0", "w1", "psi-1")
    add("w0", "w1", "-1")
    # flaps exposing every line edge
    for (a, b), n in labels.items():
        add(a, "fa_%s" % n, "phi%s" % n)
        add(b, "fb_%s" % n, "phi%s" % n)
        add("fa_%s" % n, "fb_%s" % n, n)
    # flaps exposing one rung of each gamma rail
    add("o", "ca1", "chi1")
    add("gv1_o", "cb1", "chi1")
    add("ca1", "cb1", "Gamma1")
    add("o", "ca2", "chi2")
    add("gv2_o", "cb2", "chi2")
    add("ca2", "cb2", "Gamma2")
    tips = ["r%d" % (d + 1), "b%d" % d]
    rim = ["sv_%s" % v for v in tips] + ["dv_%s" % v for v in tips]
    rim += tips + ["gv1_r%d" % (d + 1), "gv2_b%d" % d]
    g.graph["rim"] = tuple(sorted(rim))
    return g


# -- files and export ----------------------------------------------------


def load_complex(text):
    """Parse vertex, edge and rim lines.  An edge line adds the vertices
    it names, and an edge given twice counts once, but only with the
    same label (or none) both times; a rim vertex must be a vertex."""
    g = Graph()
    rim = []

    def said(label):
        return "no label" if label is None else "label %s" % label

    for lineno, raw, parts in content_lines(text):
        if parts[0] == "vertex" and len(parts) == 2:
            g.add_node(parts[1])
        elif parts[0] == "edge" and len(parts) in (3, 4):
            a, b = parts[1], parts[2]
            if a == b:
                raise CubeError("line %d: edge from %s to itself"
                                % (lineno, a))
            label = parts[3] if len(parts) == 4 else None
            first = g[a][b].get("label") if g.has_edge(a, b) else label
            if first != label:
                raise CubeError("line %d: edge %s %s given again with %s,"
                                " first with %s"
                                % (lineno, a, b, said(label), said(first)))
            g.add_edge(a, b)
            if label is not None:
                g[a][b]["label"] = label
        elif parts[0] == "rim" and len(parts) == 2:
            rim.append((lineno, parts[1]))
        else:
            raise CubeError("line %d: cannot parse %r" % (lineno, raw))
    if g.number_of_nodes() == 0:
        raise CubeError("no vertices declared")
    for lineno, v in rim:
        if v not in g:
            raise CubeError("line %d: rim vertex %s is not a vertex"
                            % (lineno, v))
    if rim:
        g.graph["rim"] = tuple(sorted(v for _, v in rim))
    return g


def dump_complex(g):
    lines = ["# complex, %d vertices, %d edges" % (g.number_of_nodes(),
                                                   g.number_of_edges())]
    for v in sorted(g.nodes()):
        lines.append("vertex %s" % v)
    for a, b in sorted(tuple(sorted(e)) for e in g.edges()):
        label = g[a][b].get("label")
        if label is None:
            lines.append("edge %s %s" % (a, b))
        else:
            lines.append("edge %s %s %s" % (a, b, label))
    for v in g.graph.get("rim", ()):
        lines.append("rim %s" % v)
    return "\n".join(lines) + "\n"


def graph_dot(name, nodes, edges):
    """DOT text of an undirected graph, nodes and edges in the order
    given; every DOT export goes through here."""
    out = ["graph %s {" % name]
    out.extend('  "%s";' % v for v in nodes)
    out.extend('  "%s" -- "%s";' % (a, b) for a, b in edges)
    out.append("}")
    return "\n".join(out) + "\n"


def sorted_dot(name, g, label=str):
    """DOT text of a graph under the node labels: the labels sorted,
    each edge's two labels sorted, and the edges sorted."""
    return graph_dot(name, sorted(label(v) for v in g.nodes()),
                     sorted(tuple(sorted((label(a), label(b))))
                            for a, b in g.edges()))


def minimal_orth_dot(hc, index):
    """DOT graph of the minimal non-boundary classes under orthogonality."""
    return sorted_dot("minorth", index.orth_graph(
        cid for cid in hc.order
        if hc.classes[cid].minimal and not hc.classes[cid].boundary))


def _four_point(d):
    """Exact four-point hyperbolicity constant of an integer distance
    matrix with finite entries.

    A matrix with no entry above 1 is 0-hyperbolic, so it returns
    before any pair is built: the three pairing sums of four distinct
    points are all 2, and when two of the four points coincide, the two
    pairings that split them have equal sums, at least the third's by
    the triangle inequality.  Each of the 434 class graph components of
    gamma4 and gamma6 is of this kind.  Otherwise the pair scan decides.
    """
    if not (d > 1).any():
        return 0.0
    return _pair_scan(d)


def _pair_scan(d):
    """Vertex pairs are visited by decreasing distance, each against
    every earlier pair in one vector step.  If {p, q} is the largest of
    the three pairings of a quadruple, its lead over the middle one is at
    most 2 min(d(p), d(q)), and the quadruple is scored when the later of
    p and q is visited.  So once a pair has 2 d <= best, no quadruple
    left can beat best (Cohen, Coudert and Lancin, ACM JEA 2015).
    """
    a, b = np.triu_indices(len(d), 1)
    order = np.argsort(-d[a, b], kind="stable")
    a, b = a[order], b[order]
    dist = d[a, b]
    best = 0
    for i in range(1, len(dist)):
        if 2 * dist[i] <= best:
            break
        c, e = a[:i], b[:i]
        ra, rb = d[a[i]], d[b[i]]
        s1 = dist[:i] + dist[i]
        s2 = ra[c] + rb[e]
        s3 = ra[e] + rb[c]
        high = np.maximum(np.maximum(s1, s2), s3)
        low = np.minimum(np.minimum(s1, s2), s3)
        # the largest sum minus the middle one
        best = max(best, int((2 * high + low - s1 - s2 - s3).max()))
    return best / 2.0


def four_point_delta(g):
    """Exact hyperbolicity constant of the four-point condition."""
    return _four_point(_ctx(g)["D"])
