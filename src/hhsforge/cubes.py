"""Finite cube complexes through their median 1-skeleta.

Everything here works on a plain graph: squares are recovered from
4-cycles, hyperplanes from the square-opposite relation on edges, and
convexity, gates, parallelism and complements from shortest paths.
The main export turns a complex into a finite hierarchical model whose
domains are parallelism classes of the hyperclosure.
"""

import itertools

import networkx as nx
import numpy as np

from .indexset import (IndexSet, PropertyReport, relation, NESTED_IN,
                       TRANSVERSE)
from .model import HHSModel


class CubeError(ValueError):
    pass


class ParallelClass(object):

    def __init__(self, crossing, representative, members):
        self.crossing = frozenset(crossing)
        self.representative = frozenset(representative)
        self.members = tuple(members)

    def __repr__(self):
        return "ParallelClass(%d hyperplanes, %d members)" % (
            len(self.crossing), len(self.members))


class Hyperplane(object):

    def __init__(self, hid, edges, halfspaces, sides, partner):
        self.hid = hid
        self.edges = edges
        self.halfspaces = halfspaces
        self.sides = sides
        self.partner = partner

    def separates(self, x, y):
        return (x in self.halfspaces[0]) != (y in self.halfspaces[0])

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


def _ctx(g):
    ctx = g.graph.get("_cube_ctx")
    if ctx is None:
        ctx = {}
        ctx["vertices"] = tuple(sorted(g.nodes()))
        ctx["index"] = dict((v, i) for i, v in enumerate(ctx["vertices"]))
        n = len(ctx["vertices"])
        d = np.full((n, n), -1, dtype=np.int32)
        for v, row in nx.all_pairs_shortest_path_length(g):
            i = ctx["index"][v]
            for w, dist in row.items():
                d[i, ctx["index"][w]] = dist
        if (d < 0).any():
            raise CubeError("graph not connected")
        ctx["D"] = d
        g.graph["_cube_ctx"] = ctx
    return ctx


def _dist(ctx, a, b):
    return int(ctx["D"][ctx["index"][a], ctx["index"][b]])


def _is_convex(ctx, s):
    """No geodesic between members passes outside; returns a witness pair."""
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


def _require_convex(ctx, s, what):
    witness = _is_convex(ctx, s)
    if witness is not None:
        raise CubeError("%s not convex, witness %s %s" % (what,
                                                          witness[0],
                                                          witness[1]))


def _gate_vertex(ctx, y, x):
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


def _gate_image(ctx, y, f):
    return frozenset(_gate_vertex(ctx, y, x) for x in f)


# -- public geometry ---------------------------------------------------


def validate_median_graph(g):
    """Accept a finite graph iff every vertex triple has a unique median."""
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


def hyperplanes(g):
    """Theta-classes of edges with their halfspaces and sides.

    When every edge carries a label, hyperplanes take the common label
    of their class as id; otherwise ids are h0, h1, ... in order of the
    least edge.
    """
    ctx = _ctx(g)
    if "hyperplanes" in ctx:
        return ctx["hyperplanes"]
    parent = {}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(a, b):
        parent[find(a)] = find(b)

    for e in g.edges():
        parent[frozenset(e)] = frozenset(e)
    for a, b in g.edges():
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
    labelled = all("label" in g.edges[e] for e in g.edges())
    out = []
    for root in sorted(groups, key=lambda r: min(tuple(sorted(e))
                                                 for e in groups[r])):
        edges = frozenset(groups[root])
        if labelled:
            labels = set(g.edges[tuple(e)]["label"] for e in edges)
            if len(labels) != 1:
                raise CubeError("mixed labels in one hyperplane, witness %s"
                                % " ".join(sorted(labels)))
            hid = labels.pop()
        else:
            hid = "h%d" % len(out)
        cut = nx.Graph(g)
        cut.remove_edges_from(tuple(e) for e in edges)
        comps = sorted(nx.connected_components(cut), key=sorted)
        if len(comps) != 2:
            raise CubeError("hyperplane does not separate, witness %s" % hid)
        halves = tuple(frozenset(c) for c in comps)
        for half in halves:
            _require_convex(ctx, half, "halfspace %s" % hid)
        ends = [frozenset(v for e in edges for v in e if v in half)
                for half in halves]
        partner = {}
        for e in edges:
            a, b = tuple(e)
            partner[a], partner[b] = b, a
        for x, y in itertools.combinations(sorted(ends[0]), 2):
            if g.has_edge(x, y) != g.has_edge(partner[x], partner[y]):
                raise CubeError("hyperplane sides not isomorphic,"
                                " witness %s" % hid)
        out.append(Hyperplane(hid, edges, halves,
                              tuple(frozenset(e) for e in ends), partner))
    ctx["hyperplanes"] = out
    ctx["hyp_by_id"] = dict((h.hid, h) for h in out)
    return out


def _crossing(ctx, g, s):
    """Hyperplane ids separating some pair inside s (its internal edges
    suffice for convex s)."""
    hs = hyperplanes(g)
    out = set()
    for h in hs:
        if any(v in h.halfspaces[0] for v in s) and \
           any(v in h.halfspaces[1] for v in s):
            out.add(h.hid)
    return frozenset(out)


def crossing_set(g, s):
    """Hyperplane ids separating two vertices of s."""
    return _crossing(_ctx(g), g, frozenset(s))


def gate(g, x, y):
    """The unique vertex of the convex set y closest to x."""
    ctx = _ctx(g)
    y = frozenset(y)
    if not y:
        raise CubeError("gate target empty")
    _require_convex(ctx, y, "gate target")
    return _gate_vertex(ctx, y, x)


def gate_image(g, y, f):
    """Pointwise gate of the set f into the convex set y."""
    ctx = _ctx(g)
    y = frozenset(y)
    if not y:
        raise CubeError("gate target empty")
    _require_convex(ctx, y, "gate target")
    return _gate_image(ctx, y, f)


def parallel_class(g, f):
    """All convex sets crossed by exactly the same hyperplanes as f.

    Copies are found by translating across hyperplanes that run along
    the whole of f; the enumeration is complete because the copies of a
    convex set form a connected product region.
    """
    ctx = _ctx(g)
    f = frozenset(f)
    _require_convex(ctx, f, "parallel seed")
    hs = hyperplanes(g)
    key = _crossing(ctx, g, f)
    seen = {f}
    queue = [f]
    while queue:
        cur = queue.pop()
        for h in hs:
            if h.hid in key:
                continue
            if all(v in h.partner for v in cur):
                moved = frozenset(h.partner[v] for v in cur)
                if moved not in seen:
                    if _crossing(ctx, g, moved) != key:
                        raise CubeError("parallel copy changes the crossing"
                                        " set, witness %s"
                                        % ",".join(sorted(moved)))
                    seen.add(moved)
                    queue.append(moved)
    members = sorted(seen, key=sorted)
    return ParallelClass(key, members[0], members)


def orthogonal_complement_at(g, f, base):
    """Largest convex set at base spanning a product with f.

    Built as an intersection of gate images of combinatorial
    hyperplanes: first intersect the sides at base of the hyperplanes
    leaving base along f, then gate every side of every hyperplane
    crossing f into that intersection and intersect the images.
    """
    ctx = _ctx(g)
    f = frozenset(f)
    if base not in f:
        raise CubeError("base vertex outside the set, witness %s" % base)
    _require_convex(ctx, f, "complement seed")
    hs = hyperplanes(g)
    by_id = ctx["hyp_by_id"]
    touching = set()
    for v in f:
        if g.has_edge(base, v):
            for h in hs:
                if frozenset((base, v)) in h.edges:
                    touching.add(h.hid)
    y = set(g.nodes())
    for hid in sorted(touching):
        h = by_id[hid]
        side = h.sides[0] if base in h.sides[0] else h.sides[1]
        y &= side
    y = frozenset(y)
    out = y
    for hid in sorted(_crossing(ctx, g, f)):
        h = by_id[hid]
        for side in h.sides:
            out &= _gate_image(ctx, y, side)
    return frozenset(out)


# -- hyperclosure -------------------------------------------------------


def hyperclosure(g, depth_cap=None):
    """Close combinatorial hyperplanes and Z under gates and parallelism.

    The crossing set of a gate image is the intersection of the two
    crossing sets, so each round intersects the keys found so far and
    keeps a genuine gate image as representative.  Singletons (empty
    keys) are dropped throughout.
    """
    ctx = _ctx(g)
    if g.number_of_edges() == 0:
        raise CubeError("complex needs at least one edge")
    hs = hyperplanes(g)
    if depth_cap is None:
        depth_cap = 10 * max(1, len(hs))
    reps = {}

    def offer(key, rep):
        if key and key not in reps:
            reps[key] = rep
            return True
        return False

    offer(frozenset(h.hid for h in hs), frozenset(g.nodes()))
    for h in hs:
        for side in h.sides:
            if len(side) > 1:
                offer(_crossing(ctx, g, side), side)
    rounds = 0
    while True:
        rounds += 1
        if rounds > depth_cap:
            raise CubeError("did not stabilize within depth_cap %d"
                            % depth_cap)
        added = []
        keys = sorted(reps, key=sorted)
        for k1, k2 in itertools.combinations(keys, 2):
            key = k1 & k2
            if key and key not in reps:
                image = _gate_image(ctx, reps[k1], reps[k2])
                if _crossing(ctx, g, image) != key:
                    raise CubeError("gate image changes the crossing set,"
                                    " witness %s" % ",".join(sorted(image)))
                added.append((key, image))
        if not added:
            break
        for key, rep in added:
            offer(key, rep)
    rim = frozenset(g.graph.get("rim", ()))
    records = []
    ordered = sorted(reps, key=lambda k: (len(k), sorted(k)))
    counter = 0
    for key in ordered:
        if len(key) == 1:
            cid = "[%s]" % min(key)
        else:
            cid = "[c%d]" % counter
            counter += 1
        pc = parallel_class(g, reps[key])
        minimal = not any(other < key for other in reps)
        boundary = bool(rim) and all(mem & rim for mem in pc.members)
        records.append(ClassRecord(cid, key, pc.representative, pc.members,
                                   minimal, boundary))
    chain = 1
    length = {}
    for key in ordered:
        length[key] = 1 + max([length[o] for o in ordered
                               if o < key] or [0])
        chain = max(chain, length[key])
    return Hyperclosure(g, hs, records, chain)


def check_complement_involution(g, hc=None):
    """Complements of classes stay in the closure and square to identity."""
    if hc is None:
        hc = hyperclosure(g)
    ctx = _ctx(g)
    for cid in hc.order:
        rec = hc.classes[cid]
        if cid == hc.top:
            continue
        comp = orthogonal_complement_at(g, rec.rep, min(rec.rep))
        comp_key = _crossing(ctx, g, comp)
        if comp_key not in hc.by_key:
            return PropertyReport("complement_involution", False, (cid,))
        comp_id = hc.by_key[comp_key]
        comp_rec = hc.classes[comp_id]
        back = orthogonal_complement_at(g, comp_rec.rep, min(comp_rec.rep))
        if _crossing(ctx, g, back) != rec.key:
            return PropertyReport("complement_involution", False,
                                  (cid, comp_id))
    return PropertyReport("complement_involution", True)


# -- model extraction ---------------------------------------------------


def _complement_keys(g, hc):
    ctx = _ctx(g)
    out = {}
    for cid in hc.order:
        rec = hc.classes[cid]
        if cid == hc.top:
            out[cid] = frozenset()
            continue
        comp = orthogonal_complement_at(g, rec.rep, min(rec.rep))
        out[cid] = _crossing(ctx, g, comp)
    return out


def index_set_from_hyperclosure(g, hc=None):
    """Hierarchical model on the parallelism classes of the closure.

    Nesting compares crossing sets, orthogonality tests against the
    complement, coordinate graphs cone off the nontrivial proper gate
    images inside each representative, and all projections are gates.
    The constant E is measured from the finished tables.
    """
    if hc is None:
        hc = hyperclosure(g)
    if not hc.weak_factor_system:
        raise CubeError("not a weak factor system, longest chain %d"
                        % hc.chain_length)
    ctx = _ctx(g)
    comp = _complement_keys(g, hc)
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
    for cid in ids:
        rep = hc.classes[cid].rep
        base = nx.Graph(g.subgraph(rep))
        images = set()
        for other in ids:
            for member in hc.classes[other].members:
                img = _gate_image(ctx, rep, member)
                if 1 < len(img) < len(rep):
                    images.add(img)
        table = {}
        cg = nx.Graph()
        cg.add_nodes_from(base.nodes())
        cg.add_edges_from(base.edges())
        for i, img in enumerate(sorted(images, key=sorted)):
            apex = "H_%d" % i
            if apex in base:
                raise CubeError("apex id collides, witness %s" % apex)
            table[img] = apex
            cg.add_node(apex)
            for v in img:
                cg.add_edge(apex, v)
        coord_graphs[cid] = cg
        apex_of[cid] = table

    def land(cid, img):
        # a coned image carries its apex along
        apex = apex_of[cid].get(img)
        return img | {apex} if apex else img

    pi = {}
    for cid in ids:
        rep = hc.classes[cid].rep
        for x in ctx["vertices"]:
            pi[(cid, x)] = frozenset([_gate_vertex(ctx, rep, x)])
    rho_up = {}
    rho_down = {}
    for a, b in itertools.permutations(ids, 2):
        rel = relation(index, a, b)
        if rel not in (NESTED_IN, TRANSVERSE):
            continue
        ra, rb = hc.classes[a].rep, hc.classes[b].rep
        rho_up[(a, b)] = land(b, _gate_image(ctx, rb, ra))
        if rel == NESTED_IN:
            table = {}
            for w in coord_graphs[b].nodes():
                if w in apex_of[b].values():
                    src = next(img for img, apex in apex_of[b].items()
                               if apex == w)
                    table[w] = land(a, _gate_image(ctx, ra, src))
                else:
                    table[w] = frozenset([_gate_vertex(ctx, ra, w)])
            rho_down[(a, b)] = table
    model = HHSModel(index, nx.Graph(g), coord_graphs, pi, rho_up, rho_down)
    model.hyperclosure = hc
    return model


# -- fixtures ------------------------------------------------------------


def b3_cube():
    """The 3-cube."""
    g = nx.Graph()
    bits = ["%d%d%d" % t for t in itertools.product((0, 1), repeat=3)]
    g.add_nodes_from(bits)
    for a, b in itertools.combinations(bits, 2):
        if sum(x != y for x, y in zip(a, b)) == 1:
            g.add_edge(a, b)
    return g


def grid_complex(rows=7, cols=7):
    """Square grid with rows x cols vertices named i_j."""
    g = nx.Graph()
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
    d = depth
    g = nx.Graph()
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
    g = nx.Graph()
    rim = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            g.add_node(parts[1])
        elif parts[0] == "edge" and len(parts) == 3:
            g.add_edge(parts[1], parts[2])
        elif parts[0] == "edge" and len(parts) == 4:
            g.add_edge(parts[1], parts[2], label=parts[3])
        elif parts[0] == "rim" and len(parts) == 2:
            rim.append(parts[1])
        else:
            raise CubeError("line %d: cannot parse %r" % (lineno, raw))
    if g.number_of_nodes() == 0:
        raise CubeError("no vertices declared")
    if rim:
        g.graph["rim"] = tuple(sorted(rim))
    return g


def dump_complex(g):
    lines = ["# complex, %d vertices, %d edges" % (g.number_of_nodes(),
                                                   g.number_of_edges())]
    for v in sorted(g.nodes()):
        lines.append("vertex %s" % v)
    for a, b in sorted(tuple(sorted(e)) for e in g.edges()):
        label = g.edges[(a, b)].get("label")
        if label is None:
            lines.append("edge %s %s" % (a, b))
        else:
            lines.append("edge %s %s %s" % (a, b, label))
    for v in g.graph.get("rim", ()):
        lines.append("rim %s" % v)
    return "\n".join(lines) + "\n"


def dump_hyperclosure(hc):
    lines = ["# hyperclosure, %d classes, longest chain %d" %
             (len(hc), hc.chain_length)]
    for cid in hc.order:
        rec = hc.classes[cid]
        lines.append("class %s: crossing={%s} rep={%s} minimal=%s"
                     " boundary=%s" % (cid, ",".join(sorted(rec.key)),
                                       ",".join(sorted(rec.rep)),
                                       str(rec.minimal).lower(),
                                       str(rec.boundary).lower()))
    return "\n".join(lines) + "\n"


def minimal_orth_dot(hc, index):
    """DOT graph of the minimal non-boundary classes under orthogonality."""
    keep = [cid for cid in hc.order
            if hc.classes[cid].minimal and not hc.classes[cid].boundary]
    lines = ["graph minorth {"]
    for cid in sorted(keep):
        lines.append('  "%s";' % cid)
    for a, b in itertools.combinations(sorted(keep), 2):
        if b in index.orth[a]:
            lines.append('  "%s" -- "%s";' % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def coordinate_dot(model, cid):
    g = model.coord_graphs[cid]
    lines = ["graph coords {"]
    for v in sorted(g.nodes()):
        lines.append('  "%s";' % v)
    for a, b in sorted(tuple(sorted(e)) for e in g.edges()):
        lines.append('  "%s" -- "%s";' % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def four_point_delta(g):
    """Exact hyperbolicity constant of the four-point condition."""
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
