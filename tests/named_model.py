"""The model on tables of vertex names: the constructor, validation,
set tables and collapse that the numbered model replaced.

`NamedModel` copies every table entry into a frozenset, validates the
named tables entry by entry, numbers each coordinate graph by a
distance matrix of its own and interns each domain's sets by name, in
the order the named constructor did.  `named_collapse` shrinks the
small coordinate graphs of a NamedModel on frozensets.  Both are the
references of the agreement tests in test_numbered_model.py.
"""

import functools
import itertools
import types

import networkx as nx
import numpy as np

from hhsforge.graph import Graph, apsp, as_graph
from hhsforge.indexset import NESTED_IN, TRANSVERSE, relation
from hhsforge.model import ModelError, _as_set

from helpers import as_nx


class NamedModel:

    def __init__(self, index, space, coord_graphs, pi, rho_up, rho_down,
                 E=None):
        self.index = index
        self.space = as_graph(space)
        self.points = tuple(sorted(self.space.nodes()))
        if not self.points:
            raise ModelError("model needs at least one point")
        self.point_index = dict((x, i) for i, x in enumerate(self.points))
        self.coord_graphs = dict((u, as_graph(g))
                                 for u, g in coord_graphs.items())
        self.pi = dict(((u, x), _as_set(v)) for (u, x), v in pi.items())
        self.rho_up = dict(((u, v), _as_set(w))
                           for (u, v), w in rho_up.items())
        self.rho_down = {}
        for (v, u), table in rho_down.items():
            self.rho_down[(v, u)] = dict((w, _as_set(t))
                                         for w, t in table.items())
        self.named = types.SimpleNamespace(pi=self.pi, rho_up=self.rho_up,
                                           rho_down=self.rho_down)
        self._validate()
        self.E = E

    @classmethod
    def of(cls, m):
        """The named tables of a model, taken again by name."""
        named = m.named
        return cls(m.index, m.space, m.coord_graphs, named.pi, named.rho_up,
                   named.rho_down, m.E)

    def _validate(self):
        if not nx.is_connected(as_nx(self.space)):
            raise ModelError("point graph is disconnected")
        for u in self.index.domains:
            if u not in self.coord_graphs:
                raise ModelError("no coordinate graph for %s" % u)
            g = self.coord_graphs[u]
            if g.number_of_nodes() == 0:
                raise ModelError("empty coordinate graph for %s" % u)
            if not nx.is_connected(as_nx(g)):
                raise ModelError("coordinate graph for %s is disconnected" % u)
        for u in self.index.domains:
            nodes = set(self.coord_graphs[u].nodes())
            for x in self.points:
                img = self.pi.get((u, x))
                if not img:
                    raise ModelError("missing projection, witness %s %s"
                                     % (u, x))
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

    def dist(self, u, a, b):
        index, d = self.coord_dist[u]
        return int(min(d[index[x], index[y]]
                       for x in _as_set(a) for y in _as_set(b)))

    @functools.cached_property
    def tables(self):
        """u -> (ids, near, gap, span): the vertex sets of C(u) interned
        by name, first the point projections, then the relative
        projections landing in C(u), the cells of the downward tables
        leaving it and, in a minimal domain, every vertex; and their
        distance tables, one set at a time."""
        found = dict((u, []) for u in self.index.domains)
        for (u, x), img in self.pi.items():
            found[u].append(img)
        for (u, v), img in self.rho_up.items():
            found[v].append(img)
        for (v, u), table in self.rho_down.items():
            found[v].extend(table.values())
        for u in self.index.minimal_domains():
            found[u].extend(frozenset([w])
                            for w in self.coord_graphs[u].nodes())
        out = {}
        for u, sets in found.items():
            ids = {}
            for s in sets:
                ids.setdefault(s, len(ids))
            index, dist = self.coord_dist[u]
            members = [[index[w] for w in s] for s in ids]
            near = np.array([dist[mem].min(0) for mem in members])
            far = np.array([dist[mem].max(0) for mem in members])
            gap = np.array([near[:, mem].min(1) for mem in members])
            span = np.array([far[:, mem].max(1) for mem in members])
            out[u] = (ids, near, gap, span)
        return out


def named_collapse(m):
    """A NamedModel with every coordinate graph of diameter at most one
    shrunk to its sorted-first vertex, its sets with it; m itself when
    there is none."""
    small = {}
    for u in m.index.domains:
        nodes = sorted(m.coord_graphs[u].nodes())
        if len(nodes) > 1 and m.coord_dist[u][1].max() <= 1:
            small[u] = nodes[0]
    if not small:
        return m

    def squash(u, vs):
        if u in small:
            return frozenset([small[u]])
        return frozenset(vs)

    coord_graphs = dict(m.coord_graphs)
    for u in small:
        coord_graphs[u] = Graph()
        coord_graphs[u].add_node(small[u])
    pi = dict(((u, z), squash(u, vs)) for (u, z), vs in m.pi.items())
    rho_up = dict(((u, v), squash(v, vs))
                  for (u, v), vs in m.rho_up.items())
    rho_down = {}
    for (v, u), table in m.rho_down.items():
        if u in small:
            union = set()
            for cell in table.values():
                union |= cell
            rho_down[(v, u)] = {small[u]: squash(v, union)}
        else:
            rho_down[(v, u)] = dict((c, squash(v, cell))
                                    for c, cell in table.items())
    return NamedModel(m.index, m.space, coord_graphs, pi, rho_up, rho_down)
