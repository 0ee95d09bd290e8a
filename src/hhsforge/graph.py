"""The one graph type and the searches the pipelines run on it.

`Graph` is an undirected graph whose adjacency is a dict of dicts in
insertion order, with one data dict per edge shared by both ends.  It
offers only what the package uses.  Nodes, neighbours and edges come
out in the order the common Python graph library gives for the same
additions, so every witness and every listing that follows iteration
order stays as it was when that library built the graphs.  Public
functions take any graph with `nodes()` and `edges()` and convert it
once with `as_graph`.

`apsp` is the breadth-first search of complexes, coordinate graphs,
point graphs and join tests: from every vertex at once, gathering over
a padded neighbour table.  The package's other search, `chhs._distances`,
serves W and the class graphs with stacked float32 products.  Every
connectivity test reads the distances of one of the two.

Those float32 products run on one BLAS thread: while numpy is not yet
loaded, `OPENBLAS_NUM_THREADS` defaults to 1 here, so OpenBLAS starts
no worker pool.  A value the caller set is kept.  Each product is of
0/1 matrices read as `> 0`, and a sum of non-negative terms is positive
exactly when one term is, so the thread count cannot change a result.
"""

import collections
import importlib.util
import itertools
import os
import sys


def _lazy(name):
    """The module called name, imported at its first attribute read.

    This is the `importlib.util.LazyLoader` recipe: the module object
    goes into `sys.modules` at once, and its code runs when something
    first reads an attribute of it.  A module already imported is
    returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError("No module named %r" % name, name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# numpy loads at the first `np.` read, so the index-set and lattice
# commands, which never read it, start without it; OpenBLAS reads its
# thread count when numpy loads, so a numpy already loaded keeps its own
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
np = _lazy("numpy")


class Graph(object):
    """Undirected graph: `adj[u][v]` is the data dict of the edge u-v,
    `graph` holds attributes of the whole graph."""

    def __init__(self):
        self.adj = {}
        self.graph = {}

    def __iter__(self):
        return iter(self.adj)

    def __contains__(self, v):
        return v in self.adj

    def __len__(self):
        return len(self.adj)

    def __getitem__(self, v):
        return self.adj[v]

    def add_node(self, v):
        if v not in self.adj:
            self.adj[v] = {}

    def add_nodes_from(self, vs):
        for v in vs:
            self.add_node(v)

    def add_edge(self, u, v, **data):
        """Add u-v, or update the data of the edge already there."""
        self.add_node(u)
        self.add_node(v)
        shared = self.adj[u].get(v, {})
        shared.update(data)
        self.adj[u][v] = self.adj[v][u] = shared

    def add_edges_from(self, edges):
        for u, v in edges:
            self.add_edge(u, v)

    def nodes(self):
        return self.adj.keys()

    def edges(self):
        """Each edge once, as (u, v) with u the endpoint added first."""
        seen = set()
        out = []
        for u, nbrs in self.adj.items():
            out.extend((u, v) for v in nbrs if v not in seen)
            seen.add(u)
        return out

    def neighbors(self, v):
        return iter(self.adj[v])

    def has_edge(self, u, v):
        return u in self.adj and v in self.adj[u]

    def number_of_nodes(self):
        return len(self.adj)

    def number_of_edges(self):
        return len(self.edges())

    def subgraph(self, vs):
        """A new graph induced on vs, nodes and neighbours in this
        graph's order, edge data shared and no graph attributes."""
        keep = set(vs)
        out = Graph()
        for u, nbrs in self.adj.items():
            if u in keep:
                out.adj[u] = dict((v, d) for v, d in nbrs.items() if v in keep)
        return out


def as_graph(g):
    """g itself when it is a Graph, else a Graph with its nodes, edges,
    edge data and graph attributes, added in g's order."""
    if isinstance(g, Graph):
        return g
    out = Graph()
    out.add_nodes_from(g.nodes())
    adj = getattr(g, "adj", None)
    for u, v in g.edges():
        out.add_edge(u, v, **(adj[u][v] if adj is not None else {}))
    out.graph.update(getattr(g, "graph", {}))
    return out


# -- distances and reachability ----------------------------------------


def apsp(g, order):
    """Distance matrix of g, rows and columns in the given vertex order,
    as int32 with -1 between vertices that no path joins.

    Every source advances one level per step over a neighbour table
    padded with n: the next frontier of v is the union of the frontiers
    of its neighbours, gathered one table column at a time.
    """
    index = dict((v, i) for i, v in enumerate(order))
    rows = [[index[w] for w in g[v]] for v in order]
    n = len(rows)
    table = np.full((n, max(map(len, rows), default=0)), n, dtype=np.intp)
    for v, row in enumerate(rows):
        table[v, :len(row)] = row
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    # frontier[v, s]: the search from s reached v at the last level; the
    # extra row n stays empty for the padding
    frontier = np.zeros((n + 1, n), dtype=bool)
    np.fill_diagonal(frontier, True)
    reached = frontier[:n].copy()
    level = 0
    while True:
        level += 1
        grown = np.zeros((n, n), dtype=bool)
        for column in table.T:
            grown |= frontier[column]
        grown &= ~reached
        if not grown.any():
            return dist
        dist[grown] = level
        reached |= grown
        frontier[:n] = grown


def _cells(n):
    """Cell budget of one kernel temporary on n vertices: O(n^2), with a
    floor that lets small inputs go in one block."""
    return max(n * n, 1 << 20)


def reachability(nodes, edges):
    """For each node, the nodes that directed edges reach from it, the
    node itself included."""
    succ = dict((v, []) for v in nodes)
    for a, b in edges:
        succ[a].append(b)
    out = {}
    for v in succ:
        seen = {v}
        stack = [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out[v] = frozenset(seen)
    return out


# -- orders and cliques ------------------------------------------------


def chain_lengths(order, below):
    """Steps in the longest chain that descends from each element:
    `below(x)` gives the elements strictly below x, and `order` lists
    every element after all of those below it."""
    out = {}
    for x in order:
        out[x] = 1 + max((out[y] for y in below(x)), default=-1)
    return out


def enumerate_all_cliques(g):
    """Every clique, by size and then in node order, as lists."""
    index = {}
    nbrs = {}
    for u in g:
        index[u] = len(index)
        # the neighbours of u that come after it
        nbrs[u] = {v for v in g[u] if v not in index}
    queue = collections.deque(([u], sorted(nbrs[u], key=index.__getitem__))
                              for u in g)
    while queue:
        base, cnbrs = map(list, queue.popleft())
        yield base
        for i, u in enumerate(cnbrs):
            queue.append((itertools.chain(base, [u]),
                          filter(nbrs[u].__contains__,
                                 itertools.islice(cnbrs, i + 1, None))))
