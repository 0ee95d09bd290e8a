"""Ortholattice view of an orthogonal index set, and orthomodularity tools.

An index set with the orthogonal-set package of properties becomes an
ortholattice once a fresh bottom element is added: meet is the wedge
(bottom when there is no common nested domain), join is the unique minimal
common upper bound, and the complement of a domain is the largest domain
orthogonal to it, extended by swapping top and bottom.

The extension search asks whether a given ortholattice embeds, preserving
order and orthogonality as relations in both directions, into a small
orthomodular lattice.  The target family consists of horizontal sums of
Boolean blocks and binary direct products of those; a negative answer is
data about that family up to the size cap, never a proof of non-existence.
"""

import itertools

from .indexset import PropertyReport, check_property

BOTTOM = "Empty"
HARD_CAP = 24


class LatticeError(ValueError):
    pass


class OrthoLattice(object):
    """Finite ortholattice given by down-sets and a complement map.

    down maps each element to the set of elements below it (inclusive).
    Construction derives the meet and join tables, requiring a unique
    maximal common lower bound and a unique minimal common upper bound
    for every pair, then checks that the order is reflexive, bounded and
    transitive, and that the complement swaps top and bottom, is an
    order-reversing involution and satisfies both complement laws.
    Antisymmetry needs no check: if x is in its own down-set and x and y
    lie below each other, no element of down[x] is maximal there, so
    the meet of x with itself already failed.  The lattice laws need no
    check either: in a finite poset a unique maximal common lower bound
    is the greatest one, and greatest lower and least upper bounds obey
    them.
    """

    def __init__(self, down, comp, top, bottom):
        self.elements = tuple(sorted(down))
        self.down = {x: frozenset(down[x]) for x in self.elements}
        self.comp = dict(comp)
        self.top = top
        self.bottom = bottom
        self._build_tables()
        self._validate()

    def leq(self, a, b):
        return a in self.down[b]

    def meet(self, a, b):
        return self.meet_table[(a, b)]

    def join(self, a, b):
        return self.join_table[(a, b)]

    def complement(self, a):
        return self.comp[a]

    def orthogonal(self, a, b):
        return self.leq(a, self.comp[b])

    def _build_tables(self):
        els = self.elements
        up = {x: frozenset(y for y in els if x in self.down[y]) for x in els}
        self.up = up
        self.meet_table = {}
        self.join_table = {}
        for a in els:
            for b in els:
                lows = self.down[a] & self.down[b]
                maxs = [w for w in lows if up[w] & lows == frozenset([w])]
                if len(maxs) != 1:
                    raise LatticeError("not a lattice, witness %s %s" % (a, b))
                self.meet_table[(a, b)] = maxs[0]
                ups = up[a] & up[b]
                mins = [w for w in ups if self.down[w] & ups == frozenset([w])]
                if len(mins) != 1:
                    raise LatticeError("not a lattice, witness %s %s" % (a, b))
                self.join_table[(a, b)] = mins[0]

    def _validate(self):
        els = self.elements
        if self.bottom not in els or self.top not in els:
            raise LatticeError("top or bottom missing")
        for x in els:
            if x not in self.down[x]:
                raise LatticeError("order not reflexive, witness %s" % x)
            if self.bottom not in self.down[x] or x not in self.down[self.top]:
                raise LatticeError("not bounded, witness %s" % x)
            for y in self.down[x]:
                if not (self.down[y] <= self.down[x]):
                    raise LatticeError("order not transitive, witness %s %s" % (x, y))
        if self.comp[self.top] != self.bottom or self.comp[self.bottom] != self.top:
            raise LatticeError("complement must swap top and bottom")
        for x in els:
            if self.comp[self.comp[x]] != x:
                raise LatticeError("complement not an involution, witness %s" % x)
            if self.meet(x, self.comp[x]) != self.bottom:
                raise LatticeError("complement law x meet x' failed, witness %s" % x)
            if self.join(x, self.comp[x]) != self.top:
                raise LatticeError("complement law x join x' failed, witness %s" % x)
            for y in els:
                if self.leq(x, y) and not self.leq(self.comp[y], self.comp[x]):
                    raise LatticeError(
                        "complement not order-reversing, witness %s %s" % (x, y))

def to_ortholattice(s):
    """Ortholattice on the domains of s plus a fresh bottom element.

    s must satisfy the orthogonal-set property; the witness of a failing
    check is forwarded.
    """
    rep = check_property(s, "orthogonal_set")
    if not rep.verdict:
        raise LatticeError(
            "not an orthogonal set, witness %s" % " ".join(rep.witness))
    if BOTTOM in s.domains:
        raise LatticeError("domain id %s collides with the bottom symbol" % BOTTOM)
    down = {BOTTOM: {BOTTOM}}
    for u in s.domains:
        down[u] = set(s.down[u]) | {BOTTOM}
    # orthogonal_set gives every domain below the top a complement
    comp = {BOTTOM: s.top, s.top: BOTTOM}
    for u in s.domains:
        if u == s.top:
            continue
        comp[u] = s.complement(u)
    return OrthoLattice(down, comp, s.top, BOTTOM)


def is_orthomodular(L):
    """Check (x' meet y) join x = y on every ordered pair x below y."""
    for x in sorted(L.elements):
        for y in sorted(L.elements):
            if not L.leq(x, y):
                continue
            if L.join(L.meet(L.comp[x], y), x) != y:
                return PropertyReport("orthomodular", False, (x, y))
    return PropertyReport("orthomodular", True)


# -- target family for the extension search ------------------------------


def _subset_name(members):
    return "{%s}" % ",".join(str(m) for m in sorted(members))


def boolean_lattice(k):
    """Subset lattice of a k-element set."""
    subs = []
    for r in range(k + 1):
        subs.extend(itertools.combinations(range(k), r))
    down = {}
    comp = {}
    full = frozenset(range(k))
    for a in subs:
        sa = frozenset(a)
        down[_subset_name(sa)] = set(_subset_name(frozenset(b)) for b in subs
                                     if frozenset(b) <= sa)
        comp[_subset_name(sa)] = _subset_name(full - sa)
    return OrthoLattice(down, comp, _subset_name(full), _subset_name(frozenset()))


def horizontal_sum(blocks):
    """Boolean blocks of the given ranks glued along a shared top and bottom."""
    blocks = sorted(blocks, reverse=True)
    assert all(k >= 2 for k in blocks) and len(blocks) >= 2
    bot, top = "bot", "top"
    down = {bot: {bot}, top: {bot, top}}
    comp = {bot: top, top: bot}
    for i, k in enumerate(blocks):
        full = frozenset(range(k))
        for r in range(1, k):
            for a in itertools.combinations(range(k), r):
                sa = frozenset(a)
                name = "B%d:%s" % (i, _subset_name(sa))
                down[name] = {bot} | set(
                    "B%d:%s" % (i, _subset_name(frozenset(b)))
                    for rr in range(1, r + 1)
                    for b in itertools.combinations(range(k), rr)
                    if frozenset(b) <= sa)
                comp[name] = "B%d:%s" % (i, _subset_name(full - sa))
                down[top].add(name)
    return OrthoLattice(down, comp, top, bot)


def product_lattice(A, B):
    """Direct product with componentwise order and complement."""
    down = {}
    comp = {}
    for a in A.elements:
        for b in B.elements:
            name = "(%s|%s)" % (a, b)
            down[name] = set("(%s|%s)" % (x, y)
                             for x in A.down[a] for y in B.down[b])
            comp[name] = "(%s|%s)" % (A.comp[a], B.comp[b])
    return OrthoLattice(down, comp,
                        "(%s|%s)" % (A.top, B.top),
                        "(%s|%s)" % (A.bottom, B.bottom))


def _hs_size(blocks):
    return sum(2 ** k - 2 for k in blocks) + 2


def _enumerate_targets(max_size):
    """Deterministic list of (size, name, builder) for the search family.

    Horizontal sums are canonical by their block-rank multiset; a product of
    two Boolean lattices is skipped since it is again Boolean.
    """
    sums = {}
    for k in range(1, max_size.bit_length() + 1):
        if 2 ** k <= max_size:
            sums[(k,)] = 2 ** k

    def grow(blocks):
        size = _hs_size(blocks)
        if size > max_size:
            return
        if len(blocks) >= 2 and blocks not in sums:
            sums[blocks] = size
        last = blocks[-1]
        for k in range(2, last + 1):
            cand = blocks + (k,)
            if _hs_size(cand) <= max_size:
                grow(cand)

    for k in range(2, max_size.bit_length() + 1):
        grow((k,))

    def sum_name(blocks):
        if len(blocks) == 1:
            return "boolean(%d)" % blocks[0]
        return "sum(%s)" % ",".join(str(k) for k in blocks)

    def sum_builder(blocks):
        if len(blocks) == 1:
            return lambda: boolean_lattice(blocks[0])
        return lambda: horizontal_sum(list(blocks))

    targets = []
    for blocks, size in sums.items():
        targets.append((size, sum_name(blocks), sum_builder(blocks)))
    pool = sorted(sums.items())
    for (ba, sa), (bb, sb) in itertools.combinations_with_replacement(pool, 2):
        if sa * sb > max_size or sa < 2 or sb < 2:
            continue
        if len(ba) == 1 and len(bb) == 1:
            continue  # boolean times boolean is boolean
        name = "prod(%s,%s)" % (sum_name(ba), sum_name(bb))
        targets.append((sa * sb, name,
                        (lambda x=ba, y=bb:
                         product_lattice(sum_builder(x)(), sum_builder(y)()))))
    targets.sort(key=lambda t: (t[0], t[1]))
    return targets


def _embed(L, T):
    """Backtracking search for a relation-preserving injection of L into T.

    Preserved in both directions: order and orthogonality.  Returns the
    mapping (or None) and the number of assignment extensions tried.
    """
    lorth = {x: frozenset(y for y in L.elements if L.orthogonal(x, y))
             for x in L.elements}
    torth = {x: frozenset(y for y in T.elements if T.orthogonal(x, y))
             for x in T.elements}

    def weight(x):
        comparable = sum(1 for y in L.elements if L.leq(x, y) or L.leq(y, x))
        return (-(comparable + len(lorth[x])), x)

    order = [L.bottom] + sorted((x for x in L.elements if x != L.bottom), key=weight)
    cands = sorted(T.elements)
    tried = [0]

    def consistent(x, t, partial):
        if (x in lorth[x]) != (t in torth[t]):
            return False
        for y, u in partial.items():
            if L.leq(x, y) != T.leq(t, u):
                return False
            if L.leq(y, x) != T.leq(u, t):
                return False
            if (y in lorth[x]) != (u in torth[t]):
                return False
        return True

    def extend(i, partial, used):
        if i == len(order):
            return dict(partial)
        x = order[i]
        for t in cands:
            if t in used:
                continue
            tried[0] += 1
            if not consistent(x, t, partial):
                continue
            partial[x] = t
            used.add(t)
            got = extend(i + 1, partial, used)
            if got is not None:
                return got
            del partial[x]
            used.discard(t)
        return None

    return extend(0, {}, set()), tried[0]


def search_orthomodular_extension(L, max_size):
    """Look for an orthomodular lattice of at most max_size receiving L.

    An already-orthomodular L embeds in itself.  Otherwise the target family
    is scanned in ascending size; the result records how many targets were
    examined and how many assignment extensions the backtracker tried, so a
    NotFound is reproducible data about the family, not a proof.
    """
    if max_size > HARD_CAP:
        raise LatticeError("cap exceeded: max_size %d > %d" % (max_size, HARD_CAP))
    if is_orthomodular(L).verdict:
        return {"found": True, "target": "self",
                "mapping": {x: x for x in L.elements},
                "targets_examined": 0, "assignments_tried": 0}
    examined = 0
    tried_total = 0
    for size, name, build in _enumerate_targets(max_size):
        if size < len(L.elements):
            continue
        target = build()
        examined += 1
        mapping, tried = _embed(L, target)
        tried_total += tried
        if mapping is not None:
            return {"found": True, "target": name, "mapping": mapping,
                    "targets_examined": examined, "assignments_tried": tried_total}
    return {"found": False, "target": None, "mapping": None,
            "targets_examined": examined, "assignments_tried": tried_total}
