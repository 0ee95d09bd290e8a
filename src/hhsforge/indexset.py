"""Finite index sets: domains with a nesting order and an orthogonality relation.

An index set is a finite poset of "domains" with a unique maximal element,
together with a symmetric anti-reflexive orthogonality relation that is
inherited downward (V nested in U and U orthogonal to W makes V orthogonal
to W) and never holds between comparable domains.  Two domains that are
neither comparable nor orthogonal are transverse.

The constructor establishes irreflexive, downward-inherited orthogonality
and a top above every domain, and no property re-checks them.  The property
checkers are exhaustive, not sampled: every other quantifier in a property
definition is evaluated over all tuples of domains.  Fixtures are expected to
stay small (a few hundred domains at most), so the cubic scans are fine.
"""

import itertools
import re

from .graph import Graph, chain_lengths, enumerate_all_cliques, reachability

EQUAL = "Equal"
NESTED_IN = "NestedIn"
CONTAINS = "Contains"
ORTHOGONAL = "Orthogonal"
TRANSVERSE = "Transverse"

ID_PATTERN = re.compile(r"[A-Za-z0-9_\[\]-]+\Z")


class IndexSetError(ValueError):
    pass


class PropertyReport(object):
    """Verdict of one exhaustive property check.

    witness is a tuple of domain ids demonstrating the failure; it is present
    exactly when the verdict is false.
    """

    def __init__(self, name, verdict, witness=None):
        if verdict:
            assert witness is None
        else:
            assert witness is not None and len(witness) > 0
        self.name = name
        self.verdict = bool(verdict)
        self.witness = None if witness is None else tuple(witness)

    def line(self):
        if self.verdict:
            return "property=%s verdict=true" % self.name
        return "property=%s verdict=false witness=%s" % (
            self.name, ",".join(self.witness))

    def __repr__(self):
        return "PropertyReport(%r, %r, %r)" % (self.name, self.verdict, self.witness)

    def __eq__(self, other):
        return (isinstance(other, PropertyReport)
                and (self.name, self.verdict, self.witness)
                == (other.name, other.verdict, other.witness))


class IndexSet(object):
    """Domains plus closed nesting and orthogonality tables.

    The constructor closes the input relations (reflexive-transitive closure
    of nesting, downward inheritance and symmetry of orthogonality) and then
    validates every axiom, raising IndexSetError with a witness on failure.
    """

    def __init__(self, domains, nesting, orthogonality):
        self._derived = {}
        self.domains = tuple(sorted(domains))
        index = set(self.domains)
        if len(self.domains) != len(index):
            raise IndexSetError("duplicate domain id")
        if not self.domains:
            raise IndexSetError("empty index set")
        for a, b in itertools.chain(nesting, orthogonality):
            for x in (a, b):
                if x not in index:
                    raise IndexSetError("unknown domain id %s" % x)

        # up[u] = all v with u nested in v, including u itself
        self.up = reachability(self.domains, nesting)
        down = dict((u, set()) for u in self.domains)
        for u in self.domains:
            for v in self.up[u]:
                down[v].add(u)
        self.down = dict((u, frozenset(vs)) for u, vs in down.items())

        for u in self.domains:
            for v in sorted(self.up[u]):
                if v != u and u in self.up[v]:
                    raise IndexSetError(
                        "nesting antisymmetry violated, witness %s %s" % (u, v))

        maximal = [u for u in self.domains if self.up[u] == frozenset([u])]
        if len(maximal) != 1:
            raise IndexSetError(
                "unique maximal domain violated, witness %s" % " ".join(maximal))
        self.top = maximal[0]

        for a, b in orthogonality:
            if a == b:
                raise IndexSetError(
                    "orthogonality anti-reflexive violated, witness %s" % a)
            if b in self.up[a] or b in self.down[a]:
                raise IndexSetError(
                    "orthogonality incomparability violated, witness %s %s" % (a, b))

        # Orthogonality is closed in one pass: V orth W exactly when some
        # declared pair (U, T) has V nested in U and W nested in T.
        orth = {u: set() for u in self.domains}
        for a, b in orthogonality:
            for v in self.down[a]:
                for w in self.down[b]:
                    orth[v].add(w)
                    orth[w].add(v)
        self.orth = {u: frozenset(orth[u]) for u in self.domains}

        # A closed comparable-orthogonal pair forces a reflexive one (the
        # smaller domain sits below both sides of some declared pair), so
        # this also rules out orthogonality between nested domains.
        for u in self.domains:
            if u in self.orth[u]:
                raise IndexSetError(
                    "orthogonality anti-reflexive violated, witness %s" % u)

        self._validate_containers()

    def _validate_containers(self):
        # For U properly nested in T with something in T orthogonal to U,
        # some W properly nested in T must contain everything in T that is
        # orthogonal to U.
        for t in self.domains:
            below = self.down[t] - {t}
            for u in sorted(below):
                others = frozenset(v for v in below if v in self.orth[u])
                if not others:
                    continue
                if not any(others <= self.down[w] for w in below):
                    raise IndexSetError(
                        "container axiom violated, witness %s %s" % (u, t))

    # -- basic queries -------------------------------------------------

    def check_ids(self, *ids):
        for x in ids:
            if x not in self.up:
                raise IndexSetError("unknown domain id %s" % x)

    def nested(self, u, v):
        """u nested in v (reflexively)."""
        return v in self.up[u]

    def minimal_domains(self):
        return tuple(u for u in self.domains if self.down[u] == frozenset([u]))

    def lower_bounds(self, u, v):
        return self.down[u] & self.down[v]

    # -- derived notions, each computed once per instance ------------------

    def _memo(self, key, compute):
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def relations(self):
        """(u, v, relation of u to v) for every ordered pair of distinct
        domains, in the order of itertools.permutations."""
        return self._memo("relations", lambda: tuple(
            (u, v, relation(self, u, v))
            for u, v in itertools.permutations(self.domains, 2)))

    def orth_graph(self, domains):
        """Orthogonality graph induced on the given domains, whose nodes
        keep the given order."""
        domains = tuple(domains)
        g = Graph()
        g.add_nodes_from(domains)
        g.add_edges_from((u, v) for u, v in itertools.combinations(domains, 2)
                         if v in self.orth[u])
        return g

    def cliques(self, domains):
        """Every nonempty pairwise-orthogonal family of the given
        domains, as sorted tuples ordered by size and then by tuple."""
        domains = tuple(sorted(domains))
        # on nodes in sorted order the enumeration is already in this
        # order, each clique listed in node order
        return self._memo(("cliques", domains), lambda: tuple(
            tuple(c) for c in enumerate_all_cliques(self.orth_graph(domains))))

    def families(self, u):
        """Maximal pairwise-orthogonal families of the minimal domains
        nested in u: sorted tuples, in sorted order.  A family in u is
        maximal when no minimal domain in u is orthogonal to all of it."""
        below = self.down[u]
        return self._memo(("families", u), lambda: tuple(sorted(
            c for c in self.cliques(self.minimal_domains())
            if below.issuperset(c) and not self.bar_link(c) & below)))

    def bar_link(self, parts):
        """The minimal domains orthogonal to every member of parts; all
        minimal domains when parts is empty."""
        parts = frozenset(parts)
        return self._memo(("bar_link", parts), lambda: frozenset(
            w for w in self.minimal_domains() if parts <= self.orth[w]))

    def maximal_lower_bounds(self, u, v):
        """Maximal domains nested in both u and v, sorted; empty exactly
        when u and v share no lower bound."""
        def compute():
            lows = self.lower_bounds(u, v)
            return tuple(sorted(w for w in lows
                                if self.up[w] & lows == frozenset([w])))
        return self._memo(("maximal_lower_bounds",) + tuple(sorted((u, v))),
                          compute)

    def weak_wedge_candidates(self, u, v):
        """Least domains nested in both u and v that contain every minimal
        domain nested in both, sorted; None when u and v share no lower
        bound.  The weak wedge of u and v exists when exactly one does."""
        def compute():
            lows = self.lower_bounds(u, v)
            if not lows:
                return None
            mins = frozenset(w for w in lows if self.down[w] == frozenset([w]))
            cands = frozenset(t for t in lows if mins <= self.down[t])
            return tuple(sorted(t for t in cands
                                if self.down[t] & cands == frozenset([t])))
        return self._memo(("weak_wedge_candidates",) + tuple(sorted((u, v))),
                          compute)

    def complement(self, u):
        """The domain orthogonal to u that contains every domain
        orthogonal to u, or None when there is none."""
        b = self.orth[u]
        return self._memo(("complement", u), lambda: next(
            (w for w in sorted(b) if b <= self.down[w]), None))

    def __len__(self):
        return len(self.domains)

    def __eq__(self, other):
        return (isinstance(other, IndexSet)
                and self.domains == other.domains
                and self.up == other.up
                and self.orth == other.orth)


# -- file format --------------------------------------------------------


def content_lines(text):
    """(line number from 1, raw line, words) for every line of a line
    format that says more than a `#` comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, raw, parts


class KeyedLines(object):
    """Puts the values of keyed lines into tables: a key may be given
    again only with the value it was first given.  A key is named by the
    words of its line before the last, which gives the value; the first
    line is looked up in the text only when a repeat conflicts, so the
    tables hold nothing but the values."""

    def __init__(self, text, error):
        self.text = text
        self.error = error

    def put(self, table, key, value, lineno, parts):
        if table.setdefault(key, value) != value:
            first, word = next((n, p[-1])
                               for n, _, p in content_lines(self.text)
                               if p[:-1] == parts[:-1])
            raise self.error("line %d: %s given again with %s, first at line"
                             " %d with %s" % (lineno, " ".join(parts[:-1]),
                                              parts[-1], first, word))


def load_index_set(text):
    """Parse the line-based index-set format.

    Lines are `domain <id>`, `nest <a> <b>` (a nested in b), `orth <a> <b>`;
    a `#` starts a comment.  Relations may be given by generators; the closure
    is computed before validation.
    """
    return index_set_from_lines(content_lines(text))


def index_set_from_lines(lines):
    """The index set of (line number, raw line, words) triples as
    content_lines yields them; errors name the given line numbers."""
    domains = []
    nest = []
    orth = []
    for lineno, raw, parts in lines:
        if parts[0] == "domain" and len(parts) == 2:
            if not ID_PATTERN.match(parts[1]):
                raise IndexSetError("line %d: bad domain id %r" % (lineno, parts[1]))
            if parts[1] in domains:
                raise IndexSetError("line %d: duplicate domain id %s" % (lineno, parts[1]))
            domains.append(parts[1])
        elif parts[0] == "nest" and len(parts) == 3:
            nest.append((parts[1], parts[2]))
        elif parts[0] == "orth" and len(parts) == 3:
            orth.append((parts[1], parts[2]))
        else:
            raise IndexSetError("line %d: cannot parse %r" % (lineno, raw))
    if not domains:
        raise IndexSetError("no domains declared")
    return IndexSet(domains, nest, orth)


def dump_index_set(s):
    """Serialize; nesting is written as cover pairs, orthogonality in full."""
    out = ["# index set, %d domains" % len(s.domains)]
    for u in s.domains:
        out.append("domain %s" % u)
    for u in s.domains:
        above = s.up[u] - {u}
        covers = [v for v in sorted(above)
                  if not any(v in s.up[w] and v != w for w in above - {v})]
        for v in covers:
            out.append("nest %s %s" % (u, v))
    for u in s.domains:
        for v in sorted(s.orth[u]):
            if u < v:
                out.append("orth %s %s" % (u, v))
    return "\n".join(out) + "\n"


# -- relations and basic operations -------------------------------------


def relation(s, u, v):
    """Classify the pair: Equal, NestedIn, Contains, Orthogonal or Transverse.

    Exactly one of the five holds for any pair of a validated index set.
    """
    s.check_ids(u, v)
    if u == v:
        return EQUAL
    if v in s.up[u]:
        return NESTED_IN
    if v in s.down[u]:
        return CONTAINS
    if v in s.orth[u]:
        return ORTHOGONAL
    return TRANSVERSE


def orth_complement(s, parts, ambient):
    """Largest domain nested in ambient and orthogonal to all the parts.

    parts must be pairwise orthogonal and nested in ambient; the empty list
    gives back ambient itself.  Computed by folding containers one part at a
    time; clean containers make the result independent of the order.  None
    means nothing in ambient is orthogonal to the parts.
    """
    s.check_ids(ambient, *parts)
    for p in parts:
        if not s.nested(p, ambient):
            raise IndexSetError("part not nested in ambient, witness %s %s" % (p, ambient))
    for p, q in itertools.combinations(parts, 2):
        if p != q and q not in s.orth[p]:
            raise IndexSetError("parts not pairwise orthogonal, witness %s %s" % (p, q))
    current = ambient
    for p in parts:
        inside = frozenset(v for v in s.down[current] if v in s.orth[p])
        if not inside:
            return None
        tops = sorted(w for w in inside if inside <= s.down[w])
        if not tops:
            raise IndexSetError("clean containers violated, witness %s %s" % (p, current))
        current = tops[0]
    return current


def depth_stats(s, u):
    """Longest proper chains from u up to the top (co_level) and below u (level)."""
    s.check_ids(u)

    def compute():
        # nested domains have strictly smaller up-sets, so ascending up-set
        # size is a valid evaluation order, and dually for down-sets
        def longest(rel):
            return chain_lengths(sorted(s.domains, key=lambda y: len(rel[y])),
                                 lambda x: rel[x] - {x})
        return longest(s.up), longest(s.down)

    colv, lev = s._memo(("depths",), compute)
    return {"co_level": colv[u], "level": lev[u]}


def complexity(s):
    """Length of the longest nesting chain, counted in steps."""
    return max(depth_stats(s, u)["co_level"] for u in s.domains)


def split_info(s, u):
    """Which minimal domains below u are friendly to everything below u.

    A minimal W nested in u is a samaritan when every V nested in u is
    comparable with or orthogonal to W; u is split when a samaritan exists.
    Minimal domains are split through themselves.
    """
    s.check_ids(u)
    below = s.down[u]
    minimal = sorted(w for w in below if s.down[w] == frozenset([w]))
    samaritans = []
    for w in minimal:
        if all(relation(s, w, v) != TRANSVERSE for v in below):
            samaritans.append(w)
    return {"split": bool(samaritans), "samaritans": tuple(samaritans)}


# -- property checkers ---------------------------------------------------


def _pairs(s):
    return itertools.combinations(s.domains, 2)


def _check_wedges(s):
    for u, v in _pairs(s):
        if len(s.maximal_lower_bounds(u, v)) > 1:
            return (u, v)
    return None


def _check_weak_wedges(s):
    for u, v in _pairs(s):
        least = s.weak_wedge_candidates(u, v)
        if least is not None and len(least) != 1:
            return (u, v)
    return None


def _check_clean_containers(s):
    for t in s.domains:
        below = s.down[t] - {t}
        for u in sorted(below):
            inside = frozenset(v for v in below if v in s.orth[u])
            if not inside:
                continue
            if not any(inside <= s.down[w] for w in inside):
                return (u, t)
    return None


def _check_ons(s):
    for u in s.domains:
        if split_info(s, u)["split"]:
            continue
        for v in sorted(s.up[u] - {u}):
            if not any(w in s.orth[u] for w in s.down[v] - {v}):
                return (u, v)
    return None


def _check_strong_orth(s, skip_minimal=False):
    for u in s.domains:
        if skip_minimal and s.down[u] == frozenset([u]):
            continue
        for v in sorted(s.up[u] - {u}):
            if not any(w in s.orth[u] for w in s.down[v]):
                return (u, v)
    return None


def _check_involution(s):
    for u in s.domains:
        if u == s.top:
            continue
        c = s.complement(u)
        if c is None:
            return (u,)
        cc = s.complement(c)
        if cc != u:
            return (u, c) if cc is None else (u, c, cc)
    return None


def _check_orth_determines_nesting(s):
    # nesting must be readable off the orthogonal sets, properly and improperly
    for u in s.domains:
        for v in s.domains:
            if u == v:
                continue
            if (v in s.up[u]) != (s.orth[v] <= s.orth[u]):
                return (u, v)
            if (v in s.up[u]) != (s.orth[v] < s.orth[u]):
                return (u, v)
    return None


def _check_orthogonal_set(s):
    # irreflexive, downward-inherited orthogonality holds by construction;
    # a domain with orthogonal ones needs a complement whose orthogonal
    # set is exactly its own down-set
    bad = _check_wedges(s)
    if bad is not None:
        return bad
    for u in s.domains:
        if s.orth[u]:
            c = s.complement(u)
            if c is None or s.orth[c] != s.down[u]:
                return (u,)
    return _check_orth_determines_nesting(s)


def check_property(s, name):
    """Exhaustively decide one named property, with a failure witness."""
    if name not in _CHECKERS:
        raise IndexSetError("unknown property %s" % name)
    witness = _CHECKERS[name](s)
    return PropertyReport(name, witness is None, witness)


def check_all_properties(s):
    return [check_property(s, name) for name in PROPERTY_NAMES]


# name -> checker, in the order check-indexset reports them
_CHECKERS = {
    "wedges": _check_wedges,
    "weak_wedges": _check_weak_wedges,
    "clean_containers": _check_clean_containers,
    "orthogonals_for_non_split": _check_ons,
    "strong_orth": _check_strong_orth,
    "weak_orth": lambda s: _check_strong_orth(s, skip_minimal=True),
    "complement_involution": _check_involution,
    "orth_determines_nesting": _check_orth_determines_nesting,
    "orthogonal_set": _check_orthogonal_set,
}
PROPERTY_NAMES = tuple(_CHECKERS)
