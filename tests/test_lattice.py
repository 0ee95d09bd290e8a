"""Ortholattice tests against a powerset oracle.

The B3 index set must become the subset lattice of {1,2,3}; the oracle
tables here are computed with frozenset algebra and compared entry by entry.
The full axiom check that construction used to run, lattice laws
included, is kept below as the reference for the checks that remain.
"""

import collections
import itertools
import os
import unittest
from unittest import mock

import pytest

from helpers import make_b3, make_o6_indexset, wedge
from hhsforge.indexset import (
    IndexSet, check_property, load_index_set, relation, ORTHOGONAL,
)
from hhsforge.lattice import (
    BOTTOM, HARD_CAP, LatticeError, OrthoLattice, _enumerate_targets,
    boolean_lattice, horizontal_sum,
    is_orthomodular, product_lattice, search_orthomodular_extension,
    to_ortholattice,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNIVERSE = frozenset("123")


def oracle_validate(L):
    """Every axiom checked on the tables: the order, the lattice laws
    and the complement."""
    els = L.elements
    if L.bottom not in els or L.top not in els:
        raise LatticeError("top or bottom missing")
    for x in els:
        if x not in L.down[x]:
            raise LatticeError("order not reflexive, witness %s" % x)
        if L.bottom not in L.down[x] or x not in L.down[L.top]:
            raise LatticeError("not bounded, witness %s" % x)
        for y in L.down[x]:
            if x in L.down[y] and x != y:
                raise LatticeError("order not antisymmetric, witness %s %s" % (x, y))
            if not (L.down[y] <= L.down[x]):
                raise LatticeError("order not transitive, witness %s %s" % (x, y))
    for a in els:
        if L.meet(a, a) != a or L.join(a, a) != a:
            raise LatticeError("not idempotent, witness %s" % a)
        for b in els:
            if L.meet(a, b) != L.meet(b, a) or L.join(a, b) != L.join(b, a):
                raise LatticeError("not commutative, witness %s %s" % (a, b))
            if L.leq(a, b) != (L.meet(a, b) == a):
                raise LatticeError("meet disagrees with order, witness %s %s" % (a, b))
            for c in els:
                if L.meet(a, L.meet(b, c)) != L.meet(L.meet(a, b), c):
                    raise LatticeError(
                        "meet not associative, witness %s %s %s" % (a, b, c))
                if L.join(a, L.join(b, c)) != L.join(L.join(a, b), c):
                    raise LatticeError(
                        "join not associative, witness %s %s %s" % (a, b, c))
    if L.comp[L.top] != L.bottom or L.comp[L.bottom] != L.top:
        raise LatticeError("complement must swap top and bottom")
    for x in els:
        if L.comp[L.comp[x]] != x:
            raise LatticeError("complement not an involution, witness %s" % x)
        if L.meet(x, L.comp[x]) != L.bottom:
            raise LatticeError("complement law x meet x' failed, witness %s" % x)
        if L.join(x, L.comp[x]) != L.top:
            raise LatticeError("complement law x join x' failed, witness %s" % x)
        for y in els:
            if L.leq(x, y) and not L.leq(L.comp[y], L.comp[x]):
                raise LatticeError(
                    "complement not order-reversing, witness %s %s" % (x, y))


def oracle_ortholattice(down, comp, top, bottom):
    """OrthoLattice built the same way, checked by the oracle."""
    L = OrthoLattice.__new__(OrthoLattice)
    L.elements = tuple(sorted(down))
    L.down = {x: frozenset(down[x]) for x in L.elements}
    L.comp = dict(comp)
    L.top = top
    L.bottom = bottom
    L._build_tables()
    oracle_validate(L)
    return L


def outcome(build, *args):
    """The LatticeError message of build(*args), or None on success."""
    try:
        build(*args)
    except LatticeError as err:
        return str(err)
    return None


def subset_id(a):
    return "".join(sorted(a)) if a else BOTTOM


def powerset_tables():
    subs = [frozenset(c) for r in range(4)
            for c in itertools.combinations("123", r)]
    meet, join, comp = {}, {}, {}
    for a in subs:
        comp[subset_id(a)] = subset_id(UNIVERSE - a)
        for b in subs:
            meet[(subset_id(a), subset_id(b))] = subset_id(a & b)
            join[(subset_id(a), subset_id(b))] = subset_id(a | b)
    return meet, join, comp


class TestB3Lattice(unittest.TestCase):

    def setUp(self):
        self.s = make_b3()
        self.lat = to_ortholattice(self.s)

    def test_elements(self):
        self.assertEqual(len(self.lat.elements), 8)
        self.assertEqual(self.lat.bottom, BOTTOM)
        self.assertEqual(self.lat.top, "123")

    def test_tables_match_powerset_oracle(self):
        meet, join, comp = powerset_tables()
        for a in self.lat.elements:
            self.assertEqual(self.lat.comp[a], comp[a], msg=a)
            for b in self.lat.elements:
                self.assertEqual(self.lat.meet(a, b), meet[(a, b)], msg=(a, b))
                self.assertEqual(self.lat.join(a, b), join[(a, b)], msg=(a, b))

    def test_meet_extends_wedge(self):
        for u in self.s.domains:
            for v in self.s.domains:
                w = wedge(self.s, u, v)
                self.assertEqual(self.lat.meet(u, v), BOTTOM if w is None else w)

    def test_relation_preserved(self):
        # nesting reads off the meet table, orthogonality off the complement
        for u in self.s.domains:
            for v in self.s.domains:
                self.assertEqual(self.s.nested(u, v), self.lat.meet(u, v) == u)
                if u != v:
                    self.assertEqual(relation(self.s, u, v) == ORTHOGONAL,
                                     self.lat.leq(u, self.lat.comp[v]))

    def test_orthomodular(self):
        rep = is_orthomodular(self.lat)
        self.assertTrue(rep.verdict)
        self.assertEqual(rep.name, "orthomodular")

    def test_agrees_with_strong_orth(self):
        self.assertTrue(check_property(self.s, "strong_orth").verdict)

    def test_search_returns_identity(self):
        res = search_orthomodular_extension(self.lat, 10)
        self.assertTrue(res["found"])
        self.assertEqual(res["target"], "self")
        self.assertEqual(res["mapping"], {x: x for x in self.lat.elements})
        self.assertEqual(res["targets_examined"], 0)


class TestSingleDomainLattice(unittest.TestCase):

    def test_two_elements(self):
        lat = to_ortholattice(IndexSet(["S"], [], []))
        self.assertEqual(sorted(lat.elements), [BOTTOM, "S"])
        self.assertTrue(is_orthomodular(lat).verdict)
        self.assertEqual(lat.meet("S", BOTTOM), BOTTOM)
        self.assertEqual(lat.join("S", BOTTOM), "S")


class TestHexagon(unittest.TestCase):

    def setUp(self):
        self.s = make_o6_indexset()
        self.lat = to_ortholattice(self.s)

    def test_is_valid_ortholattice(self):
        self.assertEqual(len(self.lat.elements), 6)
        self.assertEqual(self.lat.meet("ap", "bp"), BOTTOM)
        self.assertEqual(self.lat.join("a", "b"), "S")

    def test_not_orthomodular(self):
        rep = is_orthomodular(self.lat)
        self.assertFalse(rep.verdict)
        self.assertEqual(rep.witness, ("a", "bp"))
        # replay the witness: (a' meet bp) join a stops at a
        u, v = rep.witness
        self.assertEqual(
            self.lat.join(self.lat.meet(self.lat.comp[u], v), u), "a")

    def test_agrees_with_strong_orth(self):
        self.assertFalse(check_property(self.s, "strong_orth").verdict)

    def test_search_finds_boolean_cube(self):
        res = search_orthomodular_extension(self.lat, 10)
        self.assertTrue(res["found"])
        self.assertEqual(res["target"], "boolean(3)")
        self.assertEqual(res["targets_examined"], 2)
        self.assertGreater(res["assignments_tried"], 0)
        self._replay(self.lat, res)

    def _replay(self, lat, res):
        target = boolean_lattice(3)
        f = res["mapping"]
        self.assertEqual(len(set(f.values())), len(lat.elements))
        for x in lat.elements:
            for y in lat.elements:
                self.assertEqual(lat.leq(x, y), target.leq(f[x], f[y]), msg=(x, y))
                self.assertEqual(lat.orthogonal(x, y),
                                 target.orthogonal(f[x], f[y]), msg=(x, y))

    def test_search_not_found_when_small(self):
        res = search_orthomodular_extension(self.lat, 6)
        self.assertFalse(res["found"])
        self.assertEqual(res["targets_examined"], 1)

    def test_search_below_own_size(self):
        res = search_orthomodular_extension(self.lat, 4)
        self.assertFalse(res["found"])
        self.assertEqual(res["targets_examined"], 0)
        self.assertEqual(res["assignments_tried"], 0)

    def test_cap(self):
        with self.assertRaises(LatticeError) as cm:
            search_orthomodular_extension(self.lat, 25)
        self.assertIn("cap exceeded", str(cm.exception))


class TestTargetFamily(unittest.TestCase):

    def test_boolean_lattices_orthomodular(self):
        for k in (1, 2, 3, 4):
            self.assertTrue(is_orthomodular(boolean_lattice(k)).verdict, msg=k)

    def test_horizontal_sum_orthomodular(self):
        mo2 = horizontal_sum([2, 2])
        self.assertEqual(len(mo2.elements), 6)
        self.assertTrue(is_orthomodular(mo2).verdict)
        self.assertTrue(is_orthomodular(horizontal_sum([3, 2])).verdict)

    def test_product_orthomodular(self):
        p = product_lattice(boolean_lattice(1), horizontal_sum([2, 2]))
        self.assertEqual(len(p.elements), 12)
        self.assertTrue(is_orthomodular(p).verdict)

    def test_hexagon_is_not_a_target(self):
        down = {"Empty": {"Empty"}, "a": {"Empty", "a"}, "b": {"Empty", "b"},
                "ap": {"Empty", "b", "ap"}, "bp": {"Empty", "a", "bp"},
                "S": {"Empty", "a", "b", "ap", "bp", "S"}}
        comp = {"Empty": "S", "S": "Empty", "a": "ap", "ap": "a",
                "b": "bp", "bp": "b"}
        direct = OrthoLattice(down, comp, "S", "Empty")
        self.assertFalse(is_orthomodular(direct).verdict)
        # the direct construction and the index-set route agree
        via = to_ortholattice(make_o6_indexset())
        self.assertEqual(direct.meet_table, via.meet_table)
        self.assertEqual(direct.join_table, via.join_table)
        self.assertEqual(direct.comp, via.comp)


class TestTargetsBuild(unittest.TestCase):

    def test_every_target_is_orthomodular(self):
        # the search builds targets only from this list
        targets = _enumerate_targets(HARD_CAP)
        self.assertTrue(targets)
        for size, name, build in targets:
            target = build()
            self.assertEqual(len(target.elements), size, name)
            self.assertTrue(is_orthomodular(target).verdict, name)


class TestConstructionWork(unittest.TestCase):

    def test_gamma6_meet_join_calls(self):
        # the complement laws ask one meet and one join per element
        path = os.path.join(ROOT, "perfbench", "data", "gamma6.idx")
        with open(path, encoding="utf-8") as f:
            s = load_index_set(f.read())
        with mock.patch.object(OrthoLattice, "meet", autospec=True,
                               side_effect=OrthoLattice.meet) as meet, \
             mock.patch.object(OrthoLattice, "join", autospec=True,
                               side_effect=OrthoLattice.join) as join:
            lat = to_ortholattice(s)
        self.assertEqual(len(lat.elements), 46)
        self.assertLessEqual(meet.call_count + join.call_count,
                             2 * len(lat.elements))


class TestValidationAgrees(unittest.TestCase):

    def test_every_map_on_three_elements(self):
        # every down-set map, top and bottom, under two complement maps
        els = ["0", "1", "2"]
        subsets = [set(c) for r in range(4)
                   for c in itertools.combinations(els, r)]
        comps = (dict(zip(els, els)), {"0": "2", "1": "1", "2": "0"})
        seen = collections.Counter()
        for downs in itertools.product(subsets, repeat=3):
            down = dict(zip(els, downs))
            for top, bottom, comp in itertools.product(els, els, comps):
                want = outcome(oracle_ortholattice, down, comp, top, bottom)
                self.assertEqual(outcome(OrthoLattice, down, comp, top,
                                         bottom), want)
                seen[want.split(",")[0] if want else "accepted"] += 1
        # no ortholattice has three elements, so none is accepted here
        for kind in ("not a lattice", "order not reflexive",
                     "order not transitive", "not bounded",
                     "complement must swap top and bottom"):
            self.assertTrue(seen[kind], kind)


def test_validation_agrees_with_full_axiom_check():
    """Down-set and complement maps on two to six elements, posets or
    not: construction raises the oracle's LatticeError or accepts with
    it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = collections.Counter()

    @st.composite
    def maps(draw):
        n = draw(st.integers(2, 6))
        els = [str(i) for i in range(n)]
        masks = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n,
                              max_size=n))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            # a random relation, rarely a partial order
            down = dict((x, set(els[i] for i in range(n) if m >> i & 1))
                        for x, m in zip(els, masks))
        else:
            # the order closure of random covers, 0 at the bottom and
            # n-1 at the top, with one pair toggled when kind is 2
            down = {}
            for k, x in enumerate(els):
                down[x] = {x, els[0]}.union(*(down[els[i]] for i in range(k)
                                              if masks[k] >> i & 1))
            down[els[-1]] = set(els)
            if kind == 2:
                x, y = draw(st.sampled_from(els)), draw(st.sampled_from(els))
                down[x] ^= {y}
        if draw(st.booleans()):
            comp = dict(zip(els, draw(st.lists(st.sampled_from(els),
                                               min_size=n, max_size=n))))
        else:
            # an involution swapping the ends
            rest = draw(st.permutations(els[1:-1]))
            comp = {els[0]: els[-1], els[-1]: els[0]}
            for a, b in zip(rest[::2], rest[1::2]):
                comp[a], comp[b] = b, a
            if len(rest) % 2:
                comp[rest[-1]] = rest[-1]
        ends = draw(st.integers(0, 3))
        if ends < 2:
            top, bottom = els[-1], els[0]
        else:
            top = "Z" if ends == 3 else draw(st.sampled_from(els))
            bottom = draw(st.sampled_from(els))
        return down, comp, top, bottom

    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(maps())
    # a lattice table on a relation that is not transitive
    @hypothesis.example(({"0": {"0"}, "1": {"0", "1", "2"}, "2": {"0", "2", "3"},
                          "3": {"0"}, "4": {"0", "1", "2", "3", "4"}},
                         {"0": "2", "1": "2", "2": "3", "3": "4", "4": "0"},
                         "4", "0"))
    def check(args):
        want = outcome(oracle_ortholattice, *args)
        assert outcome(OrthoLattice, *args) == want, args
        seen[want.split(",")[0] if want else "accepted"] += 1

    check()
    # both sides of the comparison are exercised
    assert seen["accepted"] and seen["not a lattice"], seen


class TestToOrtholatticeErrors(unittest.TestCase):

    def test_rejects_non_orthogonal_set(self):
        s = IndexSet(["S", "A"], [("A", "S")], [])
        with self.assertRaises(LatticeError) as cm:
            to_ortholattice(s)
        self.assertIn("not an orthogonal set, witness", str(cm.exception))
        self.assertIn("A", str(cm.exception))

    def test_rejects_bottom_collision(self):
        s = IndexSet(["S", "Empty", "X"],
                     [("Empty", "S"), ("X", "S")], [("Empty", "X")])
        with self.assertRaises(LatticeError) as cm:
            to_ortholattice(s)
        self.assertIn("collides", str(cm.exception))


if __name__ == "__main__":
    unittest.main()
