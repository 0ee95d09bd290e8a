"""Index-set tests against a subset-algebra oracle.

The main fixture is the family of nonempty subsets of {1,2,3} ordered by
inclusion, with orthogonality meaning disjointness.  Every operation has an
independent set-theoretic expectation computed here, so the module under test
is compared against arithmetic it does not share.
"""

import itertools
import os
import random
import unittest

from hhsforge import cubes, indexset
from hhsforge.indexset import (
    CONTAINS, EQUAL, NESTED_IN, ORTHOGONAL, TRANSVERSE,
    IndexSet, IndexSetError, PropertyReport,
    check_all_properties, check_property, complexity, depth_stats,
    dump_index_set, load_index_set, orth_complement, relation,
    split_info,
)

from helpers import oracle_orthogonal_set, random_index_sets, wedge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

B3_IDS = ["1", "2", "3", "12", "13", "23", "123"]


def b3_set(name):
    return frozenset(name)


def make_b3():
    # generators only; the constructor closes them
    nest = [("1", "12"), ("1", "13"), ("2", "12"), ("2", "23"),
            ("3", "13"), ("3", "23"), ("12", "123"), ("13", "123"),
            ("23", "123")]
    orth = [("1", "23"), ("2", "13"), ("3", "12")]
    return IndexSet(B3_IDS, nest, orth)


def b3_oracle_relation(u, v):
    a, b = b3_set(u), b3_set(v)
    if a == b:
        return EQUAL
    if a < b:
        return NESTED_IN
    if b < a:
        return CONTAINS
    if not (a & b):
        return ORTHOGONAL
    return TRANSVERSE


def set_to_id(a):
    return "".join(sorted(a))


class TestB3AgainstOracle(unittest.TestCase):

    def setUp(self):
        self.s = make_b3()

    def test_relation_all_pairs(self):
        for u in B3_IDS:
            for v in B3_IDS:
                self.assertEqual(relation(self.s, u, v), b3_oracle_relation(u, v),
                                 msg="pair %s %s" % (u, v))

    def test_relation_exclusive_five_way(self):
        kinds = set()
        for u in B3_IDS:
            for v in B3_IDS:
                kinds.add(relation(self.s, u, v))
        self.assertEqual(kinds, {EQUAL, NESTED_IN, CONTAINS, ORTHOGONAL, TRANSVERSE})

    def test_wedge_is_intersection(self):
        for u, v in itertools.combinations(B3_IDS, 2):
            meet = b3_set(u) & b3_set(v)
            expect = set_to_id(meet) if meet else None
            self.assertEqual(wedge(self.s, u, v), expect, msg="pair %s %s" % (u, v))
            self.assertEqual(wedge(self.s, v, u), expect)
            self.assertEqual(wedge(self.s, u, v, weak=True), expect)

    def test_wedge_with_self(self):
        for u in B3_IDS:
            self.assertEqual(wedge(self.s, u, u), u)

    def test_orth_complement_is_set_difference(self):
        for amb in B3_IDS:
            a = b3_set(amb)
            for p in B3_IDS:
                if not (b3_set(p) <= a) or p == amb:
                    continue
                rest = a - b3_set(p)
                expect = set_to_id(rest) if rest else None
                self.assertEqual(orth_complement(self.s, [p], amb), expect,
                                 msg="%s inside %s" % (p, amb))

    def test_orth_complement_order_independent(self):
        for parts in itertools.permutations(["1", "2"]):
            self.assertEqual(orth_complement(self.s, list(parts), "123"), "3")
        for parts in itertools.permutations(["1", "2", "3"]):
            self.assertIsNone(orth_complement(self.s, list(parts), "123"))

    def test_orth_complement_empty_parts(self):
        self.assertEqual(orth_complement(self.s, [], "12"), "12")

    def test_orth_complement_rejects_bad_parts(self):
        with self.assertRaises(IndexSetError):
            orth_complement(self.s, ["1"], "23")     # not nested in ambient
        with self.assertRaises(IndexSetError):
            orth_complement(self.s, ["1", "12"], "123")  # parts not orthogonal

    def test_depth_stats(self):
        for u in B3_IDS:
            st = depth_stats(self.s, u)
            self.assertEqual(st["co_level"], 3 - len(b3_set(u)), msg=u)
            self.assertEqual(st["level"], len(b3_set(u)) - 1, msg=u)
        self.assertEqual(complexity(self.s), 2)

    def test_co_level_strictly_monotone(self):
        for u in B3_IDS:
            for v in B3_IDS:
                if u != v and self.s.nested(u, v):
                    self.assertGreater(depth_stats(self.s, u)["co_level"],
                                       depth_stats(self.s, v)["co_level"])

    def test_split_info(self):
        # every subset is split; the samaritans of u are exactly the
        # singletons inside u, since singletons are disjoint from or inside
        # everything below u
        for u in B3_IDS:
            info = split_info(self.s, u)
            self.assertTrue(info["split"], msg=u)
            expect = tuple(sorted(c for c in u))
            self.assertEqual(info["samaritans"], expect, msg=u)

    def test_samaritan_inheritance(self):
        # a samaritan for v stays a samaritan for anything between it and v
        for v in B3_IDS:
            for w in split_info(self.s, v)["samaritans"]:
                for u in B3_IDS:
                    if self.s.nested(w, u) and self.s.nested(u, v):
                        self.assertIn(w, split_info(self.s, u)["samaritans"])

    def test_all_nine_properties_hold(self):
        for rep in check_all_properties(self.s):
            self.assertTrue(rep.verdict, msg=rep.line())
            self.assertIsNone(rep.witness)

    def test_report_lines(self):
        rep = check_property(self.s, "wedges")
        self.assertEqual(rep.line(), "property=wedges verdict=true")

    def test_minimal_domains(self):
        self.assertEqual(self.s.minimal_domains(), ("1", "2", "3"))

    def test_derived_notions_match_subsets(self):
        def name(a):
            return "".join(sorted(a))
        s = self.s
        disjoint = sorted((u, v) for u, v in itertools.combinations(B3_IDS, 2)
                          if not b3_set(u) & b3_set(v))
        self.assertEqual(sorted(tuple(sorted(e))
                                for e in s.orth_graph(B3_IDS).edges()),
                         sorted(tuple(sorted(e)) for e in disjoint))
        for u in B3_IDS:
            # singletons of u, pairwise disjoint: one family
            self.assertEqual(s.families(u), (tuple(sorted(u)),))
            rest = set("123") - b3_set(u)
            self.assertEqual(s.complement(u), name(rest) if rest else None)
        for r in range(3):
            for parts in itertools.combinations(B3_IDS, r):
                used = set().union(*(b3_set(p) for p in parts))
                self.assertEqual(s.bar_link(parts), frozenset(set("123") - used))
        for u, v in itertools.product(B3_IDS, repeat=2):
            common = b3_set(u) & b3_set(v)
            self.assertEqual(s.maximal_lower_bounds(u, v),
                             (name(common),) if common else ())
            self.assertEqual(s.weak_wedge_candidates(u, v),
                             (name(common),) if common else None)


class TestSingleDomain(unittest.TestCase):

    def test_everything_vacuously_true(self):
        s = IndexSet(["S"], [], [])
        self.assertEqual(s.top, "S")
        self.assertEqual(relation(s, "S", "S"), EQUAL)
        self.assertEqual(wedge(s, "S", "S"), "S")
        self.assertEqual(depth_stats(s, "S"), {"co_level": 0, "level": 0})
        self.assertEqual(split_info(s, "S"), {"split": True, "samaritans": ("S",)})
        for rep in check_all_properties(s):
            self.assertTrue(rep.verdict, msg=rep.line())


class TestValidationErrors(unittest.TestCase):

    def test_orth_reflexive_message(self):
        with self.assertRaises(IndexSetError) as cm:
            IndexSet(["S", "U"], [("U", "S")], [("U", "U")])
        self.assertEqual(str(cm.exception),
                         "orthogonality anti-reflexive violated, witness U")

    def test_derived_orth_reflexive(self):
        # a domain below both sides of an orthogonal pair becomes orthogonal
        # to itself under closure
        with self.assertRaises(IndexSetError) as cm:
            IndexSet(["S", "U", "V", "W"],
                     [("U", "S"), ("V", "S"), ("W", "U"), ("W", "V")],
                     [("U", "V")])
        self.assertEqual(str(cm.exception),
                         "orthogonality anti-reflexive violated, witness W")

    def test_nesting_cycle(self):
        with self.assertRaises(IndexSetError) as cm:
            IndexSet(["A", "B", "S"], [("A", "B"), ("B", "A"), ("A", "S")], [])
        self.assertEqual(str(cm.exception),
                         "nesting antisymmetry violated, witness A B")

    def test_two_maximal_domains(self):
        with self.assertRaises(IndexSetError) as cm:
            IndexSet(["A", "B"], [], [])
        self.assertEqual(str(cm.exception),
                         "unique maximal domain violated, witness A B")

    def test_orthogonal_comparable(self):
        with self.assertRaises(IndexSetError) as cm:
            IndexSet(["S", "U", "V"], [("U", "V"), ("V", "S")], [("U", "V")])
        self.assertEqual(str(cm.exception),
                         "orthogonality incomparability violated, witness U V")

    def test_container_axiom(self):
        with self.assertRaises(IndexSetError) as cm:
            IndexSet(["T", "U", "V1", "V2"],
                     [("U", "T"), ("V1", "T"), ("V2", "T")],
                     [("U", "V1"), ("U", "V2")])
        self.assertEqual(str(cm.exception),
                         "container axiom violated, witness U T")

    def test_unknown_and_duplicate_ids(self):
        with self.assertRaises(IndexSetError):
            IndexSet(["S"], [("S", "X")], [])
        with self.assertRaises(IndexSetError):
            IndexSet(["S", "S"], [], [])
        s = make_b3()
        with self.assertRaises(IndexSetError):
            relation(s, "1", "nope")


class TestWedgeFailures(unittest.TestCase):

    def make_antichain(self):
        # U and V share two incomparable lower bounds, so the strict wedge
        # has no single answer
        return IndexSet(["S", "U", "V", "W1", "W2"],
                        [("U", "S"), ("V", "S"),
                         ("W1", "U"), ("W1", "V"), ("W2", "U"), ("W2", "V")],
                        [])

    def test_strict_wedge_undefined(self):
        s = self.make_antichain()
        with self.assertRaises(IndexSetError) as cm:
            wedge(s, "U", "V")
        self.assertEqual(str(cm.exception), "wedge undefined, witness W1 W2")

    def test_wedges_property_false(self):
        s = self.make_antichain()
        rep = check_property(s, "wedges")
        self.assertFalse(rep.verdict)
        self.assertEqual(rep.witness, ("U", "V"))

    def test_weak_wedge_on_antichain(self):
        # both W1 and W2 are minimal common lower bounds; only U and V
        # contain them both, and neither is nested in the other, so even the
        # weak wedge has no least answer here
        s = self.make_antichain()
        rep = check_property(s, "weak_wedges")
        self.assertFalse(rep.verdict)
        with self.assertRaises(IndexSetError):
            wedge(s, "U", "V", weak=True)

    def test_weak_wedge_differs_from_strict(self):
        # T and X are incomparable maximal common lower bounds of U and V,
        # so the strict wedge fails; T alone holds both minimal common lower
        # bounds W1, W2, so the weak wedge picks T
        s = IndexSet(["S", "U", "V", "T", "X", "W1", "W2"],
                     [("U", "S"), ("V", "S"), ("T", "U"), ("T", "V"),
                      ("X", "U"), ("X", "V"),
                      ("W1", "T"), ("W2", "T"), ("W1", "X")],
                     [])
        with self.assertRaises(IndexSetError) as cm:
            wedge(s, "U", "V")
        self.assertEqual(str(cm.exception), "wedge undefined, witness T X")
        self.assertEqual(wedge(s, "U", "V", weak=True), "T")


class TestCleanContainers(unittest.TestCase):

    def make_dirty(self):
        # the container W holds everything orthogonal to U but is not itself
        # orthogonal to U, which satisfies the axiom yet fails cleanliness
        return IndexSet(["T", "U", "V1", "V2", "W"],
                        [("U", "T"), ("W", "T"), ("V1", "W"), ("V2", "W")],
                        [("U", "V1"), ("U", "V2")])

    def test_axiom_passes_but_not_clean(self):
        s = self.make_dirty()
        rep = check_property(s, "clean_containers")
        self.assertFalse(rep.verdict)
        self.assertEqual(rep.witness, ("U", "T"))

    def test_orth_complement_raises_when_dirty(self):
        s = self.make_dirty()
        with self.assertRaises(IndexSetError) as cm:
            orth_complement(s, ["U"], "T")
        self.assertEqual(str(cm.exception), "clean containers violated, witness U T")


class TestInvolutionMatchesOrthNesting(unittest.TestCase):

    def test_chain_both_false(self):
        # on a bare chain nothing has an orthogonal, so complements do not
        # exist and orthogonal sets cannot see the proper nesting
        s = IndexSet(["S", "A"], [("A", "S")], [])
        inv = check_property(s, "complement_involution")
        odn = check_property(s, "orth_determines_nesting")
        self.assertFalse(inv.verdict)
        self.assertFalse(odn.verdict)
        self.assertEqual(inv.witness, ("A",))

    def test_b3_both_true(self):
        s = make_b3()
        self.assertTrue(check_property(s, "complement_involution").verdict)
        self.assertTrue(check_property(s, "orth_determines_nesting").verdict)


class TestOrthogonalsForNonSplit(unittest.TestCase):

    def test_non_split_without_orthogonal_fails(self):
        # U holds two transverse minimal domains, so it is not split, and
        # nothing anywhere is orthogonal to it
        s = IndexSet(["S", "U", "m1", "m2"],
                     [("m1", "U"), ("m2", "U"), ("U", "S")], [])
        self.assertFalse(split_info(s, "U")["split"])
        self.assertTrue(split_info(s, "m1")["split"])
        rep = check_property(s, "orthogonals_for_non_split")
        self.assertFalse(rep.verdict)
        self.assertEqual(rep.witness, ("U", "S"))

    def test_strong_orth_implies_the_rest(self):
        s = make_b3()
        self.assertTrue(check_property(s, "strong_orth").verdict)
        self.assertTrue(check_property(s, "weak_orth").verdict)
        self.assertTrue(check_property(s, "orthogonals_for_non_split").verdict)
        self.assertTrue(check_property(s, "orthogonal_set").verdict)


class TestOrthogonalSetOracle(unittest.TestCase):
    """The orthogonal-set check, which reads IndexSet.complement, gives
    the verdict and witness of the oracle that re-checks the construction
    invariants and searches every domain for each complement."""

    def agree(self, s):
        witness = oracle_orthogonal_set(s)
        rep = check_property(s, "orthogonal_set")
        self.assertEqual((rep.verdict, rep.witness), (witness is None, witness))
        return witness

    def test_generated(self):
        outcomes = set()
        for s in random_index_sets(random.Random(1), 20000):
            witness = self.agree(s)
            outcomes.add("true" if witness is None
                         else "complement" if len(witness) == 1 else "pair")
        # every outcome is met: true, failing at the complement step, and
        # failing at a pair (wedges or orth_determines_nesting)
        self.assertEqual(outcomes, {"true", "complement", "pair"})

    def test_shipped(self):
        for path in ("fixtures/b3.idx", "fixtures/o6.idx",
                     "perfbench/data/gamma6.idx"):
            with self.subTest(path=path):
                with open(os.path.join(ROOT, path)) as handle:
                    self.agree(load_index_set(handle.read()))
        for depth in range(1, 9):
            with self.subTest(depth=depth):
                self.agree(cubes.index_set_from_hyperclosure(
                    cubes.build_counterexample(depth)).index)


class TestFileFormat(unittest.TestCase):

    B3_TEXT = """\
# tiny boolean example
domain 1
domain 2
domain 3
domain 12
domain 13
domain 23
domain 123
nest 1 12
nest 1 13
nest 2 12
nest 2 23
nest 3 13
nest 3 23
nest 12 123
nest 13 123
nest 23 123
orth 1 23
orth 2 13
orth 3 12
"""

    def test_load_matches_constructor(self):
        self.assertEqual(load_index_set(self.B3_TEXT), make_b3())

    def test_round_trip(self):
        s = make_b3()
        text = dump_index_set(s)
        self.assertEqual(load_index_set(text), s)
        self.assertEqual(dump_index_set(load_index_set(text)), text)

    def test_closure_from_generators(self):
        # transitive nesting and inherited orthogonality are filled in
        s = load_index_set(self.B3_TEXT)
        self.assertTrue(s.nested("1", "123"))
        self.assertEqual(relation(s, "1", "2"), ORTHOGONAL)
        self.assertEqual(relation(s, "12", "3"), ORTHOGONAL)

    def test_parse_errors(self):
        with self.assertRaises(IndexSetError):
            load_index_set("domain a.b\n")
        with self.assertRaises(IndexSetError):
            load_index_set("domain A\nnest A\n")
        with self.assertRaises(IndexSetError):
            load_index_set("domain A\nnonsense A B\n")
        with self.assertRaises(IndexSetError):
            load_index_set("")
        with self.assertRaises(IndexSetError):
            load_index_set("domain A\ndomain A\n")

    def test_comments_and_blank_lines(self):
        s = load_index_set("\n# header\ndomain S   # trailing\n\n")
        self.assertEqual(s.domains, ("S",))


class TestPropertyReport(unittest.TestCase):

    def test_false_line_format(self):
        rep = PropertyReport("wedges", False, ("U", "V"))
        self.assertEqual(rep.line(), "property=wedges verdict=false witness=U,V")

    def test_unknown_property(self):
        with self.assertRaises(IndexSetError):
            check_property(make_b3(), "bogus")

    def test_names_cover_dispatcher(self):
        s = make_b3()
        self.assertEqual(len(indexset.PROPERTY_NAMES), 9)
        for name in indexset.PROPERTY_NAMES:
            check_property(s, name)


if __name__ == "__main__":
    unittest.main()
