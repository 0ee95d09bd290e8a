import itertools
import random
import unittest
from unittest import mock

import networkx as nx

from hhsforge import cubes
from hhsforge.cubes import CubeError
from hhsforge.graph import Graph
from hhsforge.indexset import PropertyReport, check_property, split_info
from hhsforge.model import check_metric_property

from helpers import as_nx, crossing, make_b3, mask_gate_image, on_ctx
from test_cube_kernel import oracle_complement_at


def square():
    g = nx.Graph()
    g.add_edges_from([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    return g


def single_edge():
    g = nx.Graph()
    g.add_edge("a", "b")
    return g


class TestMedianValidation(unittest.TestCase):

    def test_square_accepted(self):
        cubes.validate_median_graph(square())

    def test_triangle_rejected_with_witness(self):
        g = nx.Graph()
        g.add_edges_from([("x", "y"), ("y", "z"), ("z", "x")])
        with self.assertRaises(CubeError) as err:
            cubes.validate_median_graph(g)
        self.assertEqual(str(err.exception), "not median, witness x y z")

    def test_small_grid_accepted(self):
        cubes.validate_median_graph(cubes.grid_complex(3, 3))

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        g.add_node("c")
        with self.assertRaises(CubeError):
            cubes.validate_median_graph(g)

    def test_five_cycle_rejected(self):
        g = nx.cycle_graph(5)
        g = nx.relabel_nodes(g, dict((i, "v%d" % i) for i in g.nodes()))
        with self.assertRaises(CubeError):
            cubes.validate_median_graph(g)


class TestHyperplanes(unittest.TestCase):

    def test_single_edge(self):
        hs = cubes.hyperplanes(single_edge())
        self.assertEqual(len(hs), 1)
        self.assertEqual(sorted(sorted(s) for s in hs[0].sides),
                         [["a"], ["b"]])

    def test_square_has_two_classes(self):
        hs = cubes.hyperplanes(square())
        self.assertEqual(len(hs), 2)
        for h in hs:
            self.assertEqual(len(h.edges), 2)
            self.assertEqual(sorted(len(x) for x in h.halfspaces), [2, 2])

    def test_cube_halfspaces(self):
        hs = cubes.hyperplanes(cubes.b3_cube())
        self.assertEqual(len(hs), 3)
        for h in hs:
            self.assertEqual(sorted(len(x) for x in h.halfspaces), [4, 4])

    def test_labelled_classes_use_labels(self):
        g = cubes.build_counterexample(1)
        ids = sorted(h.hid for h in cubes.hyperplanes(g))
        for name in ("-1", "0", "1", "2", "3", "Sigma", "Delta",
                     "Gamma1", "Gamma2"):
            self.assertIn(name, ids)

    def test_halfspaces_partition(self):
        g = cubes.grid_complex(4, 4)
        for h in cubes.hyperplanes(g):
            self.assertEqual(len(h.halfspaces[0]) + len(h.halfspaces[1]),
                             g.number_of_nodes())
            self.assertFalse(h.halfspaces[0] & h.halfspaces[1])


class TestGates(unittest.TestCase):

    def test_grid_column_example(self):
        g = cubes.grid_complex(7, 7)
        column = ["0_%d" % j for j in range(7)]
        self.assertEqual(cubes.gate(g, "3_4", column), "0_4")

    def test_empty_target(self):
        with self.assertRaises(CubeError) as err:
            cubes.gate(square(), "a", [])
        self.assertEqual(str(err.exception), "gate target empty")

    def test_non_convex_target(self):
        with self.assertRaises(CubeError) as err:
            cubes.gate(square(), "a", ["b", "d"])
        self.assertIn("gate target not convex", str(err.exception))

    def test_gate_matches_nearest_on_rectangles(self):
        g = cubes.grid_complex(7, 7)
        dist = dict(nx.all_pairs_shortest_path_length(as_nx(g)))
        rng = random.Random(7)
        for _ in range(10):
            i0, i1 = sorted(rng.randrange(7) for _ in range(2))
            j0, j1 = sorted(rng.randrange(7) for _ in range(2))
            box = ["%d_%d" % (i, j) for i in range(i0, i1 + 1)
                   for j in range(j0, j1 + 1)]
            x = "%d_%d" % (rng.randrange(7), rng.randrange(7))
            nearest = min(sorted(box), key=lambda v: dist[x][v])
            self.assertEqual(cubes.gate(g, x, box), nearest)

    def test_gate_idempotent(self):
        g = cubes.grid_complex(5, 5)
        column = ["2_%d" % j for j in range(5)]
        for x in column:
            self.assertEqual(cubes.gate(g, x, column), x)

    def test_gate_composition_crossing_identity(self):
        g = cubes.grid_complex(4, 4)
        hc = cubes.hyperclosure(g)
        reps = [hc.classes[c].rep for c in hc.order]
        for fa, fb in itertools.permutations(reps, 2):
            image = on_ctx(mask_gate_image, g, fa, fb)
            self.assertEqual(on_ctx(crossing, g, image),
                             on_ctx(crossing, g, fa) &
                             on_ctx(crossing, g, fb))


def parallel_class(g, f):
    """The key of the convex set f and the sets crossed by exactly it."""
    key = on_ctx(crossing, g, f)
    return key, cubes._members(cubes._ctx(g), key)


class TestParallelism(unittest.TestCase):

    def test_grid_columns_form_one_class(self):
        g = cubes.grid_complex(7, 7)
        column = frozenset("0_%d" % j for j in range(7))
        _, members = parallel_class(g, column)
        self.assertEqual(len(members), 7)
        self.assertEqual(members[0], column)

    def test_members_are_isometric(self):
        g = cubes.build_counterexample(2)
        line = frozenset(["o", "r1", "r2", "r3", "b1", "b2"])
        key, members = parallel_class(g, line)
        self.assertEqual(len(members), 3)
        shape = sorted(d for _, d in as_nx(g).subgraph(line).degree())
        for member in members:
            self.assertEqual(sorted(d for _, d in
                                    as_nx(g).subgraph(member).degree()),
                             shape)
            self.assertEqual(on_ctx(crossing, g, member), key)


class TestComplement(unittest.TestCase):
    """The complement key of the class of a convex set f against the key
    of the complement set that spans a product with f."""

    def check(self, g, f, comp):
        hc = cubes.hyperclosure(g)
        keys = cubes._complement_keys(cubes._ctx(g), hc)
        self.assertEqual(keys[hc.by_key[on_ctx(crossing, g, f)]],
                         on_ctx(crossing, g, comp))

    def test_whole_complex_gives_base(self):
        g = square()
        self.check(g, g.nodes(), ["a"])

    def test_square_edge_complement(self):
        self.check(square(), ["a", "b"], ["a", "d"])

    def test_grid_column_complement_is_row(self):
        self.check(cubes.grid_complex(7, 7),
                   ("0_%d" % j for j in range(7)),
                   ("%d_4" % i for i in range(7)))

    def test_red_ray_complement_is_tripod(self):
        self.check(cubes.build_counterexample(2), ["o", "r1", "r2", "r3"],
                   ["o", "sv_o", "dv_o", "gv1_o"])

    def test_base_outside_rejected(self):
        with self.assertRaises(CubeError):
            on_ctx(oracle_complement_at, square(), ["a", "b"], "c")


class TestHyperclosure(unittest.TestCase):

    def test_key_without_member_is_an_error(self):
        """Off median graphs the closure may reach a key that no convex
        set crosses exactly: two triangles on the edge v1 v2, with a
        pendant edge at v1, where the cut of v1 v2 runs through both
        triangles."""
        g = nx.Graph([("v0", "v1"), ("v1", "v2"), ("v1", "v3"),
                      ("v1", "v4"), ("v2", "v3"), ("v2", "v4")])
        with self.assertRaises(CubeError) as err:
            cubes.validate_median_graph(g)
        self.assertEqual(str(err.exception), "not median, witness v0 v2 v3")
        with self.assertRaises(CubeError) as err:
            cubes.hyperclosure(g)
        self.assertEqual(str(err.exception),
                         "no convex set crosses exactly h1")

    def test_single_edge_only_top(self):
        hc = cubes.hyperclosure(single_edge())
        self.assertEqual(len(hc), 1)
        self.assertEqual(hc.classes[hc.top].rep, frozenset(["a", "b"]))

    def test_square_three_classes(self):
        hc = cubes.hyperclosure(square())
        self.assertEqual(len(hc), 3)
        keys = sorted(sorted(hc.classes[c].key) for c in hc.order)
        self.assertEqual(keys, [["h0"], ["h0", "h1"], ["h1"]])

    def test_square_closure_is_minimal(self):
        # every class is forced: the two edge classes are hyperplane
        # sides and the whole square is the ambient member
        hc = cubes.hyperclosure(square())
        forced = set()
        for h in cubes.hyperplanes(square()):
            for side in h.sides:
                forced.add(on_ctx(crossing, square(), side))
        self.assertTrue(all(hc.classes[c].key in forced or c == hc.top
                            for c in hc.order))

    def test_grid_classes(self):
        g = cubes.grid_complex(7, 7)
        hc = cubes.hyperclosure(g)
        self.assertEqual(len(hc), 3)
        sizes = sorted((len(hc.classes[c].key), len(hc.classes[c].rep),
                        len(hc.classes[c].members)) for c in hc.order)
        self.assertEqual(sizes, [(6, 7, 7), (6, 7, 7), (12, 49, 1)])

    def test_cube_matches_subset_index(self):
        g = cubes.b3_cube()
        m = cubes.index_set_from_hyperclosure(g)
        b3 = make_b3()
        pairing = {}
        for cid in m.index.domains:
            key = sorted(m.hyperclosure.classes[cid].key)
            pairing[cid] = "".join(str(int(h[1]) + 1) for h in key)
        self.assertEqual(sorted(pairing.values()), sorted(b3.domains))
        for a, b in itertools.combinations(m.index.domains, 2):
            self.assertEqual(b in m.index.orth[a],
                             pairing[b] in b3.orth[pairing[a]])
            self.assertEqual(b in m.index.up[a],
                             pairing[b] in b3.up[pairing[a]])


class TestCounterexample(unittest.TestCase):

    def test_depth_one_frozen_counts(self):
        g = cubes.build_counterexample(1)
        self.assertEqual(g.number_of_nodes(), 35)
        self.assertEqual(g.number_of_edges(), 52)
        cubes.validate_median_graph(g)
        self.assertEqual(len(cubes.hyperplanes(g)), 16)
        self.assertEqual(len(cubes.hyperclosure(g)), 23)

    def test_class_count_grows_linearly(self):
        for depth in (2, 3):
            g = cubes.build_counterexample(depth)
            cubes.validate_median_graph(g)
            self.assertEqual(len(cubes.hyperclosure(g)), 4 * depth + 21)

    def test_every_line_label_present(self):
        g = cubes.build_counterexample(3)
        ids = set(h.hid for h in cubes.hyperplanes(g))
        for n in range(1, 8):
            self.assertIn(str(n), ids)

    def test_gamma_rails_cross_alternate_labels(self):
        g = cubes.build_counterexample(3)
        for h in cubes.hyperplanes(g):
            if h.hid == "Gamma1":
                numeric = set(k for k in on_ctx(crossing, g, h.sides[0])
                              if k.lstrip("-").isdigit())
                self.assertEqual(numeric, set(["1", "3", "5", "7"]))
            if h.hid == "Gamma2":
                numeric = set(k for k in on_ctx(crossing, g, h.sides[0])
                              if k.lstrip("-").isdigit())
                self.assertEqual(numeric, set(["2", "4", "6"]))

    def test_bad_depth(self):
        with self.assertRaises(CubeError):
            cubes.build_counterexample(0)

    def test_hyperbolicity_stays_flat(self):
        for depth in (2, 4, 6):
            g = cubes.build_counterexample(depth)
            self.assertEqual(cubes.four_point_delta(g), 2.0)

    def test_boundary_flags(self):
        g = cubes.build_counterexample(2)
        hc = cubes.hyperclosure(g)
        odd = hc.by_key[frozenset(["1", "3", "5"])]
        self.assertTrue(hc.classes[odd].boundary)
        for cid in hc.order:
            if hc.classes[cid].minimal:
                self.assertFalse(hc.classes[cid].boundary)


class TestComplementInvolution(unittest.TestCase):

    def test_fixtures(self):
        for g in (square(), cubes.grid_complex(5, 5),
                  cubes.build_counterexample(2)):
            report = cubes.check_complement_involution(g)
            self.assertTrue(report.verdict)

    def test_matches_recomputed_complements(self):
        # the check reads one table of complement keys; the reference
        # below computes each class's complement and its complement's
        # again by gate images, also when the key of the first class's
        # complement or of its partner's is bent to that of the whole
        # complex or of the base vertex
        real = cubes._complement_keys

        def recomputed(g, hc, bend):
            ctx = cubes._ctx(g)

            def comp(rec):
                if rec.id in bend:
                    return bend[rec.id]
                return crossing(ctx, oracle_complement_at(
                    ctx, rec.rep, min(rec.rep)))

            for cid in hc.order:
                if cid == hc.top:
                    continue
                key = comp(hc.classes[cid])
                if key not in hc.by_key:
                    return PropertyReport("complement_involution", False,
                                          (cid,))
                back = hc.by_key[key]
                if comp(hc.classes[back]) != hc.classes[cid].key:
                    return PropertyReport("complement_involution", False,
                                          (cid, back))
            return PropertyReport("complement_involution", True)

        for g in (square(), cubes.grid_complex(4, 5),
                  cubes.build_counterexample(2)):
            hc = cubes.hyperclosure(g)
            first = hc.order[0]
            partner = hc.by_key[real(cubes._ctx(g), hc)[first]]
            whole = hc.classes[hc.top].key
            for name, bend in (("none", {}),
                               ("first to whole", {first: whole}),
                               ("first to base", {first: frozenset()}),
                               ("partner to base", {partner: frozenset()})):
                def complement_keys(ctx, hc):
                    return dict(real(ctx, hc), **bend)

                with self.subTest(bend=name), mock.patch.object(
                        cubes, "_complement_keys",
                        side_effect=complement_keys):
                    want = recomputed(g, hc, bend)
                    self.assertEqual(cubes.check_complement_involution(g, hc),
                                     want)
                    self.assertEqual(want.verdict, not bend)

    def test_counterexample_pairing_table(self):
        g = cubes.build_counterexample(2)
        hc = cubes.hyperclosure(g)
        odd = frozenset(["1", "3", "5"])
        even = frozenset(["2", "4"])
        line = odd | even
        table = [
            (odd, frozenset(["Sigma", "Delta", "Gamma1"])),
            (even, frozenset(["Sigma", "Delta", "Gamma2"])),
            (line, frozenset(["Sigma", "Delta"])),
            (frozenset(["0"]), frozenset(["Sigma", "psi0"])),
            (frozenset(["-1"]), frozenset(["Delta", "psi-1"])),
            (frozenset(["Sigma"]), frozenset(["0"]) | line),
            (frozenset(["Gamma1"]), odd | frozenset(["chi1"])),
            (frozenset(["3"]),
             frozenset(["Sigma", "Delta", "Gamma1", "phi3"])),
        ]
        comp = cubes._complement_keys(cubes._ctx(g), hc)
        for key, expected in table:
            self.assertEqual(comp[hc.by_key[key]], expected)
            self.assertEqual(comp[hc.by_key[expected]], key)


class TestModelExtraction(unittest.TestCase):

    def test_square_model(self):
        m = cubes.index_set_from_hyperclosure(square())
        self.assertEqual(len(m.index), 3)
        a, b = sorted(m.index.minimal_domains())
        self.assertIn(b, m.index.orth[a])
        self.assertEqual(m.E, 1)

    def test_grid_model(self):
        g = cubes.grid_complex(7, 7)
        m = cubes.index_set_from_hyperclosure(g)
        self.assertEqual(m.E, 3)
        col, row = sorted(m.index.minimal_domains())
        self.assertIn(row, m.index.orth[col])
        bare = m.coord_graphs[col]
        self.assertEqual((bare.number_of_nodes(), bare.number_of_edges()),
                         (7, 6))
        top = m.coord_graphs[m.index.top]
        self.assertEqual((top.number_of_nodes(), top.number_of_edges()),
                         (63, 182))

    def test_grid_projections_are_gates(self):
        g = cubes.grid_complex(7, 7)
        m = cubes.index_set_from_hyperclosure(g)
        hc = m.hyperclosure
        col = hc.by_key[on_ctx(crossing, g,
                               ("0_%d" % j for j in range(7)))]
        self.assertEqual(m.named.pi[(col, "3_4")],
                         frozenset([cubes.gate(g, "3_4",
                                               hc.classes[col].rep)]))

    def test_counterexample_verdicts(self):
        g = cubes.build_counterexample(2)
        m = cubes.index_set_from_hyperclosure(g)
        s = m.index
        self.assertTrue(check_property(s, "orthogonal_set").verdict)
        self.assertTrue(check_property(s, "complement_involution").verdict)
        self.assertTrue(check_property(s, "orth_determines_nesting").verdict)
        self.assertFalse(check_property(s, "strong_orth").verdict)
        self.assertFalse(
            check_property(s, "orthogonals_for_non_split").verdict)

    def test_counterexample_witness_replay(self):
        # the odd ray is nested in the numeric halfspace class, is not
        # split, and nothing nested there is orthogonal to it
        g = cubes.build_counterexample(2)
        m = cubes.index_set_from_hyperclosure(g)
        hc = m.hyperclosure
        s = m.index
        ray = hc.by_key[frozenset(["1", "3", "5"])]
        wall = hc.by_key[frozenset(["0", "1", "2", "3", "4", "5"])]
        self.assertIn(ray, s.down[wall] - frozenset([wall]))
        self.assertFalse(split_info(s, ray)["split"])
        helpers = [w for w in s.domains
                   if w in s.orth[ray] and w in s.down[wall] and w != wall]
        self.assertEqual(helpers, [])

    def test_counterexample_metric_reports(self):
        g = cubes.build_counterexample(2)
        m = cubes.index_set_from_hyperclosure(g)
        report = check_metric_property(m, "dpr")
        self.assertTrue(report.verdict)
        self.assertEqual((report.constant, m.E), (3, 3))


class TestFigureAdjacency(unittest.TestCase):

    def test_depth_six_matches_figure(self):
        g = cubes.build_counterexample(6)
        m = cubes.index_set_from_hyperclosure(g)
        hc = m.hyperclosure
        keep = {}
        for cid in hc.order:
            rec = hc.classes[cid]
            if not rec.minimal or rec.boundary:
                continue
            label = min(rec.key)
            if label.lstrip("-").isdigit() and not -1 <= int(label) <= 9:
                continue
            keep[label] = cid
        expected = set()
        for n in range(0, 10):
            expected.add(tuple(sorted((str(n), "Sigma"))))
        for n in [-1] + list(range(1, 10)):
            expected.add(tuple(sorted((str(n), "Delta"))))
        for n in range(1, 10, 2):
            expected.add(tuple(sorted((str(n), "Gamma1"))))
        for n in range(2, 10, 2):
            expected.add(tuple(sorted((str(n), "Gamma2"))))
        got = set()
        for a, b in itertools.combinations(sorted(keep), 2):
            if keep[b] in m.index.orth[keep[a]]:
                got.add(tuple(sorted((a, b))))
        self.assertEqual(got, expected)


class TestContextFollowsTheGraph(unittest.TestCase):
    """A graph analysed once and changed afterwards, or a copy changed
    after the original was analysed, gives what a fresh graph with the
    same edges gives."""

    def check_chord(self, g):
        cubes.validate_median_graph(g)
        self.assertEqual(cubes.four_point_delta(g), 1.0)
        g.add_edge("a", "c")
        self.assertEqual(cubes.four_point_delta(g), 0.5)
        with self.assertRaises(CubeError) as err:
            cubes.validate_median_graph(g)
        self.assertEqual(str(err.exception), "not median, witness a b c")

    def test_chord_added_to_the_graph(self):
        g = Graph()
        g.add_edges_from([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        self.check_chord(g)

    def test_chord_added_to_a_copy(self):
        g = square()
        cubes.validate_median_graph(g)
        self.check_chord(nx.Graph(g))
        # the original keeps its own analysis
        self.assertEqual(cubes.four_point_delta(g), 1.0)

    def test_relabelled_edges_give_new_ids(self):
        g = Graph()
        for a, b, label in (("a", "b", "x"), ("c", "d", "x"),
                            ("b", "c", "y"), ("d", "a", "y")):
            g.add_edge(a, b, label=label)
        self.assertEqual([h.hid for h in cubes.hyperplanes(g)], ["x", "y"])
        g.add_edge("a", "b", label="z")
        g.add_edge("c", "d", label="z")
        self.assertEqual(sorted(h.hid for h in cubes.hyperplanes(g)),
                         ["y", "z"])


class TestFilesAndExport(unittest.TestCase):

    def test_complex_round_trip(self):
        for depth in (1, 4):
            g = cubes.build_counterexample(depth)
            text = cubes.dump_complex(g)
            h = cubes.load_complex(text)
            self.assertEqual(text, cubes.dump_complex(h))
            self.assertEqual(sorted(g.nodes()), sorted(h.nodes()))
            self.assertEqual(g.graph["rim"], h.graph["rim"])

    def test_unlabelled_round_trip(self):
        text = cubes.dump_complex(cubes.grid_complex(3, 3))
        h = cubes.load_complex(text)
        self.assertEqual(h.number_of_edges(), 12)

    def test_parse_error(self):
        with self.assertRaises(CubeError) as err:
            cubes.load_complex("vertex a\nwedge a b\n")
        self.assertIn("line 2", str(err.exception))

    def test_loop_edge_is_a_parse_error(self):
        for edge in ("edge a a", "edge a a 7"):
            with self.assertRaises(CubeError) as err:
                cubes.load_complex("vertex a\nvertex b\n%s\n" % edge)
            self.assertIn("line 3: edge from a to itself", str(err.exception))

    def test_relabelled_edge_is_a_parse_error(self):
        for second, said in (("edge b a y", "label y, first with label x"),
                             ("edge a b", "no label, first with label x")):
            with self.assertRaises(CubeError) as err:
                cubes.load_complex("edge a b x\n%s\n" % second)
            self.assertEqual(str(err.exception),
                             "line 2: edge %s given again with %s"
                             % (" ".join(second.split()[1:3]), said))

    def test_repeated_edge_counts_once(self):
        # an edge line may bring its own vertices, and may come twice
        for text in ("edge a b\nedge b a\n", "edge a b 7\nedge a b 7\n"):
            g = cubes.load_complex(text)
            self.assertEqual(sorted(g.nodes()), ["a", "b"])
            self.assertEqual(g.number_of_edges(), 1)

    def test_rim_must_name_a_vertex(self):
        with self.assertRaises(CubeError) as err:
            cubes.load_complex("rim zz\nedge a b\nrim a\n")
        self.assertEqual(str(err.exception),
                         "line 1: rim vertex zz is not a vertex")
        g = cubes.load_complex("edge a b\nrim b\nrim a\n")
        self.assertEqual(g.graph["rim"], ("a", "b"))

    def test_minimal_orth_dot(self):
        g = cubes.grid_complex(7, 7)
        m = cubes.index_set_from_hyperclosure(g)
        text = cubes.minimal_orth_dot(m.hyperclosure, m.index)
        self.assertEqual(text, 'graph minorth {\n  "[c0]";\n  "[c1]";\n'
                               '  "[c0]" -- "[c1]";\n}\n')


if __name__ == "__main__":
    unittest.main()
