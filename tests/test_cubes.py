import itertools
import random
import unittest
from unittest import mock

import networkx as nx

from hhsforge import cubes
from hhsforge.cubes import CubeError
from hhsforge.indexset import check_property, split_info
from hhsforge.model import check_metric_property

from helpers import make_b3


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
        dist = dict(nx.all_pairs_shortest_path_length(g))
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
            image = cubes.gate_image(g, fa, fb)
            self.assertEqual(cubes.crossing_set(g, image),
                             cubes.crossing_set(g, fa) &
                             cubes.crossing_set(g, fb))


class TestParallelism(unittest.TestCase):

    def test_grid_columns_form_one_class(self):
        g = cubes.grid_complex(7, 7)
        column = frozenset("0_%d" % j for j in range(7))
        pc = cubes.parallel_class(g, column)
        self.assertEqual(len(pc.members), 7)
        self.assertEqual(pc.representative, column)

    def test_members_are_isometric(self):
        g = cubes.build_counterexample(2)
        line = frozenset(["o", "r1", "r2", "r3", "b1", "b2"])
        pc = cubes.parallel_class(g, line)
        self.assertEqual(len(pc.members), 3)
        shape = sorted(d for _, d in g.subgraph(line).degree())
        for member in pc.members:
            self.assertEqual(sorted(d for _, d in
                                    g.subgraph(member).degree()), shape)
            self.assertEqual(cubes.crossing_set(g, member), pc.crossing)

    def test_non_convex_seed_rejected(self):
        with self.assertRaises(CubeError):
            cubes.parallel_class(square(), ["a", "c"])

    def test_crossing_drift_is_a_cube_error(self):
        # a real check, not an assert, so it also runs under python -O
        real = cubes._crossing
        calls = []

        def drifting(ctx, g, s):
            calls.append(s)
            return real(ctx, g, s) if len(calls) == 1 else frozenset()

        with mock.patch.object(cubes, "_crossing", side_effect=drifting):
            with self.assertRaises(CubeError) as err:
                cubes.parallel_class(cubes.grid_complex(3, 3), ["0_0", "0_1"])
        self.assertIn("parallel copy changes the crossing set, witness",
                      str(err.exception))


class TestComplement(unittest.TestCase):

    def test_whole_complex_gives_base(self):
        g = square()
        nodes = frozenset(g.nodes())
        self.assertEqual(cubes.orthogonal_complement_at(g, nodes, "a"),
                         frozenset(["a"]))

    def test_square_edge_complement(self):
        g = square()
        comp = cubes.orthogonal_complement_at(g, frozenset(["a", "b"]), "a")
        self.assertEqual(comp, frozenset(["a", "d"]))

    def test_grid_column_complement_is_row(self):
        g = cubes.grid_complex(7, 7)
        column = frozenset("0_%d" % j for j in range(7))
        comp = cubes.orthogonal_complement_at(g, column, "0_4")
        self.assertEqual(comp, frozenset("%d_4" % i for i in range(7)))

    def test_red_ray_complement_is_tripod(self):
        g = cubes.build_counterexample(2)
        ray = frozenset(["o", "r1", "r2", "r3"])
        comp = cubes.orthogonal_complement_at(g, ray, "o")
        self.assertEqual(comp, frozenset(["o", "sv_o", "dv_o", "gv1_o"]))

    def test_base_outside_rejected(self):
        with self.assertRaises(CubeError):
            cubes.orthogonal_complement_at(square(), frozenset(["a", "b"]),
                                           "c")


class TestHyperclosure(unittest.TestCase):

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
                forced.add(cubes.crossing_set(square(), side))
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

    def test_gate_image_drift_is_a_cube_error(self):
        # a real check, not an assert, so it also runs under python -O
        with mock.patch.object(cubes, "_gate_image",
                               side_effect=lambda ctx, y, f: y):
            with self.assertRaises(CubeError) as err:
                cubes.hyperclosure(cubes.b3_cube())
        self.assertIn("gate image changes the crossing set, witness",
                      str(err.exception))

    def test_depth_cap(self):
        g = cubes.build_counterexample(2)
        with self.assertRaises(CubeError) as err:
            cubes.hyperclosure(g, depth_cap=1)
        self.assertIn("did not stabilize within depth_cap", str(err.exception))

    def test_dump_format(self):
        text = cubes.dump_hyperclosure(cubes.hyperclosure(square()))
        lines = text.splitlines()
        self.assertEqual(lines[0], "# hyperclosure, 3 classes, longest chain 2")
        self.assertEqual(lines[1], "class [h0]: crossing={h0} rep={a,b}"
                                   " minimal=true boundary=false")
        self.assertEqual(lines[3], "class [c0]: crossing={h0,h1}"
                                   " rep={a,b,c,d} minimal=false"
                                   " boundary=false")


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
                numeric = set(k for k in cubes.crossing_set(g, h.sides[0])
                              if k.lstrip("-").isdigit())
                self.assertEqual(numeric, set(["1", "3", "5", "7"]))
            if h.hid == "Gamma2":
                numeric = set(k for k in cubes.crossing_set(g, h.sides[0])
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
        for key, expected in table:
            rec = hc.classes[hc.by_key[key]]
            comp = cubes.orthogonal_complement_at(g, rec.rep, min(rec.rep))
            self.assertEqual(cubes.crossing_set(g, comp), expected)
            back = hc.classes[hc.by_key[expected]]
            comp2 = cubes.orthogonal_complement_at(g, back.rep,
                                                   min(back.rep))
            self.assertEqual(cubes.crossing_set(g, comp2), key)


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
        col = hc.by_key[cubes.crossing_set(
            g, frozenset("0_%d" % j for j in range(7)))]
        self.assertEqual(m.pi[(col, "3_4")],
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
        self.assertTrue(check_metric_property(m, "normalised").verdict)
        self.assertTrue(check_metric_property(m, "bounded_split").verdict)


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


class TestFilesAndExport(unittest.TestCase):

    def test_complex_round_trip(self):
        g = cubes.build_counterexample(1)
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

    def test_minimal_orth_dot(self):
        g = cubes.grid_complex(7, 7)
        m = cubes.index_set_from_hyperclosure(g)
        text = cubes.minimal_orth_dot(m.hyperclosure, m.index)
        self.assertEqual(text, 'graph minorth {\n  "[c0]";\n  "[c1]";\n'
                               '  "[c0]" -- "[c1]";\n}\n')

    def test_coordinate_dot(self):
        m = cubes.index_set_from_hyperclosure(square())
        cid = sorted(m.index.minimal_domains())[0]
        text = cubes.coordinate_dot(m, cid)
        self.assertTrue(text.startswith("graph coords {"))
        self.assertEqual(text.count("--"), 1)


if __name__ == "__main__":
    unittest.main()
