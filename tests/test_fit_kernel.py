"""The one (K, C) fit, `model.fit_table`, and the rules its callers pick
a slope by, against the scalar loops of tests/helpers.py.

`distance_profile` and the class graphs take the least (C, K)
(`least_fit`), `realisation_qi` the least (C + K, K) (`cheapest_fit`).
Random arrays go through the kernel, and through `distance_profile` and
`realisation_qi` on stand-ins for a model and W that hold them; the
class graphs' rule is checked in tests/test_chhs_kernel.py.  Fixed
cases pin the empty input, all zeros, ties between slopes under each
rule, segments of one entry and the values at which the kernel's
integer type must grow past 8 and 16 bits.  A memory guard keeps both
callers from holding index arrays of the pairs they fit.
"""

import math
import tracemalloc
import types

import numpy as np
import pytest

from hhsforge import cubes
from hhsforge.chhs import blow_up, build_w, realisation_qi
from hhsforge.model import MAX_SLOPE, distance_profile, fit_table

from helpers import cheapest_fit, least_fit
from test_graph_kernel import given

# values whose largest term, max(ys) + MAX_SLOPE * max(xs), sits at or
# next to the largest 8- and 16-bit signed ints
EDGES = (7, 8, 12, 13, 127, 128, 3276, 3277, 32767, 32768)


def values():
    st = pytest.importorskip("hypothesis").strategies
    return st.one_of(st.integers(0, 15), st.sampled_from(EDGES))


def slope_constants(ys, xs):
    """The least C >= 0 at each slope, one scalar pair at a time."""
    return [max([0] + [y - k * x for y, x in zip(ys, xs)])
            for k in range(1, MAX_SLOPE + 1)]


def as_arrays(ys, xs, small):
    """Both lists as arrays: in the least unsigned type that holds them,
    as class graph distances come, or as int64."""
    dtype = np.min_scalar_type(max(ys + xs, default=0)) if small else np.int64
    return np.array(ys, dtype=dtype), np.array(xs, dtype=dtype)


def check_table(segments, small=False):
    ys = [y for seg in segments for y, _ in seg]
    xs = [x for seg in segments for _, x in seg]
    starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    table = fit_table(*as_arrays(ys, xs, small), starts)
    assert table.shape == (MAX_SLOPE, len(segments))
    for i, seg in enumerate(segments):
        assert table[:, i].tolist() == slope_constants(*zip(*seg))


def test_table_on_random_segments():
    st = pytest.importorskip("hypothesis").strategies

    @given(st.tuples(
        st.lists(st.lists(st.tuples(values(), values()), min_size=1,
                          max_size=6), min_size=1, max_size=5),
        st.booleans()))
    def check(spec):
        check_table(*spec)

    check()


@pytest.mark.parametrize("segments", [
    # all zeros
    [[(0, 0)] * 3],
    # segments of one entry; C = 0 at no slope, then at every slope
    [[(5, 0)], [(0, 5)], [(3, 1)], [(0, 0)]],
    # the 8-bit edge: largest terms 127 and 128, on either side
    [[(127, 0)]], [[(128, 0)]], [[(7, 12)], [(0, 12)]], [[(8, 12)]],
    [[(0, 13)]], [[(128, 13)]],
    # the 16-bit edge
    [[(32767, 0)]], [[(32768, 0)]], [[(7, 3276)], [(0, 3276)]],
    [[(8, 3276)]], [[(0, 3277)]], [[(32768, 3277), (0, 1)]],
])
def test_table_on_fixed_segments(segments):
    check_table(segments)
    check_table(segments, small=True)


def test_empty_input():
    empty = np.zeros(0, dtype=np.int32)
    assert fit_table(empty, empty, [0]).tolist() == [[0]] * MAX_SLOPE
    assert profile(np.zeros((1, 1, 1), dtype=int), np.zeros((1, 1)), 0) \
        == {"threshold": 0, "K": 1, "C": 0}
    qi = realisation(np.zeros((1, 1)), np.zeros((1, 1)))
    assert (qi["lower"], qi["upper"]) == ((1, 0), (1, 0))


# -- the rules, through their callers ----------------------------------


def profile(gaps, space, threshold):
    """distance_profile of a stand-in model: one domain per matrix of
    point gaps, and the point-graph distances."""
    metrics = dict((i, types.SimpleNamespace(point_gap=lambda g=g: g))
                   for i, g in enumerate(gaps))
    m = types.SimpleNamespace(metrics=metrics, points=range(len(space)),
                              point_dist=space)
    return distance_profile(m, threshold)


def realisation(space, dw):
    """realisation_qi of a stand-in model and W whose i-th simplex is
    realised by the i-th point: space holds the point distances, dw W's
    distances (inf where W does not join)."""
    m = types.SimpleNamespace(point_dist=space,
                              point_index=dict((i, i) for i in range(len(space))))
    w = types.SimpleNamespace(points=list(range(len(space))),
                              adj=dw == 1, distances=dw, realisation_defect=0)
    return realisation_qi(m, w)


def symmetric(flat, n):
    """An n x n symmetric int64 matrix with a zero diagonal, its upper
    triangle filled row by row from flat."""
    out = np.zeros((n, n), dtype=np.int64)
    out[np.triu_indices(n, 1)] = flat[:n * (n - 1) // 2]
    return out + out.T


def matrices():
    """(n, three flat upper triangles of n points)."""
    st = pytest.importorskip("hypothesis").strategies
    return st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), *(st.lists(values(), min_size=15, max_size=15)
                      for _ in range(3))))


def test_profile_rule_on_random_matrices():
    st = pytest.importorskip("hypothesis").strategies

    @given(st.tuples(matrices(), st.integers(0, 14)))
    def check(spec):
        (n, a, b, c), threshold = spec
        gaps = [symmetric(a, n), symmetric(b, n)]
        space = symmetric(c, n)
        upper = np.triu_indices(n, 1)
        est = sum(np.where(g > threshold, g, 0) for g in gaps)[upper]
        k, c = least_fit((est, space[upper]), (space[upper], est))
        assert profile(np.array(gaps), space, threshold) == \
            {"threshold": threshold, "K": k, "C": c}

    check()


def test_realisation_rule_on_random_matrices():
    st = pytest.importorskip("hypothesis").strategies

    @given(st.tuples(matrices(), st.booleans()))
    def check(spec):
        (n, a, b, _), cut = spec
        space, dw = symmetric(a, n), symmetric(b, n).astype(float)
        if cut and n > 1:
            dw[0, 1] = dw[1, 0] = math.inf
        qi = realisation(space, dw)
        upper = np.triu_indices(n, 1)
        dz, dw = space[upper], dw[upper]
        if np.isinf(dw).any():
            assert (qi["lower"], qi["upper"]) == (None, None)
        else:
            dw = dw.astype(np.int64)
            assert (qi["lower"], qi["upper"]) == (cheapest_fit(dw, dz),
                                                  cheapest_fit(dz, dw))
            assert all(type(v) is int for v in qi["lower"] + qi["upper"])

    check()


def test_ties_go_to_the_flatter_slope():
    """ys = 2, xs = 1: C is 1 at K = 1 and 0 from K = 2 on, so the least
    (C, K) is K = 2 and the least (C + K, K) ties K = 1 with K = 2."""
    two, one = np.full((2, 2), 2), np.full((2, 2), 1)
    np.fill_diagonal(two, 0)
    np.fill_diagonal(one, 0)
    assert profile(np.array([two]), one, 0) == \
        {"threshold": 0, "K": 2, "C": 0}
    qi = realisation(one, two.astype(float))
    assert (qi["lower"], qi["upper"]) == ((1, 1), (1, 0))
    # all zeros: every slope fits with C = 0
    zero = np.zeros((3, 3), dtype=int)
    assert profile(np.array([zero]), zero, 0) == \
        {"threshold": 0, "K": 1, "C": 0}
    qi = realisation(zero, zero.astype(float))
    assert (qi["lower"], qi["upper"]) == ((1, 0), (1, 0))


def test_pair_selection_memory():
    """On the 20 x 20 grid, with W built, realisation_qi peaked at 2.75
    MiB and distance_profile at 3.20 MiB while each picked the pairs by
    two index arrays of the upper triangle; a boolean mask of it holds
    the peaks near 1.7 and 2.1 MiB, with the same constants."""
    m = cubes.index_set_from_hyperclosure(cubes.grid_complex(20, 20))
    w = build_w(m, blow_up(m))
    w.distances
    values, peaks = [], []
    for measure in (lambda: realisation_qi(m, w),
                    lambda: distance_profile(m, m.kappa)):
        tracemalloc.start()
        try:
            values.append(measure())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (values[0]["lower"], values[0]["upper"]) == ((1, 0), (1, 37))
    assert (values[1]["K"], values[1]["C"]) == (1, 38)
    assert peaks[0] < 2.2 * 2 ** 20
    assert peaks[1] < 2.6 * 2 ** 20
