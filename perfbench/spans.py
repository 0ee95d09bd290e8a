"""Span recorder for the traced run, installed from outside the package.

`install` replaces public functions of hhsforge's modules with wrappers
that record one span per call: name, start, end, parent span and job id.
A function is replaced in every module namespace that binds it, so a
call through `from .cubes import four_point_delta` is seen as well as a
call through `cubes.four_point_delta`.  `HHSModel.dist` gets a bare
counter instead of a span, because it runs a million times per job.

`layer_metrics` turns the spans of a pass into the per-layer metrics.
"""

import itertools
import math
import time
import tracemalloc
from collections import Counter, defaultdict

# (defining module, function, span name).  Every public function on the
# workloads' paths is listed, so the self time left to cli.main is the
# command line's own work: parsing, reading files and printing.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cubes", "load_complex", "cubes.load_complex"),
    ("cubes", "validate_median_graph", "cubes.validate_median_graph"),
    ("cubes", "hyperplanes", "cubes.hyperplanes"),
    ("cubes", "hyperclosure", "cubes.hyperclosure"),
    ("cubes", "check_complement_involution",
     "cubes.check_complement_involution"),
    ("cubes", "index_set_from_hyperclosure", "cubes.extract"),
    ("cubes", "minimal_orth_dot", "cubes.minimal_orth_dot"),
    ("cubes", "build_counterexample", "cubes.build_counterexample"),
    ("cubes", "four_point_delta", "cubes.four_point_delta"),
    ("model", "load_model", "model.load_model"),
    ("model", "measure_model", "model.measure_model"),
    ("model", "distance_profile", "model.distance_profile"),
    ("chhs", "collapse_unit_coordinates", "chhs.collapse"),
    ("chhs", "blow_up", "chhs.blow_up"),
    ("chhs", "simplices", "chhs.simplices"),
    ("chhs", "simplex_classes", "chhs.simplex_classes"),
    ("chhs", "thresholds", "chhs.thresholds"),
    ("chhs", "build_w", "chhs.build_w"),
    ("chhs", "coordinate_graph", "chhs.coordinate_graph"),
    ("chhs", "check_chhs", "chhs.check_chhs"),
    ("chhs", "realisation_qi", "chhs.realisation_qi"),
    ("indexset", "load_index_set", "indexset.load_index_set"),
    ("indexset", "check_all_properties", "indexset.check_all_properties"),
    ("lattice", "to_ortholattice", "lattice.to_ortholattice"),
    ("lattice", "is_orthomodular", "lattice.is_orthomodular"),
    ("lattice", "search_orthomodular_extension", "lattice.search"),
)

# A namespace that binds a target under its own span name: chhs imports
# four_point_delta and uses it per class, which is not a direct call.
RENAMED = {("chhs", "cubes.four_point_delta"): "chhs.class_delta"}

ROOT_SPAN = "job"

SPAN_NAMES = tuple(sorted(set(name for _, _, name in TARGETS)
                          | set(RENAMED.values()) | {ROOT_SPAN}))


class Recorder:
    """Spans, counts and sizes of one job, kept in memory until it ends.

    A span is [id, name, parent id, start, end] on the monotonic clock,
    which every process on the machine shares.  Ids start at 1; a span
    whose parent is 0 was called outside any other recorded span.
    """

    def __init__(self, job):
        self.job = job
        self.spans = []
        self.stack = [0]
        self.counts = Counter()
        self.sizes = {}
        # name -> itertools.count().__next__, for counts too hot to keep
        # in a dict; each call returns the number of calls before it
        self.tickers = {}

    def size(self, name, value):
        self.sizes[name] = max(self.sizes.get(name, 0), value)

    def wrap(self, name, func, after=None):
        """func recording one span per call; after(recorder, result)
        runs once the span has ended."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [len(spans) + 1, name, stack[-1], None, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = time.monotonic()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def dump(self):
        counts = dict(self.counts)
        counts.update((name, tick()) for name, tick in self.tickers.items())
        return {"job": self.job, "spans": self.spans, "counts": counts,
                "sizes": self.sizes}


# -- what each span adds to the counts and sizes -----------------------


def _graph_size(rec, g):
    rec.size("cubes.vertices", g.number_of_nodes())


def _closure(rec, hc):
    rec.size("cubes.hyperplanes", len(hc.hyperplanes))
    rec.size("cubes.classes", len(hc))


def _model_size(rec, m):
    rec.size("model.points", len(m.points))
    rec.size("model.domains", len(m.index.domains))


def _build_w(rec, w):
    n = len(w.simplices)
    rec.counts["chhs.w_edges"] += w.graph.number_of_edges()
    rec.counts["chhs.w_pairs"] += n * (n - 1) // 2
    rec.size("chhs.w_edges", w.graph.number_of_edges())


def _search(rec, result):
    rec.counts["lattice.targets_examined"] += result["targets_examined"]


AFTER = {
    "cubes.load_complex": _graph_size,
    "cubes.build_counterexample": _graph_size,
    "cubes.hyperclosure": _closure,
    "cubes.extract": _model_size,
    "model.load_model": _model_size,
    "chhs.collapse": _model_size,
    "chhs.simplices": lambda rec, s: rec.size("chhs.simplices", len(s)),
    "chhs.simplex_classes": lambda rec, c: rec.size("chhs.classes", len(c)),
    "chhs.build_w": _build_w,
    "lattice.search": _search,
}


def _validate_with_peak(rec, func):
    """validate_median_graph under tracemalloc, with the measured peak
    next to the 9 n^3 bytes its three n^3 arrays take by count."""

    def validate(g):
        tracemalloc.start()
        try:
            return func(g)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            n = g.number_of_nodes()
            rec.size("cubes.validate_peak_mb", peak / 2.0 ** 20)
            rec.size("cubes.validate_computed_mb", 9 * n ** 3 / 2.0 ** 20)

    return validate


def _coordinate_graph_requests(rec, func):
    """Counts requests for a (W, class) pair that was already asked for:
    the calls a per-W cache can answer, seen from outside."""
    seen = set()

    def coordinate_graph(w, c):
        key = (id(w), c if isinstance(c, str) else c.id)
        if key in seen:
            rec.counts["chhs.coordinate_graph_repeats"] += 1
        seen.add(key)
        return func(w, c)

    return coordinate_graph


def install(rec, modules):
    """Wrap every target in every module of `modules` (short name ->
    module) that binds it, and count HHSModel.dist calls."""
    for home, attr, name in TARGETS:
        original = getattr(modules[home], attr)
        wrappers = {}
        for short, module in modules.items():
            for bound, value in list(vars(module).items()):
                if value is not original:
                    continue
                span = RENAMED.get((short, name), name)
                if span not in wrappers:
                    func = original
                    if span == "cubes.validate_median_graph":
                        func = _validate_with_peak(rec, func)
                    elif span == "chhs.coordinate_graph":
                        func = _coordinate_graph_requests(rec, func)
                    wrappers[span] = rec.wrap(span, func, AFTER.get(span))
                setattr(module, bound, wrappers[span])

    model_class = modules["model"].HHSModel
    dist = model_class.dist
    tick = itertools.count().__next__

    def counted_dist(self, u, a, b):
        tick()
        return dist(self, u, a, b)

    model_class.dist = counted_dist
    rec.tickers["model.dist_calls"] = tick


# -- span arithmetic ---------------------------------------------------


def self_times(spans):
    """Self time of each span, keyed by (job, id): its duration minus
    the part of its interval that its children cover.

    A span is a dict with job, id, name, parent, start and end.
    """
    children = defaultdict(list)
    for s in spans:
        children[(s["job"], s["parent"])].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        kids = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                      for c in children[(s["job"], s["id"])])
        for start, end in kids:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[(s["job"], s["id"])] = (s["end"] - s["start"]) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, sizes, input_bytes):
    """The per-layer metrics of one traced pass.

    `spans` are the dicts of every job in the pass, root spans included;
    `counts` are summed over its jobs and `sizes` maximised.  Times
    named *_self_s are self times, other *_s times are inclusive (no
    wrapped function calls itself, so no inclusive time counts twice).
    """
    own = self_times(spans)
    total = Counter()
    mine = Counter()
    calls = Counter()
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        mine[s["name"]] += own[(s["job"], s["id"])]
        calls[s["name"]] += 1
    out = {
        "job.self_s": mine[ROOT_SPAN],
        "cli.self_s": mine["cli.main"],
        "cli.input_bytes": input_bytes,
        "cubes.load_complex_s": total["cubes.load_complex"],
        "cubes.validate_median_graph_s":
            total["cubes.validate_median_graph"],
        "cubes.validate_peak_mb": sizes.get("cubes.validate_peak_mb", 0),
        "cubes.validate_computed_mb":
            sizes.get("cubes.validate_computed_mb", 0),
        "cubes.hyperclosure_s": total["cubes.hyperclosure"],
        "cubes.extract_self_s": mine["cubes.extract"],
        "cubes.four_point_delta_s": total["cubes.four_point_delta"],
        "model.load_model_s": total["model.load_model"],
        "model.measure_model_s": total["model.measure_model"],
        "model.measure_model_calls": calls["model.measure_model"],
        "model.dist_calls": counts.get("model.dist_calls", 0),
        "model.distance_profile_s": total["model.distance_profile"],
        "chhs.collapse_self_s": mine["chhs.collapse"],
        "chhs.blow_up_s": total["chhs.blow_up"],
        "chhs.thresholds_s": total["chhs.thresholds"],
        "chhs.build_w_self_s": mine["chhs.build_w"],
        "chhs.coordinate_graph_s": total["chhs.coordinate_graph"],
        "chhs.coordinate_graph_calls": calls["chhs.coordinate_graph"],
        "chhs.coordinate_graph_hit_ratio":
            _ratio(counts.get("chhs.coordinate_graph_repeats", 0),
                   calls["chhs.coordinate_graph"]),
        "chhs.class_delta_s": total["chhs.class_delta"],
        "chhs.check_chhs_self_s": mine["chhs.check_chhs"],
        "chhs.realisation_qi_s": total["chhs.realisation_qi"],
        "chhs.w_edge_ratio": _ratio(counts.get("chhs.w_edges", 0),
                                    counts.get("chhs.w_pairs", 0)),
        "indexset.check_all_properties_s":
            total["indexset.check_all_properties"],
        "lattice.to_ortholattice_s": total["lattice.to_ortholattice"],
        "lattice.search_s": total["lattice.search"],
        "lattice.targets_examined": counts.get("lattice.targets_examined", 0),
    }
    for name in ("cubes.vertices", "cubes.hyperplanes", "cubes.classes",
                 "model.points", "model.domains", "chhs.simplices",
                 "chhs.classes", "chhs.w_edges"):
        out[name] = sizes.get(name, 0)
    return out


def layer_time(spans):
    """Self time of the layer spans: every span but the job roots and
    cli.main.  Taken from `entry_s`, the time the jobs measured inside
    their entry points, it leaves the time no layer accounts for: cli's
    own work and anything the wrapped functions miss."""
    own = self_times(spans)
    return math.fsum(own[(s["job"], s["id"])] for s in spans
                     if s["name"] not in (ROOT_SPAN, "cli.main"))
