"""The benchmark's workloads: the jobs of one pass and their known answers.

A job is one fresh-interpreter run of an hhsforge entry point.  The seed
sets the job order and, on `grid-scale`, the orientation of each grid.
Every job carries the exit code and output lines it must produce; the
constants pinned here are the ones the repository's acceptance gate
already freezes (E=3 kappa=60, the glued witnesses, grid surjectivity 0).
"""

import os
import random
from dataclasses import dataclass, field

DATA = os.path.join("perfbench", "data")

# Largest grid the benchmark may build: validate_median_graph allocates
# 9 n^3 bytes, so 225 vertices keep that under 100 MiB.
MAX_GRID_VERTICES = 225

# Default vertex count of each grid job and the rectangles a seed picks
# from.  Both orientations of one rectangle do the same work, so a new
# seed gives new inputs without moving the work done (every count is
# within 2% of the default, inside the +-10% the workload allows).
GRID_SHAPES = {
    "cubes": (169, ((12, 14), (14, 12))),
    "verify-chhs": (121, ((10, 12), (12, 10))),
    "qi-report": (81, ((8, 10), (10, 8))),
}

CONDITIONS = ("bounded_chains", "hyperbolic_links",
              "common_nesting_extension", "link_edges_fill_in",
              "simplicial_wedges", "simplicial_containers")


@dataclass
class Job:
    """One run of an entry point and the answer it must give.

    `kind` is "cli" for `hhsforge.cli.main(argv)` and "four_point_delta"
    for `cubes.four_point_delta` on the complex named in argv.  `verdicts`
    lists every `property=` line of stdout, in order; `lines` are further
    lines stdout must contain.
    """

    name: str
    kind: str
    argv: list
    code: int
    verdicts: tuple = ()
    lines: tuple = ()
    inputs: list = field(default_factory=list)
    grid: tuple = None


def check(job, code, stdout):
    """Every way the job's exit code or stdout differs from its known
    answer; an empty list means the job is correct."""
    problems = []
    if code != job.code:
        problems.append("exit code %s, expected %d" % (code, job.code))
    out = stdout.splitlines()
    verdicts = tuple(line for line in out if line.startswith("property="))
    if verdicts != tuple(job.verdicts):
        problems.append("verdict lines %r, expected %r"
                        % (verdicts, tuple(job.verdicts)))
    for line in job.lines:
        if line not in out:
            problems.append("missing line %r" % line)
    return problems


def _chhs_verdicts(false_witnesses):
    return tuple("property=%s verdict=false witness=%s"
                 % (name, false_witnesses[name])
                 if name in false_witnesses
                 else "property=%s verdict=true" % name
                 for name in CONDITIONS)


def _cli(name, argv, code, verdicts=(), lines=(), grid=None):
    inputs = [a for a in argv if a.endswith((".model", ".idx", ".cplx"))]
    return Job(name, "cli", argv, code, verdicts, lines, inputs, grid)


def complex_text(rows, cols):
    """A rows x cols square grid in the .cplx format, written the way
    `cubes.dump_complex` writes it: vertices and edges sorted by name."""
    names = ["%d_%d" % (i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append(tuple(sorted(("%d_%d" % (i, j),
                                           "%d_%d" % (i + 1, j)))))
            if j + 1 < cols:
                edges.append(tuple(sorted(("%d_%d" % (i, j),
                                           "%d_%d" % (i, j + 1)))))
    lines = ["# complex, %d vertices, %d edges" % (len(names), len(edges))]
    lines.extend("vertex %s" % v for v in sorted(names))
    lines.extend("edge %s %s" % e for e in sorted(edges))
    return "\n".join(lines) + "\n"


def grid_shapes(seed):
    """The seeded (rows, cols) of each grid job."""
    rng = random.Random(seed)
    return dict((job, rng.choice(choices))
                for job, (_, choices) in sorted(GRID_SHAPES.items()))


def glued_build(seed, workdir):
    jobs = []
    for depth, vertices, classes in ((4, 71, 37), (5, 83, 41), (6, 95, 45)):
        jobs.append(_cli(
            "counterexample depth %d" % depth,
            ["counterexample", "--depth", str(depth)], 0,
            lines=("depth=%d" % depth, "vertices=%d" % vertices,
                   "classes=%d" % classes, "raw_E=3", "collapsed_E=3")))
    return jobs


def glued_verify(seed, workdir):
    g4 = os.path.join(DATA, "gamma4.model")
    g6 = os.path.join(DATA, "gamma6.model")
    idx = os.path.join(DATA, "gamma6.idx")
    return [
        _cli("verify-chhs gamma4", ["verify-chhs", g4], 1,
             _chhs_verdicts({"common_nesting_extension": "q1,q5,q31",
                             "simplicial_wedges": "[1]|*,q1"}),
             ("E=3 kappa=60", "complexity=6")),
        _cli("verify-chhs gamma6", ["verify-chhs", g6], 1,
             _chhs_verdicts({"common_nesting_extension": "q1,q5,q39",
                             "simplicial_wedges": "[10]|*,q1"}),
             ("E=3 kappa=60", "complexity=6")),
        _cli("qi-report gamma6", ["qi-report", g6], 0, (),
             ("E=3 kappa=60", "qi_quasi_isometry=True",
              "qi_surjectivity_defect=3")),
        _cli("check-indexset gamma6", ["check-indexset", idx], 1,
             ("property=wedges verdict=true",
              "property=weak_wedges verdict=true",
              "property=clean_containers verdict=true",
              "property=orthogonals_for_non_split verdict=false"
              " witness=[c0],[c10]",
              "property=strong_orth verdict=false witness=[-1],[c23]",
              "property=weak_orth verdict=false witness=[c0],[c10]",
              "property=complement_involution verdict=true",
              "property=orth_determines_nesting verdict=true",
              "property=orthogonal_set verdict=true"),
             ("domains=45",)),
        _cli("lattice gamma6", ["lattice", idx], 1,
             ("property=orthomodular verdict=false witness=[-1],[c23]",),
             ("elements=46", "extension_found=false")),
    ]


def grid_scale(seed, workdir):
    shapes = grid_shapes(seed)

    def grid_file(rows, cols):
        return os.path.join(workdir, "grid%dx%d.cplx" % (rows, cols))

    (r1, c1), (r2, c2), (r3, c3) = (shapes["cubes"], shapes["verify-chhs"],
                                    shapes["qi-report"])
    jobs = [
        _cli("cubes %dx%d" % (r1, c1), ["cubes", grid_file(r1, c1)], 0,
             ("property=complement_involution verdict=true",),
             ("vertices=%d" % (r1 * c1), "hyperplanes=%d" % (r1 + c1 - 2),
              "classes=3", "E=3"), (r1, c1)),
        _cli("verify-chhs %dx%d" % (r2, c2),
             ["verify-chhs", grid_file(r2, c2)], 0, _chhs_verdicts({}),
             ("E=3 kappa=60", "complexity=5"), (r2, c2)),
        _cli("qi-report %dx%d" % (r3, c3), ["qi-report", grid_file(r3, c3)],
             0, (), ("E=3 kappa=60", "qi_surjectivity_defect=0",
                     "qi_quasi_isometry=True"), (r3, c3)),
        # the four-point delta of a grid under its path metric is
        # min(rows, cols) - 1; the self-tests check that by brute force
        Job("four_point_delta %dx%d" % (r3, c3), "four_point_delta",
            [grid_file(r3, c3)], 0, (), ("delta=%d" % (min(r3, c3) - 1),),
            [grid_file(r3, c3)], (r3, c3)),
    ]
    return jobs


WORKLOADS = {
    "glued-build": glued_build,
    "glued-verify": glued_verify,
    "grid-scale": grid_scale,
}


def make_jobs(workload, seed, workdir):
    """The seeded jobs of one pass, in run order, with their grid inputs
    written under workdir."""
    jobs = WORKLOADS[workload](seed, workdir)
    for job in jobs:
        if job.grid is not None:
            path = job.inputs[0]
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(complex_text(*job.grid))
    random.Random("order-%d" % seed).shuffle(jobs)
    return jobs
