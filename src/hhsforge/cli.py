"""Command line front end tying the pipelines together.

Each subcommand drives one pipeline end to end and prints structured
key-value lines.  Identical arguments and inputs give byte-identical
output.  Exit status 0 means every verdict came back true, 1 means at
least one verdict failed (a witness line says which), 2 means the
invocation or an input file was unusable, and 3 means an internal error
(a bug, never a verdict).
"""

import argparse
import math
import os
import sys

from . import chhs, cubes, lattice, model
from .graph import np
from .indexset import IndexSetError, check_all_properties, load_index_set
from .lattice import LatticeError
from .model import ModelError


class UsageError(ValueError):
    pass


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise UsageError("cannot read %s: %s" % (path, err.strerror))
    except UnicodeDecodeError as err:
        raise UsageError("cannot read %s: not UTF-8 (byte %d)"
                         % (path, err.start))


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise UsageError("cannot write %s: %s" % (path, err.strerror))


def _lambda(text):
    """--lambda: a finite float above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            "lambda must be positive and finite, got %s" % text)
    return value


def _threshold(text):
    """--threshold: a finite float, 0 or above; 0 is a usable cutoff."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            "threshold must be finite and at least 0, got %s" % text)
    return value


def _max_size(text):
    """--max-size: an integer, 0 or above."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "max-size must be at least 0, got %s" % text)
    return value


def _load_complex(path):
    """A .cplx file, checked to be a median graph: the one check that
    every cube pipeline below relies on."""
    return cubes.validate_median_graph(cubes.load_complex(_read(path)))


def _load_model(path):
    """A .model file is taken as is; a .cplx file goes through the cube
    pipeline first."""
    if path.endswith(".cplx"):
        return cubes.index_set_from_hyperclosure(_load_complex(path))
    text = _read(path)
    if path.endswith(".model"):
        return model.load_model(text)
    raise UsageError("expected a .model or .cplx file, got %s" % path)


def _verdict_lines(reports, out):
    bad = 0
    for rep in reports:
        out.append(rep.line())
        if not rep.verdict:
            bad += 1
    return bad


def _header(m, w):
    return ["E=%d kappa=%d" % (m.E, m.kappa),
            "C0=%d M0=%d lambda0=%d lambda1=%d lambda2=%d lambda=%g"
            % (w.c0, w.m0, w.lambda0, w.lambda1, w.lambda2, w.lam)]


def cmd_check_indexset(args):
    s = load_index_set(_read(args.input))
    out = ["domains=%d" % len(s.domains)]
    bad = _verdict_lines(check_all_properties(s), out)
    return (1 if bad else 0), out


def cmd_lattice(args):
    s = load_index_set(_read(args.input))
    L = lattice.to_ortholattice(s)
    out = ["elements=%d" % len(L.elements)]
    rep = lattice.is_orthomodular(L)
    out.append(rep.line())
    code = 0
    if not rep.verdict:
        code = 1
        u, v = rep.witness
        replay = L.join(L.meet(L.comp[u], v), u)
        out.append("replay=(%s^ meet %s) join %s -> %s expected %s"
                   % (u, v, u, replay, v))
    result = lattice.search_orthomodular_extension(L, args.max_size)
    out.append("extension_found=%s" % str(result["found"]).lower())
    if result["found"]:
        out.append("extension_target=%s" % result["target"])
    out.append("targets_examined=%d" % result["targets_examined"])
    return code, out


def cmd_cubes(args):
    g = _load_complex(args.input)
    hps = cubes.hyperplanes(g)
    hc = cubes.hyperclosure(g)
    out = ["vertices=%d" % g.number_of_nodes(),
           "edges=%d" % g.number_of_edges(),
           "hyperplanes=%d" % len(hps),
           "classes=%d" % len(hc),
           "chain_length=%d" % hc.chain_length,
           "weak_factor_system=%s" % str(hc.weak_factor_system).lower()]
    bad = _verdict_lines([cubes.check_complement_involution(g, hc)], out)
    m = cubes.index_set_from_hyperclosure(g, hc)
    out.append("domains=%d" % len(m.index.domains))
    out.append("E=%d" % m.E)
    dot = cubes.minimal_orth_dot(hc, m.index)
    if args.emit_minorth:
        _write(args.emit_minorth, dot)
    if args.format == "dot":
        return (1 if bad else 0), [dot.rstrip("\n")]
    return (1 if bad else 0), out


def cmd_counterexample(args):
    g = cubes.build_counterexample(args.depth)
    hc = cubes.hyperclosure(g)
    raw = cubes.index_set_from_hyperclosure(g, hc)
    m = chhs.collapse_unit_coordinates(raw)
    minimal = [cid for cid in hc.order if hc.classes[cid].minimal]
    boundary = [cid for cid in hc.order if hc.classes[cid].boundary]
    out = ["depth=%d" % args.depth,
           "vertices=%d" % g.number_of_nodes(),
           "edges=%d" % g.number_of_edges(),
           "classes=%d" % len(hc),
           "minimal_classes=%d" % len(minimal),
           "boundary_classes=%d" % len(boundary),
           "raw_E=%d" % raw.E,
           "collapsed_E=%d" % m.E]
    dot = cubes.minimal_orth_dot(hc, m.index)
    if args.emit_minorth:
        _write(args.emit_minorth, dot)
    if args.format == "dot":
        return 0, [dot.rstrip("\n")]
    return 0, out


def cmd_blowup(args):
    m = _load_model(args.input)
    x = chhs.blow_up(m)
    out = ["domains=%d" % len(m.index.domains),
           "minimal=%d" % len(x.minimal),
           "base_edges=%d" % x.base.number_of_edges(),
           "vertices=%d" % x.blown.number_of_nodes(),
           "edges=%d" % x.blown.number_of_edges(),
           "maximal_simplices=%d" % len(chhs.maximal_simplices(x)),
           "simplices=%d" % len(chhs.simplices(x)),
           "classes=%d" % len(chhs.simplex_classes(x))]
    dot = chhs.blown_dot(x)
    if args.emit_x:
        _write(args.emit_x, dot)
    if args.format == "dot":
        return 0, [dot.rstrip("\n")]
    return 0, out


def _build_w(args):
    m = _load_model(args.input)
    x = chhs.blow_up(m)
    w = chhs.build_w(m, x, lam=args.lam)
    return m, x, w


def cmd_build_w(args):
    m, x, w = _build_w(args)
    out = _header(m, w)
    out.append("w_vertices=%d" % len(w.simplices))
    out.append("w_edges=%d" % (w.adj.sum() // 2))
    out.append("w_connected=%s" % str(np.isfinite(w.distances).all()).lower())
    dot = chhs.w_dot(w)
    if args.emit_w:
        _write(args.emit_w, dot)
    if args.format == "dot":
        return 0, [dot.rstrip("\n")]
    return 0, out


def cmd_verify_chhs(args):
    m, x, w = _build_w(args)
    out = _header(m, w)
    rep = chhs.check_chhs(m, w)
    out.extend(rep.lines())
    bad = sum(1 for r in rep.verdicts() if not r.verdict)
    return (1 if bad else 0), out


def cmd_qi_report(args):
    m, x, w = _build_w(args)
    out = _header(m, w)
    qi = chhs.realisation_qi(m, w)
    for key in sorted(qi):
        out.append("qi_%s=%s" % (key, qi[key]))
    threshold = args.threshold if args.threshold is not None else m.kappa
    profile = model.distance_profile(m, threshold)
    out.append("estimate_threshold=%g" % profile["threshold"])
    out.append("estimate_K=%d" % profile["K"])
    out.append("estimate_C=%d" % profile["C"])
    if qi["quasi_isometry"]:
        return 0, out
    # the map only fails to be a quasi-isometry when the built graph is
    # disconnected; name one separated pair
    i, j = np.argwhere(np.triu(np.isinf(w.distances)))[0]
    out.append("property=quasi_isometry verdict=false witness=%s,%s"
               % (w.points[i], w.points[j]))
    return 1, out


def cmd_equivariance(args):
    m, x, w = _build_w(args)
    g = chhs.load_automorphism(_read(args.map))
    rep = chhs.check_equivariance(m, w, g)
    out = _header(m, w)
    out.append(rep.line())
    out.append("defect=%d" % rep.constant)
    return (0 if rep.verdict else 1), out


def _parser():
    top = argparse.ArgumentParser(
        prog="hhsforge",
        description="pipelines over index sets, cube complexes, and"
                    " blow-up graphs")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("check-indexset", cmd_check_indexset,
            help="run every index-set property on a .idx file")
    p.add_argument("input")

    p = add("lattice", cmd_lattice,
            help="ortholattice, orthomodularity, and extension search")
    p.add_argument("input")
    p.add_argument("--max-size", type=_max_size, default=12,
                   help="largest extension target to try (default 12)")

    p = add("cubes", cmd_cubes,
            help="validate a complex and extract its model")
    p.add_argument("input")
    p.add_argument("--emit-minorth", metavar="PATH",
                   help="write the minimal orthogonality graph as DOT")
    p.add_argument("--format", choices=("text", "dot"), default="text")

    p = add("counterexample", cmd_counterexample,
            help="build the glued-complex fixture at a given depth")
    p.add_argument("--depth", type=int, default=4,
                   help="truncation depth (default 4)")
    p.add_argument("--emit-minorth", metavar="PATH")
    p.add_argument("--format", choices=("text", "dot"), default="text")

    p = add("blowup", cmd_blowup,
            help="blow a model up and report the simplex calculus")
    p.add_argument("input")
    p.add_argument("--emit-x", metavar="PATH",
                   help="write the blown-up graph as DOT")
    p.add_argument("--format", choices=("text", "dot"), default="text")

    p = add("build-w", cmd_build_w,
            help="build the maximal-simplex graph at a threshold")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", type=_lambda, default=None,
                   help="edge threshold unit (default: computed)")
    p.add_argument("--emit-w", metavar="PATH",
                   help="write the built graph as DOT")
    p.add_argument("--format", choices=("text", "dot"), default="text")

    p = add("verify-chhs", cmd_verify_chhs,
            help="run the full combinatorial verification report")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", type=_lambda, default=None)

    p = add("qi-report", cmd_qi_report,
            help="measure the realisation map against the point graph")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", type=_lambda, default=None)
    p.add_argument("--threshold", type=_threshold, default=None,
                   help="distance-formula cutoff (default: kappa)")

    p = add("equivariance", cmd_equivariance,
            help="check an automorphism file against a model")
    p.add_argument("input")
    p.add_argument("map", help="automorphism file")
    p.add_argument("--lambda", dest="lam", type=_lambda, default=None)
    return top


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        code, lines = args.func(args)
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; the verdict stands, the exit flush is moot
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (UsageError, IndexSetError, LatticeError, ModelError,
            cubes.CubeError, chhs.ChhsError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except Exception as err:
        # exit 1 is reserved for a failed verdict with a witness
        print("internal error: %s: %s" % (type(err).__name__, err),
              file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
