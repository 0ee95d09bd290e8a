"""Golden transcripts: the stdout bytes and exit code of fixed CLI runs.

Each case runs `hhsforge.cli.main` in process on the shipped fixtures.
`tests/test_golden.py` compares every case against the stored files
`<name>.out` (stdout bytes) and `exit_codes.txt` (one `<name> <code>`
line per case).  The files pin the command line's behaviour, so they
are written once and only rewritten on purpose:

    PYTHONPATH=src python3 tests/golden/regenerate.py
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(HERE)), "fixtures")
EXIT_CODES = os.path.join(HERE, "exit_codes.txt")


def _cases():
    out = []
    for idx in ("b3", "o6"):
        out.append(("check-indexset_%s" % idx,
                    ["check-indexset", "%s.idx" % idx]))
        out.append(("lattice_%s" % idx, ["lattice", "%s.idx" % idx]))
    for cplx in ("square", "grid"):
        out.append(("cubes_%s" % cplx, ["cubes", "%s.cplx" % cplx]))
        out.append(("cubes_%s_dot" % cplx,
                    ["cubes", "%s.cplx" % cplx, "--format", "dot"]))
    out.append(("counterexample_4", ["counterexample", "--depth", "4"]))
    out.append(("counterexample_6", ["counterexample", "--depth", "6"]))
    out.append(("counterexample_6_dot",
                ["counterexample", "--depth", "6", "--format", "dot"]))
    for name in ("square.cplx", "grid.cplx", "chain.model",
                 "product.model", "gamma4.model"):
        stem = name.split(".")[0]
        out.append(("blowup_%s" % stem, ["blowup", name]))
        out.append(("blowup_%s_dot" % stem,
                    ["blowup", name, "--format", "dot"]))
        out.append(("build-w_%s" % stem, ["build-w", name]))
        out.append(("build-w_%s_dot" % stem,
                    ["build-w", name, "--format", "dot"]))
        out.append(("verify-chhs_%s" % stem, ["verify-chhs", name]))
        out.append(("qi-report_%s" % stem, ["qi-report", name]))
    out.append(("equivariance_grid",
                ["equivariance", "grid.cplx", "grid_transpose.aut"]))
    return tuple(out)


# (name, argv); fixture file names are resolved against fixtures/
CASES = _cases()


def run_case(argv):
    """Exit code and stdout bytes of one in-process CLI run."""
    from hhsforge import cli
    args = [os.path.join(FIXTURES, a) if os.path.exists(
        os.path.join(FIXTURES, a)) else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, out.getvalue().encode("utf-8")


def main():
    codes = []
    for name, argv in CASES:
        code, stdout = run_case(argv)
        with open(os.path.join(HERE, name + ".out"), "wb") as handle:
            handle.write(stdout)
        codes.append("%s %d\n" % (name, code))
    with open(EXIT_CODES, "w", encoding="utf-8") as handle:
        handle.writelines(codes)
    print("wrote %d cases to %s" % (len(CASES), HERE))


if __name__ == "__main__":
    sys.exit(main())
