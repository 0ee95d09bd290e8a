"""Sweep the exit-code contract over generated median graphs.

Runs cubes, blowup, build-w, verify-chhs and qi-report on median graphs
grown by random convex expansions (helpers.median_runs) and prints, per
subcommand, how many runs exited with each code and how often each
property was false.  Exits 1 when a run breaks the contract: output on
stderr, or an exit code other than 0 without a false verdict or 1 with
one.  Not collected by pytest; tier-1 runs the default sweep as
test_cli.TestGeneratedMedianGraphs.  Run from the repository root:

    PYTHONPATH=src python tests/sweep_median.py --seed 2 --graphs 60 \\
        --max-expansions 8
"""

import argparse
import collections
import sys

from helpers import (MEDIAN_COMMANDS, false_properties, keeps_exit_contract,
                     median_runs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--graphs", type=int, default=40)
    parser.add_argument("--max-expansions", type=int, default=7)
    args = parser.parse_args(argv)
    codes = dict((c, collections.Counter()) for c in MEDIAN_COMMANDS)
    false = dict((c, collections.Counter()) for c in MEDIAN_COMMANDS)
    broken = 0
    for picks, command, code, out, err in median_runs(
            args.seed, args.graphs, args.max_expansions):
        codes[command][code] += 1
        false[command].update(false_properties(out))
        if not keeps_exit_contract(code, out, err):
            broken += 1
            print("contract broken: %s %r exit=%s %s"
                  % (command, picks, code, err.strip()))
    for command in MEDIAN_COMMANDS:
        print(command,
              *["exit%s=%d" % kv for kv in sorted(codes[command].items())]
              + ["%s=%d" % kv for kv in sorted(false[command].items())])
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
