"""Record a baseline: every workload on seeds 1-10, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Run from the repository root.  For each workload it runs
`perfbench/run.py` once per seed with tracing off and once, on the
first seed, with tracing on, and writes the median, quartiles and
spread (quartile distance over median) of every end-to-end metric, the
traced per-layer metrics, and the machine: core count and Python, numpy
and networkx versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import networkx
import numpy

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = list(range(1, 11))


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect output\n%s"
                         % (workload, seed, done.stderr))
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        spec = json.load(h)
    seconds = spec["run_seconds"]

    out = {"machine": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "numpy": numpy.__version__,
                       "networkx": networkx.__version__,
                       "platform": platform.platform()},
           "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in sorted(workloads.WORKLOADS):
        values = {}
        for seed in SEEDS:
            result = bench(workload, seed, seconds, 0)
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced = bench(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": dict((k, summary(v)) for k, v in values.items()),
            "per_layer": dict((k, m["value"])
                              for k, m in traced["metrics"].items()),
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print("%s %s median=%.4f spread=%.4f"
                  % (workload, name, s["median"], s["spread"]), flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
