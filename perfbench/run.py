"""hhsforge benchmark: CLI jobs run the way a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
`workloads.py`, or `all` to run each in turn.  Every job is a fresh
interpreter; one client runs them one at a time in a closed loop, the
next job starting when the previous one has exited.  The run measures
for S seconds: every job runs once in its seeded order, then further
runs go to the jobs with the fewest.

With --trace 0 the run reports the end-to-end metrics listed in
BENCHMARK.json for one pass over the jobs, each job timed by the median
of its runs and scaled to the reference pace of `pace.py`.  With
--trace 1 every job's run is followed by a traced twin; the traced runs
give the per-layer metrics and the tracing overhead.  Every job's exit
code and output are checked against its known answer, and the traced
stdout must equal the untraced stdout byte for byte.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import pace
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join("perfbench", "job.py")

# A run must end within 180 s; a job still running this long after the
# run started is killed and counts as failed.
HARD_LIMIT_S = 160.0


@dataclass
class Result:
    job: workloads.Job
    start: float
    end: float
    setup_s: float
    rss_mb: float
    code: int
    stdout: str
    problems: list
    record: dict
    # REFERENCE_S over the pace loop's time around this run; times
    # multiplied by it read as seconds at the reference pace
    pace: float = 1.0

    @property
    def wall_s(self):
        return self.end - self.start


def run_job(job, job_id, workdir, trace, deadline):
    """Spawn one job and wait for it; the child's rusage gives its peak
    resident set."""
    base = os.path.join(ROOT, workdir, job_id)
    result_path = base + ".json"
    argv = [sys.executable, JOB, result_path, "1" if trace else "0",
            job_id, job.kind] + job.argv
    killed = threading.Event()
    with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
        start = time.monotonic()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)

        def kill():
            # os.kill, not child.kill: Popen would reap the child, and
            # the wait4 below needs to
            killed.set()
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(1.0, deadline - start), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    child.returncode = code = os.waitstatus_to_exitcode(status)
    with open(base + ".out", encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    problems = workloads.check(job, code, stdout)
    if killed.is_set():
        problems.insert(0, "killed at the run's time limit")
    record = {}
    try:
        with open(result_path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        problems.append("no result record")
    if problems:
        with open(base + ".err", encoding="utf-8", errors="replace") as h:
            tail = h.read()[-2000:]
        print("job %s (%s) failed: %s\n%s" % (job_id, job.name,
                                               "; ".join(problems), tail),
              file=sys.stderr)
    setup = record.get("enter", end) - start
    return Result(job, start, end, setup, usage.ru_maxrss / 1024.0, code,
                  stdout, problems, record)


def pass_metrics(runs):
    """End-to-end metrics of one pass from each job's repetitions, in
    seconds at the reference pace: a job's time is the median over its
    runs, and the pass takes the sum of those times.  The median keeps
    one repetition slowed by a busy machine from setting the figure."""
    times = [statistics.median(r.wall_s * r.pace for r in rs) for rs in runs]
    return {"wall_s": sum(times),
            "slowest_job_s": max(times),
            "peak_rss_mb": max(r.rss_mb for rs in runs for r in rs),
            "setup_s": statistics.median(r.setup_s * r.pace for rs in runs
                                         for r in rs)}


def traced_layers(results):
    """Per-layer metrics of one traced pass, and where its time went.
    Each job's tree hangs under a root span covering the job from spawn
    to exit, as the parent timed it.

    The second value splits the pass by the jobs' own clock readings:
    `outside_s` before and after the entry point (interpreter, imports,
    exit), `entry_s` inside it, and of that `layer_s` in layer spans and
    `unattributed_s` in none of them."""
    tree, counts, sizes = [], {}, {}
    for r in results:
        rec = r.record
        job_id = rec["job"]
        tree.append({"job": job_id, "id": 0, "name": spans.ROOT_SPAN,
                     "parent": None, "start": r.start, "end": r.end})
        for sid, name, parent, start, stop in rec.get("spans", ()):
            tree.append({"job": job_id, "id": sid, "name": name,
                         "parent": parent, "start": start, "end": stop})
        for key, value in rec.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        for key, value in rec.get("sizes", {}).items():
            sizes[key] = max(sizes.get(key, 0), value)
    input_bytes = sum(os.path.getsize(os.path.join(ROOT, p))
                      for r in results for p in r.job.inputs)
    entry = math.fsum(r.record["leave"] - r.record["enter"]
                      for r in results)
    layer = spans.layer_time(tree)
    split = {"outside_s": math.fsum(r.wall_s for r in results) - entry,
             "entry_s": entry, "layer_s": layer,
             "unattributed_s": entry - layer}
    return spans.layer_metrics(tree, counts, sizes, input_bytes), split


def next_job(runs, cost, left):
    """The job to run next once each has run: the one with the fewest
    runs, the longest first among equals, skipping any whose last run
    says it would not end within the `left` seconds; None when none
    fits.  Long jobs get their second run first, since one slowed run
    of a long job moves the pass the most."""
    fits = [k for k in range(len(runs)) if cost[k] <= left]
    if not fits:
        return None
    return min(fits, key=lambda k: (len(runs[k]), -cost[k]))


def run_jobs(jobs, seconds, trace, workdir):
    """Run every job once in the seeded order, then more runs chosen by
    next_job until `seconds` are used.  With trace, each job's untraced
    run is followed at once by a traced twin.  The pace loops run
    before the first run and after every run, and set each run's pace.

    Returns each job's untraced runs and its traced runs."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    plain = [[] for _ in jobs]
    shadow = [[] for _ in jobs]
    cost = [0.0] * len(jobs)
    last = [pace.calibrate()]

    def paced(r):
        last.append(pace.calibrate())
        r.pace = pace.factor(last[-2], last[-1])
        return r

    n = 0
    while True:
        k = n if n < len(jobs) else next_job(
            plain, cost, seconds - (time.monotonic() - started))
        if k is None:
            break
        begin = time.monotonic()
        plain[k].append(paced(run_job(jobs[k], "p%d" % n, workdir, False,
                                      deadline)))
        if trace:
            twin = paced(run_job(jobs[k], "t%d" % n, workdir, True,
                                 deadline))
            if twin.stdout != plain[k][-1].stdout and not twin.problems:
                twin.problems.append("traced stdout differs")
                print("job %s: traced stdout differs from untraced"
                      % twin.job.name, file=sys.stderr)
            shadow[k].append(twin)
        cost[k] = time.monotonic() - begin
        n += 1
    return plain, shadow


def measure(workload, seed, seconds, trace, workdir):
    """Run one workload and take its metrics.  Returns (metrics,
    attempted, failed, notes)."""
    jobs = workloads.make_jobs(workload, seed, workdir)
    plain, shadow = run_jobs(jobs, seconds, trace, workdir)
    notes = []
    runs = plain + shadow
    attempted = sum(len(rs) for rs in runs)
    failed = sum(1 for rs in runs for r in rs if r.problems)
    notes.append("jobs=%d runs/job=%s" % (len(jobs),
                                          ",".join(str(len(rs))
                                                   for rs in plain)))
    notes.append("unpaced wall_s=%.4f s, pace factor median=%.4f"
                 % (sum(statistics.median(r.wall_s for r in rs)
                        for rs in plain),
                    statistics.median(r.pace for rs in runs for r in rs)))
    if not trace:
        return pass_metrics(plain), attempted, failed, notes

    # a traced pass is one traced run of every job, taken in run order
    layers = []
    for cycle in range(min(len(rs) for rs in shadow)):
        results = [rs[cycle] for rs in shadow]
        if any(r.problems for r in results):
            continue
        got, split = traced_layers(results)
        layers.append(got)
        notes.append(
            "trace accounting: outside entry points %.4f s (job.self_s"
            " %.4f s), inside %.4f s: layer spans %.4f s, unattributed"
            " %.4f s (cli.self_s %.4f s)"
            % (split["outside_s"], got["job.self_s"], split["entry_s"],
               split["layer_s"], split["unattributed_s"], got["cli.self_s"]))
    if not layers:
        return {}, attempted, failed, notes
    metrics = dict((k, statistics.median(got[k] for got in layers))
                   for k in layers[0])
    metrics["trace.overhead_ratio"], note = overhead(plain, shadow)
    notes.append(note)
    return metrics, attempted, failed, notes


def overhead(plain, shadow):
    """Traced over untraced pass time, each job timed by the median of
    its runs at the reference pace, and a note on whether the ratio is
    resolved: the quartile distance of the single pair ratios (a run
    and its traced twin) must be smaller than the ratio's distance
    from 1."""
    pairs = [(t.wall_s * t.pace) / (p.wall_s * p.pace)
             for ps, ts in zip(plain, shadow) for p, t in zip(ps, ts)
             if not (p.problems or t.problems)]
    ratio = (sum(statistics.median(r.wall_s * r.pace for r in rs)
                 for rs in shadow)
             / sum(statistics.median(r.wall_s * r.pace for r in rs)
                   for rs in plain))
    if len(pairs) < 2:
        return ratio, ("trace.overhead_ratio %.4f unresolved: %d pair"
                       % (ratio, len(pairs)))
    q1, _, q3 = statistics.quantiles(pairs, n=4)
    verdict = ("resolved" if q3 - q1 < abs(ratio - 1)
               else "unresolved, pair spread exceeds distance from 1")
    return ratio, ("trace.overhead_ratio %.4f from %d pairs, pair ratio"
                   " quartiles %.4f..%.4f: %s"
                   % (ratio, len(pairs), q1, q3, verdict))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        return json.load(h)


def report(spec, workload, metrics, trace, prefix=""):
    """The metrics BENCHMARK.json lists, with their units, printed one a
    line; raises KeyError when the run did not measure one."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in listed:
        value = metrics[entry["name"]]
        out[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
        print("%s %s=%r %s" % (workload, entry["name"], value, entry["unit"]))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hhsforge", "cli.py")):
        print("run: no hhsforge source under %s" % ROOT, file=sys.stderr)
        return 2
    for name in ("gamma4.model", "gamma6.model", "gamma6.idx"):
        if not os.path.isfile(os.path.join(ROOT, workloads.DATA, name)):
            print("run: missing benchmark input %s" % name, file=sys.stderr)
            return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    os.chdir(ROOT)

    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    workdir = os.path.join(".perfbench", "run-%d" % os.getpid())
    os.makedirs(workdir)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            got, tried, bad, notes = measure(name, args.seed, seconds,
                                             args.trace == 1, workdir)
            attempted += tried
            failed += bad
            print("%s seed=%d attempted=%d failed=%d failed_ratio=%r"
                  % (name, args.seed, tried, bad, bad / tried))
            for note in notes:
                print("%s %s" % (name, note))
            if not got:
                continue
            prefix = name + "." if args.workload == "all" else ""
            metrics.update(report(spec, name, got, args.trace == 1, prefix))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
