"""Machine pace: how fast this machine runs hhsforge-like work right now.

On a shared machine the CPU speed drifts by about 20% from one minute to
the next, and every job slows with it.  Timed alone, two runs of the
same commit minutes apart can differ by more than a regression worth
catching.  So the benchmark times two fixed loops before and after
every job: a pure-Python graph search and a numpy broadcast-and-sort,
the two kinds of work the jobs do.  It scales the job's seconds by
REFERENCE_S over the loops' mean time around it, giving the job's time
at a fixed reference pace.  The loops touch no hhsforge code, so no
change to the program can move them.

Measured on a 2-core sandbox over 30-second blocks of grid-scale jobs,
the pass time spread 18% (quartile distance over median) unscaled and
7% scaled; the slowest job 24% and 10%.  Timing the loops during a job
instead, on the other core, slowed the job by a third, so they run only
between jobs.
"""

import math
import statistics
import time
from collections import deque

import numpy as np

# calibrate()'s result at the reference pace, about its median on a
# 2-core x86 sandbox under Python 3.11.  Only its constancy matters.
REFERENCE_S = 0.03

_SIDE = 24


def _grid():
    adj = {}
    for i in range(_SIDE):
        for j in range(_SIDE):
            adj[(i, j)] = [(a, b) for a, b in ((i - 1, j), (i + 1, j),
                                               (i, j - 1), (i, j + 1))
                           if 0 <= a < _SIDE and 0 <= b < _SIDE]
    return adj


def _loop(adj):
    """Breadth-first search from every seventh vertex: dict, tuple and
    deque work like the graph code the jobs spend their time in."""
    start = time.perf_counter()
    total = 0
    for source in list(adj)[::7]:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        total += sum(dist.values())
    return time.perf_counter() - start


def _matrix():
    n = _SIDE * 2
    return (np.arange(n * n, dtype=np.int64) * 7919 % 50).reshape(n, n)


def _array_loop(d):
    """Three-pairing sums over every triple, sorted and reduced: the
    memory-bound kind of work of the cube kernels."""
    start = time.perf_counter()
    best = 0
    for x in range(3):
        stack = np.stack([d[x][:, None, None] + d[None, :, :],
                          d[x][None, :, None] + d[:, None, :],
                          d[x][None, None, :] + d[:, :, None]])
        stack.sort(axis=0)
        best = max(best, int((stack[2] - stack[1]).max()))
    return time.perf_counter() - start


def calibrate(repeats=3):
    """Seconds the two loops take now: the geometric mean of the median
    of `repeats` timings of each."""
    adj, d = _grid(), _matrix()
    return math.sqrt(statistics.median(_loop(adj) for _ in range(repeats))
                     * statistics.median(_array_loop(d)
                                         for _ in range(repeats)))


def factor(before, after):
    """Pace factor of a job run between two calibrations: multiplied by
    it, the job's seconds read as seconds at the reference pace."""
    return 2 * REFERENCE_S / (before + after)
