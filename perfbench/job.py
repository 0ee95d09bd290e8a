"""One benchmark job, run in a fresh interpreter from the repository root.

    python3 perfbench/job.py RESULT TRACE JOB KIND ARG...

KIND "cli" calls `hhsforge.cli.main([ARG...])` as the console script
does; KIND "four_point_delta" loads the complex file ARG and prints
`delta=<value>` from `cubes.four_point_delta`.  The exit code is the
entry point's.  RESULT receives a JSON object with `enter` and `leave`,
the monotonic times just before the entry point is called and just
after it returns, and with TRACE 1 the spans, counts and sizes
recorded under job id JOB.
"""

import json
import os
import sys
import time


def main():
    result_path, trace, job_id, kind = sys.argv[1:5]
    argv = sys.argv[5:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import hhsforge
    if not os.path.abspath(hhsforge.__file__).startswith(src + os.sep):
        print("job: hhsforge imported from %s, not from %s"
              % (hhsforge.__file__, src), file=sys.stderr)
        return 3
    from hhsforge import chhs, cli, cubes, indexset, lattice, model

    rec = None
    if trace == "1":
        import spans
        rec = spans.Recorder(job_id)
        spans.install(rec, {"cli": cli, "cubes": cubes, "model": model,
                            "chhs": chhs, "indexset": indexset,
                            "lattice": lattice})
    enter = time.monotonic()
    try:
        if kind == "cli":
            code = cli.main(argv)
        else:
            with open(argv[0], encoding="utf-8") as handle:
                g = cubes.load_complex(handle.read())
            print("delta=%g" % cubes.four_point_delta(g))
            code = 0
    finally:
        leave = time.monotonic()
        sys.stdout.flush()
        record = {"enter": enter, "leave": leave}
        if rec is not None:
            record.update(rec.dump())
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
