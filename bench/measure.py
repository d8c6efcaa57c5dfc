"""Measuring process of one benchmark run; started by ``run.py``.

It runs in its own process so that its peak resident memory, read by the
parent when it exits, covers the workload alone (forked training workers
included) and not the input generation.

Usage: ``python3 bench/measure.py RUNDIR`` where ``RUNDIR/job.json`` holds
the workload, seed, seconds and trace flag; the result goes to
``RUNDIR/result.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(rundir: str) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    with open(os.path.join(rundir, "job.json"), encoding="utf-8") as handle:
        job = json.load(handle)
    workload = workloads.WORKLOADS[job["workload"]]
    inputs = workloads.Inputs(rundir=rundir, **job["inputs"])
    checks = workloads.Checks()
    if job["trace"]:
        metrics = workloads.run_traced(workload, inputs, checks)
    else:
        metrics = workloads.run_untraced(workload, inputs, job["seconds"], checks)
    result = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "metrics": metrics,
    }
    with open(os.path.join(rundir, "result.json"), "w", encoding="utf-8") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main(sys.argv[1])
