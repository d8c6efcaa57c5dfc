"""Benchmark entry point: one seeded run of one workload.

Run from the repository root:

    python3 bench/run.py --workload {words,query} --seed N --seconds S --trace {0,1}

It generates the workload's inputs from the seed under ``.bench_runs/``,
measures them in a child process (``measure.py``) and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``, measured with no tracing; with
``--trace 1`` they are its per-layer metrics, from a separate traced run.
Each metric carries the unit declared there. The generated files are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
TIME_LIMIT = 175.0  # seconds from start until the measuring process is killed


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def generate(workloads, name: str, seed: int, rundir: str) -> dict:
    """Write the run's seeded inputs; returns the ``Inputs`` fields the child needs."""
    import inputs

    corpus = os.path.join(rundir, "corpus.txt")
    planted = os.path.join(rundir, "planted-questions.txt")
    lexicon = inputs.write_corpus(seed, workloads.CORPUS, corpus, planted)
    spec = workloads.WORKLOADS[name].query
    prefix = None
    if spec is not None:
        prefix = os.path.join(rundir, "query")
        inputs.write_query_inputs(seed, spec, prefix)
    return {
        "seed": seed,
        "corpus": corpus,
        "planted": planted,
        "lexicon": dataclasses.asdict(lexicon),
        "query_prefix": prefix,
    }


def measure(rundir: str, deadline: float) -> tuple[int, float]:
    """Run ``measure.py`` to completion; returns its exit status and peak RSS in MB.

    The peak comes from ``wait4``, so it covers the measuring process and
    every worker process it waited for. The child gets its own session so
    that on timeout its whole process group can be killed.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), rundir],
        stdout=sys.stderr,
        start_new_session=True,
    )
    pid = 0
    try:
        while not pid and time.monotonic() < deadline:
            time.sleep(0.05)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # time limit, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            print("bench: measuring process killed", file=sys.stderr)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped; Popen must not wait again
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6


def main(argv: list[str]) -> int:
    started = time.monotonic()
    # SIGTERM unwinds like an error, so the finally blocks stop the child and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    rundir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        job = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "inputs": generate(workloads, args.workload, args.seed, rundir),
        }
        with open(os.path.join(rundir, "job.json"), "w", encoding="utf-8") as out:
            json.dump(job, out)
        code, peak_mb = measure(rundir, started + TIME_LIMIT)
        if code != 0:
            print(f"bench: measuring process exited with {code}", file=sys.stderr)
            return 1
        with open(os.path.join(rundir, "result.json"), encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_mb
    if set(metrics) != set(declared):
        print(
            f"bench: measured metrics {sorted(set(metrics) ^ set(declared))} "
            "do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    for message in result["messages"]:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
