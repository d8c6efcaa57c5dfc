"""Tests of the benchmark itself: seeded inputs, metric names, span accounting.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY_CORPUS = inputs.CorpusSpec(tokens=6000, background_words=200)
TINY_QUERY = inputs.QuerySpec(
    vocab=300, bucket=1000, questions_per_category=5, nn_in_vocab=5, nn_oov=5
)


def declared(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[section]}


def test_corpus_generator_is_byte_identical_per_seed(tmp_path):
    blobs = []
    for run in range(2):
        corpus, questions = tmp_path / f"c{run}.txt", tmp_path / f"q{run}.txt"
        inputs.write_corpus(7, TINY_CORPUS, str(corpus), str(questions))
        blobs.append((corpus.read_bytes(), questions.read_bytes()))
    assert blobs[0] == blobs[1]
    other = tmp_path / "other.txt"
    inputs.write_corpus(8, TINY_CORPUS, str(other), str(tmp_path / "oq.txt"))
    assert other.read_bytes() != blobs[0][0]


def test_query_generator_is_byte_identical_per_seed(tmp_path):
    blobs = []
    for run in range(2):
        prefix = str(tmp_path / f"q{run}")
        inputs.write_query_inputs(3, TINY_QUERY, prefix)
        blobs.append([open(f"{prefix}.{name}", "rb").read() for name in ("json", "questions.txt")])
        blobs[-1] += [m.tobytes() for m in inputs.query_matrices(3, TINY_QUERY)]
    assert blobs[0] == blobs[1]
    questions = blobs[0][1].decode().splitlines()
    headers = [line for line in questions if line.startswith(":")]
    assert any(h.startswith(": gram") for h in headers)
    assert any(not h.startswith(": gram") for h in headers)


def test_planted_words_stay_out_of_the_background():
    lex = inputs.make_lexicon(1, workloads.CORPUS)
    planted = set(lex.topic_a + lex.topic_b + lex.capitals + lex.countries + lex.links)
    assert not planted & set(lex.background)
    assert not set(lex.unseen) & (planted | set(lex.background))


def tiny_inputs(tmp_path, query: bool) -> workloads.Inputs:
    rundir = tmp_path / "run"
    rundir.mkdir()
    corpus, planted = str(rundir / "corpus.txt"), str(rundir / "planted.txt")
    lex = inputs.write_corpus(1, TINY_CORPUS, corpus, planted)
    prefix = None
    if query:
        prefix = str(rundir / "query")
        inputs.write_query_inputs(1, TINY_QUERY, prefix)
    return workloads.Inputs(str(rundir), 1, corpus, planted, lex.__dict__, prefix)


@pytest.mark.parametrize("query", [False, True])
def test_every_measured_metric_is_declared(tmp_path, query):
    spec = TINY_QUERY if query else None
    workload = workloads.Workload("tiny", query=spec)
    data = tiny_inputs(tmp_path, query)
    checks = workloads.Checks()
    untraced = workloads.run_untraced(workload, data, 0.0, checks)
    traced = workloads.run_traced(workload, data, checks)
    # run.py adds peak_rss_mb, measured by the parent from wait4.
    assert set(untraced) | {"peak_rss_mb"} == declared("end_to_end")
    assert set(traced) == declared("per_layer")
    assert all(np.isfinite(v) for v in list(untraced.values()) + list(traced.values()))
    assert checks.failed == 0, checks.messages
    assert checks.attempted > 0


def test_cross_run_determinism_compares_only_runs_of_the_same_sources(tmp_path, monkeypatch):
    rundir = tmp_path / "run"
    rundir.mkdir()
    data = workloads.Inputs(str(rundir), 1, "", "", {}, None)
    words = workloads.WORKLOADS["words"]
    failures = []
    for sources, digest in (("old", "a"), ("new", "b"), ("new", "b"), ("old", "c")):
        monkeypatch.setattr(workloads, "cbos_sources", lambda: {"trainer.py": sources.encode()})
        checks = workloads.Checks()
        workloads.check_determinism(words, data, [digest], checks)
        failures.append(checks.failed)
    assert failures == [0, 0, 0, 1]


def test_self_time_subtracts_direct_children_and_their_wrappers():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def slow_detail(args, kwargs, result):
        time.sleep(0.02)  # wrapper bookkeeping, run inside the parent's span
        return 0

    wrapped_leaf = tracer.wrap(leaf, "leaf", slow_detail)

    def outer():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    tracer.wrap(outer, "outer")()
    own = tracer.self_seconds_by_name()
    total = tracer.durations_ns()[tracer.select("outer")].sum() / 1e9
    assert own["leaf"] == pytest.approx(0.02, abs=0.01)
    assert own["outer"] == pytest.approx(0.01, abs=0.01)
    assert total == pytest.approx(own["outer"] + own["leaf"], abs=1e-6)
    assert list(tracer.arrays()["parent"]) == [-1, 0, 0]


def test_calibration_gives_a_small_per_call_residual():
    tracer = Tracer()
    tracer.calibrate(calls=2000, repeats=2)
    assert 0.0 <= tracer.residual_ns < 100_000


def test_workloads_are_the_declared_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    assert list(workloads.WORKLOADS) == names


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "words", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
