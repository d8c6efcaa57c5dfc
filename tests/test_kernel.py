import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbos.trainer as trainer_module
from cbos import kernel
from cbos.corpus import build_vocab_from_file
from cbos.model import init_model
from cbos.persist import save_bin
from cbos.trainer import (
    CBOS_VARIANTS,
    TrainConfig,
    Trainer,
    iter_slice_sentences,
    lr_schedule,
    train,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# -- RNG twins -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    worker=st.integers(0, 64),
    stream=st.integers(0, 3),
    low=st.integers(-(2**40), 2**40),
    span=st.integers(1, 2**40),
    n=st.integers(0, 40),
)
def test_python_and_c_rng_give_identical_sequences(seed, worker, stream, low, span, n):
    ints = np.zeros(n, dtype=np.int64)
    reals = np.zeros(n, dtype=np.float64)
    kernel.load().cbos_rng_draws(
        seed % 2**64, worker, stream, low, low + span, n, ints.ctypes.data, reals.ctypes.data
    )
    rng = kernel.CounterRng(seed, worker, stream)
    half = n // 2  # scalar and sized draws advance the stream alike
    expected = [rng.integers(low, low + span) for _ in range(half)]
    expected += rng.integers(low, low + span, size=n - half).tolist()
    assert ints.tolist() == expected
    assert reals.tolist() == rng.random(n).tolist()
    assert all(low <= v < low + span for v in expected)


def test_counter_rng_streams_differ_and_bounds_match_numpy_surface():
    draws = {
        (w, s): kernel.CounterRng(1, w, s).integers(0, 2**62, size=4).tolist()
        for w in range(3)
        for s in range(4)
    }
    assert len({tuple(v) for v in draws.values()}) == len(draws)
    rng = kernel.CounterRng(5, 0, 0)
    assert 0 <= rng.integers(3) < 3  # one bound means [0, bound)
    assert all(0.0 <= x < 1.0 for x in rng.random(50))
    with pytest.raises(ValueError):
        rng.integers(4, 4)


# -- build -----------------------------------------------------------------


def test_missing_compiler_raises_runtime_error(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    with pytest.raises(RuntimeError, match="C compiler.*'cc'.*'gcc'"):
        kernel.build()


def test_failing_compiler_error_names_it_and_quotes_stderr(tmp_path, monkeypatch):
    fake = tmp_path / "fake-cc"
    fake.write_text("#!/bin/sh\necho 'fake-cc: fatal error: no space left' >&2\nexit 3\n")
    fake.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_compiler", lambda: str(fake))
    with pytest.raises(RuntimeError) as info:
        kernel.build()
    message = str(info.value)
    assert str(fake) in message and "exit 3" in message
    assert "fake-cc: fatal error: no space left" in message
    assert os.listdir(tmp_path / "cache" / "cbos") == []  # no half-built leftovers


def test_build_caches_by_source_hash(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = kernel.build()
    assert os.path.dirname(first) == str(tmp_path / "cbos")
    monkeypatch.setattr(kernel, "_compiler", lambda: None)  # a cached build needs no compiler
    assert kernel.build() == first
    assert os.listdir(tmp_path / "cbos") == [os.path.basename(first)]


def test_import_and_queries_work_without_a_compiler(tmp_path):
    vocab_path = tmp_path / "corpus.txt"
    vocab_path.write_text("paris france rome italy berlin germany madrid spain\n" * 3)
    vocab = build_vocab_from_file(str(vocab_path), 1)
    model = init_model(len(vocab), 0, 6, seed=1)
    model_path = tmp_path / "m.cbos"
    save_bin(model, vocab, TrainConfig(dim=6, minn=0, maxn=0, bucket=0), str(model_path))
    questions = tmp_path / "q.txt"
    questions.write_text(": capitals\nparis france rome italy\nberlin germany madrid spain\n")
    script = (
        "import sys, cbos; from cbos.cli import run\n"
        f"assert run(['nn', '-model', {str(model_path)!r}, '-word', 'paris', '-k', '2']) == 0\n"
        f"assert run(['eval-analogy', '-model', {str(model_path)!r}, '-questions', {str(questions)!r}]) == 0\n"
        f"sys.exit(run(['train', '-input', {str(vocab_path)!r}, '-output', {str(tmp_path / 'out')!r},"
        " '-model', 'cbos', '-minCount', '1', '-minn', '0', '-maxn', '0']))\n"
    )
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(tmp_path / "empty-cache"), PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2, proc.stderr  # only training needs the compiler
    assert "C compiler" in proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ -?\d\.\d{4}", line) for line in lines[:2])
    assert "capitals" in proc.stdout


# -- kernel against the Python reference -------------------------------------


SCHEDULE_CASES = [("skipgram", None), ("cbow", None)] + [("cbos", v) for v in CBOS_VARIANTS]


@pytest.fixture(scope="module")
def equivalence_corpus(tmp_path_factory):
    """Lines over a skewed 12-word vocabulary, with blank and out-of-vocabulary lines.

    The top word fills about half the negative table, so negative draws
    collide with it often enough to reach the retry limit.
    """
    rng = np.random.default_rng(4)
    words = [f"tok{i:02d}" for i in range(12)]
    weights = np.array([100, 8, 6, 5, 4, 3, 3, 2, 2, 2, 1, 1], dtype=float)
    lines = []
    for i in range(24):
        n = int(rng.integers(1, 12))
        lines.append(" ".join(rng.choice(words, size=n, p=weights / weights.sum())))
        if i % 7 == 3:
            lines.append("" if i % 2 else "unseen1 unseen2")
    path = tmp_path_factory.mktemp("equiv") / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def reference_run(config, path, vocab):
    """The Python reference over the corpus, in train()'s order and learning-rate schedule."""
    model = init_model(
        len(vocab), config.bucket_rows, config.dim, config.seed, minn=config.minn, maxn=config.maxn
    )
    events = []
    trainer = Trainer(model, vocab, config, trace=events.append)
    total = vocab.total_tokens * config.epochs
    for _epoch in range(config.epochs):
        for tokens in iter_slice_sentences(path, 0, 1):
            ids, _scanned = trainer.prepare_sentence(tokens)
            if ids:
                trainer.train_sentence(ids, lr_schedule(config.lr0, trainer.tokens_seen, total))
    return model, trainer, events


@pytest.mark.parametrize("kind,variant", SCHEDULE_CASES)
@pytest.mark.parametrize("ngrams", [False, True])
@pytest.mark.parametrize("subsample", [False, True])
def test_kernel_matches_python_reference(
    equivalence_corpus, tmp_path, monkeypatch, kind, variant, ngrams, subsample
):
    monkeypatch.setattr(trainer_module, "CHUNK_BYTES", 64)  # many kernel calls per epoch
    config = TrainConfig(
        model_kind=kind,
        variant=variant,
        dim=8,
        ws=3,
        epochs=2,
        lr0=0.1,
        negatives=3,
        minn=3 if ngrams else 0,
        maxn=6 if ngrams else 0,
        bucket=50 if ngrams else 0,
        min_count=1,
        t=0.02 if subsample else 1.0,
        seed=11,
    )
    kernel_events = []
    result = train(config, equivalence_corpus, trace=kernel_events.append)
    model, trainer, events = reference_run(config, equivalence_corpus, result.vocab)

    assert kernel_events == events
    stats = result.stats
    assert stats.tokens_scanned == trainer.tokens_seen == result.vocab.total_tokens * 2
    assert stats.updates == trainer.n_updates == len(events)
    assert stats.skipgram_updates == sum(e.phase == "skipgram" for e in events)
    assert stats.bag_updates == sum(e.phase == "bag" for e in events)
    # one subsampling draw per in-vocabulary token, and only when it is on
    assert trainer.subsample_rng.counter == (stats.tokens_scanned if subsample else 0)
    # Only float32 summation order differs; entries stay below 1 in size.
    for got, want in (
        (result.model.input_matrix, model.input_matrix),
        (result.model.output_matrix, model.output_matrix),
    ):
        np.testing.assert_allclose(got, want, rtol=0, atol=16 * np.finfo(np.float32).eps)

    untraced = train(config, equivalence_corpus)
    blobs = []
    for name, res in (("traced", result), ("untraced", untraced)):
        out = tmp_path / f"{name}.cbos"
        save_bin(res.model, res.vocab, res.config, str(out))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_trace_buffer_drains_mid_chunk_without_changing_the_model(tmp_path):
    # ~1.5M int32 trace entries in one chunk: the kernel returns to Python at
    # least once to hand them over, then resumes at the next sentence
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(50)]
    path = tmp_path / "corpus.txt"
    path.write_text("".join(" ".join(rng.choice(words, size=20)) + "\n" for _ in range(2000)))
    config = TrainConfig(
        model_kind="skipgram", dim=8, ws=5, epochs=1, negatives=1, minn=0, maxn=0, bucket=0,
        min_count=1, t=1.0, seed=2,
    )
    events = []
    traced = train(config, str(path), trace=events.append)
    plain = train(config, str(path))
    assert len(events) == traced.stats.updates > (1 << 20) // 5
    np.testing.assert_array_equal(traced.model.input_matrix, plain.model.input_matrix)
    np.testing.assert_array_equal(traced.model.output_matrix, plain.model.output_matrix)
