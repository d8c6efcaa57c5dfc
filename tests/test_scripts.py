import importlib.util
import os
import sys
import tempfile
import weakref

import pytest

from cbos.corpus import build_vocab
from cbos.model import init_model
from cbos.trainer import TrainResult, TrainStats

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on the path
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree_vocab():
    return build_vocab(["ash"] * 3 + ["oak"] * 2 + ["elm", "fir"])


def one_model_at_a_time(trained):
    """A stand-in for ``train`` that fails when a model it returned earlier is still alive."""

    def train(config, corpus_path, vocab=None, **kwargs):
        alive = [ref for ref in trained if ref() is not None]
        assert not alive, f"model {len(trained)} trains while an earlier one is alive"
        vocab = tree_vocab() if vocab is None else vocab
        model = init_model(len(vocab), 0, 4, seed=len(trained))
        trained.append(weakref.ref(model))
        stats = TrainStats(1.0, 7, 7.0, 10, 0.5, 5, 5)
        return TrainResult(model=model, vocab=vocab, config=config, stats=stats)

    return train


def count_once(script, monkeypatch):
    """Replace the script's vocabulary counter and ``train`` (:func:`one_model_at_a_time`).

    Returns the trained models' references, the counted vocabularies and the
    vocabulary each run was given.
    """
    trained, counted, given = [], [], []
    stand_in = one_model_at_a_time(trained)

    def count(path, min_count=1):
        counted.append(tree_vocab())
        return counted[-1]

    def train(config, corpus_path, vocab=None, **kwargs):
        given.append(vocab)
        return stand_in(config, corpus_path, vocab=vocab, **kwargs)

    monkeypatch.setattr(script, "build_vocab_from_file", count)
    monkeypatch.setattr(script, "train", train)
    return trained, counted, given


def test_compare_variants_frees_each_model_before_the_next(tmp_path, monkeypatch, capsys):
    script = load_script("compare_variants", monkeypatch)
    trained, counted, given = count_once(script, monkeypatch)
    monkeypatch.setattr(sys, "argv", ["compare_variants.py", "-corpus", str(tmp_path / "unread.txt")])
    assert script.main() == 0
    assert len(trained) == 2 + len(script.CBOS_VARIANTS)
    assert len(counted) == 1 and all(vocab is counted[0] for vocab in given)
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(trained)


def run_reproduce_full_scale(tmp_path, monkeypatch, corpus, *extra):
    """Run the script with :func:`count_once`'s stand-ins; return the script module.

    The vocabulary is counted once, and every schedule trains on that count.
    """
    script = load_script("reproduce_full_scale", monkeypatch)
    trained, counted, given = count_once(script, monkeypatch)
    questions = tmp_path / "questions.txt"
    questions.write_text(": trees\nash oak elm fir\noak ash fir elm\n")
    argv = ["-corpus", corpus, "-questions", str(questions), "-output-dir", str(tmp_path), *extra]
    monkeypatch.setattr(sys, "argv", ["reproduce_full_scale.py", *argv, "-thread", "1"])
    script.main()
    assert len(trained) == len(script.SCHEDULES)
    assert len(counted) == 1 and all(vocab is counted[0] for vocab in given)
    return script


def test_reproduce_full_scale_frees_each_model_before_the_next(tmp_path, monkeypatch):
    script = run_reproduce_full_scale(tmp_path, monkeypatch, str(tmp_path / "unread.txt"))
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["questions.txt"] + [f"{kind}.{ext}" for kind in script.SCHEDULES for ext in ("cbos", "vec")]
    )


def test_reproduce_full_scale_removes_its_prepared_corpus(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ash oak elm\nfir ash oak\n")
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    run_reproduce_full_scale(tmp_path, monkeypatch, str(corpus), "-max-bytes", "12")
    assert os.listdir(temp) == []  # the prepared corpus went with its cbos-full-* directory
