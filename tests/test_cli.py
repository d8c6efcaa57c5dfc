import io
import json
import os
import struct

import numpy as np
import pytest

import cbos.corpus as corpus_module
import cbos.model as model_module
import cbos.trainer as trainer_module
from cbos.analogy import evaluate, load_analogy_file
from cbos.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, run
from cbos.corpus import build_vocab, build_vocab_from_file, normalize_text
from cbos.model import EmbeddingModel, init_model
from cbos.persist import load_bin, save_bin, save_vec
from cbos.subword import build_subword_cache
from cbos.trainer import TrainConfig


def write_corpus(tmp_path, n_lines=25):
    words = ["ash", "oak", "elm", "fir", "yew", "pine", "birch", "cedar"]
    rng = np.random.default_rng(2)
    path = tmp_path / "corpus.txt"
    with open(path, "w") as out:
        for _ in range(n_lines):
            out.write(" ".join(rng.choice(words, size=7)) + "\n")
    return str(path)


def train_args(corpus, prefix, *extra):
    return [
        "train",
        "-input",
        corpus,
        "-output",
        prefix,
        "-model",
        "cbos",
        "-dim",
        "8",
        "-ws",
        "2",
        "-epoch",
        "1",
        "-neg",
        "2",
        "-minCount",
        "1",
        "-minn",
        "0",
        "-maxn",
        "0",
        "-bucket",
        "0",
        "-t",
        "1",  # tiny corpora: keep every token
        *extra,
    ]


def geometry_model(tmp_path):
    """Tiny hand-built model on disk for eval/nn commands."""
    words = ["man", "woman", "king", "queen", "apple", "pear"]
    tokens = []
    for i, w in enumerate(words):
        tokens.extend([w] * (len(words) + 1 - i))
    vocab = build_vocab(tokens)
    rows = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0.1, 1],
        ],
        dtype=np.float32,
    )
    model = EmbeddingModel(
        input_matrix=rows,
        output_matrix=np.zeros_like(rows),
        dim=4,
    )
    config = TrainConfig(dim=4, minn=0, maxn=0, bucket=0, min_count=1)
    path = tmp_path / "geo.cbos"
    save_bin(model, vocab, config, str(path))
    return model, vocab, str(path)


# -- dispatch and usage errors ---------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_unknown_flag_is_usage_error(tmp_path):
    corpus = write_corpus(tmp_path)
    args = train_args(corpus, str(tmp_path / "m")) + ["-paperclip", "3"]
    assert run(args) == EXIT_USAGE


def test_missing_required_flag_is_usage_error():
    assert run(["train", "-input", "x.txt"]) == EXIT_USAGE


# -- train ------------------------------------------------------------------


def test_train_writes_model_files(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    prefix = str(tmp_path / "m")
    assert run(train_args(corpus, prefix, "-seed", "5")) == EXIT_OK
    captured = capsys.readouterr()
    assert "training time:" in captured.out
    assert "progress: 100.0%" in captured.err
    vec_lines = (tmp_path / "m.vec").read_text().splitlines()
    assert vec_lines[0].endswith(" 8")
    model, vocab, config = load_bin(prefix + ".cbos")
    assert int(vec_lines[0].split()[0]) == len(vocab)
    assert config.seed == 5
    assert model.dim == 8


def test_train_with_subwords(tmp_path):
    corpus = write_corpus(tmp_path)
    prefix = str(tmp_path / "sub")
    args = train_args(corpus, prefix, "-seed", "1")
    args[args.index("-minn") + 1] = "2"
    args[args.index("-maxn") + 1] = "3"
    args[args.index("-bucket") + 1] = "100"
    assert run(args) == EXIT_OK
    model, vocab, _ = load_bin(prefix + ".cbos")
    assert model.input_matrix.shape[0] == len(vocab) + 100


def test_train_composes_the_word_matrix_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_subword_cache(*args, **kwargs)

    monkeypatch.setattr(model_module, "build_subword_cache", counted)
    prefix = str(tmp_path / "sub")
    args = train_args(write_corpus(tmp_path), prefix, "-seed", "1")
    args[args.index("-minn") + 1] = "3"
    args[args.index("-maxn") + 1] = "6"
    args[args.index("-bucket") + 1] = "2000"
    assert run(args) == EXIT_OK
    assert len(calls) == 1  # save_bin composes the word block; the .vec reads it back
    # the .vec holds the vectors that composing the trained rows gives
    model, vocab, _ = load_bin(prefix + ".cbos")
    rows = EmbeddingModel(model.input_matrix, model.output_matrix, model.dim, model.bucket, model.minn, model.maxn)
    save_vec(rows, vocab, str(tmp_path / "composed.vec"))
    assert (tmp_path / "composed.vec").read_bytes() == (tmp_path / "sub.vec").read_bytes()


def test_train_variant_needs_cbos_model(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    args = train_args(corpus, str(tmp_path / "m"), "-variant", "next-word")
    args[args.index("-model") + 1] = "cbow"
    assert run(args) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_train_hyphenated_variant_maps_to_config(tmp_path):
    corpus = write_corpus(tmp_path)
    prefix = str(tmp_path / "m")
    args = train_args(corpus, prefix, "-variant", "central-word", "-seed", "1")
    assert run(args) == EXIT_OK
    _, _, config = load_bin(prefix + ".cbos")
    assert config.variant == "central_word"


def test_train_invalid_dim_is_usage_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    args = train_args(corpus, str(tmp_path / "m"))
    args[args.index("-dim") + 1] = "0"
    assert run(args) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("-lr", "inf"), ("-lr", "nan"), ("-t", "nan"), ("-t", "inf")])
def test_train_non_finite_rate_or_threshold_is_usage_error(tmp_path, capsys, flag, value):
    corpus = write_corpus(tmp_path)
    prefix = str(tmp_path / "m")
    assert run(train_args(corpus, prefix, flag, value)) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".cbos") and not os.path.exists(prefix + ".vec")


def test_train_missing_corpus_is_runtime_error(tmp_path, capsys):
    args = train_args(str(tmp_path / "absent.txt"), str(tmp_path / "m"))
    assert run(args) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_train_corrupt_corpus_is_runtime_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"ash oak elm\nfir \xff yew\n")
    assert run(train_args(str(corpus), str(tmp_path / "m"))) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "error: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte" in err
    assert not (tmp_path / "m.cbos").exists()


def test_train_corrupt_corpus_error_names_the_file_offset(corrupt_corpus, tmp_path, capsys, monkeypatch):
    path, offset = corrupt_corpus
    monkeypatch.setattr(corpus_module, "READ_BYTES", 4096)
    monkeypatch.setattr(trainer_module, "CHUNK_BYTES", 4096)
    assert run(train_args(path, str(tmp_path / "m"))) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"error: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte" in err
    assert not (tmp_path / "m.cbos").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_train_bad_precision_is_usage_error_before_training(tmp_path, capsys, value):
    for corpus in (write_corpus(tmp_path), str(tmp_path / "absent.txt")):  # the corpus is not read
        assert run(train_args(corpus, str(tmp_path / "m"), "--precision", value)) == EXIT_USAGE
        assert "usage error: --precision must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "m.cbos").exists()


def test_train_trace_writes_ndjson(tmp_path):
    corpus = write_corpus(tmp_path, n_lines=5)
    trace = tmp_path / "events.ndjson"
    args = train_args(corpus, str(tmp_path / "m"), "--trace", str(trace), "-seed", "1")
    assert run(args) == EXIT_OK
    lines = trace.read_text().splitlines()
    assert lines
    event = json.loads(lines[0])
    assert {"phase", "input_ids", "target_id", "position", "variant"} <= event.keys()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_train_trace_to_a_full_device_is_runtime_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path)  # its trace outgrows the file buffer, so a write fails mid-run
    args = train_args(corpus, str(tmp_path / "m"), "--trace", "/dev/full", "-seed", "1")
    assert run(args) == EXIT_RUNTIME
    assert capsys.readouterr().err.endswith("error: [Errno 28] No space left on device\n")
    assert not (tmp_path / "m.cbos").exists() and not (tmp_path / "m.vec").exists()


def test_train_trace_requires_single_thread(tmp_path):
    corpus = write_corpus(tmp_path)
    trace = tmp_path / "t.ndjson"
    args = train_args(
        corpus, str(tmp_path / "m"), "--trace", str(trace), "-thread", "2"
    )
    assert run(args) == EXIT_USAGE


def test_train_seed_from_environment(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path)
    monkeypatch.setenv("CBOS_SEED", "77")
    assert run(train_args(corpus, str(tmp_path / "env"))) == EXIT_OK
    monkeypatch.delenv("CBOS_SEED")
    assert run(train_args(corpus, str(tmp_path / "flag"), "-seed", "77")) == EXIT_OK
    env_bytes = (tmp_path / "env.cbos").read_bytes()
    assert env_bytes == (tmp_path / "flag.cbos").read_bytes()
    assert run(train_args(corpus, str(tmp_path / "other"), "-seed", "5")) == EXIT_OK
    assert env_bytes != (tmp_path / "other.cbos").read_bytes()


def test_train_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    corpus = write_corpus(tmp_path)
    assert run(train_args(corpus, str(tmp_path / "flag"), "-seed", "-1")) == EXIT_USAGE
    assert "usage error: seed must be >= 0" in capsys.readouterr().err
    monkeypatch.setenv("CBOS_SEED", "-3")
    assert run(train_args(corpus, str(tmp_path / "env"))) == EXIT_USAGE
    assert "usage error: seed must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.cbos")) and not list(tmp_path.glob("*.vec"))


def test_train_invalid_seed_env_is_usage_error(tmp_path, monkeypatch, capsys):
    corpus = write_corpus(tmp_path)
    monkeypatch.setenv("CBOS_SEED", "not-a-number")
    assert run(train_args(corpus, str(tmp_path / "m"))) == EXIT_USAGE
    assert "CBOS_SEED" in capsys.readouterr().err


# -- eval-analogy -----------------------------------------------------------


def write_questions(tmp_path):
    path = tmp_path / "questions.txt"
    path.write_text(
        ": royalty\n"
        "man king woman queen\n"
        "woman queen man king\n"
        "man king woman ghost\n"
    )
    return str(path)


def test_eval_analogy_json_matches_library(tmp_path, capsys):
    model, vocab, model_path = geometry_model(tmp_path)
    questions = write_questions(tmp_path)
    assert run(["eval-analogy", "-model", model_path, "-questions", questions, "--json"]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)
    expected = evaluate(model, vocab, load_analogy_file(questions)).to_dict()
    assert got == expected
    assert got["total"]["attempted"] == 2
    assert got["total"]["correct"] == 2


def test_eval_analogy_table_output(tmp_path, capsys):
    _, _, model_path = geometry_model(tmp_path)
    questions = write_questions(tmp_path)
    assert run(["eval-analogy", "-model", model_path, "-questions", questions]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Category" in out and "Total" in out
    assert "royalty" in out


def test_eval_analogy_split_override(tmp_path, capsys):
    _, _, model_path = geometry_model(tmp_path)
    questions = write_questions(tmp_path)
    split = tmp_path / "split.tsv"
    split.write_text("royalty\tsyntactic\n")
    args = [
        "eval-analogy",
        "-model",
        model_path,
        "-questions",
        questions,
        "-split",
        str(split),
        "--json",
    ]
    assert run(args) == EXIT_OK
    got = json.loads(capsys.readouterr().out)
    assert got["syntactic"]["attempted"] == 2
    assert got["semantic"]["attempted"] == 0


def test_eval_analogy_missing_files_are_runtime_errors(tmp_path):
    _, _, model_path = geometry_model(tmp_path)
    assert (
        run(["eval-analogy", "-model", model_path, "-questions", "nope.txt"])
        == EXIT_RUNTIME
    )
    assert (
        run(["eval-analogy", "-model", "nope.cbos", "-questions", "nope.txt"])
        == EXIT_RUNTIME
    )


def test_impossible_ngram_header_is_runtime_error(tmp_path, capsys):
    _, _, model_path = geometry_model(tmp_path)
    with open(model_path, "r+b") as handle:
        handle.seek(28)  # the header's minn, maxn
        handle.write(struct.pack("<II", 5, 2))
    questions = write_questions(tmp_path)
    assert run(["nn", "-model", model_path, "-word", "apple"]) == EXIT_RUNTIME
    assert run(["eval-analogy", "-model", model_path, "-questions", questions]) == EXIT_RUNTIME
    assert "invalid header" in capsys.readouterr().err


def test_eval_analogy_rejects_non_model_file(tmp_path):
    junk = tmp_path / "junk.cbos"
    junk.write_bytes(b"JUNKJUNKJUNK" * 10)
    questions = write_questions(tmp_path)
    assert run(["eval-analogy", "-model", str(junk), "-questions", questions]) == EXIT_RUNTIME


# -- nn ---------------------------------------------------------------------


def test_nn_output_format(tmp_path, capsys):
    _, _, model_path = geometry_model(tmp_path)
    assert run(["nn", "-model", model_path, "-word", "apple", "-k", "1"]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    word, score = line.split()
    assert word == "pear"
    assert score == f"{float(score):.4f}"


def test_nn_oov_word_is_runtime_error(tmp_path, capsys):
    _, _, model_path = geometry_model(tmp_path)
    assert run(["nn", "-model", model_path, "-word", "zzz"]) == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def model_with_vocab_block(tmp_path, tokens, words, counts):
    """A saved model of the vocabulary of ``tokens`` whose vocab block is rewritten to ``words`` and ``counts``.

    Returns its path and the file offset of the vocab block.
    """
    vocab = build_vocab(tokens)
    model = init_model(len(vocab), 64, 4, seed=1, minn=2, maxn=3)
    path = tmp_path / "m.cbos"
    save_bin(model, vocab, TrainConfig(dim=4, minn=2, maxn=3, bucket=64, min_count=1), str(path))
    data = path.read_bytes()
    header = struct.calcsize("<4sIQQIII")
    at = header + 8 + struct.unpack_from("<Q", data, header)[0]  # the vocab block's length field
    end = at + 8 + struct.unpack_from("<Q", data, at)[0]
    payload = json.dumps({"words": words, "counts": counts}).encode()
    path.write_bytes(data[:at] + struct.pack("<Q", len(payload)) + payload + data[end:])
    return path, at


@pytest.mark.parametrize(
    "words,counts",
    [
        (["alpha", "beta", "gamma"], [3, 2]),
        (["alpha", "beta", "gamma"], [3, "x", 1]),
        ([1, 2, 3], [3, 2, 1]),
    ],
    ids=["lists of different lengths", "a count that is not an int", "words that are not str"],
)
def test_nn_on_a_corrupt_vocab_block_is_runtime_error(tmp_path, capsys, words, counts):
    path, at = model_with_vocab_block(tmp_path, ["alpha"] * 3 + ["beta"] * 2 + ["gamma"], words, counts)
    assert run(["nn", "-model", str(path), "-word", "alpha"]) == EXIT_RUNTIME
    assert f"error: {path}: corrupt vocab block at byte {at}:" in capsys.readouterr().err


def test_nn_on_a_vocab_block_that_repeats_a_word_is_runtime_error(tmp_path, capsys):
    tokens = ["alpha"] * 4 + ["beta"] * 3 + ["gamma"] * 2 + ["delta"]
    path, at = model_with_vocab_block(tmp_path, tokens, ["alpha", "alpha", "beta", "delta"], [4, 3, 2, 1])
    assert run(["nn", "-model", str(path), "-word", "alpha", "-k", "3"]) == EXIT_RUNTIME
    out, err = capsys.readouterr()
    assert out == ""  # alpha is not listed as its own neighbour
    assert f"error: {path}: corrupt vocab block at byte {at}: repeated word 'alpha'" in err


def test_nn_bad_k_is_usage_error(tmp_path):
    _, _, model_path = geometry_model(tmp_path)
    assert run(["nn", "-model", model_path, "-word", "apple", "-k", "0"]) == EXIT_USAGE


# -- normalize --------------------------------------------------------------


def test_normalize_files(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("Hello, World!\nSecond LINE?\n")
    dst = tmp_path / "clean.txt"
    assert run(["normalize", "-input", str(src), "-output", str(dst)]) == EXIT_OK
    assert dst.read_text() == normalize_text("Hello, World!\nSecond LINE?\n")


def test_normalize_stdin_stdout(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A-B c!\n"))
    assert run(["normalize"]) == EXIT_OK
    assert capsys.readouterr().out == normalize_text("A-B c!\n")


def test_normalize_closes_its_input_when_the_output_cannot_be_opened(tmp_path, capsys):
    src = tmp_path / "raw.txt"
    src.write_text("Hello, World!\n")
    # a leaked input file would fail this test (see conftest.py)
    assert run(["normalize", "-input", str(src), "-output", str(tmp_path / "missing" / "x")]) == EXIT_RUNTIME
    assert "missing" in capsys.readouterr().err


# -- dump-vocab -------------------------------------------------------------


def test_dump_vocab_from_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    assert run(["dump-vocab", "-input", corpus, "-minCount", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    vocab = build_vocab_from_file(corpus, 1)
    lines = out.splitlines()
    assert len(lines) == len(vocab)
    word, count, wid = lines[0].split("\t")
    assert word == vocab.words[0]
    assert int(count) == int(vocab.counts[0])
    assert int(wid) == 0


def test_dump_vocab_from_model(tmp_path, capsys):
    _, vocab, model_path = geometry_model(tmp_path)
    assert run(["dump-vocab", "-model", model_path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == vocab.words


def test_dump_vocab_bad_min_count_is_usage_error_before_counting(tmp_path, capsys):
    for corpus in (write_corpus(tmp_path), str(tmp_path / "absent.txt")):  # the corpus is not read
        assert run(["dump-vocab", "-input", corpus, "-minCount", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "usage error: -minCount must be >= 1, got 0" in captured.err
        assert captured.out == ""


def test_dump_vocab_needs_exactly_one_source(tmp_path, capsys):
    corpus = write_corpus(tmp_path)
    _, _, model_path = geometry_model(tmp_path)
    assert run(["dump-vocab"]) == EXIT_USAGE
    assert (
        run(["dump-vocab", "-model", model_path, "-input", corpus]) == EXIT_USAGE
    )
