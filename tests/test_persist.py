import dataclasses
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

import cbos.analogy
import cbos.model
from cbos.analogy import AnalogyQuestion, VectorSpace, evaluate, word_vector
from cbos.corpus import EmptyVocabError, Vocab, build_vocab
from cbos.model import EmbeddingModel, composed_word_matrix, init_model
from cbos.persist import (
    FORMAT_VERSION,
    FormatError,
    TruncatedFileError,
    load_bin,
    load_vec,
    save_bin,
    save_vec,
)
from cbos.trainer import TrainConfig


def fixture_model(minn=0, maxn=0, bucket=0, dim=5, seed=3):
    vocab = build_vocab(
        ["alpha"] * 4 + ["beta"] * 3 + ["γάμμα"] * 2 + ["delta"] * 2
    )
    model = init_model(len(vocab), bucket, dim, seed=seed, minn=minn, maxn=maxn)
    config = TrainConfig(
        dim=dim, minn=minn, maxn=maxn, bucket=bucket, min_count=1, variant="next_word"
    )
    return model, vocab, config


# -- .vec text format ------------------------------------------------------


def test_vec_structure(tmp_path):
    model, vocab, _ = fixture_model()
    path = tmp_path / "m.vec"
    save_vec(model, vocab, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(vocab) + 1
    assert lines[0] == f"{len(vocab)} {model.dim}"
    for line, word in zip(lines[1:], vocab.words):
        fields = line.split(" ")
        assert fields[0] == word
        assert len(fields) == model.dim + 1
        for value in fields[1:]:
            assert re.fullmatch(r"-?\d+\.\d{4}", value)


def test_vec_precision_override(tmp_path):
    model, vocab, _ = fixture_model()
    path = tmp_path / "m.vec"
    save_vec(model, vocab, str(path), precision=7)
    second_line = path.read_text(encoding="utf-8").splitlines()[1]
    assert re.fullmatch(r"-?\d+\.\d{7}", second_line.split(" ")[1])
    with pytest.raises(ValueError):
        save_vec(model, vocab, str(path), precision=0)


def test_vec_round_trip_within_print_precision(tmp_path):
    model, vocab, _ = fixture_model(minn=2, maxn=3, bucket=40)
    path = tmp_path / "m.vec"
    save_vec(model, vocab, str(path))
    words, matrix = load_vec(str(path))
    assert words == vocab.words
    assert matrix.dtype == np.float32
    expected = composed_word_matrix(model, vocab)
    np.testing.assert_allclose(matrix, expected, atol=5.1e-5)


def test_vec_empty_vocab_creates_no_file(tmp_path):
    model, _, _ = fixture_model()
    path = tmp_path / "m.vec"
    with pytest.raises(EmptyVocabError):
        save_vec(model, Vocab([], []), str(path))
    assert not path.exists()


def test_load_vec_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.vec"
    bad_header.write_text("5\n")
    with pytest.raises(FormatError, match="header"):
        load_vec(str(bad_header))

    non_int = tmp_path / "b.vec"
    non_int.write_text("five 3\n")
    with pytest.raises(FormatError, match="non-integer"):
        load_vec(str(non_int))

    short_row = tmp_path / "c.vec"
    short_row.write_text("1 3\nword 0.1 0.2\n")
    with pytest.raises(FormatError, match="line 2"):
        load_vec(str(short_row))

    # no model has these shapes ("3 0" over three bare words would read as a 3 x 0 matrix)
    for header, rows in (("-1 5", ""), ("3 0", "a\nb\nc\n"), ("2 -4", "a\nb\n")):
        impossible = tmp_path / "d.vec"
        impossible.write_text(f"{header}\n{rows}")
        with pytest.raises(FormatError, match=f"header '{header}'"):
            load_vec(str(impossible))

    # a count no memory could hold: the rows are read before any of it is allocated
    short_file = tmp_path / "e.vec"
    short_file.write_text(f"{10**15} 3\nword 0.1 0.2 0.3\n")
    with pytest.raises(FormatError, match="line 3: expected 4 fields, got 0"):
        load_vec(str(short_file))


# -- .cbos binary format ---------------------------------------------------


def saved_bytes(tmp_path, **kwargs):
    model, vocab, config = fixture_model(**kwargs)
    path = tmp_path / "m.cbos"
    save_bin(model, vocab, config, str(path))
    return model, vocab, config, path


def test_bin_round_trip_is_lossless(tmp_path):
    model, vocab, config, path = saved_bytes(tmp_path)
    loaded_model, loaded_vocab, loaded_config = load_bin(str(path))
    np.testing.assert_array_equal(loaded_model.input_matrix, model.input_matrix)
    np.testing.assert_array_equal(loaded_model.output_matrix, model.output_matrix)
    assert loaded_model.input_matrix.dtype == np.float32
    assert (loaded_model.dim, loaded_model.bucket) == (model.dim, model.bucket)
    assert (loaded_model.minn, loaded_model.maxn) == (model.minn, model.maxn)
    assert loaded_vocab.words == vocab.words
    np.testing.assert_array_equal(loaded_vocab.counts, vocab.counts)
    assert loaded_config == config


def test_bin_round_trip_with_subword_rows(tmp_path):
    model, vocab, config, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    loaded_model, loaded_vocab, _ = load_bin(str(path))
    assert loaded_model.input_matrix.shape == (len(vocab) + 64, model.dim)
    np.testing.assert_array_equal(loaded_model.input_matrix, model.input_matrix)
    assert loaded_model.minn == 2 and loaded_model.maxn == 3


def test_bin_save_twice_is_byte_identical(tmp_path):
    model, vocab, config, path = saved_bytes(tmp_path)
    again = tmp_path / "again.cbos"
    save_bin(model, vocab, config, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_bin_rejects_float64_models(tmp_path):
    model, vocab, config = fixture_model()
    model.input_matrix = model.input_matrix.astype(np.float64)
    model.output_matrix = model.output_matrix.astype(np.float64)
    with pytest.raises(ValueError, match="float32"):
        save_bin(model, vocab, config, str(tmp_path / "m.cbos"))


@pytest.mark.parametrize("field", ["dim", "minn", "maxn", "bucket"])
def test_bin_refuses_a_config_unlike_the_model_before_creating_the_file(tmp_path, field):
    model, vocab, config = fixture_model(minn=3, maxn=6, bucket=64)
    wrong = TrainConfig(**{**dataclasses.asdict(config), field: getattr(config, field) + 1})
    got = tuple(getattr(wrong, name) for name in ("dim", "minn", "maxn", "bucket"))
    message = f"config does not match the model: (dim, minn, maxn, bucket) {got}, not (5, 3, 6, 64)"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_bin(model, vocab, wrong, str(tmp_path / "m.cbos"))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("bucket", [0, 8])
def test_bin_config_bucket_counts_only_with_ngrams(tmp_path, bucket):
    # a model without n-grams reads no bucket rows, whatever bucket its config names
    model, vocab, config = fixture_model(bucket=bucket)
    path = str(tmp_path / "m.cbos")
    save_bin(model, vocab, TrainConfig(**{**dataclasses.asdict(config), "bucket": 2_000_000}), path)
    loaded, _, loaded_config = load_bin(path)
    assert (loaded.bucket, loaded_config.bucket) == (bucket, 2_000_000)


def test_bin_rejects_vocab_model_mismatch(tmp_path):
    model, _, config = fixture_model()
    other = build_vocab(["x", "y"])
    with pytest.raises(ValueError, match="vocab"):
        save_bin(model, other, config, str(tmp_path / "m.cbos"))


def test_bin_bad_magic(tmp_path):
    path = tmp_path / "m.cbos"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_bin(str(path))


def test_bin_unsupported_version(tmp_path):
    _, _, _, path = saved_bytes(tmp_path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", FORMAT_VERSION + 9)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=rf"version {FORMAT_VERSION + 9} \(this build reads versions 1 and 2\)"):
        load_bin(str(path))


@pytest.mark.parametrize("keep", [0, 10, 35, 40, 90])
def test_bin_truncation_reports_byte_offset(tmp_path, keep):
    _, _, _, path = saved_bytes(tmp_path)
    data = path.read_bytes()
    assert keep < len(data)
    path.write_bytes(data[:keep])
    with pytest.raises(TruncatedFileError, match=r"truncated at byte (\d+)") as info:
        load_bin(str(path))
    offset = int(re.search(r"byte (\d+)", str(info.value)).group(1))
    assert 0 <= offset <= keep


def test_bin_truncation_offset_inside_matrix(tmp_path):
    model, vocab, config, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    data = path.read_bytes()
    rows = model.input_matrix.shape[0] + 2 * len(vocab)  # input, output and word blocks
    matrix_start = len(data) - 4 * model.dim * rows
    keep = matrix_start + 4 * model.dim + 2  # cut mid-float in row 1
    path.write_bytes(data[:keep])
    with pytest.raises(TruncatedFileError) as info:
        load_bin(str(path))
    offset = int(re.search(r"byte (\d+)", str(info.value)).group(1))
    assert offset == matrix_start + 4 * model.dim  # last complete float boundary


def test_bin_trailing_bytes_rejected(tmp_path):
    _, _, _, path = saved_bytes(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_bin(str(path))


def test_bin_corrupt_config_block(tmp_path):
    _, _, _, path = saved_bytes(tmp_path)
    data = bytearray(path.read_bytes())
    header = struct.calcsize("<4sIQQIII")
    (length,) = struct.unpack_from("<Q", data, header)
    data[header + 8 : header + 8 + length] = b"{" * length  # same length, bad JSON
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="metadata"):
        load_bin(str(path))


def test_bin_header_vocab_count_mismatch(tmp_path):
    _, vocab, _, path = saved_bytes(tmp_path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 8, len(vocab) + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="claims"):
        load_bin(str(path))


def with_header(data: bytes, **fields: int) -> bytes:
    """The model file ``data`` with the named header fields set."""
    layout = {"v": ("<Q", 8), "bucket": ("<Q", 16), "dim": ("<I", 24), "minn": ("<I", 28), "maxn": ("<I", 32)}
    out = bytearray(data)
    for name, value in fields.items():
        struct.pack_into(layout[name][0], out, layout[name][1], value)
    return bytes(out)


BAD_HEADERS = [  # each with the byte its error names: the field at fault
    ({"minn": 5, "maxn": 2}, 28),
    ({"minn": 0, "maxn": 4}, 28),
    ({"minn": 4, "maxn": 0}, 28),
    ({"bucket": 0}, 16),
    ({"dim": 0}, 24),
]


@pytest.mark.parametrize("fields", [fields for fields, _ in BAD_HEADERS])
def test_bin_rejects_header_no_model_can_have(tmp_path, fields):
    _, _, _, path = saved_bytes(tmp_path, minn=3, maxn=6, bucket=64)
    path.write_bytes(with_header(path.read_bytes(), **fields))
    with pytest.raises(FormatError, match="invalid header"):
        load_bin(str(path))


# -- .cbos matrices are a read-only mapping of the file ----------------------


def test_writes_into_a_loaded_model_leave_the_file_unchanged(tmp_path):
    model, _, _, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    before = path.read_bytes()
    loaded, _, _ = load_bin(str(path))
    for matrix in (loaded.input_matrix, loaded.output_matrix, loaded.word_matrix):
        with pytest.raises(ValueError, match="read-only"):
            matrix += 1.0
        with pytest.raises(ValueError, match="read-only"):
            matrix[0] = 7.0
    np.testing.assert_array_equal(loaded.input_matrix, model.input_matrix)
    np.testing.assert_array_equal(loaded.output_matrix, model.output_matrix)
    assert path.read_bytes() == before


def test_save_over_the_file_a_live_model_maps(tmp_path):
    model, vocab, config, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    before = path.read_bytes()
    loaded, loaded_vocab, loaded_config = load_bin(str(path))
    save_bin(loaded, loaded_vocab, loaded_config, str(path))
    assert path.read_bytes() == before
    np.testing.assert_array_equal(loaded.input_matrix, model.input_matrix)
    np.testing.assert_array_equal(loaded.output_matrix, model.output_matrix)


# -- format version 2: the composed word vectors of n-gram models -----------


def matrices_at(data: bytes) -> int:
    """Where the input matrix starts."""
    at, length = vocab_block(data)
    return at + 8 + length


def test_loaded_word_matrix_is_the_composition_of_the_loaded_rows(tmp_path):
    _, _, _, path = saved_bytes(tmp_path, minn=2, maxn=4, bucket=64, dim=7, seed=11)
    loaded, vocab, _ = load_bin(str(path))
    rebuilt = EmbeddingModel(
        loaded.input_matrix.copy(), loaded.output_matrix.copy(), loaded.dim, loaded.bucket, loaded.minn, loaded.maxn
    )
    assert rebuilt.word_matrix is None
    assert loaded.word_matrix.shape == (len(vocab), loaded.dim)
    assert loaded.word_matrix.tobytes() == composed_word_matrix(rebuilt, vocab).tobytes()
    stored = composed_word_matrix(loaded, vocab)
    assert stored.tobytes() == loaded.word_matrix.tobytes()
    assert np.shares_memory(stored, loaded.word_matrix) and not stored.flags.writeable


def test_word_vector_of_a_loaded_model_reads_its_stored_row(tmp_path, monkeypatch):
    model, vocab, _, path = saved_bytes(tmp_path, minn=2, maxn=4, bucket=64, dim=7, seed=11)
    loaded, loaded_vocab, _ = load_bin(str(path))
    gathered = {w: word_vector(model, vocab, w).tobytes() for w in vocab.words + ["unseen"]}
    calls = []
    real = cbos.analogy.subword_ids
    monkeypatch.setattr(cbos.analogy, "subword_ids", lambda *args: calls.append(args[0]) or real(*args))
    for w in vocab.words:
        assert word_vector(loaded, loaded_vocab, w).tobytes() == gathered[w]
    assert calls == []  # vocabulary words gather no rows
    assert word_vector(loaded, loaded_vocab, "unseen").tobytes() == gathered["unseen"]
    assert calls == ["unseen"]  # an unseen word still composes from its n-gram rows


def test_version_1_file_without_word_block_loads(tmp_path):
    model, vocab, config, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    data = path.read_bytes()
    v1 = tmp_path / "v1.cbos"
    v1.write_bytes(data[:4] + struct.pack("<I", 1) + data[8 : len(data) - 4 * model.dim * len(vocab)])
    old, old_vocab, old_config = load_bin(str(v1))
    new, _, _ = load_bin(str(path))
    assert old.word_matrix is None
    assert old.input_matrix.tobytes() == model.input_matrix.tobytes()
    assert old.output_matrix.tobytes() == model.output_matrix.tobytes()
    assert VectorSpace(old, old_vocab).unit.tobytes() == VectorSpace(new, vocab).unit.tobytes()
    resaved = tmp_path / "resaved.cbos"
    save_bin(old, old_vocab, old_config, str(resaved))
    assert resaved.read_bytes() == data  # saving composes the block a version 1 file lacks


def test_bin_truncation_inside_word_block(tmp_path):
    model, vocab, _, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    data = path.read_bytes()
    words_at = len(data) - 4 * model.dim * len(vocab)
    assert words_at == matrices_at(data) + 4 * model.dim * (model.input_matrix.shape[0] + len(vocab))
    path.write_bytes(data[: words_at + 4 * model.dim + 2])  # cut mid-float in row 1
    with pytest.raises(TruncatedFileError, match=rf"truncated at byte {words_at + 4 * model.dim}: word matrix"):
        load_bin(str(path))
    path.write_bytes(data + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_bin(str(path))


@pytest.mark.parametrize("bucket", [0, 8])
def test_ngram_free_files_carry_no_word_block(tmp_path, bucket):
    model, vocab, _, path = saved_bytes(tmp_path, bucket=bucket)
    data = path.read_bytes()
    assert len(data) == matrices_at(data) + 4 * model.dim * (len(vocab) + bucket + len(vocab))
    loaded, _, _ = load_bin(str(path))
    assert loaded.word_matrix is None


def test_queries_and_saves_of_a_loaded_model_compose_nothing(tmp_path, monkeypatch):
    model, vocab, config, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    unit = VectorSpace(model, vocab).unit
    save_vec(model, vocab, str(tmp_path / "m.vec"))
    loaded, loaded_vocab, loaded_config = load_bin(str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("a loaded model's n-gram rows were gathered")

    monkeypatch.setattr(cbos.model, "build_subword_cache", refuse)
    assert VectorSpace(loaded, loaded_vocab).unit.tobytes() == unit.tobytes()
    question = AnalogyQuestion("alpha", "beta", "γάμμα", "delta", "pairs")
    assert evaluate(loaded, loaded_vocab, [question]).total.attempted == 1
    save_vec(loaded, loaded_vocab, str(tmp_path / "again.vec"))
    assert (tmp_path / "again.vec").read_bytes() == (tmp_path / "m.vec").read_bytes()
    save_bin(loaded, loaded_vocab, loaded_config, str(tmp_path / "again.cbos"))
    assert (tmp_path / "again.cbos").read_bytes() == path.read_bytes()


def vocab_block(data: bytes) -> tuple[int, int]:
    """Where the vocab block's length field sits, and that length."""
    header = struct.calcsize("<4sIQQIII")
    (config_length,) = struct.unpack_from("<Q", data, header)
    at = header + 8 + config_length
    return at, struct.unpack_from("<Q", data, at)[0]


BAD_VOCAB_BLOCKS = {
    "lists of different lengths": {"words": ["alpha", "beta", "γάμμα", "delta"], "counts": [4, 3, 2]},
    "a count that is not an int": {"words": ["alpha", "beta", "γάμμα", "delta"], "counts": [4, 3, "x", 2]},
    "words that are not str": {"words": [1, 2, 3, 4], "counts": [4, 3, 2, 2]},
    "a negative count": {"words": ["alpha", "beta", "γάμμα", "delta"], "counts": [4, 3, -2, 2]},
    "a bool count": {"words": ["alpha", "beta", "γάμμα", "delta"], "counts": [4, 3, True, 2]},
    "counts summing past int64": {"words": ["alpha", "beta", "γάμμα", "delta"], "counts": [2**62, 2**62, 2, 2]},
    "a repeated word": {"words": ["alpha", "alpha", "beta", "delta"], "counts": [4, 3, 2, 2]},
}


def with_vocab_block(data: bytes, block: dict) -> bytes:
    """The model file ``data`` with its vocab block replaced by the JSON of ``block``."""
    return with_vocab_payload(data, json.dumps(block).encode())


@pytest.mark.parametrize("block", BAD_VOCAB_BLOCKS.values(), ids=BAD_VOCAB_BLOCKS.keys())
def test_bin_rejects_a_vocab_block_no_model_can_have(tmp_path, block):
    _, _, _, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    data = path.read_bytes()
    at, _ = vocab_block(data)
    path.write_bytes(with_vocab_block(data, block))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: corrupt vocab block at byte {at}:"):
        load_bin(str(path))


def cut(data: bytes, keep: int) -> tuple[bytes, int]:
    """The first ``keep`` bytes of ``data``, and the byte their error names: where the file ends."""
    return data[:keep], keep


def matrix_cut(data: bytes, at: int) -> tuple[bytes, int]:
    """``data`` cut mid-float in row 1 of the matrix at ``at``: the error names the last whole float."""
    return data[: at + 4 * DIM + 2], at + 4 * DIM


def with_config_payload(data: bytes, payload: bytes) -> bytes:
    """The model file ``data`` with its config block's payload replaced by ``payload``."""
    at, _ = vocab_block(data)  # the config block ends where the vocab block starts
    return data[:36] + struct.pack("<Q", len(payload)) + payload + data[at:]


def with_config(data: bytes, **fields) -> bytes:
    """The model file ``data`` with the named fields of its config block set."""
    at, _ = vocab_block(data)
    config = json.loads(data[44:at])  # the payload follows the 36-byte header and its 8-byte length
    return with_config_payload(data, json.dumps({**config, **fields}).encode())


def with_vocab_payload(data: bytes, payload: bytes) -> bytes:
    """The model file ``data`` with its vocab block's payload replaced by ``payload``."""
    at, length = vocab_block(data)
    return data[:at] + struct.pack("<Q", len(payload)) + payload + data[at + 8 + length :]


DIM, WORDS = 5, 4  # the fixture model's
REPEATED_WORD = BAD_VOCAB_BLOCKS["a repeated word"]
CORRUPT_FILES = {  # name: (how its error begins, the file made from a good one and the byte the error names)
    "bad magic": ("not a model file", lambda d: (b"NOPE" + d[4:], 0)),
    "unsupported version": ("unsupported format", lambda d: (d[:4] + struct.pack("<I", 11) + d[8:], 4)),
    **{
        f"invalid header {fields}": ("invalid header", lambda d, fields=fields, at=at: (with_header(d, **fields), at))
        for fields, at in BAD_HEADERS
    },
    "bad config JSON": ("corrupt metadata block", lambda d: (with_config_payload(d, b"{"), 36)),
    **{
        f"a config {field} unlike the header's": ("config block", lambda d, f=field, v=v: (with_config(d, **{f: v}), 36))
        for field, v in {"dim": DIM + 1, "minn": 2, "maxn": 5, "bucket": 65}.items()
    },
    "bad vocab JSON": ("corrupt vocab block", lambda d: (with_vocab_payload(d, b"{"), vocab_block(d)[0])),
    "a word-count mismatch": (r"header claims \d+ words", lambda d: (with_header(d, v=WORDS + 1), 8)),
    "a repeated word": ("corrupt vocab block", lambda d: (with_vocab_block(d, REPEATED_WORD), vocab_block(d)[0])),
    "an empty file": ("truncated", lambda d: (b"", 0)),
    "a cut inside the header": ("truncated", lambda d: cut(d, 20)),
    "a cut inside the config length": ("truncated", lambda d: cut(d, 39)),
    "a cut inside the config block": ("truncated", lambda d: cut(d, 49)),
    "a cut inside the vocab length": ("truncated", lambda d: cut(d, vocab_block(d)[0] + 3)),
    "a cut inside the vocab block": ("truncated", lambda d: cut(d, vocab_block(d)[0] + 13)),
    "a cut inside the input matrix": ("truncated", lambda d: matrix_cut(d, matrices_at(d))),
    "a cut inside the output matrix": ("truncated", lambda d: matrix_cut(d, len(d) - 8 * DIM * WORDS)),
    "a cut inside the word matrix": ("truncated", lambda d: matrix_cut(d, len(d) - 4 * DIM * WORDS)),
    "trailing bytes": ("unexpected trailing bytes", lambda d: (d + b"\x00", len(d))),
}


@pytest.mark.parametrize("case", CORRUPT_FILES.values(), ids=CORRUPT_FILES.keys())
def test_every_corrupt_file_error_names_its_byte_offset(tmp_path, case):
    wording, corrupt = case
    _, _, _, path = saved_bytes(tmp_path, minn=3, maxn=6, bucket=64)
    data, offset = corrupt(path.read_bytes())
    path.write_bytes(data)
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: {wording} at byte {offset}\b"):
        load_bin(str(path))


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_unaligned_legacy_file_loads_bit_identically(tmp_path, shift):
    model, vocab, _, path = saved_bytes(tmp_path, minn=2, maxn=3, bucket=64)
    data = path.read_bytes()
    at, length = vocab_block(data)
    start = at + 8 + length  # the input matrix
    pad = (shift - start) % 4  # trailing spaces inside the vocab JSON
    padded = data[:at] + struct.pack("<Q", length + pad) + data[at + 8 : start] + b" " * pad + data[start:]
    at, length = vocab_block(padded)
    assert (at + 8 + length) % 4 == shift
    path.write_bytes(padded)
    loaded, loaded_vocab, _ = load_bin(str(path))
    assert not loaded.input_matrix.flags.aligned
    assert loaded.input_matrix.tobytes() == model.input_matrix.tobytes()
    assert loaded.output_matrix.tobytes() == model.output_matrix.tobytes()
    assert loaded_vocab.words == vocab.words
    assert VectorSpace(loaded, vocab).unit.tobytes() == VectorSpace(model, vocab).unit.tobytes()


def test_load_bin_allocates_no_matrix(tmp_path):
    model, _, _, path = saved_bytes(tmp_path, minn=3, maxn=6, bucket=2**19, dim=4)
    assert model.input_matrix.nbytes >= 8 * 2**20
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        loaded, _, _ = load_bin(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    np.testing.assert_array_equal(loaded.input_matrix, model.input_matrix)


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_loaded_model_holds_one_descriptor_until_dropped(tmp_path):
    _, _, _, path = saved_bytes(tmp_path)
    before = open_descriptors()
    loaded, _, _ = load_bin(str(path))
    assert open_descriptors() == before + 1
    del loaded
    assert open_descriptors() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_load_and_drop_cycles_leak_no_descriptor(tmp_path):
    _, _, _, path = saved_bytes(tmp_path)
    truncated = tmp_path / "short.cbos"
    truncated.write_bytes(path.read_bytes()[:-2])
    broken = [str(truncated)]
    for name in ("bad magic", "bad config JSON", "a word-count mismatch", "trailing bytes"):
        bad = tmp_path / f"{name}.cbos"
        bad.write_bytes(CORRUPT_FILES[name][1](path.read_bytes())[0])
        broken.append(str(bad))
    before = open_descriptors()
    failures = []  # a kept traceback keeps load_bin's frame, and its locals, alive
    for _ in range(50):
        load_bin(str(path))
        for bad in broken:  # each fails after the file is mapped
            with pytest.raises(FormatError) as info:
                load_bin(bad)
            failures.append(info)
    assert open_descriptors() == before


# -- atomic writes ---------------------------------------------------------


def fail_after_first_row(model, vocab):
    yield np.zeros(model.dim, dtype=np.float32)
    raise OSError("disk full")


def fail_on_matrix(matrix):
    raise OSError("disk full")


@pytest.mark.parametrize(
    "name,target,broken",
    [
        ("m.cbos", "_matrix_bytes", fail_on_matrix),
        ("m.vec", "composed_word_matrix", fail_after_first_row),
    ],
)
def test_failed_save_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, name, target, broken):
    import cbos.persist as persist

    model, vocab, config = fixture_model()
    path = tmp_path / name

    def save():
        if name.endswith(".cbos"):
            save_bin(model, vocab, config, str(path))
        else:
            save_vec(model, vocab, str(path))

    save()
    before = path.read_bytes()
    model.input_matrix += 1.0  # the next save would write different bytes
    monkeypatch.setattr(persist, target, broken)
    with pytest.raises(OSError, match="disk full"):
        save()  # fails after its header is already written
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
