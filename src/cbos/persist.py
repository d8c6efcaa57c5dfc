"""Model serialization: ecosystem `.vec` text vectors and a lossless native binary.

The `.vec` file is the interchange format (header line ``V dim``, then one
word and its composed vector per line) and is lossy by construction: floats
print with fixed decimals and n-gram rows are baked into per-word means.
The `.cbos` binary is the source of truth, preserving both matrices, the
vocabulary with counts, and the training configuration bit for bit. From
format version 2 on, a file of an n-gram model also stores every word's
composed vector (:func:`cbos.model.composed_word_matrix` at save time), so
queries on the loaded model never gather n-gram rows; version 1 files,
which lack that block, still load.

Loading a `.cbos` file maps it read-only, then checks it in one walk from
byte 0, so every error names the byte offset where the file went wrong.
The matrices are views into that mapping, not copies. Their pages are read
when first touched (from disk, on a cold page cache), writing into them
raises ``ValueError``, and the loaded model holds one file descriptor
until its matrices are dropped. So the file must not be truncated or
rewritten in place while a loaded model is alive; :func:`save_bin`
replaces it atomically, which is safe. To change a loaded model, copy its
matrices into a new :class:`cbos.model.EmbeddingModel`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import mmap
import os
import secrets
import struct
from typing import IO, BinaryIO, Iterator

import numpy as np

from .corpus import EmptyVocabError, Vocab
from .model import EmbeddingModel, composed_word_matrix
from .subword import SubwordConfig
from .trainer import TrainConfig

MAGIC = b"CBOS"
FORMAT_VERSION = 2  # load_bin also reads version 1, which has no word block

# magic, version, V, bucket, dim, minn, maxn
_HEADER = struct.Struct("<4sIQQIII")


class FormatError(ValueError):
    """The file is not a readable model of the expected format/version."""


class TruncatedFileError(FormatError):
    """The file ends before the advertised payload; message carries the offset."""


@contextlib.contextmanager
def _atomic_write(path: str, mode: str, **kwargs) -> Iterator[IO]:
    """A new file beside ``path`` that replaces it only once fully written.

    The file is created exclusively under a unique hidden name in the
    target directory (so with the usual permissions) and moved over
    ``path`` by ``os.replace``; if writing raises, it is removed and any
    previous ``path`` stays as it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode, **kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_vec(
    model: EmbeddingModel, vocab: Vocab, path: str, precision: int = 4
) -> None:
    """Write the text vector file: ``V dim`` header, then word + floats per line.

    Vectors are the composed per-word means, so subword information is
    already folded in. Raises :class:`EmptyVocabError` before creating the
    file when the vocabulary is empty. The file appears whole or not at
    all (see :func:`_atomic_write`).
    """
    if len(vocab) == 0:
        raise EmptyVocabError("refusing to write a .vec file for an empty vocab")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    matrix = composed_word_matrix(model, vocab)
    row_format = " ".join([f"%.{precision}f"] * model.dim)  # 3x faster than one f-string per float
    with _atomic_write(path, "x", encoding="utf-8") as out:
        out.write(f"{len(vocab)} {model.dim}\n")
        for word, row in zip(vocab.words, matrix):
            out.write(f"{word} {row_format % tuple(row.tolist())}\n")


def load_vec(path: str) -> tuple[list[str], np.ndarray]:
    """Read a `.vec` file back as (words, float32 matrix in file order)."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: expected 'V dim' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError(f"{path}: non-integer header: {exc}") from exc
        if count < 0 or dim < 1:
            raise FormatError(f"{path}: header '{count} {dim}' needs a count >= 0 and a dim >= 1")
        words: list[str] = []
        rows: list[np.ndarray] = []  # grown per line read: the header's count allocates nothing
        for i in range(count):
            fields = handle.readline().split()
            if len(fields) != dim + 1:
                raise FormatError(
                    f"{path}: line {i + 2}: expected {dim + 1} fields, "
                    f"got {len(fields)}"
                )
            words.append(fields[0])
            rows.append(np.array([float(x) for x in fields[1:]], dtype=np.float32))
    return words, np.array(rows, dtype=np.float32).reshape(count, dim)


def _write_block(out: BinaryIO, payload: bytes) -> None:
    out.write(struct.pack("<Q", len(payload)))
    out.write(payload)


def _matrix_bytes(matrix: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(matrix, dtype="<f4")


def save_bin(model: EmbeddingModel, vocab: Vocab, config: TrainConfig, path: str) -> None:
    """Write the native binary model file.

    Layout: fixed header (magic, version, V, bucket, dim, minn, maxn), a
    JSON config block, a JSON vocab block (words and counts, preserving id
    order), then the input and output matrices as row-major little-endian
    float32. For an n-gram model (``minn > 0``) a ``V x dim`` word block of
    the same type follows: :func:`cbos.model.composed_word_matrix`, which
    for a loaded model is its own block, written without a copy. Only
    float32 models are serialized; the format has no wider payload type.
    ``config`` must match the model (see :func:`_config_mismatch`). The file
    appears whole or not at all (see :func:`_atomic_write`).
    """
    if np.dtype(model.dtype) != np.float32:
        raise ValueError(f"only float32 models are serialized, got {model.dtype}")
    if len(vocab) != model.vocab_size:
        raise ValueError("vocab size does not match model")
    if mismatch := _config_mismatch(config, model.dim, model.minn, model.maxn, model.bucket):
        raise ValueError(f"config does not match the model: {mismatch}")
    with _atomic_write(path, "xb") as out:
        out.write(
            _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                len(vocab),
                model.bucket,
                model.dim,
                model.minn,
                model.maxn,
            )
        )
        _write_block(out, json.dumps(dataclasses.asdict(config)).encode("utf-8"))
        vocab_block = {"words": vocab.words, "counts": vocab.counts.tolist()}
        _write_block(out, json.dumps(vocab_block).encode("utf-8"))
        _matrix_bytes(model.input_matrix).tofile(out)
        _matrix_bytes(model.output_matrix).tofile(out)
        if model.minn > 0:
            _matrix_bytes(composed_word_matrix(model, vocab)).tofile(out)


def _config_mismatch(config: TrainConfig, dim: int, minn: int, maxn: int, bucket: int) -> str:
    """How ``config`` differs from a model's dim, minn, maxn and (with n-grams) bucket, or ``""``."""
    got, want = (config.dim, config.minn, config.maxn, config.bucket), (dim, minn, maxn, bucket)
    same = got[:3] == want[:3] and (minn == 0 or got[3] == bucket)
    return "" if same else f"(dim, minn, maxn, bucket) {got}, not {want}"


def _extent(path: str, size: int, at: int, count: int, what: str, itemsize: int = 1) -> int:
    """End of ``count`` items of ``itemsize`` bytes at ``at`` in a file of ``size`` bytes.

    A file that ends first raises :class:`TruncatedFileError` at the byte
    after the last whole item.
    """
    got = min(count, (size - at) // itemsize)
    if got != count:
        raise TruncatedFileError(
            f"{path}: truncated at byte {at + got * itemsize}: {what} needs "
            f"{count * itemsize} bytes, got {size - at}"
        )
    return at + count * itemsize


def load_bin(path: str) -> tuple[EmbeddingModel, Vocab, TrainConfig]:
    """Read a native binary model; exact inverse of :func:`save_bin`.

    Reads format versions 1 and 2. The mapped file is checked in one walk
    from byte 0: header, config block (which must match the header, as
    :func:`save_bin` requires), vocab block, each matrix, and no trailing
    bytes; a :class:`FormatError` names the byte offset where the file went
    wrong. The matrices, and a version 2 n-gram model's ``word_matrix``,
    are read-only views of the mapping, so the model holds one file
    descriptor while it is alive (see the module docstring).
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:  # mmap refuses an empty file
            _extent(path, 0, 0, _HEADER.size, "header")
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    size = len(mapping)
    try:
        config_at = _extent(path, size, 0, _HEADER.size, "header")
        magic, version, v, bucket, dim, minn, maxn = _HEADER.unpack_from(mapping)
        if magic != MAGIC:
            raise FormatError(f"{path}: not a model file at byte 0 (bad magic {magic!r})")
        if version not in (1, FORMAT_VERSION):
            raise FormatError(
                f"{path}: unsupported format at byte 4: version {version} "
                f"(this build reads versions 1 and {FORMAT_VERSION})"
            )
        if dim < 1:
            raise FormatError(f"{path}: invalid header at byte 24: dim must be >= 1, got {dim}")
        try:
            SubwordConfig(minn, maxn, bucket)
        except ValueError as exc:
            at = 16 if 1 <= minn <= maxn else 28  # a valid minn..maxn leaves the bucket at fault
            raise FormatError(f"{path}: invalid header at byte {at}: {exc}") from None
        body = _extent(path, size, config_at, 8, "config block length")
        vocab_at = _extent(path, size, body, int.from_bytes(mapping[config_at:body], "little"), "config block")
        try:
            config = TrainConfig(**json.loads(mapping[body:vocab_at]))
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: corrupt metadata block at byte {config_at}: {exc}") from None
        if mismatch := _config_mismatch(config, dim, minn, maxn, bucket):
            raise FormatError(f"{path}: config block at byte {config_at} does not match the header: {mismatch}")
        body = _extent(path, size, vocab_at, 8, "vocab block length")
        start = _extent(path, size, body, int.from_bytes(mapping[vocab_at:body], "little"), "vocab block")
        corrupt_vocab = f"{path}: corrupt vocab block at byte {vocab_at}:"
        try:
            vocab_block = json.loads(mapping[body:start])
            words, counts = vocab_block["words"], vocab_block["counts"]
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{corrupt_vocab} {exc}") from None
        if not (
            isinstance(words, list)
            and isinstance(counts, list)
            and len(words) == len(counts)
            and all(type(word) is str for word in words)
            and all(type(count) is int and count >= 0 for count in counts)
            and sum(counts) < 2**63
        ):
            raise FormatError(
                f"{corrupt_vocab} needs a list of words (str) "
                "and a list of as many counts (int >= 0, summing below 2**63)"
            )
        if len(words) != v:
            raise FormatError(f"{path}: header claims {v} words at byte 8, vocab block has {len(words)}")
        vocab = Vocab(words, counts)
        if len(vocab.word2id) != v:  # a repeated word keeps its last id: no name reaches the earlier row
            repeated = next(word for i, word in enumerate(words) if vocab.word2id[word] != i)
            raise FormatError(f"{corrupt_vocab} repeated word {repeated!r}")
        output_at = _extent(path, size, start, (v + bucket) * dim, "input matrix", 4)
        words_at = _extent(path, size, output_at, v * dim, "output matrix", 4)
        has_words = version >= 2 and minn > 0
        end = _extent(path, size, words_at, v * dim, "word matrix", 4) if has_words else words_at
        if end != size:  # checked before any view exists: a live view makes close() raise
            raise FormatError(f"{path}: unexpected trailing bytes at byte {end}")
    except BaseException:
        mapping.close()
        raise

    def matrix(at: int, rows: int) -> np.ndarray:
        return np.frombuffer(mapping, dtype="<f4", count=rows * dim, offset=at).reshape(rows, dim)

    model = EmbeddingModel(
        input_matrix=matrix(start, v + bucket),
        output_matrix=matrix(output_at, v),
        dim=dim,
        bucket=bucket,
        minn=minn,
        maxn=maxn,
        word_matrix=matrix(words_at, v) if has_words else None,
    )
    return model, vocab, config
