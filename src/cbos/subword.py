"""Character n-gram extraction and hashing into bucket ids.

Every word is wrapped in boundary markers (``<word>``) and its character
n-grams are hashed into a fixed range of ``bucket`` extra input-matrix rows
placed after the vocabulary rows. A word's input representation is then the
set of rows ``{word_id} ∪ {V + hash(g) for each n-gram g}``, which also lets
out-of-vocabulary words be composed from n-grams alone at query time.

:func:`build_subword_cache` hashes the n-grams of the whole vocabulary in
one call of the compiled kernel (:mod:`cbos.kernel`), so with n-grams
enabled it needs a C compiler. Its result is CSR (offsets, ids), the form
the training kernel reads. :func:`extract_ngrams` and :func:`fnv1a_32` are
the scalar reference the tests compare it with; :func:`subword_ids`
resolves one word (a query word, often out of vocabulary) through them, so
queries need no compiler.

Setting ``minn = maxn = 0`` disables n-grams entirely (pure-word training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import kernel
from .corpus import Vocab

BOW = "<"
EOW = ">"

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619


@dataclass(frozen=True)
class SubwordConfig:
    """N-gram length range and hash bucket count."""

    minn: int = 3
    maxn: int = 6
    bucket: int = 2_000_000

    def __post_init__(self) -> None:
        if self.minn == 0 or self.maxn == 0:
            if (self.minn, self.maxn) != (0, 0):
                raise ValueError("disable n-grams with minn == maxn == 0")
        elif not 1 <= self.minn <= self.maxn:
            raise ValueError(f"need 1 <= minn <= maxn, got {self.minn}..{self.maxn}")
        elif self.bucket < 1:
            raise ValueError("bucket must be >= 1 when n-grams are enabled")

    @property
    def enabled(self) -> bool:
        return self.minn >= 1


def extract_ngrams(word: str, minn: int, maxn: int) -> list[str]:
    """All n-grams of ``<word>`` with length in [minn, maxn], excluding the full wrapped form.

    Ordered left to right by start position, shortest first at each position.
    The full wrapped word is omitted because the word itself is represented
    by its vocabulary row.
    """
    if not word:
        return []
    if not 1 <= minn <= maxn:
        raise ValueError(f"need 1 <= minn <= maxn, got {minn}..{maxn}")
    wrapped = BOW + word + EOW
    length = len(wrapped)
    grams: list[str] = []
    for start in range(length):
        for n in range(minn, maxn + 1):
            end = start + n
            if end > length:
                break
            if start == 0 and end == length:
                continue
            grams.append(wrapped[start:end])
    return grams


def fnv1a_32(data: bytes) -> int:
    """32-bit FNV-1a over ``data``, XORing each byte as a sign-extended value.

    The sign extension (bytes >= 0x80 enter as their two's-complement 32-bit
    value) matches the hash used by the common subword-embedding ecosystem,
    so bucket assignments are interchangeable with models trained elsewhere.
    """
    h = _FNV_OFFSET
    for b in data:
        if b >= 128:
            b -= 256
        h ^= b & 0xFFFFFFFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
    return h


def hash_ngram(ngram: str, bucket: int) -> int:
    """Deterministically map an n-gram to a bucket id in [0, bucket)."""
    if bucket < 1:
        raise ValueError(f"bucket must be >= 1, got {bucket}")
    return fnv1a_32(ngram.encode("utf-8")) % bucket


def subword_ids(word: str, vocab: Vocab, config: SubwordConfig) -> np.ndarray:
    """A word's input-matrix rows under ``config``, int64: its vocab id (if any), then its n-gram rows.

    Out-of-vocabulary words get n-gram rows only (none if the word is too
    short to produce any n-gram). The rows come from the scalar :func:`hash_ngram`.
    """
    word_id = vocab.id_of(word)
    rows = [] if word_id is None else [word_id]
    if config.enabled:
        grams = extract_ngrams(word, config.minn, config.maxn)
        rows += [len(vocab) + hash_ngram(g, config.bucket) for g in grams]
    return np.array(rows, dtype=np.int64)


@dataclass(frozen=True)
class SubwordCache:
    """Input rows of every vocabulary word as CSR, both arrays int64.

    A sequence of per-word id arrays: ``cache[w]`` is the view
    ``ids[offsets[w]:offsets[w + 1]]``, the rows averaged whenever word
    ``w`` appears in an input bag.
    """

    offsets: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, word_id: int) -> np.ndarray:
        return self.ids[self.offsets[word_id] : self.offsets[word_id + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self[w] for w in range(len(self)))


def build_subword_cache(vocab: Vocab, config: SubwordConfig) -> SubwordCache:
    """Precompute the input rows of every vocabulary word: its id, then its n-gram rows.

    The n-gram rows are ``V + hash_ngram(g, bucket)`` for each n-gram ``g``
    in :func:`extract_ngrams` order, hashed for every word by one kernel
    loop. Computing these once keeps the hot training loop free of string
    work. With n-grams disabled the kernel is not loaded.
    """
    # a repeated word takes its last id
    word_ids = np.array([vocab.word2id[w] for w in vocab.words], dtype=np.int64)
    if not config.enabled:
        return SubwordCache(np.arange(len(vocab) + 1, dtype=np.int64), word_ids)
    lib = kernel.load()
    blob, offsets = kernel.utf8_blob([BOW + w + EOW if w else "" for w in vocab.words])
    row_off = np.empty(len(vocab) + 1, dtype=np.int64)
    args = (blob.ctypes.data, offsets.ctypes.data, len(vocab), config.minn, config.maxn, config.bucket)
    lib.cbos_subword_rows(*args, row_off.ctypes.data, None)  # fills row_off only, to size ids
    ids = np.empty(row_off[-1], dtype=np.int64)
    lib.cbos_subword_rows(*args, row_off.ctypes.data, ids.ctypes.data)
    ids[row_off[:-1]] = word_ids
    return SubwordCache(row_off, ids)
