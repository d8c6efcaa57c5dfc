"""Character n-gram extraction and hashing into bucket ids.

Every word is wrapped in boundary markers (``<word>``) and its character
n-grams are hashed into a fixed range of ``bucket`` extra input-matrix rows
placed after the vocabulary rows. A word's input representation is then the
set of rows ``{word_id} ∪ {V + hash(g) for each n-gram g}``, which also lets
out-of-vocabulary words be composed from n-grams alone at query time.

:func:`build_subword_cache` hashes the n-grams of the whole vocabulary at
once, in numpy: one lane per (word, start character) walks the UTF-8 bytes
of ``<word>``, and each step applies one 32-bit FNV-1a update to every live
lane. Its result is CSR (offsets, ids), the form the training kernel reads;
:func:`extract_ngrams` and :func:`fnv1a_32` are the scalar reference the
tests compare it with; :func:`subword_ids` resolves one word (a query word,
often out of vocabulary) through them, which for a single word costs less
than the vectorised pass.

Setting ``minn = maxn = 0`` disables n-grams entirely (pure-word training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import Vocab

BOW = "<"
EOW = ">"

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
HASH_BATCH = 1 << 14  # words per vectorised hashing pass


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


def _ngram_hashes(words: Sequence[str], minn: int, maxn: int) -> tuple[np.ndarray, np.ndarray]:
    """FNV-1a hashes of every word's n-grams as CSR: word ``i``'s are ``hashes[offsets[i]:offsets[i + 1]]``.

    Each word's hashes follow :func:`extract_ngrams` order and equal
    ``fnv1a_32(g.encode())`` for each of its n-grams ``g``. A lane starts at
    every character of ``<word>`` that begins an n-gram and walks the bytes
    of that start's longest n-gram, emitting its hash each time it completes
    its n-th character with ``n >= minn``. Lanes are sorted by the bytes they
    walk, longest first, so the lanes live at each step are a prefix.
    """
    data = np.frombuffer(b"".join((BOW + w + EOW).encode("utf-8") for w in words if w), dtype=np.uint8)
    # a byte begins a character unless it is a continuation byte; the end counts as a start
    begins = np.ones(data.size + 1, dtype=bool)
    begins[:-1] = (data & 0xC0) != 0x80
    char_pos = np.flatnonzero(begins)  # byte offset of every character, then of the end
    length = np.array([len(w) + 2 if w else 0 for w in words], dtype=np.int64)  # characters of <w>
    char_off = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(length, out=char_off[1:])

    lanes = np.maximum(length - minn + 1, 0)  # start characters 0 .. length - minn
    lane_off = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(lanes, out=lane_off[1:])
    word = np.repeat(np.arange(len(words)), lanes)
    start = np.arange(lane_off[-1]) - lane_off[word]
    lim = np.minimum(maxn, length[word] - start)  # characters of the lane's longest n-gram
    lim -= (start == 0) & (length[word] <= maxn)  # the whole <word> is not an n-gram
    out_off = np.zeros(word.size + 1, dtype=np.int64)
    np.cumsum(np.maximum(lim - minn + 1, 0), out=out_off[1:])
    hashes = np.empty(out_off[-1] + 1, dtype=np.uint32)  # the last slot takes non-emitting lanes
    dump = out_off[-1]

    first = char_off[word] + start
    span = char_pos[first + lim] - char_pos[first]  # bytes the lane walks
    order = np.argsort(-span)
    span = span[order]
    live = np.searchsorted(-span, -np.arange(span.max(initial=0)))  # live[t]: lanes walking > t bytes
    pos = char_pos[first[order]]
    slot = out_off[order] - minn  # the n-gram of n characters goes to hashes[slot + n]
    done = np.zeros(pos.size, dtype=np.int64)
    h = np.full(pos.size, _FNV_OFFSET, dtype=np.uint32)
    xor = data.view(np.int8).astype(np.int32).view(np.uint32)  # bytes >= 0x80 sign-extended
    prime = np.uint32(_FNV_PRIME)
    for m in live.tolist():
        p, hm, n = pos[:m], h[:m], done[:m]
        hm ^= xor[p]
        hm *= prime
        p += 1
        ended = begins[p]  # the lane just completed a character
        n += ended
        hashes[np.where(ended & (n >= minn), slot[:m] + n, dump)] = hm
    return out_off[lane_off], hashes[:-1]


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
    in :func:`extract_ngrams` order, hashed for every word at once.
    Computing these once keeps the hot training loop free of string work.
    """
    # a repeated word takes its last id
    word_ids = np.array([vocab.word2id[w] for w in vocab.words], dtype=np.int64)
    if not config.enabled:
        return SubwordCache(np.arange(len(vocab) + 1, dtype=np.int64), word_ids)
    gram_off, grams = [np.zeros(1, dtype=np.int64)], []
    for i in range(0, max(len(vocab), 1), HASH_BATCH):  # batches bound the hasher's per-lane temporaries
        batch_off, hashes = _ngram_hashes(vocab.words[i : i + HASH_BATCH], config.minn, config.maxn)
        gram_off.append(batch_off[1:] + gram_off[-1][-1])
        grams.append(hashes.astype(np.int64) % config.bucket + len(vocab))
    gram_off = np.concatenate(gram_off)
    ids = np.insert(np.concatenate(grams), gram_off[:-1], word_ids)
    return SubwordCache(gram_off + np.arange(len(vocab) + 1), ids)
