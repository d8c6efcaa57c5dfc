"""Corpus preprocessing: normalization, tokenization, vocabulary, sampling tables.

The training pipeline expects plain UTF-8 text with one sentence per line.
`normalize_text` produces that form from raw text (lowercase, punctuation
stripped). :func:`build_vocab_from_file` builds the word inventory of a
corpus file: the strict decoder checks each block, the one UTF-8 check of a
run, and the compiled kernel counts its words with the tokenizer that
training encodes with (:func:`build_vocab` is the Python reference). The
remaining functions derive from the inventory the two sampling tables every
training schedule relies on: per-word discard probabilities for
frequent-word subsampling (:meth:`Vocab.discard_probs`) and the
unigram^0.75 distribution of negative samples, as the end slot of each
word's run in a virtual table of ``NEGATIVE_TABLE_SIZE`` slots
(:func:`negative_bounds`, V int64 entries). A training run builds both for
itself and keeps them only while it runs. The table itself
(:func:`build_negative_table`, 40 MB) is built only as the reference that
the tests compare the kernel's slot -> word map with.
"""

from __future__ import annotations

import math
import os
import sys
import unicodedata
from collections import Counter
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from . import kernel

NEGATIVE_TABLE_SIZE = 10_000_000
NEGATIVE_POWER = 0.75
READ_BYTES = 1 << 16  # corpus bytes per block of the strict decode (and of the word count)


class EmptyVocabError(ValueError):
    """No words survived vocabulary construction."""


def normalize_text(text: str) -> str:
    """Lowercase ``text`` and replace punctuation and symbol characters by spaces.

    Characters in the Unicode general categories P* (punctuation) and S*
    (symbols) each become a single space; letters, digits, and whitespace
    (including newlines, which delimit sentences) pass through unchanged.
    Idempotent: normalizing already-normalized text is a no-op.
    """
    lowered = text.lower()
    table = {
        ord(ch): " "
        for ch in set(lowered)
        if unicodedata.category(ch)[0] in ("P", "S")
    }
    return lowered.translate(table) if table else lowered


class CorpusDecodeError(UnicodeDecodeError):
    """Invalid UTF-8 in a corpus file: ``start`` and ``end`` count bytes from the start of the file.

    ``object`` is the block of the file that was being decoded; it begins at
    byte ``block_start``.
    """

    def __init__(self, error: UnicodeDecodeError, block_start: int):
        super().__init__(
            error.encoding, error.object, error.start + block_start, error.end + block_start, error.reason
        )
        self.block_start = block_start

    def __str__(self) -> str:
        bad = self.object[self.start - self.block_start : self.end - self.block_start]
        if len(bad) == 1:
            where = f"byte 0x{bad[0]:02x} in position {self.start}"
        else:
            where = f"bytes in position {self.start}-{self.end - 1}"
        return f"'{self.encoding}' codec can't decode {where}: {self.reason}"


def iter_line_blocks(handle: BinaryIO, end: int, size: int) -> Iterator[tuple[int, bytes]]:
    """(file offset, block) pairs of whole lines, read from ``handle``'s position on.

    A block holds about ``size`` bytes, extended to the end of its last
    line; the last block is the one that reaches ``end``.
    """
    pos = handle.tell()
    while pos < end:
        block = handle.read(min(size, end - pos))
        if not block:
            break
        if not block.endswith(b"\n"):
            block += handle.readline()
        yield pos, block
        pos = handle.tell()


def iter_file_blocks(path: str) -> Iterator[bytes]:
    """Stream a UTF-8 text file as blocks of whole lines, each checked by the strict decoder.

    The strict decoder is the one UTF-8 check of a run: invalid UTF-8
    raises :class:`CorpusDecodeError` at its offset in the file.
    """
    with open(path, "rb") as handle:
        for block_start, block in iter_line_blocks(handle, os.fstat(handle.fileno()).st_size, READ_BYTES):
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusDecodeError(exc, block_start) from None
            yield block


def check_utf8(path: str) -> None:
    """Decode the whole file once; invalid UTF-8 raises :class:`CorpusDecodeError` at its file offset."""
    for _block in iter_file_blocks(path):
        pass


class Vocab:
    """Word inventory: words, counts, dense ids and the token total.

    Ids are contiguous ``0..V-1``, assigned in descending count order with
    ties broken by first occurrence. A vocabulary holds no training state:
    the sampling tables derived from it belong to the run that builds them.
    """

    def __init__(self, words: Iterable[str], counts: Iterable[int]):
        self.words: list[str] = list(words)
        self.counts: np.ndarray = np.asarray(list(counts), dtype=np.int64)
        if len(self.words) != self.counts.size:
            raise ValueError("words and counts length mismatch")
        self.word2id: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        self.total_tokens: int = int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word2id

    def id_of(self, word: str) -> int | None:
        return self.word2id.get(word)

    def frequencies(self) -> np.ndarray:
        """Per-word occurrence fraction count/total_tokens."""
        return self.counts / float(self.total_tokens)

    def discard_probs(self, threshold: float) -> np.ndarray:
        """The subsampling discard probability of each word id at ``threshold``."""
        if not 0 < threshold < math.inf:
            raise ValueError(f"subsample threshold must be positive and finite, got {threshold}")
        freqs = self.frequencies()
        return 1.0 - np.minimum(1.0, np.sqrt(threshold / freqs) + threshold / freqs)

    def dump_tsv(self, out: TextIO | None = None) -> None:
        """Write the debug dump: one ``word<TAB>count<TAB>id`` line per entry."""
        if out is None:
            out = sys.stdout
        for i, (word, count) in enumerate(zip(self.words, self.counts.tolist())):
            out.write(f"{word}\t{count}\t{i}\n")


def build_vocab(tokens: Iterable[str], min_count: int = 1) -> Vocab:
    """Count ``tokens`` and build a :class:`Vocab` of words seen >= ``min_count`` times.

    The reference of :func:`build_vocab_from_file`. Raises
    :class:`EmptyVocabError` when nothing survives the threshold.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counter: Counter[str] = Counter(tokens)
    # Counter preserves first-occurrence order; a stable sort on -count then
    # breaks count ties by first occurrence, as required for determinism.
    items = [(w, c) for w, c in counter.items() if c >= min_count]
    items.sort(key=lambda wc: -wc[1])
    if not items:
        raise EmptyVocabError("no words with count >= min_count")
    return Vocab((w for w, _ in items), (c for _, c in items))


def build_vocab_from_file(path: str, min_count: int = 1) -> Vocab:
    """The :class:`Vocab` of a one-sentence-per-line UTF-8 text file, counted in the kernel.

    The same words, counts and ids as ``build_vocab(text.split(),
    min_count)`` on the decoded text. Each block of whole lines passes the
    strict decoder (:func:`iter_file_blocks`), then the kernel's tokenizer
    counts it (:func:`cbos.kernel.count_words`); only the words that are
    kept are decoded. Needs the compiled kernel.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    blob, offsets, counts = kernel.count_words(iter_file_blocks(path))
    kept = np.flatnonzero(counts >= min_count)
    if not kept.size:
        raise EmptyVocabError("no words with count >= min_count")
    # first-occurrence order, stably sorted on -count, as build_vocab orders them
    order = kept[np.argsort(-counts[kept], kind="stable")]
    starts, ends = offsets[order].tolist(), offsets[order + 1].tolist()
    return Vocab([blob[a:b].decode("utf-8") for a, b in zip(starts, ends)], counts[order])


def negative_bounds(vocab: Vocab, table_size: int | None = None) -> np.ndarray:
    """The end slot of each word's run in the negative-sampling table (int64).

    The table has ``table_size`` slots, by default ``NEGATIVE_TABLE_SIZE``
    or one per word when the vocabulary is larger. Word ``w`` owns the slots
    ``[bounds[w - 1], bounds[w])`` (from 0 for the first word), where
    ``bounds[w] = floor(size * cum[w])`` and ``cum`` is the cumulative
    normalized ``count^NEGATIVE_POWER`` distribution, so a uniform slot
    samples the unigram^0.75 distribution. A rare word may own no slot;
    ``bounds[-1]`` is the slot count.
    """
    if len(vocab) == 0:
        raise EmptyVocabError("cannot build a negative table for an empty vocab")
    if table_size is None:
        table_size = max(NEGATIVE_TABLE_SIZE, len(vocab))
    if table_size < len(vocab):
        raise ValueError(
            f"table_size {table_size} smaller than vocabulary size {len(vocab)}"
        )
    weights = vocab.counts.astype(np.float64) ** NEGATIVE_POWER
    cum = np.cumsum(weights)
    cum /= cum[-1]
    # The epsilon keeps exact rational boundaries (e.g. 8/9 of 9 slots) from
    # landing one slot short after float rounding.
    return np.floor(cum * table_size + 1e-6).astype(np.int64)


def build_negative_table(vocab: Vocab, table_size: int | None = None) -> np.ndarray:
    """The negative-sampling table itself: slot ``x`` holds the id of the word that owns it.

    The expansion of :func:`negative_bounds` (same arguments), kept as the
    reference of the slot -> word map that training reads from the bounds.
    """
    bounds = negative_bounds(vocab, table_size)
    return np.repeat(np.arange(len(vocab), dtype=np.int32), np.diff(bounds, prepend=0))
