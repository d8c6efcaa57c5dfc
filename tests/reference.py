"""Python references that only the tests call: each is the oracle of a vectorised or compiled path.

* :func:`encode_chunk` is the reference of the kernel's block encoder,
  :meth:`cbos.kernel.VocabIndex.encode`.
* :func:`discard_probability` is the scalar reference of
  :meth:`cbos.corpus.Vocab.discard_probs`.
* :func:`full_scan_neighbors` is the float64 full-scan reference of
  :func:`cbos.analogy.nearest_neighbors`.
"""

from __future__ import annotations

import math

import numpy as np

from cbos.analogy import NORM_EPSILON, DegenerateVectorError, VectorSpace, word_vector


def encode_chunk(block: bytes, word2id: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Token ids (-1 out of vocabulary) and sentence offsets of one block, in Python.

    Sentence ``s`` is ``ids[offsets[s]:offsets[s + 1]]``; blank lines make
    no sentence.
    """
    get = word2id.get
    ids: list[int] = []
    offsets = [0]
    for line in block.decode("utf-8").split("\n"):
        ids += [get(token, -1) for token in line.split()]
        if len(ids) > offsets[-1]:
            offsets.append(len(ids))
    return np.array(ids, dtype=np.int32), np.array(offsets, dtype=np.int64)


def discard_probability(word_freq: float, threshold: float) -> float:
    """Probability of discarding one occurrence of a word with corpus fraction ``word_freq``.

    The keep probability is ``min(1, sqrt(t/f) + t/f)``; words rarer than
    roughly the threshold ``t`` are always kept.
    """
    if not 0.0 < word_freq <= 1.0:
        raise ValueError(f"word frequency must be in (0, 1], got {word_freq}")
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    ratio = threshold / word_freq
    keep = min(1.0, math.sqrt(ratio) + ratio)
    return 1.0 - keep


def full_scan_neighbors(model, vocab, word: str, k: int) -> list[tuple[str, float]]:
    """The neighbour list from a stable sort of every vocabulary word's float64 score.

    Each row is scored by ``np.einsum``, whose bits for a row do not depend
    on the other rows of the call; that is the rule ``nearest_neighbors``
    settles its candidates with.
    """
    space = VectorSpace(model, vocab)
    vec = word_vector(model, vocab, word).astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm < NORM_EPSILON:
        raise DegenerateVectorError(word)
    scores = np.einsum("ij,j->i", space.unit, vec / norm)
    scores[space.degenerate] = -np.inf
    if word in vocab:
        scores[vocab.id_of(word)] = -np.inf
    order = np.argsort(-scores, kind="stable")[:k]
    return [(vocab.words[i], float(scores[i])) for i in order if np.isfinite(scores[i])]
