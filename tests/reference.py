"""Python references that only the tests call: each is the oracle of a vectorised or compiled path.

* :func:`encode_chunk` is the reference of the kernel's block encoder,
  :meth:`cbos.kernel.VocabIndex.encode`.
* :func:`discard_probability` is the scalar reference of
  :meth:`cbos.corpus.Vocab.discard_probs`.
"""

from __future__ import annotations

import math

import numpy as np


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
