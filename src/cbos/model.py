"""Embedding matrices and the negative-sampling gradient update.

All training schedules reduce to the same primitive: average a bag of input
rows into a hidden vector, score it against one target and a few sampled
negative output rows, and apply one SGD step of the logistic loss

    L = -log σ(u_t · h) - Σ_n log σ(-u_n · h).

Scores are clamped to [-8, 8] before the sigmoid so the exponential cannot
overflow; within that range everything is computed exactly (no lookup
tables).

Training runs this step in the compiled kernel of :mod:`cbos.kernel`.
:func:`compute_hidden` and :func:`ns_update` are only its reference oracle,
which the tests and the acceptance gate replay: one ``mean`` over the
gathered rows, and one ``np.add.at`` per matrix for the update.

At query time :func:`composed_word_matrix` averages every word's rows in
numpy, one row per word per step, so each vector is bit-identical to the
``mean`` of that word's rows alone. A model read by
:func:`cbos.persist.load_bin` carries those vectors from its file
(``word_matrix``), and a model without n-grams holds them as its first
``V`` input rows: :func:`composed_word_matrix` returns those rows as they
lie, uncopied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Vocab
from .subword import SubwordConfig, build_subword_cache

SIGMOID_CLAMP = 8.0

_INIT_CHUNK_ROWS = 1 << 16


@dataclass
class EmbeddingModel:
    """Input rows (vocab words + n-gram buckets) and output rows (vocab words).

    ``input_matrix`` has ``V + bucket`` rows; rows ``>= V`` belong to hashed
    n-grams. ``output_matrix`` has one row per vocabulary word. Row counts
    are fixed at construction.

    ``word_matrix`` is set only by :func:`cbos.persist.load_bin`, for n-gram
    models: the :func:`composed_word_matrix` stored in the file. A loaded
    model is read-only (writing a matrix raises ``ValueError``), so it always
    agrees with the rows it was composed from. To change a loaded model,
    build a new one from copies of its input and output matrices.
    """

    input_matrix: np.ndarray
    output_matrix: np.ndarray
    dim: int
    bucket: int = 0
    minn: int = 0
    maxn: int = 0
    word_matrix: np.ndarray | None = None

    @property
    def vocab_size(self) -> int:
        return self.output_matrix.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.input_matrix.dtype


@dataclass
class Hidden:
    """Mean of the selected input rows, with enough context to distribute gradients."""

    vector: np.ndarray
    source_ids: np.ndarray
    scale: float


def initialize_matrices(model: EmbeddingModel, seed: int) -> None:
    """Fill input rows iid uniform on [-1/dim, 1/dim] and zero the output rows.

    Deterministic for a given seed; filling happens in fixed-size row chunks
    so large matrices never need a full-size temporary.
    """
    bound = 1.0 / model.dim
    rng = np.random.default_rng(seed)
    inp = model.input_matrix
    for start in range(0, inp.shape[0], _INIT_CHUNK_ROWS):
        stop = min(start + _INIT_CHUNK_ROWS, inp.shape[0])
        inp[start:stop] = rng.uniform(-bound, bound, size=(stop - start, model.dim))
    model.output_matrix[:] = 0.0


def init_model(
    vocab_size: int,
    bucket: int,
    dim: int,
    seed: int,
    dtype: np.dtype = np.float32,
    minn: int = 0,
    maxn: int = 0,
) -> EmbeddingModel:
    """Allocate and initialize a fresh model."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if bucket < 0:
        raise ValueError(f"bucket must be >= 0, got {bucket}")
    model = EmbeddingModel(
        input_matrix=np.empty((vocab_size + bucket, dim), dtype=dtype),
        output_matrix=np.empty((vocab_size, dim), dtype=dtype),
        dim=dim,
        bucket=bucket,
        minn=minn,
        maxn=maxn,
    )
    initialize_matrices(model, seed)
    return model


def compute_hidden(ids: np.ndarray, model: EmbeddingModel) -> Hidden:
    """Mean of the input rows selected by ``ids``.

    Raises on an empty id set; callers skip predictions with empty bags.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("cannot compute a hidden vector from an empty id set")
    return Hidden(vector=model.input_matrix[ids].mean(axis=0), source_ids=ids, scale=1.0 / ids.size)


def model_subword_config(model: EmbeddingModel) -> SubwordConfig:
    """The n-gram configuration a model was trained with."""
    if model.minn == 0:
        return SubwordConfig(0, 0, 0)
    return SubwordConfig(model.minn, model.maxn, model.bucket)


def composed_word_matrix(model: EmbeddingModel, vocab: Vocab) -> np.ndarray:
    """Per-word vectors as used downstream: mean of word row and n-gram rows.

    A loaded model's ``word_matrix``, or with n-grams disabled the first
    ``V`` input rows, are the model's own rows: they are returned as a
    read-only view, not copied. Only an n-gram model without a stored block
    composes a new array. Copy the result to change it.

    Row ``w`` equals ``input_matrix[cache[w]].mean(axis=0)`` bit for bit: the
    sum starts from every word's first row and adds its ``j``-th row at step
    ``j``, which is the order numpy's reduction adds them in, and gathers
    only one row per word at a time.
    """
    if len(vocab) != model.vocab_size:
        raise ValueError(
            f"vocab size {len(vocab)} does not match model vocab {model.vocab_size}"
        )
    config = model_subword_config(model)
    if model.word_matrix is not None or not config.enabled:
        rows = model.input_matrix[: len(vocab)] if model.word_matrix is None else model.word_matrix.view()
        rows.flags.writeable = False
        return rows
    cache = build_subword_cache(vocab, config)
    counts = np.diff(cache.offsets)
    order = np.argsort(-counts, kind="stable")  # most rows first: the words still adding are a prefix
    starts = cache.offsets[:-1][order]
    acc = model.input_matrix[cache.ids[starts]]
    live = len(vocab) - np.cumsum(np.bincount(counts))  # live[j]: words with more than j rows
    for j in range(1, counts.max()):
        m = live[j]
        acc[:m] += model.input_matrix[cache.ids[starts[:m] + j]]
    acc /= counts[order, np.newaxis]
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _as_id_list(target: int, negatives, vocab_size: int) -> list[int]:
    ids = [int(target)]
    if isinstance(negatives, np.ndarray):
        ids.extend(negatives.tolist())
    else:
        ids.extend(int(n) for n in negatives)
    for i in ids:
        if not 0 <= i < vocab_size:
            raise ValueError(f"output id {i} outside vocab range [0, {vocab_size})")
    return ids


def _sigmoid_loss_alpha(scores: np.ndarray, lr: float) -> tuple[float, list[float]]:
    """Clamped-sigmoid loss and per-row step sizes, scalar math in float64.

    Row 0 is the positive target (label 1), the rest are negatives (label 0);
    alpha_j = lr * (label_j - sigmoid(score_j)) at the incoming parameters.
    """
    loss = 0.0
    alphas = [0.0] * scores.size
    for j, s in enumerate(scores.tolist()):
        if s > SIGMOID_CLAMP:
            s = SIGMOID_CLAMP
        elif s < -SIGMOID_CLAMP:
            s = -SIGMOID_CLAMP
        sig = 1.0 / (1.0 + math.exp(-s))
        if j == 0:
            loss -= math.log(sig)
            alphas[0] = lr * (1.0 - sig)
        else:
            loss -= math.log1p(-sig)
            alphas[j] = -lr * sig
    return loss, alphas


def ns_loss(
    hidden: Hidden,
    target: int,
    negatives: np.ndarray,
    model: EmbeddingModel,
) -> float:
    """Negative-sampling loss of predicting ``target`` (vs ``negatives``) from ``hidden``."""
    ids = np.asarray(_as_id_list(target, negatives, model.vocab_size), dtype=np.intp)
    scores = model.output_matrix[ids] @ hidden.vector
    loss, _ = _sigmoid_loss_alpha(scores, 0.0)
    return loss


def ns_update(
    hidden: Hidden,
    target: int,
    negatives: np.ndarray,
    lr: float,
    model: EmbeddingModel,
) -> float:
    """One SGD step of the negative-sampling loss; returns the pre-update loss.

    Output rows move by ``lr * (label - σ(u·h)) * h``; the matching gradient
    accumulated over all scored rows is distributed to every source input
    row, scaled by ``hidden.scale``. All sigmoids are evaluated at the
    pre-update parameters, so the applied step is exactly ``-lr`` times the
    analytic gradient of the loss. Repeated row ids (duplicate bag words,
    colliding n-gram hashes) accumulate their contributions.
    """
    ids = np.asarray(_as_id_list(target, negatives, model.vocab_size), dtype=np.intp)
    u = model.output_matrix[ids]
    loss, alphas = _sigmoid_loss_alpha(u @ hidden.vector, lr)
    alpha = np.asarray(alphas, dtype=u.dtype)
    grad = alpha @ u
    np.add.at(model.output_matrix, ids, alpha[:, np.newaxis] * hidden.vector)
    np.add.at(model.input_matrix, hidden.source_ids, grad * hidden.scale)
    return loss
