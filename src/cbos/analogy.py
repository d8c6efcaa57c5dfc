"""Word-analogy benchmark (3CosAdd), nearest neighbors, and report formatting.

Questions come in the Mikolov text format: a ``: category-name`` line opens
a category, every other non-blank line holds four words ``a b c d`` asking
"a is to b as c is to ?" with gold answer d. Prediction maximizes cosine
similarity between candidate vectors and ``norm(b) - norm(a) + norm(c)``,
never returning a, b, or c themselves. Categories aggregate into semantic,
syntactic, and total accuracy.

Everything here is numpy only (no compiled kernel on a model that holds its
word vectors). :class:`VectorSpace` builds the unit vectors of the whole
vocabulary once from :func:`cbos.model.composed_word_matrix`, in one float64
copy of the rows a model holds (normed in row blocks of at most
``SCORE_BLOCK_BYTES``), and on first use one float32 copy of those,
``VectorSpace.unit32``, which both float32 screens below read.

:func:`evaluate` scores its questions in blocks
(:meth:`VectorSpace.predict_ids`): one float32 matrix product per block
(the float64 queries and unit rows, each cast to float32) into a single
score buffer of at most ``SCORE_BLOCK_BYTES``, so memory stays bounded at
any vocabulary size. For unit rows and a query of norm at most 3, a
float32 score lies within :func:`float32_score_bound` of the float64 one:
δ(n) = 3·[(2u + u²) + γ·(1 + u)²] + 3n·2⁻¹⁴⁹, with u = 2⁻²⁴,
γ = n·u / (1 − n·u) and n the dimension (2δ ≈ 3.7e-5 at n = 100). So a
question is answered from its block only when its runner-up scores below
``top - 2δ - NEAR_TIE`` (compared in float64); ``NEAR_TIE`` covers how
float64 products round (~1e-15). Every other question (a near-tie, no
candidate left, a NaN score or a degenerate query word) is answered by
:meth:`VectorSpace.predict_id`, which scores in float64 and settles exact
ties to the lower id. Every prediction is therefore the one
``predict_id`` gives.

:func:`nearest_neighbors` screens every word the same way, with one float32
matrix-vector product. With t its k-th best score, every word of the exact
top k scores at least t - 2δ in float32, so only the words at or above
``t - 2δ - NEAR_TIE`` are settled: scored in float64 and stably sorted, ties
to the lower id. The settle rule (``np.einsum``) gives a row the same bits
whichever other rows share the call; a BLAS product blocks its rows by how
many there are, so a subset of rows can score other bits than the whole
vocabulary. So every list is the one a stable sort of every word's float64
score gives.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .corpus import Vocab
from .model import EmbeddingModel, composed_word_matrix, model_subword_config
from .subword import subword_ids

logger = logging.getLogger(__name__)

NORM_EPSILON = 1e-12
SCORE_BLOCK_BYTES = 4 << 20  # size of the score buffer of one predict_ids call, and of a norm block
NEAR_TIE = 1e-10  # rivals within 2δ + NEAR_TIE of a block's best score are re-scored one by one
_LOWEST_FLOAT32 = np.finfo(np.float32).min
_NO_CANDIDATE = "no candidate with a usable vector"
SYNTACTIC_PREFIX = "gram"
SPLITS = ("semantic", "syntactic")


class AnalogyParseError(ValueError):
    """Malformed question file; message carries path and line number."""


class UnresolvableWordError(LookupError):
    """A word with neither a vocab id nor any n-gram rows to compose from."""


class DegenerateVectorError(ValueError):
    """A vector involved in a cosine query has near-zero norm."""


@dataclass(frozen=True)
class AnalogyQuestion:
    a: str
    b: str
    c: str
    d: str
    category: str

    def __post_init__(self) -> None:
        if not all((self.a, self.b, self.c, self.d)):
            raise ValueError("analogy questions need four non-empty words")
        if not self.category:
            raise ValueError("analogy questions need a non-empty category")

    @property
    def words(self) -> tuple[str, str, str, str]:
        return (self.a, self.b, self.c, self.d)


@dataclass
class AnalogyDataset:
    """Questions plus the category names in file order (even empty ones)."""

    questions: list[AnalogyQuestion]
    categories: list[str]

    def __iter__(self) -> Iterator[AnalogyQuestion]:
        return iter(self.questions)

    def __len__(self) -> int:
        return len(self.questions)


def load_analogy_file(path: str) -> AnalogyDataset:
    """Parse a Mikolov-format question file; words are lowercased.

    Raises :class:`AnalogyParseError` for a non-header line that does not
    hold exactly four words, or for questions before the first header.
    """
    questions: list[AnalogyQuestion] = []
    categories: list[str] = []
    category: str | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(":"):
                category = line[1:].strip().lower()
                if not category:
                    raise AnalogyParseError(f"{path}:{lineno}: empty category name")
                if category not in categories:
                    categories.append(category)
                continue
            tokens = line.split()
            if len(tokens) != 4:
                raise AnalogyParseError(
                    f"{path}:{lineno}: expected 4 words, got {len(tokens)}"
                )
            if category is None:
                raise AnalogyParseError(
                    f"{path}:{lineno}: question before any ': category' header"
                )
            a, b, c, d = (t.lower() for t in tokens)
            questions.append(AnalogyQuestion(a, b, c, d, category))
    return AnalogyDataset(questions, categories)


def load_split_file(path: str) -> dict[str, str]:
    """Read a ``category<TAB>semantic|syntactic`` sidecar mapping."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise AnalogyParseError(
                    f"{path}:{lineno}: expected 'category<TAB>split'"
                )
            category, split = parts[0].strip().lower(), parts[1].strip().lower()
            if split not in SPLITS:
                raise AnalogyParseError(
                    f"{path}:{lineno}: split must be one of {SPLITS}, got {split!r}"
                )
            mapping[category] = split
    return mapping


def category_split(category: str, split_map: Mapping[str, str] | None = None) -> str:
    """Semantic or syntactic bucket for a category name.

    A sidecar mapping wins when it covers the category; otherwise the
    Mikolov-dataset convention applies: names starting with "gram" are
    syntactic, everything else semantic.
    """
    if split_map and category in split_map:
        return split_map[category]
    return "syntactic" if category.startswith(SYNTACTIC_PREFIX) else "semantic"


def word_vector(model: EmbeddingModel, vocab: Vocab, word: str) -> np.ndarray:
    """Compose a word's vector: mean of its word row (if any) and n-gram rows.

    A vocabulary word reads the row the model holds for it and gathers
    nothing: its input row when the model has no n-grams, its stored row of
    ``word_matrix`` on a loaded n-gram model (the same bits as the mean).
    Out-of-vocabulary words are composed from n-gram rows alone, which is
    what makes subword models useful on unseen words. Raises
    :class:`UnresolvableWordError` when no rows exist at all (OOV with
    n-grams disabled, or a word too short to yield a single n-gram).
    """
    own_id = vocab.id_of(word)
    config = model_subword_config(model)
    if own_id is not None and (model.word_matrix is not None or not config.enabled):
        rows = model.input_matrix if model.word_matrix is None else model.word_matrix
        return rows[own_id].copy()
    ids = subword_ids(word, vocab, config)
    if ids.size == 0:
        raise UnresolvableWordError(word)
    return model.input_matrix[ids].mean(axis=0)


def float32_score_bound(dim: int) -> float:
    """δ: how far a float32 score of :meth:`VectorSpace.predict_ids` can be from the exact one.

    The row (norm 1) and the query (norm at most 3) are float64, cast to
    float32 with a relative error of at most u = 2⁻²⁴ per component, so each
    product moves by at most (2u + u²) of its size. Multiplying and summing
    the ``dim`` = n products in float32, in any order, adds at most
    γ = n·u / (1 − n·u) of the sum of their sizes, which is at most
    (1 + u)²·|row|·|query| ≤ 3·(1 + u)² (Cauchy-Schwarz). A component that
    becomes a float32 subnormal is off by an absolute 2⁻¹⁵⁰ instead, which
    ``3·n·2⁻¹⁴⁹`` covers.
    """
    u = 2.0**-24
    gamma = dim * u / (1 - dim * u)
    return 3 * ((2 * u + u * u) + gamma * (1 + u) ** 2) + 3 * dim * 2.0**-149


class VectorSpace:
    """Unit-normalized composed vectors for every vocab word, built once.

    ``degenerate`` flags rows whose norm is below ``NORM_EPSILON``; those
    can neither form queries nor win an argmax. Scoring happens in float64
    so ranking does not depend on float32 summation order; the float32
    screens of :meth:`predict_ids` and :func:`nearest_neighbors` only answer
    where that cannot matter.
    """

    def __init__(self, model: EmbeddingModel, vocab: Vocab):
        self.vocab = vocab
        matrix = composed_word_matrix(model, vocab).astype(np.float64)
        block = max(1, SCORE_BLOCK_BYTES // (matrix.itemsize * model.dim))  # rows squared at a time
        starts = range(0, len(matrix) or 1, block)  # one block of an empty matrix too, for an empty result
        norms = np.concatenate([np.linalg.norm(matrix[i : i + block], axis=1) for i in starts])
        self.degenerate = norms < NORM_EPSILON
        norms[self.degenerate] = 1.0
        matrix /= norms[:, np.newaxis]
        self.unit = matrix

    @functools.cached_property
    def unit32(self) -> np.ndarray:
        """``unit`` cast to float32, the rows the screens score; built on first use."""
        return self.unit.astype(np.float32)

    def predict_id(self, ia: int, ib: int, ic: int) -> int:
        """Argmax-cosine answer id for norm(b) - norm(a) + norm(c)."""
        for i in (ia, ib, ic):
            if self.degenerate[i]:
                raise DegenerateVectorError(self.vocab.words[i])
        query = self.unit[ib] - self.unit[ia] + self.unit[ic]
        scores = self.unit @ query
        scores[[ia, ib, ic]] = -np.inf
        scores[self.degenerate] = -np.inf
        best = int(np.argmax(scores))  # first maximum, so ties pick the lower id
        if not np.isfinite(scores[best]):
            raise DegenerateVectorError(_NO_CANDIDATE)
        return best

    def predict_ids(self, ia: np.ndarray, ib: np.ndarray, ic: np.ndarray) -> np.ndarray:
        """:meth:`predict_id` of every question ``(ia[i], ib[i], ic[i])``, or -1 where it raises.

        Questions are scored in float32, in blocks of rows of one reused
        buffer of at most ``SCORE_BLOCK_BYTES`` (at least one row). A
        question whose runner-up scores within ``2δ + NEAR_TIE`` of its best
        blocked score (δ = :func:`float32_score_bound`; also where the best
        is -inf or NaN), or that has a degenerate query word, is answered by
        :meth:`predict_id` itself.
        """
        ia, ib, ic = (np.asarray(x, dtype=np.int64) for x in (ia, ib, ic))
        vocab_size, dim = self.unit.shape
        unit32 = self.unit32
        block = max(1, SCORE_BLOCK_BYTES // (unit32.itemsize * max(vocab_size, 1)))
        buf = np.empty((block, vocab_size), np.float32)
        margin = 2 * float32_score_bound(dim) + NEAR_TIE
        dead = np.flatnonzero(self.degenerate)
        predicted = np.empty(ia.size, dtype=np.int64)
        for start in range(0, ia.size, block):
            a, b, c = (x[start : start + block] for x in (ia, ib, ic))
            scores = buf[: a.size]
            query = (self.unit[b] - self.unit[a] + self.unit[c]).astype(np.float32)
            np.matmul(query, unit32.T, out=scores)
            rows = np.arange(a.size)
            for ids in (a, b, c):
                scores[rows, ids] = -np.inf
            scores[:, dead] = -np.inf
            best = scores.argmax(axis=1)  # first maximum, so ties pick the lower id
            top = scores[rows, best].astype(np.float64)
            scores[rows, best] = -np.inf
            # false as well where top is -inf (no candidate left) or NaN
            exact = (scores.max(axis=1) < top - margin) & ~(
                self.degenerate[a] | self.degenerate[b] | self.degenerate[c]
            )
            for r in np.flatnonzero(~exact):
                try:
                    best[r] = self.predict_id(int(a[r]), int(b[r]), int(c[r]))
                except DegenerateVectorError:
                    best[r] = -1
            predicted[start : start + a.size] = best
        return predicted


@dataclass
class CategoryResult:
    name: str
    split: str
    correct: int = 0
    attempted: int = 0
    skipped_oov: int = 0
    skipped_degenerate: int = 0

    @property
    def skipped(self) -> int:
        return self.skipped_oov + self.skipped_degenerate

    @property
    def accuracy(self) -> float | None:
        """Percent correct of attempted; None when nothing was attempted."""
        if self.attempted == 0:
            return None
        return 100.0 * self.correct / self.attempted

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "split": self.split,
            "correct": self.correct,
            "attempted": self.attempted,
            "skipped_oov": self.skipped_oov,
            "skipped_degenerate": self.skipped_degenerate,
            "accuracy": self.accuracy,
        }


_UNDEFINED = "n/a"


@dataclass
class AnalogyReport:
    categories: list[CategoryResult]

    def _bucket(self, split: str | None) -> CategoryResult:
        merged = CategoryResult(name=split or "total", split=split or "total")
        for cat in self.categories:
            if split is not None and cat.split != split:
                continue
            merged.correct += cat.correct
            merged.attempted += cat.attempted
            merged.skipped_oov += cat.skipped_oov
            merged.skipped_degenerate += cat.skipped_degenerate
        return merged

    @property
    def semantic(self) -> CategoryResult:
        return self._bucket("semantic")

    @property
    def syntactic(self) -> CategoryResult:
        return self._bucket("syntactic")

    @property
    def total(self) -> CategoryResult:
        return self._bucket(None)

    @property
    def semantic_acc(self) -> float | None:
        return self.semantic.accuracy

    @property
    def syntactic_acc(self) -> float | None:
        return self.syntactic.accuracy

    @property
    def total_acc(self) -> float | None:
        return self.total.accuracy

    def to_dict(self) -> dict:
        return {
            "categories": [c.to_dict() for c in self.categories],
            "semantic": self.semantic.to_dict(),
            "syntactic": self.syntactic.to_dict(),
            "total": self.total.to_dict(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def format_table(self) -> str:
        width = max([len("Category")] + [len(c.name) for c in self.categories]) + 2
        lines = [
            f"{'Category':<{width}}{'Correct':>9}{'Attempted':>11}"
            f"{'Skipped':>9}{'Accuracy':>10}"
        ]

        def fmt(row: CategoryResult, label: str | None = None) -> str:
            acc = _UNDEFINED if row.accuracy is None else f"{row.accuracy:.2f}%"
            return (
                f"{label or row.name:<{width}}{row.correct:>9}{row.attempted:>11}"
                f"{row.skipped:>9}{acc:>10}"
            )

        lines.extend(fmt(c) for c in self.categories)
        lines.append("-" * (width + 39))
        lines.append(fmt(self.semantic, "Semantic"))
        lines.append(fmt(self.syntactic, "Syntactic"))
        lines.append(fmt(self.total, "Total"))
        return "\n".join(lines)


def evaluate(
    model: EmbeddingModel,
    vocab: Vocab,
    questions: AnalogyDataset | list[AnalogyQuestion],
    split_map: Mapping[str, str] | None = None,
) -> AnalogyReport:
    """Score every question and aggregate per category and split.

    A question counts attempted only when all four words have vocab ids and
    usable vectors; OOV questions and near-zero-norm vectors are skipped
    (the latter also logged). Correct means the top-1 prediction equals d
    exactly.
    """
    space = VectorSpace(model, vocab)
    questions = list(questions)
    ids = np.array(
        [[vocab.word2id.get(w, -1) for w in q.words] for q in questions], dtype=np.int64
    ).reshape(-1, 4)
    oov = (ids < 0).any(axis=1)
    degenerate = np.zeros_like(oov)
    degenerate[~oov] = space.degenerate[ids[~oov]].any(axis=1)
    predicted = np.full(len(questions), -1, dtype=np.int64)
    asked = ~(oov | degenerate)
    predicted[asked] = space.predict_ids(*ids[asked, :3].T)
    results: dict[str, CategoryResult] = {}
    for q, is_oov, is_degenerate, guess, expected in zip(
        questions, oov.tolist(), degenerate.tolist(), predicted.tolist(), ids[:, 3].tolist()
    ):
        cat = results.get(q.category)
        if cat is None:
            cat = CategoryResult(q.category, category_split(q.category, split_map))
            results[q.category] = cat
        if is_oov:
            cat.skipped_oov += 1
        elif is_degenerate:
            cat.skipped_degenerate += 1
            logger.warning(
                "skipping %r: near-zero vector norm in (%s)", q, ", ".join(q.words)
            )
        elif guess < 0:
            cat.skipped_degenerate += 1
            logger.warning("skipping %r: %s", q, _NO_CANDIDATE)
        else:
            cat.attempted += 1
            cat.correct += guess == expected
    return AnalogyReport(list(results.values()))


def nearest_neighbors(
    model: EmbeddingModel,
    vocab: Vocab,
    word: str,
    k: int,
    space: VectorSpace | None = None,
) -> list[tuple[str, float]]:
    """Top-k vocab words by cosine to the word's composed vector.

    The query word itself is excluded when in vocab; ties order by lower
    vocab id. Fewer than k pairs come back when the vocabulary is small.

    Every word is screened in float32 (``space.unit32``). With t the k-th
    best float32 score and δ = :func:`float32_score_bound` (the query has
    norm 1), k words score at least t, so the k-th best exact score is at
    least t - δ and every word of the exact top k scores at least
    t - 2δ in float32. Only the words at or above ``t - 2δ - NEAR_TIE``
    (rounded down to float32; every finite one when at most k are finite)
    are settled: scored in float64 and stably sorted. A row's float64 score
    must not depend on which other rows share the call, or a settled word
    could score other bits than in a scan of the whole vocabulary: a BLAS
    matrix-vector product blocks its rows by how many there are, so the
    candidates are scored by ``np.einsum``, row by row. The list is
    therefore the one a stable sort of every word's float64 score gives,
    without the words that score NaN.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    vec = word_vector(model, vocab, word).astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm < NORM_EPSILON:
        raise DegenerateVectorError(word)
    if space is None:
        space = VectorSpace(model, vocab)
    query = vec / norm
    scores = space.unit32 @ query.astype(np.float32)
    scores[np.isnan(scores)] = -np.inf
    scores[space.degenerate] = -np.inf
    own_id = vocab.id_of(word)
    if own_id is not None:
        scores[own_id] = -np.inf
    floor = -np.inf  # stays -inf, keeping every finite score, when at most k are finite
    if k < scores.size:
        floor = float(np.partition(scores, scores.size - k)[scores.size - k])
        floor -= 2 * float32_score_bound(model.dim) + NEAR_TIE
    cut = np.float32(floor)
    if cut > floor:  # rounded to nearest; step down so the float32 comparison keeps all of them
        cut = np.nextafter(cut, np.float32(-np.inf))
    candidates = np.flatnonzero(scores >= max(cut, _LOWEST_FLOAT32))  # never a -inf score
    exact = np.einsum("ij,j->i", space.unit[candidates], query)
    order = np.argsort(-exact, kind="stable")[:k]
    return list(zip((vocab.words[i] for i in candidates[order].tolist()), exact[order].tolist()))
