"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its ``seed`` argument: the same seed
gives byte-identical corpus, question and query files and the same model
matrices. The program under test only ever sees these generated inputs.

Words are pronounceable pseudo-words built from a fixed syllable set, so
their character n-grams overlap the way natural words do and unseen words
(used as out-of-vocabulary queries) still share n-grams with the vocabulary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_ONSETS = ["", "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]
_CODAS = ["", "", "n", "r", "s", "l"]
# Planted words use letters the background never does, so their character
# n-grams are their own and subword sharing does not blur the planted structure.
_PLANTED = (["qu", "x", "j", "w", "y", "h", "c", "ph", "th", "sh"], ["y", "ee", "oo", "ea"], ["", "x", "ck", "w"])

ZIPF_EXPONENT = 1.05
SENTENCE_LENGTH = (8, 16)


def pseudo_words(
    rng: np.random.Generator,
    count: int,
    taken: set[str],
    letters=(_ONSETS, _VOWELS, _CODAS),
    syllables=(2, 4),
) -> list[str]:
    """``count`` distinct pseudo-words of 2-4 syllables, none already in ``taken``."""
    words: list[str] = []
    while len(words) < count:
        n_syllables = int(rng.integers(syllables[0], syllables[1] + 1))
        parts = []
        for _ in range(n_syllables):
            for choices in letters:
                parts.append(choices[int(rng.integers(len(choices)))])
        word = "".join(parts)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


@dataclass
class Lexicon:
    """The planted word groups of one seeded corpus."""

    background: list[str]
    topic_a: list[str]
    topic_b: list[str]
    capitals: list[str]
    countries: list[str]
    links: list[str]
    city_marker: str
    nation_marker: str
    unseen: list[str]  # never in the corpus: out-of-vocabulary neighbour queries

    def analogy_lines(self) -> list[str]:
        """Mikolov-format capital/country questions over every ordered pair of pairs."""
        lines = [": capital-country"]
        pairs = list(zip(self.capitals, self.countries))
        for i, (cap_i, country_i) in enumerate(pairs):
            for j, (cap_j, country_j) in enumerate(pairs):
                if i != j:
                    lines.append(f"{cap_i} {country_i} {cap_j} {country_j}")
        return lines


@dataclass(frozen=True)
class CorpusSpec:
    """Size and mix of one generated training corpus."""

    tokens: int
    background_words: int = 4000
    topic_words: int = 8
    pairs: int = 10
    topic_share: float = 0.2
    pair_share: float = 0.3


def make_lexicon(seed: int, spec: CorpusSpec) -> Lexicon:
    rng = np.random.default_rng([seed, 1])
    taken: set[str] = set()
    return Lexicon(
        background=pseudo_words(rng, spec.background_words, taken),
        topic_a=pseudo_words(rng, spec.topic_words, taken, _PLANTED, (2, 2)),
        topic_b=pseudo_words(rng, spec.topic_words, taken, _PLANTED, (2, 2)),
        capitals=pseudo_words(rng, spec.pairs, taken, _PLANTED, (2, 2)),
        countries=pseudo_words(rng, spec.pairs, taken, _PLANTED, (2, 2)),
        links=pseudo_words(rng, spec.pairs, taken, _PLANTED, (2, 2)),
        city_marker=pseudo_words(rng, 1, taken, _PLANTED, (2, 2))[0],
        nation_marker=pseudo_words(rng, 1, taken, _PLANTED, (2, 2))[0],
        unseen=pseudo_words(rng, 50, taken),
    )


def zipf_probs(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def corpus_lines(seed: int, spec: CorpusSpec) -> tuple[Lexicon, list[str]]:
    """A shuffled mix of Zipf background, topic and capital/country sentences.

    Topic sentences draw only from one of two disjoint topic groups, so a
    model that learns anything separates them. A capital appears next to the
    city marker and its pair's link word, its country in other sentences
    next to the nation marker and the same link word, so country - capital
    is one shared offset and 3CosAdd can recover the pairs.
    """
    lex = make_lexicon(seed, spec)
    rng = np.random.default_rng([seed, 2])
    probs = zipf_probs(len(lex.background))
    lo, hi = SENTENCE_LENGTH
    lines: list[str] = []
    stream = iter(rng.choice(len(probs), size=spec.tokens + hi, p=probs).tolist())

    def background(n: int) -> list[str]:
        return [lex.background[next(stream)] for _ in range(n)]

    budget = {
        "topic": int(spec.tokens * spec.topic_share),
        "pair": int(spec.tokens * spec.pair_share),
    }
    budget["background"] = spec.tokens - budget["topic"] - budget["pair"]

    written = 0
    while written < budget["background"]:
        words = background(int(rng.integers(lo, hi + 1)))
        lines.append(" ".join(words))
        written += len(words)

    written = 0
    while written < budget["topic"]:
        topic = lex.topic_a if rng.random() < 0.5 else lex.topic_b
        words = [topic[i] for i in rng.integers(0, len(topic), size=10)]
        lines.append(" ".join(words))
        written += len(words)

    written = 0
    while written < budget["pair"]:
        i = int(rng.integers(len(lex.capitals)))
        if rng.random() < 0.5:
            middle = [lex.city_marker, lex.capitals[i], lex.links[i]]
        else:
            middle = [lex.nation_marker, lex.countries[i], lex.links[i]]
        words = background(1) + middle + background(1)
        lines.append(" ".join(words))
        written += len(words)

    order = rng.permutation(len(lines))
    return lex, [lines[i] for i in order]


def write_corpus(seed: int, spec: CorpusSpec, corpus_path: str, questions_path: str) -> Lexicon:
    """Write the corpus (one sentence per line) and its planted analogy questions."""
    lex, lines = corpus_lines(seed, spec)
    with open(corpus_path, "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    with open(questions_path, "w", encoding="utf-8") as out:
        out.write("\n".join(lex.analogy_lines()) + "\n")
    return lex


# -- query workload --------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """Shape of the generated query-side model and its query lists."""

    vocab: int = 10_000
    bucket: int = 2_000_000
    dim: int = 100
    minn: int = 3
    maxn: int = 6
    questions_per_category: int = 100
    nn_in_vocab: int = 50
    nn_oov: int = 50


QUERY_CATEGORIES = ("capital-world", "family", "gram1-adjective-to-adverb", "gram3-comparative")


def query_inputs(seed: int, spec: QuerySpec) -> dict:
    """The query model's vocabulary and counts, its questions and neighbour queries.

    Counts follow a Zipf law. Questions pair random vocabulary words within
    semantic and ``gram`` categories; neighbour queries mix vocabulary words
    with unseen words.
    """
    rng = np.random.default_rng([seed, 3])
    taken: set[str] = set()
    words = pseudo_words(rng, spec.vocab, taken)
    oov = pseudo_words(rng, spec.nn_oov, taken)
    counts = np.floor(5 + 1e6 * zipf_probs(spec.vocab)).astype(np.int64)
    lines: list[str] = []
    for category in QUERY_CATEGORIES:
        lines.append(f": {category}")
        for _ in range(spec.questions_per_category):
            a, b, c, d = rng.choice(spec.vocab, size=4, replace=False)
            lines.append(f"{words[a]} {words[b]} {words[c]} {words[d]}")
    in_vocab = [words[i] for i in rng.choice(spec.vocab, size=spec.nn_in_vocab, replace=False)]
    return {
        "words": words,
        "counts": counts.tolist(),
        "questions": lines,
        "nn_in_vocab": in_vocab,
        "nn_oov": oov,
    }


def query_matrices(seed: int, spec: QuerySpec) -> tuple[np.ndarray, np.ndarray]:
    """The query model's input and output matrices, float32 as the trainer produces.

    Entries are uniform in [-1, 1] (input) and [-0.5, 0.5] (output). They
    are made where they are used rather than written to disk, so the run
    does not push ~800 MB through the page cache before it measures.
    """
    rng = np.random.default_rng([seed, 4])
    input_matrix = rng.random((spec.vocab + spec.bucket, spec.dim), dtype=np.float32)
    input_matrix *= 2.0
    input_matrix -= 1.0
    output_matrix = rng.random((spec.vocab, spec.dim), dtype=np.float32)
    output_matrix -= 0.5
    return input_matrix, output_matrix


def write_query_inputs(seed: int, spec: QuerySpec, prefix: str) -> None:
    """Write the vocabulary and query lists to ``prefix.json`` and the questions to ``prefix.questions.txt``."""
    data = query_inputs(seed, spec)
    questions = data.pop("questions")
    with open(prefix + ".json", "w", encoding="utf-8") as out:
        json.dump(data, out)
    with open(prefix + ".questions.txt", "w", encoding="utf-8") as out:
        out.write("\n".join(questions) + "\n")
