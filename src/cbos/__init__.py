"""Word-embedding training with a bag-of-skip-grams objective.

Pipeline: normalize text (:mod:`cbos.corpus`), build a vocabulary and
sampling tables, train skip-gram / CBOW / CBOS vectors with negative
sampling and optional character n-grams (:mod:`cbos.trainer`), evaluate on
word analogies (:mod:`cbos.analogy`), and persist models (:mod:`cbos.persist`).
"""

from .analogy import (
    AnalogyDataset,
    AnalogyQuestion,
    AnalogyReport,
    evaluate,
    load_analogy_file,
    nearest_neighbors,
    word_vector,
)
from .corpus import Vocab, build_vocab, build_vocab_from_file, normalize_text
from .model import EmbeddingModel, composed_word_matrix, init_model
from .persist import load_bin, load_vec, save_bin, save_vec
from .subword import SubwordConfig, subword_ids
from .trainer import TrainConfig, TrainResult, train

__all__ = [
    "AnalogyDataset",
    "AnalogyQuestion",
    "AnalogyReport",
    "EmbeddingModel",
    "SubwordConfig",
    "TrainConfig",
    "TrainResult",
    "Vocab",
    "build_vocab",
    "build_vocab_from_file",
    "composed_word_matrix",
    "evaluate",
    "init_model",
    "load_analogy_file",
    "load_bin",
    "load_vec",
    "nearest_neighbors",
    "normalize_text",
    "save_bin",
    "save_vec",
    "subword_ids",
    "train",
    "word_vector",
]

__version__ = "0.1.0"
