import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbos.analogy as analogy_module
from cbos.analogy import (
    NEAR_TIE,
    NORM_EPSILON,
    AnalogyParseError,
    AnalogyQuestion,
    AnalogyReport,
    CategoryResult,
    DegenerateVectorError,
    UnresolvableWordError,
    VectorSpace,
    category_split,
    evaluate,
    float32_score_bound,
    load_analogy_file,
    load_split_file,
    nearest_neighbors,
    word_vector,
)
from cbos.corpus import Vocab, build_vocab
from cbos.model import EmbeddingModel, composed_word_matrix, init_model, model_subword_config
from cbos.subword import subword_ids


def vocab_of(words):
    """Vocabulary with ids in the given order (descending synthetic counts)."""
    tokens = []
    for i, w in enumerate(words):
        tokens.extend([w] * (len(words) + 1 - i))
    return build_vocab(tokens)


def model_from_rows(rows, minn=0, maxn=0, bucket=0):
    rows = np.asarray(rows, dtype=np.float32)
    return EmbeddingModel(
        input_matrix=rows,
        output_matrix=np.zeros((rows.shape[0] - bucket, rows.shape[1]), np.float32),
        dim=rows.shape[1],
        bucket=bucket,
        minn=minn,
        maxn=maxn,
    )


@pytest.fixture
def royal():
    """Orthogonal-axes geometry where king - man + woman lands on queen."""
    vocab = vocab_of(["man", "woman", "king", "queen", "apple"])
    rows = np.array(
        [
            [1, 0, 0, 0],  # man
            [0, 1, 0, 0],  # woman
            [1, 0, 1, 0],  # king: male + royal
            [0, 1, 1, 0],  # queen: female + royal
            [0, 0, 0, 1],  # unrelated distractor
        ],
        dtype=np.float32,
    )
    return model_from_rows(rows), vocab


# -- file parsing ----------------------------------------------------------


def test_load_analogy_file(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text(
        ": capital-common-countries\n"
        "Athens Greece Oslo Norway\n"
        "\n"
        ": gram1-adjective-to-adverb\n"
        "Amazing amazingly calm calmly\n"
    )
    data = load_analogy_file(str(path))
    assert data.categories == ["capital-common-countries", "gram1-adjective-to-adverb"]
    assert len(data) == 2
    first = data.questions[0]
    assert first.words == ("athens", "greece", "oslo", "norway")
    assert first.category == "capital-common-countries"


def test_load_analogy_file_wrong_word_count(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text(": cat\none two three\n")
    with pytest.raises(AnalogyParseError, match=r"q\.txt:2"):
        load_analogy_file(str(path))


def test_load_analogy_file_question_before_header(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("a b c d\n")
    with pytest.raises(AnalogyParseError, match="before any"):
        load_analogy_file(str(path))


def test_load_analogy_file_empty_category(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text(":   \na b c d\n")
    with pytest.raises(AnalogyParseError, match=r"q\.txt:1"):
        load_analogy_file(str(path))


def test_question_validation():
    with pytest.raises(ValueError):
        AnalogyQuestion("a", "", "c", "d", "cat")
    with pytest.raises(ValueError):
        AnalogyQuestion("a", "b", "c", "d", "")


def test_load_split_file(tmp_path):
    path = tmp_path / "splits.tsv"
    path.write_text("# comment\ncurrency\tsyntactic\ngram9-x\tsemantic\n")
    assert load_split_file(str(path)) == {
        "currency": "syntactic",
        "gram9-x": "semantic",
    }


def test_load_split_file_rejects_bad_rows(tmp_path):
    bad_value = tmp_path / "a.tsv"
    bad_value.write_text("currency\tadjectival\n")
    with pytest.raises(AnalogyParseError, match="must be one of"):
        load_split_file(str(bad_value))
    bad_shape = tmp_path / "b.tsv"
    bad_shape.write_text("currency syntactic\n")
    with pytest.raises(AnalogyParseError, match="expected"):
        load_split_file(str(bad_shape))


def test_category_split_rules():
    assert category_split("capital-common-countries") == "semantic"
    assert category_split("gram1-adjective-to-adverb") == "syntactic"
    # sidecar mapping overrides the name prefix
    assert category_split("currency", {"currency": "syntactic"}) == "syntactic"
    assert category_split("gram1-x", {"gram1-x": "semantic"}) == "semantic"


# -- word vectors ----------------------------------------------------------


def test_word_vector_plain_is_input_row():
    vocab = vocab_of(["red", "blue"])
    model = init_model(2, 0, 4, seed=0)
    np.testing.assert_array_equal(word_vector(model, vocab, "red"), model.input_matrix[0])


def test_word_vector_plain_oov_raises():
    vocab = vocab_of(["red", "blue"])
    model = init_model(2, 0, 4, seed=0)
    with pytest.raises(UnresolvableWordError):
        word_vector(model, vocab, "green")


def test_word_vector_subword_mean():
    vocab = vocab_of(["red", "blue"])
    model = init_model(2, 50, 4, seed=0, minn=2, maxn=3)
    ids = subword_ids("red", vocab, model_subword_config(model))
    np.testing.assert_allclose(
        word_vector(model, vocab, "red"), model.input_matrix[ids].mean(axis=0), rtol=1e-6
    )


def test_word_vector_oov_composes_from_ngrams():
    vocab = vocab_of(["red", "blue"])
    model = init_model(2, 50, 4, seed=0, minn=2, maxn=3)
    ids = subword_ids("green", vocab, model_subword_config(model))
    assert ids.size > 0 and ids.min() >= 2  # n-gram rows only
    np.testing.assert_allclose(
        word_vector(model, vocab, "green"),
        model.input_matrix[ids].mean(axis=0),
        rtol=1e-6,
    )


def test_word_vector_oov_too_short_for_ngrams():
    vocab = vocab_of(["red", "blue"])
    model = init_model(2, 50, 4, seed=0, minn=4, maxn=5)
    with pytest.raises(UnresolvableWordError):
        word_vector(model, vocab, "ab")  # bracketed form too short


# -- prediction ------------------------------------------------------------


def predict(model, vocab, a, b, c):
    """The word :meth:`VectorSpace.predict_id` answers to "a is to b as c is to ?"."""
    ids = [vocab.id_of(w) for w in (a, b, c)]
    return vocab.words[VectorSpace(model, vocab).predict_id(*ids)]


def test_analogy_lands_on_constructed_answer(royal):
    model, vocab = royal
    assert predict(model, vocab, "man", "king", "woman") == "queen"
    assert predict(model, vocab, "woman", "queen", "man") == "king"


def test_question_words_are_excluded(royal):
    model, vocab = royal
    # a == c makes the query exactly norm(b); b itself must not be returned
    vocab2 = vocab_of(["target", "near", "far"])
    rows = np.array([[1, 0], [0.9, 0.1], [0, 1]], dtype=np.float32)
    model2 = model_from_rows(rows)
    space = VectorSpace(model2, vocab2)
    assert space.predict_id(2, 0, 2) == 1  # query = unit(target), target banned


def test_prediction_scale_invariant(royal):
    model, vocab = royal
    scaled = model_from_rows(model.input_matrix * np.array([[3], [0.2], [7], [1], [11]], np.float32))
    for a, b, c in [("man", "king", "woman"), ("woman", "queen", "man")]:
        assert predict(model, vocab, a, b, c) == predict(
            scaled, vocab, a, b, c
        )


def brute_force_predict(matrix, ia, ib, ic):
    """Plain-python 3CosAdd over float lists; strict > keeps the lowest id on ties."""

    def unit(row):
        norm = math.sqrt(sum(x * x for x in row))
        return [x / norm for x in row]

    ua, ub, uc = unit(matrix[ia]), unit(matrix[ib]), unit(matrix[ic])
    query = [b - a + c for a, b, c in zip(ua, ub, uc)]
    best, best_score = None, -math.inf
    for i, row in enumerate(matrix):
        if i in (ia, ib, ic):
            continue
        score = sum(q * u for q, u in zip(query, unit(row)))
        if score > best_score:
            best, best_score = i, score
    return best


@pytest.mark.parametrize("seed", range(10))
def test_prediction_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, dim = 25, 6
    rows = rng.normal(size=(n, dim)).astype(np.float32)
    vocab = vocab_of([f"v{i:02d}" for i in range(n)])
    space = VectorSpace(model_from_rows(rows), vocab)
    matrix = rows.astype(np.float64).tolist()
    for _ in range(10):
        ia, ib, ic = (int(x) for x in rng.choice(n, size=3, replace=False))
        assert space.predict_id(ia, ib, ic) == brute_force_predict(matrix, ia, ib, ic)


def test_degenerate_query_word_raises():
    vocab = vocab_of(["a", "b", "c", "d"])
    rows = np.array([[1, 0], [0, 0], [0, 1], [1, 1]], dtype=np.float32)
    space = VectorSpace(model_from_rows(rows), vocab)
    assert space.degenerate.tolist() == [False, True, False, False]
    with pytest.raises(DegenerateVectorError):
        space.predict_id(0, 1, 2)


def test_degenerate_rows_cannot_win():
    vocab = vocab_of(["a", "b", "c", "zero", "live"])
    rows = np.array(
        [[1, 0], [0, 1], [1, 1], [0, 0], [0.1, -0.9]], dtype=np.float32
    )
    space = VectorSpace(model_from_rows(rows), vocab)
    assert space.predict_id(0, 1, 2) == 4  # the zero row never outranks a live one


def test_no_usable_candidates_raises():
    vocab = vocab_of(["a", "b", "c", "zero"])
    rows = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.float32)
    space = VectorSpace(model_from_rows(rows), vocab)
    # a, b, c excluded leaves only the zero-norm row as a candidate
    with pytest.raises(DegenerateVectorError):
        space.predict_id(0, 2, 1)


# -- evaluation ------------------------------------------------------------


def questions(*rows):
    return [AnalogyQuestion(*row) for row in rows]


def test_evaluate_perfect_and_total(royal):
    model, vocab = royal
    qs = questions(
        ("man", "king", "woman", "queen", "royalty"),
        ("woman", "queen", "man", "king", "royalty"),
    )
    report = evaluate(model, vocab, qs)
    assert report.total.correct == 2
    assert report.total.attempted == 2
    assert report.total_acc == pytest.approx(100.0)
    assert report.categories[0].name == "royalty"
    assert report.categories[0].split == "semantic"


def test_evaluate_counts_wrong_answers(royal):
    model, vocab = royal
    qs = questions(("man", "king", "woman", "apple", "royalty"))
    report = evaluate(model, vocab, qs)
    assert report.total.attempted == 1
    assert report.total.correct == 0
    assert report.total_acc == 0.0


def test_evaluate_skips_oov_anywhere(royal):
    model, vocab = royal
    qs = questions(
        ("man", "king", "woman", "queen", "royalty"),
        ("man", "king", "ghost", "queen", "royalty"),
        ("man", "king", "woman", "ghost", "royalty"),  # OOV gold also skips
    )
    report = evaluate(model, vocab, qs)
    cat = report.categories[0]
    assert cat.attempted == 1
    assert cat.skipped_oov == 2
    assert cat.attempted + cat.skipped == 3


def test_evaluate_all_oov_accuracy_undefined(royal):
    model, vocab = royal
    report = evaluate(model, vocab, questions(("x", "y", "z", "w", "ghosts")))
    assert report.categories[0].accuracy is None
    assert report.total_acc is None


def test_evaluate_on_an_empty_vocabulary_skips_every_question():
    model = model_from_rows(np.zeros((0, 3)))
    report = evaluate(model, Vocab([], []), questions(("a", "b", "c", "d", "cat")))
    assert report.total.skipped_oov == 1 and report.total.attempted == 0


def test_evaluate_skips_degenerate_and_warns(caplog):
    vocab = vocab_of(["a", "b", "c", "d", "zero"])
    rows = np.array(
        [[1, 0], [0, 1], [1, 1], [1, 2], [0, 0]], dtype=np.float32
    )
    model = model_from_rows(rows)
    with caplog.at_level(logging.WARNING, logger="cbos.analogy"):
        report = evaluate(model, vocab, questions(("a", "b", "zero", "d", "cat")))
    assert report.categories[0].skipped_degenerate == 1
    assert report.categories[0].attempted == 0
    assert any("near-zero" in r.message for r in caplog.records)


def test_evaluate_split_aggregation(royal):
    model, vocab = royal
    qs = questions(
        ("man", "king", "woman", "queen", "royalty"),
        ("woman", "queen", "man", "king", "gram1-case"),
    )
    report = evaluate(model, vocab, qs)
    assert report.semantic.attempted == 1
    assert report.syntactic.attempted == 1
    assert report.total.attempted == 2
    assert (
        report.semantic.correct + report.syntactic.correct == report.total.correct
    )


def test_evaluate_split_map_override(royal):
    model, vocab = royal
    qs = questions(("man", "king", "woman", "queen", "royalty"))
    report = evaluate(model, vocab, qs, split_map={"royalty": "syntactic"})
    assert report.syntactic.attempted == 1
    assert report.semantic.attempted == 0


def test_evaluate_order_does_not_change_totals(royal):
    model, vocab = royal
    qs = questions(
        ("man", "king", "woman", "queen", "royalty"),
        ("woman", "queen", "man", "king", "royalty"),
        ("man", "king", "woman", "apple", "other"),
    )
    fwd = evaluate(model, vocab, qs)
    rev = evaluate(model, vocab, list(reversed(qs)))
    assert fwd.total.correct == rev.total.correct
    assert fwd.total.attempted == rev.total.attempted


def test_vector_space_units_are_the_rows_divided_by_their_norms(monkeypatch):
    monkeypatch.setattr(analogy_module, "SCORE_BLOCK_BYTES", 3 * 8 * 16)  # norms in blocks of 3 rows, then 1
    vocab = vocab_of([f"w{i}" for i in range(40)])
    model = init_model(40, 50, 16, seed=5, minn=2, maxn=3)
    model.input_matrix[[3, 17]] = 0.0  # words with no n-gram rows stay zero, so degenerate
    before = model.input_matrix.copy()
    matrix = composed_word_matrix(model, vocab).astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms < NORM_EPSILON] = 1.0
    space = VectorSpace(model, vocab)
    assert space.unit.tobytes() == (matrix / norms[:, np.newaxis]).tobytes()
    np.testing.assert_array_equal(model.input_matrix, before)


def test_vector_space_of_a_model_without_ngrams_copies_its_rows_once(monkeypatch):
    monkeypatch.setattr(analogy_module, "SCORE_BLOCK_BYTES", 1 << 16)  # norm blocks far smaller than the rows
    words, dim = 20_000, 64
    vocab = Vocab([f"w{i}" for i in range(words)], [1] * words)
    model = init_model(words, 0, dim, seed=1)
    before = model.input_matrix.copy()
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        space = VectorSpace(model, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The float64 unit rows take 8 bytes per value. Squaring them all at once for their
    # norms would take 8 more, and a float32 copy of the rows 4 more.
    assert peak < 1.1 * 8 * words * dim
    assert space.unit.shape == (words, dim)
    np.testing.assert_array_equal(model.input_matrix, before)


def per_question_evaluate(model, vocab, qs):
    """Report and warnings from one :meth:`VectorSpace.predict_id` call per question."""
    space = VectorSpace(model, vocab)
    results, warnings = {}, []
    for q in qs:
        cat = results.setdefault(q.category, CategoryResult(q.category, category_split(q.category)))
        ids = [vocab.id_of(w) for w in q.words]
        if None in ids:
            cat.skipped_oov += 1
        elif space.degenerate[ids].any():
            cat.skipped_degenerate += 1
            warnings.append(f"skipping {q!r}: near-zero vector norm in ({', '.join(q.words)})")
        else:
            try:
                predicted = space.predict_id(*ids[:3])
            except DegenerateVectorError as exc:
                cat.skipped_degenerate += 1
                warnings.append(f"skipping {q!r}: {exc}")
            else:
                cat.attempted += 1
                cat.correct += predicted == ids[3]
    return AnalogyReport(list(results.values())), warnings


def tied_space(seed, n=30, dim=3):
    """Rows from {-1, 0, 1}: duplicated rows tie exactly and zero rows are degenerate."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(-1, 2, size=(n, dim)).astype(np.float32)
    rows[rng.choice(n, size=3, replace=False)] = 0.0
    return model_from_rows(rows), vocab_of([f"w{i}" for i in range(n)])


@pytest.fixture
def block_rows(monkeypatch):
    """Make predict_ids score ``rows`` questions per block over ``vocab_size`` words."""

    def set_rows(rows, vocab_size):
        itemsize = np.dtype(np.float32).itemsize  # predict_ids scores in float32
        monkeypatch.setattr(analogy_module, "SCORE_BLOCK_BYTES", rows * itemsize * vocab_size + 7)

    return set_rows


@pytest.fixture
def fallbacks(monkeypatch):
    """The id triples that reach :meth:`VectorSpace.predict_id`."""
    calls = []
    exact = VectorSpace.predict_id

    def counting(self, ia, ib, ic):
        calls.append((ia, ib, ic))
        return exact(self, ia, ib, ic)

    monkeypatch.setattr(VectorSpace, "predict_id", counting)
    return calls


def predict_each(space, ia, ib, ic):
    """``predict_id`` per question, -1 where it raises."""
    out = []
    for a, b, c in zip(ia.tolist(), ib.tolist(), ic.tolist()):
        try:
            out.append(space.predict_id(a, b, c))
        except DegenerateVectorError:
            out.append(-1)
    return out


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_predict_ids_equals_predict_id_per_question(seed, rows, blocks, extra, block_rows, fallbacks):
    model, vocab = tied_space(seed)
    space = VectorSpace(model, vocab)
    count = rows * blocks + extra
    rng = np.random.default_rng(100 + seed)
    ia, ib, ic = rng.integers(0, len(vocab), size=(3, count))  # zero rows and repeats included
    expected = predict_each(space, ia, ib, ic)
    block_rows(rows, len(vocab))
    got = space.predict_ids(ia, ib, ic)
    assert got.tolist() == expected
    assert got.dtype == np.int64
    # a question that predict_id refuses (a zero query row, or no candidate left) takes the exact path
    refused = {q for q, e in zip(zip(ia.tolist(), ib.tolist(), ic.tolist()), expected) if e < 0}
    assert refused <= set(fallbacks)


@pytest.mark.parametrize("rows", [1, 5, 1000])
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_equals_a_predict_id_loop(seed, rows, block_rows, fallbacks, caplog):
    model, vocab = tied_space(seed)
    rng = np.random.default_rng(200 + seed)
    pool = vocab.words + ["ghost"]  # one out-of-vocabulary word
    qs = [
        AnalogyQuestion(*(pool[i] for i in rng.choice(len(pool), size=4, replace=False)), f"cat{i % 3}")
        for i in range(61)
    ]
    expected, warnings = per_question_evaluate(model, vocab, qs)
    fallbacks.clear()
    block_rows(rows, len(vocab))
    with caplog.at_level(logging.WARNING, logger="cbos.analogy"):
        report = evaluate(model, vocab, qs)
    assert report.to_dict() == expected.to_dict()
    assert [r.getMessage() for r in caplog.records] == warnings
    assert report.total.skipped_oov > 0 and report.total.skipped_degenerate > 0
    assert fallbacks  # exact ties among duplicated rows reached predict_id


def test_evaluate_counts_a_question_with_only_degenerate_candidates(block_rows, caplog):
    # a single degenerate candidate: unless masked, its score 0 would win the block outright
    vocab = vocab_of(["a", "b", "c", "zero"])
    model = model_from_rows([[1, 0], [0, 1], [1, 1], [0, 0]])
    qs = questions(("a", "b", "c", "a", "cat"), ("b", "c", "a", "b", "cat"), ("a", "c", "b", "b", "cat"))
    expected, warnings = per_question_evaluate(model, vocab, qs)
    for rows_per_block in (1, 2, 3):
        block_rows(rows_per_block, len(vocab))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cbos.analogy"):
            report = evaluate(model, vocab, qs)
        assert report.to_dict() == expected.to_dict()
        assert report.total.skipped_degenerate == 3 and report.total.attempted == 0
        assert [r.getMessage() for r in caplog.records] == warnings
        assert all("no candidate with a usable vector" in w for w in warnings)


def test_near_tie_is_settled_by_predict_id(fallbacks):
    # query = unit(b) = (1, 0); w3 and w4 score within 2e-12 of each other, the
    # higher id scoring higher, so the answer is not the lowest near-best id
    vocab = vocab_of(["a", "b", "c", "w3", "w4", "far"])
    space = VectorSpace(model_from_rows([[0, 1], [1, 0], [0, 1], [1, 2e-6], [1, 1e-6], [-1, 0]]), vocab)
    unit = space.unit
    assert 0 < unit[4] @ unit[1] - unit[3] @ unit[1] < NEAR_TIE
    expected = space.predict_id(0, 1, 2)
    fallbacks.clear()
    assert space.predict_ids(np.array([0]), np.array([1]), np.array([2])).tolist() == [expected]
    assert expected == 4
    assert fallbacks == [(0, 1, 2)]


def test_float32_near_tie_is_settled_by_predict_id(fallbacks):
    # w4 scores 1.3e-8 above w3 in float64, beyond NEAR_TIE but within 2δ; rounded to
    # float32 the two rank the other way round, so a margin of NEAR_TIE alone would answer w3
    vocab = vocab_of(["a", "b", "c", "w3", "w4"])
    rows = [
        [0, 1],
        [-0.7960867881774902, -0.48721814155578613],
        [0, 1],
        [-0.9750001430511475, -0.6204291582107544],
        [-0.9750011563301086, -0.6204288005828857],
    ]
    space = VectorSpace(model_from_rows(rows), vocab)
    unit = space.unit
    query = unit[1] - unit[0] + unit[2]
    assert NEAR_TIE < unit[4] @ query - unit[3] @ query < 2 * float32_score_bound(2)
    expected = space.predict_id(0, 1, 2)
    fallbacks.clear()
    assert space.predict_ids(np.array([0]), np.array([1]), np.array([2])).tolist() == [expected]
    assert expected == 4
    assert fallbacks == [(0, 1, 2)]


@pytest.mark.parametrize("dim", [1, 100, 300])
@pytest.mark.parametrize("seed", range(3))
def test_predict_ids_equals_predict_id_with_planted_rivals(seed, dim, block_rows, fallbacks):
    # each question gets a winner row along its query and a rival 1e-7 to 1e-3 below it
    # (in random id order), so gaps fall on either side of 2δ (3.7e-5 at dim 100, 1.1e-4 at 300)
    rng = np.random.default_rng([seed, dim])
    base, count = 40, 60
    rows = rng.standard_normal((base + 2 * count, dim)).astype(np.float32)
    unit = rows[:base] / np.linalg.norm(rows[:base].astype(np.float64), axis=1, keepdims=True)
    ia, ib, ic = (rng.integers(0, base, size=count) for _ in range(3))
    for q, (a, b, c) in enumerate(zip(ia, ib, ic)):
        query = unit[b] - unit[a] + unit[c]
        norm = np.linalg.norm(query)
        if norm < 0.1:  # too short a query to plant a rival 1e-3 below it
            continue
        along = query / norm
        across = rng.standard_normal(dim)
        across -= (across @ along) * along
        across /= max(np.linalg.norm(across), 1e-300)
        cos = 1 - 10 ** rng.uniform(-7, -3) / norm
        rival = cos * along + math.sqrt(1 - cos * cos) * across
        pair = [along, rival] if rng.random() < 0.5 else [rival, along]
        rows[base + 2 * q : base + 2 * q + 2] = np.array(pair, dtype=np.float32)
    space = VectorSpace(model_from_rows(rows), vocab_of([f"w{i}" for i in range(len(rows))]))
    expected = predict_each(space, ia, ib, ic)
    fallbacks.clear()
    block_rows(7, len(rows))
    assert space.predict_ids(ia, ib, ic).tolist() == expected
    if dim > 1:  # at dim 1 every unit row is +-1, so nearly every question ties
        assert 0 < len(fallbacks) < count


@pytest.mark.parametrize("dim", [1, 2, 10, 100, 300, 1000])
def test_float32_score_bound_covers_the_float32_scores(dim):
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((500, dim))
    rows[::3, : dim // 2] *= 1e-40  # components that become float32 subnormals
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    ia, ib, ic = rng.integers(0, len(unit), size=(3, 200))
    queries = np.vstack([unit[ib] - unit[ia] + unit[ic], 3 * unit[:100]])  # norm at most 3
    exact = queries @ unit.T
    rounded = queries.astype(np.float32) @ unit.astype(np.float32).T
    worst = float(np.abs(rounded - exact).max())
    assert worst <= float32_score_bound(dim)
    assert worst > 0 or dim == 1  # at dim 1 every unit row and query is exact in float32


# -- report formatting -----------------------------------------------------


def sample_report():
    return AnalogyReport(
        [
            CategoryResult("capitals", "semantic", correct=3, attempted=4, skipped_oov=1),
            CategoryResult("gram1-case", "syntactic", correct=1, attempted=2),
            CategoryResult("ghosts", "semantic", skipped_oov=5),
        ]
    )


def test_report_table_layout():
    table = sample_report().format_table()
    lines = table.splitlines()
    for column in ("Category", "Correct", "Attempted", "Skipped", "Accuracy"):
        assert column in lines[0]
    assert lines[1].split() == ["capitals", "3", "4", "1", "75.00%"]
    assert lines[3].split() == ["ghosts", "0", "0", "5", "n/a"]
    assert set(lines[4]) == {"-"}
    assert lines[5].split()[0] == "Semantic"
    assert lines[6].split()[0] == "Syntactic"
    assert lines[7].split() == ["Total", "4", "6", "6", "66.67%"]


def test_report_json_round_trip():
    data = json.loads(sample_report().to_json())
    assert data["semantic"]["correct"] == 3
    assert data["syntactic"]["accuracy"] == pytest.approx(50.0)
    assert data["total"]["attempted"] == 6
    assert [c["name"] for c in data["categories"]] == [
        "capitals",
        "gram1-case",
        "ghosts",
    ]


def test_report_accuracy_none_serializes_as_null():
    report = AnalogyReport([CategoryResult("empty", "semantic")])
    assert json.loads(report.to_json())["total"]["accuracy"] is None
    assert "n/a" in report.format_table()


# -- nearest neighbors -----------------------------------------------------


def test_nearest_neighbors_identical_direction_scores_one():
    vocab = vocab_of(["hot", "scalding", "cold"])
    rows = np.array([[1, 0], [2, 0], [0, 1]], dtype=np.float32)
    model = model_from_rows(rows)
    result = nearest_neighbors(model, vocab, "hot", 2)
    assert result[0][0] == "scalding"
    assert result[0][1] == pytest.approx(1.0)
    assert result[1][0] == "cold"


def test_nearest_neighbors_excludes_self_and_caps_k():
    vocab = vocab_of(["a", "b", "c"])
    model = init_model(3, 0, 4, seed=1)
    result = nearest_neighbors(model, vocab, "a", 10)
    names = [w for w, _ in result]
    assert "a" not in names
    assert len(result) == 2
    assert result[0][1] >= result[1][1]


def test_nearest_neighbors_matches_full_scan():
    rng = np.random.default_rng(8)
    n = 20
    rows = rng.normal(size=(n, 5)).astype(np.float32)
    vocab = vocab_of([f"v{i:02d}" for i in range(n)])
    model = model_from_rows(rows)
    result = nearest_neighbors(model, vocab, "v07", 5)
    unit = rows.astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    scores = unit @ unit[7]
    scores[7] = -np.inf
    expected_ids = np.argsort(-scores, kind="stable")[:5]
    assert [vocab.words[i] for i in expected_ids] == [w for w, _ in result]
    for (_, got), i in zip(result, expected_ids):
        assert got == pytest.approx(scores[i], rel=1e-6)


def test_nearest_neighbors_k_validation_and_oov():
    vocab = vocab_of(["a", "b"])
    model = init_model(2, 0, 3, seed=0)
    with pytest.raises(ValueError):
        nearest_neighbors(model, vocab, "a", 0)
    with pytest.raises(UnresolvableWordError):
        nearest_neighbors(model, vocab, "zz", 1)


def test_nearest_neighbors_subword_query_for_oov():
    vocab = vocab_of(["red", "blue"])
    model = init_model(2, 50, 4, seed=0, minn=2, maxn=3)
    result = nearest_neighbors(model, vocab, "green", 2)
    assert len(result) == 2  # composed query still ranks the whole vocab


def full_sort_neighbors(model, vocab, word, k):
    """The neighbour list from a stable sort of every vocabulary score."""
    space = VectorSpace(model, vocab)
    vec = word_vector(model, vocab, word).astype(np.float64)
    if np.linalg.norm(vec) < NORM_EPSILON:
        raise DegenerateVectorError(word)
    scores = space.unit @ (vec / np.linalg.norm(vec))
    scores[space.degenerate] = -np.inf
    if word in vocab:
        scores[vocab.id_of(word)] = -np.inf
    order = np.argsort(-scores, kind="stable")[:k]
    return [(vocab.words[i], float(scores[i])) for i in order if np.isfinite(scores[i])]


TIED_ROWS = [[1, 0], [2, 0], [0, 0], [1, 0], [0, 1], [3, 0], [0, 0], [0, 2], [1, 1], [1, 0]]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 9, 10, 25])
@pytest.mark.parametrize("word", ["w0", "w1", "w4", "w8", "w9"])
def test_nearest_neighbors_top_k_equals_a_full_stable_sort(word, k):
    # duplicate directions tie exactly; w2 and w6 are degenerate; k >= 9 asks
    # for more words than there are candidates
    vocab = vocab_of([f"w{i}" for i in range(len(TIED_ROWS))])
    model = model_from_rows(TIED_ROWS)
    result = nearest_neighbors(model, vocab, word, k)
    assert result == full_sort_neighbors(model, vocab, word, k)
    assert word not in [w for w, _ in result]
    assert len(result) == min(k, 7)  # 10 words less the query and the two degenerate rows
    if word == "w0" and k >= 4:  # the three other words along x tie at cosine 1, lowest id first
        assert [w for w, _ in result[:4]] == ["w1", "w3", "w5", "w9"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nearest_neighbors_top_k_equals_a_full_stable_sort_on_random_models(data):
    # small integer rows give ties and zero rows; a bucket of 1-3 rows gives
    # out-of-vocabulary queries a vector, and makes equal-length words tie
    n = data.draw(st.integers(2, 12))
    bucket = data.draw(st.sampled_from([0, 1, 3]))
    dim = data.draw(st.integers(1, 3))
    cells = data.draw(st.lists(st.integers(-1, 1), min_size=(n + bucket) * dim, max_size=(n + bucket) * dim))
    rows = np.array(cells, dtype=np.float32).reshape(n + bucket, dim)
    model = model_from_rows(rows, *((1, 2) if bucket else (0, 0)), bucket)
    vocab = vocab_of([f"w{i}" for i in range(n)])
    word = data.draw(st.sampled_from(vocab.words + ["oov"]))
    k = data.draw(st.integers(1, n + 1))
    try:
        expected = full_sort_neighbors(model, vocab, word, k)
    except (DegenerateVectorError, UnresolvableWordError) as exc:
        with pytest.raises(type(exc)):
            nearest_neighbors(model, vocab, word, k)
    else:
        assert nearest_neighbors(model, vocab, word, k) == expected
