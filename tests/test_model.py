import math

import numpy as np
import pytest

from cbos.corpus import Vocab, build_vocab
from cbos.model import (
    EmbeddingModel,
    SIGMOID_CLAMP,
    composed_word_matrix,
    compute_hidden,
    init_model,
    initialize_matrices,
    model_subword_config,
    ns_loss,
    ns_update,
)
from cbos.subword import SubwordConfig, extract_ngrams, fnv1a_32, subword_ids


def reference_step(inp, out, bag_ids, target, negatives, lr):
    """Vectorized float64 reference for one negative-sampling step.

    Kept deliberately separate from the implementation: labels as a vector,
    clip + exp over arrays, gradient accumulation by explicit loops.
    Returns (loss, new_input, new_output) without touching its arguments.
    """
    inp = np.array(inp, dtype=np.float64)
    out = np.array(out, dtype=np.float64)
    bag_ids = list(bag_ids)
    h = inp[bag_ids].mean(axis=0)
    ids = [int(target)] + [int(n) for n in negatives]
    labels = np.zeros(len(ids))
    labels[0] = 1.0
    s = np.clip(out[ids] @ h, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    sig = 1.0 / (1.0 + np.exp(-s))
    loss = float(-np.log(np.where(labels == 1.0, sig, 1.0 - sig)).sum())
    coeff = lr * (labels - sig)
    grad_h = (coeff[:, None] * out[ids]).sum(axis=0)
    for j, i in enumerate(ids):
        out[i] += coeff[j] * h
    for i in bag_ids:
        inp[i] += grad_h / len(bag_ids)
    return loss, inp, out


def random_instance(seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    v = int(rng.integers(4, 12))
    dim = int(rng.integers(2, 9))
    model = EmbeddingModel(
        input_matrix=rng.uniform(-0.5, 0.5, (v, dim)).astype(dtype),
        output_matrix=rng.uniform(-0.5, 0.5, (v, dim)).astype(dtype),
        dim=dim,
    )
    bag = rng.integers(0, v, size=int(rng.integers(1, 5)))
    target = int(rng.integers(0, v))
    negatives = rng.integers(0, v, size=int(rng.integers(0, 6)))
    return model, bag, target, negatives


def test_initialize_matrices_deterministic_and_bounded():
    a = init_model(vocab_size=20, bucket=5, dim=10, seed=9)
    b = init_model(vocab_size=20, bucket=5, dim=10, seed=9)
    np.testing.assert_array_equal(a.input_matrix, b.input_matrix)
    assert np.abs(a.input_matrix).max() <= 1.0 / 10
    assert (a.output_matrix == 0).all()
    c = init_model(vocab_size=20, bucket=5, dim=10, seed=10)
    assert not np.array_equal(a.input_matrix, c.input_matrix)


def test_initialize_chunking_consistent():
    # chunked fill must be pure function of seed, not matrix size history
    big = init_model(vocab_size=10, bucket=0, dim=4, seed=3)
    initialize_matrices(big, seed=3)
    again = init_model(vocab_size=10, bucket=0, dim=4, seed=3)
    np.testing.assert_array_equal(big.input_matrix, again.input_matrix)


def test_init_model_validation():
    with pytest.raises(ValueError):
        init_model(vocab_size=0, bucket=0, dim=5, seed=1)
    with pytest.raises(ValueError):
        init_model(vocab_size=5, bucket=-1, dim=5, seed=1)
    with pytest.raises(ValueError):
        init_model(vocab_size=5, bucket=0, dim=0, seed=1)


def test_compute_hidden_is_mean():
    model = init_model(vocab_size=6, bucket=0, dim=4, seed=0)
    ids = np.array([1, 3, 5])
    hidden = compute_hidden(ids, model)
    np.testing.assert_allclose(hidden.vector, model.input_matrix[ids].mean(axis=0))
    assert hidden.scale == pytest.approx(1.0 / 3)
    np.testing.assert_array_equal(hidden.source_ids, ids)


def test_compute_hidden_single_id():
    model = init_model(vocab_size=6, bucket=0, dim=4, seed=0)
    hidden = compute_hidden(np.array([2]), model)
    np.testing.assert_array_equal(hidden.vector, model.input_matrix[2])
    assert hidden.scale == 1.0


def test_compute_hidden_counts_duplicates():
    model = init_model(vocab_size=6, bucket=0, dim=4, seed=0)
    hidden = compute_hidden(np.array([1, 1, 4]), model)
    expected = (2 * model.input_matrix[1] + model.input_matrix[4]) / 3
    np.testing.assert_allclose(hidden.vector, expected, rtol=1e-6)


def test_compute_hidden_empty_raises():
    model = init_model(vocab_size=6, bucket=0, dim=4, seed=0)
    with pytest.raises(ValueError):
        compute_hidden(np.array([], dtype=np.int64), model)


def test_ns_loss_zero_output_is_log2_per_row():
    # freshly initialized output rows are zero, so every sigmoid is 1/2
    model = init_model(vocab_size=8, bucket=0, dim=5, seed=7)
    hidden = compute_hidden(np.array([0, 1]), model)
    negatives = np.array([2, 3, 4])
    assert ns_loss(hidden, 5, negatives, model) == pytest.approx(4 * math.log(2))


@pytest.mark.parametrize("seed", range(8))
def test_ns_loss_matches_reference(seed):
    model, bag, target, negatives = random_instance(seed)
    hidden = compute_hidden(bag, model)
    expected, _, _ = reference_step(
        model.input_matrix, model.output_matrix, bag, target, negatives, 0.0
    )
    assert ns_loss(hidden, target, negatives, model) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.parametrize("seed", range(8))
def test_ns_update_matches_reference(seed):
    model, bag, target, negatives = random_instance(seed)
    expected_loss, expected_inp, expected_out = reference_step(
        model.input_matrix, model.output_matrix, bag, target, negatives, 0.3
    )
    loss = ns_update(compute_hidden(bag, model), target, negatives, 0.3, model)
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    np.testing.assert_allclose(model.input_matrix, expected_inp, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(model.output_matrix, expected_out, rtol=1e-12, atol=1e-14)


def test_ns_update_duplicate_negatives_accumulate():
    rng = np.random.default_rng(3)
    model = EmbeddingModel(
        input_matrix=rng.uniform(-0.5, 0.5, (5, 4)),
        output_matrix=rng.uniform(-0.5, 0.5, (5, 4)),
        dim=4,
    )
    negatives = np.array([2, 2, 2])
    _, expected_inp, expected_out = reference_step(
        model.input_matrix, model.output_matrix, [0, 0, 1], 3, negatives, 0.5
    )
    ns_update(compute_hidden(np.array([0, 0, 1]), model), 3, negatives, 0.5, model)
    np.testing.assert_allclose(model.input_matrix, expected_inp, rtol=1e-12)
    np.testing.assert_allclose(model.output_matrix, expected_out, rtol=1e-12)


def test_ns_update_returns_pre_update_loss():
    model, bag, target, negatives = random_instance(99)
    before = ns_loss(compute_hidden(bag, model), target, negatives, model)
    returned = ns_update(compute_hidden(bag, model), target, negatives, 0.1, model)
    assert returned == before


def test_ns_update_leaves_unrelated_rows_alone():
    model, bag, target, negatives = random_instance(5)
    touched = set(bag.tolist())
    out_touched = {target, *negatives.tolist()}
    inp_before = model.input_matrix.copy()
    out_before = model.output_matrix.copy()
    ns_update(compute_hidden(bag, model), target, negatives, 0.2, model)
    for r in range(model.vocab_size):
        if r not in touched:
            np.testing.assert_array_equal(model.input_matrix[r], inp_before[r])
        if r not in out_touched:
            np.testing.assert_array_equal(model.output_matrix[r], out_before[r])


def test_ns_update_small_lr_decreases_loss():
    for seed in range(5):
        model, bag, target, negatives = random_instance(seed + 50)
        before = ns_loss(compute_hidden(bag, model), target, negatives, model)
        ns_update(compute_hidden(bag, model), target, negatives, 1e-3, model)
        after = ns_loss(compute_hidden(bag, model), target, negatives, model)
        assert after < before


def test_score_clamping():
    dim = 3
    model = EmbeddingModel(
        input_matrix=np.zeros((2, dim)),
        output_matrix=np.zeros((2, dim)),
        dim=dim,
    )
    model.input_matrix[0] = [10.0, 0.0, 0.0]
    model.output_matrix[1] = [10.0, 0.0, 0.0]  # raw score 100, clamped to 8
    hidden = compute_hidden(np.array([0]), model)
    loss = ns_loss(hidden, 1, np.array([], dtype=np.int64), model)
    assert loss == pytest.approx(-math.log(1.0 / (1.0 + math.exp(-8.0))))


def test_out_of_range_ids_rejected():
    model = init_model(vocab_size=4, bucket=0, dim=3, seed=1)
    hidden = compute_hidden(np.array([0]), model)
    with pytest.raises(ValueError):
        ns_loss(hidden, 4, np.array([1]), model)
    with pytest.raises(ValueError):
        ns_update(hidden, 1, np.array([-1]), 0.1, model)


def gradients_via_unit_lr(model, bag, target, negatives):
    """Analytic gradients recovered from a unit-lr update on copies."""
    probe = EmbeddingModel(
        input_matrix=model.input_matrix.copy(),
        output_matrix=model.output_matrix.copy(),
        dim=model.dim,
    )
    ns_update(compute_hidden(bag, probe), target, negatives, 1.0, probe)
    return (
        model.input_matrix - probe.input_matrix,
        model.output_matrix - probe.output_matrix,
    )


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_central_finite_differences(seed):
    model, bag, target, negatives = random_instance(seed + 200)
    g_inp, g_out = gradients_via_unit_lr(model, bag, target, negatives)
    eps = 1e-4

    def loss_now():
        return ns_loss(compute_hidden(bag, model), target, negatives, model)

    for matrix, grad in ((model.input_matrix, g_inp), (model.output_matrix, g_out)):
        for idx in np.ndindex(matrix.shape):
            keep = matrix[idx]
            matrix[idx] = keep + eps
            plus = loss_now()
            matrix[idx] = keep - eps
            minus = loss_now()
            matrix[idx] = keep
            fd = (plus - minus) / (2 * eps)
            rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
            assert rel < 1e-4, (idx, fd, grad[idx])


def test_composed_word_matrix_plain_words():
    vocab = build_vocab(["red", "red", "blue"])
    model = init_model(vocab_size=2, bucket=0, dim=4, seed=2)
    composed = composed_word_matrix(model, vocab)
    np.testing.assert_array_equal(composed, model.input_matrix[:2])
    assert np.shares_memory(composed, model.input_matrix)  # the model's own rows, not a copy
    with pytest.raises(ValueError, match="read-only"):
        composed[0, 0] = 99.0
    assert model.input_matrix.flags.writeable  # the model itself stays trainable


def test_composed_word_matrix_subword_mean():
    vocab = build_vocab(["red", "red", "blue"])
    model = init_model(
        vocab_size=2, bucket=30, dim=4, seed=2, minn=2, maxn=3
    )
    composed = composed_word_matrix(model, vocab)
    cfg = model_subword_config(model)
    assert cfg == SubwordConfig(2, 3, 30)
    for wid, word in enumerate(vocab.words):
        ids = subword_ids(word, vocab, cfg)
        np.testing.assert_allclose(
            composed[wid], model.input_matrix[ids].mean(axis=0), rtol=1e-6
        )


def test_composed_word_matrix_vocab_mismatch():
    vocab = build_vocab(["a", "b", "c"])
    model = init_model(vocab_size=2, bucket=0, dim=4, seed=2)
    with pytest.raises(ValueError):
        composed_word_matrix(model, vocab)


def mixed_vocab(n=300, seed=5):
    """Words of 1 to 14 characters, some multi-byte, plus "a" (only its own row at minn 3)."""
    rng = np.random.default_rng(seed)
    letters = list("abcdefghijklmnopqrstuvwxyzéλ中😀")
    words = {"a"}
    while len(words) < n:
        words.add("".join(rng.choice(letters, size=int(rng.integers(1, 15)))))
    return Vocab(sorted(words), range(n, 0, -1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "minn,maxn,bucket",
    [(0, 0, 0), (3, 6, 1), (3, 6, 7), (1, 4, 2), (2, 5, 1000), (5, 8, 97)],
)
def test_composed_word_matrix_is_the_per_word_mean_bit_for_bit(dtype, minn, maxn, bucket):
    vocab = mixed_vocab()
    model = init_model(len(vocab), bucket, 6, seed=4, dtype=dtype, minn=minn, maxn=maxn)
    rng = np.random.default_rng(6)
    # magnitudes over 8 decades, so that a different summation order changes the bits
    model.input_matrix[:] = rng.normal(size=model.input_matrix.shape) * 10.0 ** rng.uniform(
        -4, 4, size=model.input_matrix.shape
    )
    composed = composed_word_matrix(model, vocab)
    expected = np.empty_like(composed)
    for wid, word in enumerate(vocab.words):
        ids = [wid]
        if minn:
            grams = extract_ngrams(word, minn, maxn)
            ids += [len(vocab) + fnv1a_32(g.encode()) % bucket for g in grams]
        expected[wid] = model.input_matrix[ids].mean(axis=0)
    assert composed.dtype == model.dtype
    assert composed.tobytes() == expected.tobytes()
