import json
import io
import multiprocessing
import os
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbos.corpus as corpus_module
import cbos.trainer as trainer_module
from cbos import kernel
from cbos.corpus import (
    CorpusDecodeError,
    Vocab,
    build_negative_table,
    build_vocab,
    build_vocab_from_file,
    negative_bounds,
)
from cbos.persist import save_bin
from cbos.subword import build_subword_cache
from cbos.trainer import (
    CBOS_VARIANTS,
    JsonTraceWriter,
    LR_FLOOR,
    MODEL_KINDS,
    SCHEDULES,
    TraceEvent,
    TrainConfig,
    Trainer,
    iter_slice_chunks,
    lr_schedule,
    sample_window,
    train,
)

from reference import encode_chunk


def distinct_vocab(n=12):
    """n words with strictly descending counts, so word ``w{i}`` gets id i."""
    tokens = []
    for i in range(n):
        tokens.extend([f"w{i:02d}"] * (n + 2 - i))
    return build_vocab(tokens)


def make_trainer(vocab=None, rng=None, trace=None, **overrides):
    cfg = dict(
        model_kind="cbos",
        dim=4,
        ws=2,
        epochs=1,
        negatives=0,
        minn=0,
        maxn=0,
        bucket=0,
        min_count=1,
        t=1.0,  # disables subsampling
        seed=7,
    )
    cfg.update(overrides)
    config = TrainConfig(**cfg)
    if vocab is None:
        vocab = distinct_vocab()
    from cbos.model import init_model

    model = init_model(
        len(vocab),
        config.bucket_rows,
        config.dim,
        seed=config.seed,
        minn=config.minn,
        maxn=config.maxn,
    )
    return Trainer(model, vocab, config, rng=rng, trace=trace)


class ScriptedRng:
    """Stand-in rng returning a fixed queue of integers; any other draw fails."""

    def __init__(self, values=()):
        self.values = list(values)

    def integers(self, low, high=None, size=None):
        assert size is None, "scripted rng only serves scalar draws"
        value = self.values.pop(0)
        hi = low if high is None else high
        lo = 0 if high is None else low
        assert lo <= value < hi
        return value

    def random(self, size=None):
        raise AssertionError("unexpected random() draw")


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)

    def phases(self):
        return [e.phase for e in self.events]


# -- configuration ---------------------------------------------------------


def test_config_defaults_fill_variant():
    cfg = TrainConfig()
    assert cfg.model_kind == "cbos"
    assert cfg.variant == "baseline"


def test_config_variant_requires_cbos():
    with pytest.raises(ValueError):
        TrainConfig(model_kind="cbow", variant="next_word")
    TrainConfig(model_kind="cbow")  # fine without a variant


@pytest.mark.parametrize(
    "kwargs",
    [
        {"model_kind": "glove"},
        {"variant": "nope"},
        {"dim": 0},
        {"ws": 0},
        {"epochs": 0},
        {"min_count": 0},
        {"workers": 0},
        {"negatives": -1},
        {"seed": -1},
        {"lr0": 0.0},
        {"lr0": float("inf")},
        {"lr0": float("nan")},
        {"t": 0.0},
        {"t": float("inf")},
        {"t": float("nan")},
        {"minn": 4, "maxn": 2},
        {"minn": 2, "maxn": 3, "bucket": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_bucket_rows():
    assert TrainConfig(minn=0, maxn=0, bucket=500).bucket_rows == 0
    assert TrainConfig(minn=3, maxn=6, bucket=500).bucket_rows == 500


def test_all_variants_accepted():
    for variant in CBOS_VARIANTS:
        assert TrainConfig(variant=variant).variant == variant


def test_schedules_have_one_row_per_schedule():
    # cbos is keyed by its variant, the baselines by their model kind
    kinds = [k for k in MODEL_KINDS if k != "cbos"]
    assert sorted(SCHEDULES) == sorted(kinds + list(CBOS_VARIANTS))


# -- window and lr ---------------------------------------------------------


def test_sample_window_covers_full_range():
    rng = np.random.default_rng(0)
    draws = {sample_window(4, rng) for _ in range(400)}
    assert draws == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        sample_window(0, rng)


def test_lr_schedule_values():
    assert lr_schedule(0.05, 0, 100) == pytest.approx(0.05)
    assert lr_schedule(0.05, 50, 100) == pytest.approx(0.025)
    assert lr_schedule(0.05, 100, 100) == LR_FLOOR
    assert lr_schedule(0.05, 150, 100) == LR_FLOOR  # overshoot clamps
    assert lr_schedule(0.05, 0, 0) == LR_FLOOR


@given(
    lr0=st.floats(1e-3, 1.0),
    done=st.integers(0, 10**6),
    total=st.integers(1, 10**6),
)
def test_lr_schedule_bounds(lr0, done, total):
    lr = lr_schedule(lr0, done, total)
    assert LR_FLOOR <= lr <= lr0


# -- context enumeration ---------------------------------------------------


@pytest.mark.parametrize(
    "n,pos,b,expected",
    [
        (5, 2, 1, [1, 3]),
        (5, 0, 2, [1, 2]),
        (5, 4, 2, [2, 3]),
        (3, 1, 5, [0, 2]),
        (1, 0, 3, []),
    ],
)
def test_context_enumeration(n, pos, b, expected):
    assert Trainer._context(n, pos, b) == expected


@given(
    n=st.integers(1, 30),
    pos_frac=st.floats(0, 1),
    b=st.integers(1, 8),
)
def test_context_properties(n, pos_frac, b):
    pos = min(n - 1, int(pos_frac * n))
    ctx = Trainer._context(n, pos, b)
    assert ctx == sorted(ctx)
    assert pos not in ctx
    for j in ctx:
        assert 0 <= j < n
        assert abs(j - pos) <= b
    # completeness: every eligible position appears
    eligible = [j for j in range(n) if j != pos and abs(j - pos) <= b]
    assert ctx == eligible


# -- step schedules, counts and bag contents -------------------------------


SENTENCE = list(range(9))  # distinct ids, no dedup effects


def window_size(n, pos, b):
    return len([j for j in range(max(0, pos - b), min(n - 1, pos + b) + 1) if j != pos])


@pytest.mark.parametrize("pos", [0, 1, 4, 8])
@pytest.mark.parametrize("b", [1, 2, 4])
def test_skipgram_event_count_and_shape(pos, b):
    rec = Recorder()
    tr = make_trainer(trace=rec, model_kind="skipgram")
    tr.step(SENTENCE, pos, b, 0.01)
    k = window_size(len(SENTENCE), pos, b)
    assert len(rec.events) == k
    for event in rec.events:
        assert event.phase == "skipgram"
        assert event.input_ids == (SENTENCE[pos],)
        assert event.position == pos
    targets = [e.target_id for e in rec.events]
    assert targets == [SENTENCE[j] for j in Trainer._context(len(SENTENCE), pos, b)]


@pytest.mark.parametrize("pos,b", [(0, 1), (4, 2), (8, 3)])
def test_cbow_single_bag_event(pos, b):
    rec = Recorder()
    tr = make_trainer(trace=rec, model_kind="cbow")
    tr.step(SENTENCE, pos, b, 0.01)
    ctx = Trainer._context(len(SENTENCE), pos, b)
    assert len(rec.events) == 1
    event = rec.events[0]
    assert event.phase == "bag"
    assert event.input_ids == tuple(SENTENCE[j] for j in ctx)
    assert event.target_id == SENTENCE[pos]


def test_cbow_empty_context_skipped():
    rec = Recorder()
    tr = make_trainer(trace=rec, model_kind="cbow")
    assert tr.step([3], 0, 2, 0.01) == 0.0
    assert rec.events == []


@pytest.mark.parametrize("pos,b", [(4, 2), (0, 3), (8, 1), (4, 1)])
def test_cbos_baseline_counts(pos, b):
    rec = Recorder()
    tr = make_trainer(trace=rec, rng=ScriptedRng([0]))
    k = window_size(len(SENTENCE), pos, b)
    tr.cbos_step(SENTENCE, pos, b, 0.01)
    assert len(rec.events) == k + (1 if k >= 2 else 0)
    assert rec.phases().count("skipgram") == k


def test_cbos_single_context_has_no_bag_phase():
    # |context| < 2: nothing left once the predicted word is excluded
    rec = Recorder()
    tr = make_trainer(trace=rec, rng=ScriptedRng([]))
    tr.cbos_step([1, 2], 0, 1, 0.01)
    assert rec.phases() == ["skipgram"]


def test_cbos_forced_pick_excludes_predicted_word():
    rec = Recorder()
    tr = make_trainer(trace=rec)
    tr.cbos_step(SENTENCE, 4, 2, 0.01, p_index=2)  # ctx [2,3,5,6] -> predict 5
    bag = rec.events[-1]
    assert bag.phase == "bag"
    assert bag.target_id == 5
    assert bag.input_ids == (2, 3, 6)


def test_cbos_random_pick_comes_from_rng():
    rec = Recorder()
    tr = make_trainer(trace=rec, rng=ScriptedRng([3]))
    tr.cbos_step(SENTENCE, 4, 2, 0.01)  # ctx [2,3,5,6], scripted index 3 -> 6
    bag = rec.events[-1]
    assert bag.target_id == 6
    assert bag.input_ids == (2, 3, 5)


def test_next_word_growing_bags():
    rec = Recorder()
    tr = make_trainer(trace=rec, variant="next_word")
    k = window_size(len(SENTENCE), 4, 2)
    tr.step(SENTENCE, 4, 2, 0.01)
    assert len(rec.events) == 2 * k - 1
    bags = [e for e in rec.events if e.phase == "bag"]
    ctx = [2, 3, 5, 6]
    assert [b.input_ids for b in bags] == [(2,), (2, 3), (2, 3, 5)]
    assert [b.target_id for b in bags] == [ctx[1], ctx[2], ctx[3]]


def test_central_word_growing_bags_predict_center():
    rec = Recorder()
    tr = make_trainer(trace=rec, variant="central_word")
    k = window_size(len(SENTENCE), 4, 2)
    tr.step(SENTENCE, 4, 2, 0.01)
    assert len(rec.events) == 2 * k
    bags = [e for e in rec.events if e.phase == "bag"]
    assert [b.input_ids for b in bags] == [(2,), (2, 3), (2, 3, 5), (2, 3, 5, 6)]
    assert all(b.target_id == SENTENCE[4] for b in bags)


def test_non_random_full_bag_predicts_center():
    rec = Recorder()
    tr = make_trainer(trace=rec, variant="non_random")
    k = window_size(len(SENTENCE), 4, 2)
    tr.step(SENTENCE, 4, 2, 0.01)
    assert len(rec.events) == k + 1
    bag = rec.events[-1]
    assert bag.phase == "bag"
    assert bag.input_ids == (2, 3, 5, 6)
    assert bag.target_id == SENTENCE[4]


def test_variable_window_redraws_window_for_bag_phase():
    rec = Recorder()
    # scripted: bag-phase window 3, predicted index 0 within the new context
    tr = make_trainer(trace=rec, variant="variable_window", rng=ScriptedRng([3, 0]))
    tr.step(SENTENCE, 4, 1, 0.01)
    skip = [e for e in rec.events if e.phase == "skipgram"]
    assert [e.target_id for e in skip] == [3, 5]  # original window stays b=1
    bag = rec.events[-1]
    ctx2 = [1, 2, 3, 5, 6, 7]
    assert bag.target_id == SENTENCE[ctx2[0]]
    assert bag.input_ids == tuple(SENTENCE[j] for j in ctx2[1:])


def test_variable_window_narrow_redraw_can_skip_bag():
    rec = Recorder()
    tr = make_trainer(trace=rec, variant="variable_window", rng=ScriptedRng([1]))
    tr.step(SENTENCE, 0, 2, 0.01)  # redrawn b=1 at pos 0: one ctx word
    assert rec.phases() == ["skipgram", "skipgram"]


def test_non_repeated_deduplicates_bag_words():
    rec = Recorder()
    tr = make_trainer(trace=rec, variant="non_repeated", rng=ScriptedRng([0]))
    sentence = [5, 3, 6, 7, 3]
    tr.step(sentence, 2, 2, 0.01)  # ctx words [5,3,7,3], predict 5
    bag = rec.events[-1]
    assert bag.target_id == 5
    assert bag.input_ids == (3, 7)  # duplicate 3 enters once


def test_non_repeated_distinct_words_match_baseline_bag():
    rec = Recorder()
    tr = make_trainer(trace=rec, variant="non_repeated", rng=ScriptedRng([1]))
    tr.step(SENTENCE, 4, 2, 0.01)  # ctx [2,3,5,6], predict 3
    bag = rec.events[-1]
    assert bag.input_ids == (2, 5, 6)


def test_subword_steps_trace_ngram_ids():
    vocab = distinct_vocab()
    sg = make_trainer(
        vocab=vocab, model_kind="skipgram", minn=2, maxn=3, bucket=40, trace=Recorder()
    )
    cache = build_subword_cache(vocab, sg.cfg.subword_config())
    sg.step([0, 1, 2], 1, 1, 0.01)
    first = sg.trace.events[0]
    assert first.input_ids == tuple(cache[1].tolist())
    tr = make_trainer(vocab=vocab, minn=2, maxn=3, bucket=40, trace=Recorder())
    tr.cbos_step([0, 1, 2, 3], 1, 2, 0.01, p_index=1)  # bag = words 0 and 3
    bag = tr.trace.events[-1]
    expected = np.concatenate([cache[0], cache[3]])
    assert bag.input_ids == tuple(expected.tolist())


# -- negative sampling draws -----------------------------------------------


def test_draw_negatives_zero_consumes_no_rng():
    tr = make_trainer(rng=ScriptedRng([]), negatives=0)
    assert tr.draw_negatives(3).size == 0


def test_draw_negatives_never_returns_target():
    vocab = build_vocab(["a", "a", "a", "b"])
    tr = make_trainer(vocab=vocab, negatives=4, rng=np.random.default_rng(5))
    for _ in range(300):
        negs = tr.draw_negatives(0)  # id 0 dominates the table
        assert 0 not in negs.tolist()
        assert negs.size <= 4


def test_draw_negatives_single_word_vocab_gives_up():
    vocab = build_vocab(["only", "only"])
    tr = make_trainer(vocab=vocab, negatives=3, rng=np.random.default_rng(0))
    assert tr.draw_negatives(0).size == 0


class SlotRng:
    """Serves one sized draw of the given slots, then scalar redraws from a queue."""

    def __init__(self, first, redraws=()):
        self.first, self.redraws = list(first), list(redraws)

    def integers(self, low, high=None, size=None):
        assert low == 0
        if size is not None:
            assert size == len(self.first)
            return np.array(self.first)
        return self.redraws.pop(0)


def test_draw_negatives_reads_the_tables_word_for_every_slot(monkeypatch):
    # some words own no slot, and slots on a run end belong to the next word
    vocab = Vocab([f"w{i}" for i in range(6)], [900, 1, 1, 60, 1, 5])
    monkeypatch.setattr(corpus_module, "NEGATIVE_TABLE_SIZE", 20)
    table = build_negative_table(vocab).tolist()
    assert sorted(set(table)) != list(range(6))
    tr = make_trainer(vocab=vocab, negatives=20, rng=SlotRng(range(20)))
    assert tr.draw_negatives(-1).tolist() == table
    # a draw of the target (word 0, slot 0) is redrawn: twice the target again, then slot x
    for x in range(20):
        tr = make_trainer(vocab=vocab, negatives=1, rng=SlotRng([0], [0, 0, x] + [0] * 5))
        assert tr.draw_negatives(0).tolist() == ([] if table[x] == 0 else [table[x]])


def test_update_counts_negatives_do_not_change_counts():
    rec = Recorder()
    vocab = distinct_vocab()
    tr = make_trainer(vocab=vocab, trace=rec, negatives=3, rng=np.random.default_rng(1))
    tr.cbos_step(SENTENCE, 4, 2, 0.01)
    k = window_size(len(SENTENCE), 4, 2)
    assert len(rec.events) == k + 1


# -- sentence preparation --------------------------------------------------


def encoded(tokens):
    """One sentence over distinct_vocab() as encode_chunk yields it: int32 ids, -1 out of vocabulary."""
    ids, offsets = encode_chunk(" ".join(tokens).encode(), distinct_vocab().word2id)
    assert offsets.tolist() == [0, len(tokens)]
    return ids


def test_prepare_sentence_maps_and_counts():
    tr = make_trainer(rng=ScriptedRng([]))
    ids, scanned = tr.prepare_sentence(encoded(["w00", "unknown", "w03", "w01"]))
    assert ids == [0, 3, 1]
    assert scanned == 3  # only in-vocab tokens count
    assert tr.tokens_seen == 3


def test_prepare_sentence_inactive_subsampling_uses_no_rng():
    # ScriptedRng raises on .random(); passing means no draw happened
    tr = make_trainer(rng=ScriptedRng([]), t=1.0)
    tr.prepare_sentence(encoded(["w00"] * 50))


def test_prepare_sentence_aggressive_subsampling_drops_tokens():
    tr = make_trainer(t=1e-8, rng=np.random.default_rng(0))
    ids, scanned = tr.prepare_sentence(encoded(["w00"] * 400))
    assert scanned == 400
    assert len(ids) < 400


def test_trainer_subsamples_at_its_own_threshold():
    # one vocabulary serves two trainers at different thresholds
    shared = distinct_vocab()
    sentence = encoded([w for w in shared.words for _ in range(20)])
    loose = make_trainer(vocab=shared, t=0.1)
    strict = make_trainer(vocab=shared, t=1e-4)
    for trainer, t in ((strict, 1e-4), (loose, 0.1)):
        alone = make_trainer(vocab=distinct_vocab(), t=t)
        assert trainer.prepare_sentence(sentence) == alone.prepare_sentence(sentence)
    assert len(strict.prepare_sentence(sentence)[0]) < len(loose.prepare_sentence(sentence)[0])


def test_prepare_sentence_deterministic_for_seed():
    a = make_trainer(t=1e-8, rng=np.random.default_rng(4))
    b = make_trainer(t=1e-8, rng=np.random.default_rng(4))
    sentence = encoded(["w00", "w01", "w02"] * 30)
    assert a.prepare_sentence(sentence) == b.prepare_sentence(sentence)


# -- corpus slicing --------------------------------------------------------


def slice_sentences(path, worker_id, n_workers):
    """Token lists of the non-blank lines in the blocks of one worker's slice."""
    return [
        line.split()
        for block in iter_slice_chunks(str(path), worker_id, n_workers)
        for line in block.decode("utf-8").split("\n")
        if line.split()
    ]


def test_iter_slice_handles_blank_and_unterminated_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha beta\n\ngamma\ndelta epsilon zeta\nomega")
    expected = [["alpha", "beta"], ["gamma"], ["delta", "epsilon", "zeta"], ["omega"]]
    assert slice_sentences(path, 0, 1) == expected


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4, 7])
def test_iter_slice_partitions_exactly(tmp_path, n_workers):
    path = tmp_path / "c.txt"
    lines = [f"tok{i} tok{i} filler" for i in range(11)]
    path.write_text("\n".join(lines) + "\n")
    merged = []
    for w in range(n_workers):
        merged.extend(slice_sentences(path, w, n_workers))
    assert merged == [line.split() for line in lines]


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), max_size=5), max_size=12
    ),
    n_workers=st.integers(1, 6),
)
def test_iter_slice_partition_property(tmp_path_factory, lines, n_workers):
    path = tmp_path_factory.mktemp("slices") / "c.txt"
    path.write_text("".join(" ".join(line) + "\n" for line in lines))
    merged = []
    for w in range(n_workers):
        merged.extend(slice_sentences(path, w, n_workers))
    assert merged == [line for line in lines if line]


@settings(max_examples=60, deadline=None)
@given(
    text=st.text(alphabet="ab \n", max_size=60),
    n_workers=st.integers(1, 4),
    chunk_bytes=st.integers(1, 9),
)
def test_iter_slice_chunks_hold_whole_lines(tmp_path_factory, text, n_workers, chunk_bytes):
    path = tmp_path_factory.mktemp("chunks") / "c.txt"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer_module, "CHUNK_BYTES", chunk_bytes)
        blocks = [block for w in range(n_workers) for block in iter_slice_chunks(str(path), w, n_workers)]
    assert b"".join(blocks) == text.encode()
    assert all(b.endswith(b"\n") for b in blocks[:-1])


def test_encode_chunk_ids_and_offsets():
    vocab = distinct_vocab()
    ids, offsets = encode_chunk(b"w01 zz w03\n\n  \nw02\nqq\n", vocab.word2id)
    assert ids.tolist() == [1, -1, 3, 2, -1]  # -1: out of vocabulary
    assert offsets.tolist() == [0, 3, 4, 5]  # blank lines make no sentence


# -- full runs -------------------------------------------------------------


def small_corpus(tmp_path, n_lines=30):
    words = ["sun", "moon", "star", "cloud", "rain", "wind", "snow", "fog"]
    rng = np.random.default_rng(11)
    path = tmp_path / "corpus.txt"
    with open(path, "w") as out:
        for _ in range(n_lines):
            line = rng.choice(words, size=8)
            out.write(" ".join(line) + "\n")
    return str(path)


def quick_config(**overrides):
    base = dict(
        model_kind="cbos",
        dim=6,
        ws=2,
        epochs=2,
        negatives=2,
        minn=0,
        maxn=0,
        bucket=0,
        min_count=1,
        t=1.0,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_single_worker_deterministic(tmp_path):
    path = small_corpus(tmp_path)
    a = train(quick_config(), path)
    b = train(quick_config(), path)
    np.testing.assert_array_equal(a.model.input_matrix, b.model.input_matrix)
    np.testing.assert_array_equal(a.model.output_matrix, b.model.output_matrix)
    assert a.stats.updates == b.stats.updates
    assert a.stats.avg_loss == b.stats.avg_loss


def test_train_builds_its_own_sampling_tables(tmp_path):
    path = small_corpus(tmp_path)
    vocab = build_vocab_from_file(path, 1)
    negative_bounds(vocab, table_size=64)  # a caller's sampling bounds: the run must not pick them up

    def model_bytes(config, **kwargs):
        result = train(config, path, **kwargs)
        out = tmp_path / "m.cbos"
        save_bin(result.model, result.vocab, config, str(out))
        return out.read_bytes()

    for config in (quick_config(), quick_config(t=0.01)):  # one vocabulary, two thresholds
        assert model_bytes(config, vocab=vocab) == model_bytes(config)


def test_a_run_and_a_reference_trainer_allocate_by_the_vocabulary(tmp_path):
    # numpy reports its buffers to tracemalloc; a 10M-slot negative table would be 40 MB
    path = tmp_path / "three.txt"
    path.write_text("a b c\n" * 20)
    config = quick_config()
    kernel.load()  # compiling is not part of a run
    tracemalloc.start()
    try:
        result = train(config, str(path))
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        Trainer(result.model, result.vocab, config)
        trainer_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.vocab) == 3 and result.stats.updates > 0
    assert run_peak < 2**21 and trainer_peak < 2**21


def test_train_seed_changes_result(tmp_path):
    path = small_corpus(tmp_path)
    a = train(quick_config(seed=3), path)
    b = train(quick_config(seed=4), path)
    assert not np.array_equal(a.model.input_matrix, b.model.input_matrix)


def test_train_scans_every_token_each_epoch(tmp_path):
    path = small_corpus(tmp_path)
    result = train(quick_config(epochs=3), path)
    assert result.stats.tokens_scanned == result.vocab.total_tokens * 3
    assert result.stats.updates > 0
    assert np.isfinite(result.stats.avg_loss)


def test_train_trace_counts_fixed_window(tmp_path):
    # ws=1 forces b=1 everywhere, making per-schedule totals exact
    path = tmp_path / "line.txt"
    path.write_text(" ".join(f"u{i:02d}" for i in range(20)) + "\n")
    expected = {
        "skipgram": 38,
        "cbow": 20,
        "cbos": 56,
        "next_word": 56,
        "central_word": 76,
        "non_random": 58,
    }
    for name, count in expected.items():
        rec = Recorder()
        kind = name if name in ("skipgram", "cbow") else "cbos"
        variant = None if name in ("skipgram", "cbow", "cbos") else name
        cfg = quick_config(
            model_kind=kind, variant=variant, ws=1, epochs=1, negatives=0
        )
        stats = train(cfg, str(path), trace=rec).stats
        assert len(rec.events) == count, name
        # the per-phase counters are exact: they equal the trace's counts
        assert stats.skipgram_updates == rec.phases().count("skipgram"), name
        assert stats.bag_updates == rec.phases().count("bag"), name
        assert stats.updates == count, name
        if name == "cbos":
            assert (stats.skipgram_updates, stats.bag_updates) == (38, 18)


def test_train_trace_variable_window_bounds(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text(" ".join(f"u{i:02d}" for i in range(20)) + "\n")
    rec = Recorder()
    cfg = quick_config(variant="variable_window", ws=1, epochs=1, negatives=0)
    train(cfg, str(path), trace=rec)
    phases = rec.phases()
    assert phases.count("skipgram") == 38
    assert 0 <= phases.count("bag") <= 20


def test_train_trace_requires_single_worker(tmp_path):
    path = small_corpus(tmp_path)
    with pytest.raises(ValueError):
        train(quick_config(workers=2), path, trace=Recorder())


def test_train_multi_worker_updates_shared_model(tmp_path, monkeypatch):
    monkeypatch.setattr(trainer_module, "CHUNK_BYTES", 256)  # many blocks per worker
    path = tmp_path / "ragged.txt"  # lines of 3 to 12 words, so blocks differ in token count
    path.write_text("".join(" ".join(["sun", "moon", "star"] * (i % 4 + 1)) + "\n" for i in range(200)))
    path = str(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch between almost every bytecode
    try:
        for workers in (2, 4):  # 4 workers outnumber the cores of small machines
            result = train(quick_config(workers=workers, epochs=2), path)
            # exact although the workers race: each adds to its own slot row and encodes into its own arrays
            assert result.stats.tokens_scanned == result.vocab.total_tokens * 2
            assert result.stats.updates > 0
            assert not (result.model.output_matrix == 0).all()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2])
def test_train_never_runs_the_python_reference(tmp_path, monkeypatch, workers):
    def reference(*args, **kwargs):
        raise AssertionError("train() ran the Python reference")

    for name in ("Trainer", "ns_update", "compute_hidden"):
        monkeypatch.setattr(trainer_module, name, reference)  # worker threads read the same module
    monkeypatch.setattr(corpus_module, "build_vocab", reference)  # the vocabulary is counted in the kernel
    path = small_corpus(tmp_path)
    result = train(quick_config(workers=workers, minn=3, maxn=6, bucket=500), path)
    assert result.stats.tokens_scanned == result.vocab.total_tokens * 2
    assert result.stats.updates > 0


def test_train_starts_no_process(tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("train() started a process")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)  # every context's Process
    result = train(quick_config(workers=2), small_corpus(tmp_path))
    assert result.stats.tokens_scanned == result.vocab.total_tokens * 2


def test_worker_failure_reaches_parent(tmp_path, monkeypatch):
    def raise_in_worker(path, worker_id, n_workers):
        raise ValueError(f"no token table in worker {worker_id}")

    monkeypatch.setattr(trainer_module, "iter_slice_chunks", raise_in_worker)  # worker threads read it too
    with pytest.raises(ValueError, match="^no token table in worker 0$"):  # the lowest-numbered failure
        train(quick_config(workers=2), small_corpus(tmp_path))


@pytest.mark.parametrize("failing,error", [(1, ValueError), (0, KeyboardInterrupt)])
def test_failing_worker_stops_the_others(tmp_path, monkeypatch, failing, error):
    monkeypatch.setattr(trainer_module, "CHUNK_BYTES", 64)  # a block or two per line
    path = small_corpus(tmp_path, n_lines=240)
    assert sum(1 for _ in iter_slice_chunks(path, 1 - failing, 2)) >= 50
    failed = threading.Event()
    served = []

    class StopEvent(threading.Event):
        def set(self):
            super().set()
            failed.set()

    def slices(path, worker_id, n_workers):
        for block in iter_slice_chunks(path, worker_id, n_workers):
            if worker_id == failing:
                raise error(f"worker {failing} fails on its first block")
            # The other worker takes a block only once the failing one has set the run's stop event.
            assert failed.wait(timeout=10), f"worker {failing} never finished failing"
            served.append(block)
            yield block

    monkeypatch.setattr(trainer_module, "iter_slice_chunks", slices)
    # train()'s own threading: the threads the pool starts keep the real Event
    monkeypatch.setattr(trainer_module, "threading", types.SimpleNamespace(Event=StopEvent))
    with pytest.raises(error, match=f"worker {failing} fails on its first block"):
        train(quick_config(workers=2, epochs=1), path)
    assert len(served) <= 2  # the other worker stopped before its next block, not after its slice


def test_train_decode_error_gives_the_file_offset(corrupt_corpus, monkeypatch):
    path, offset = corrupt_corpus
    monkeypatch.setattr(corpus_module, "READ_BYTES", 4096)  # the bad byte sits deep in a later block
    vocab = build_vocab(["alpha", "beta", "gamma", "délta"])
    with pytest.raises(CorpusDecodeError) as info:
        train(quick_config(), path, vocab=vocab)
    assert (info.value.start, info.value.end) == (offset, offset + 1)
    message = f"'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"
    assert str(info.value) == message
    with pytest.raises(CorpusDecodeError) as info:  # the bad byte is in the second worker's slice
        train(quick_config(workers=2), path, vocab=vocab)
    assert (info.value.start, info.value.end) == (offset, offset + 1)
    assert str(info.value) == message


def test_train_progress_line_format(tmp_path):
    path = small_corpus(tmp_path)
    sink = io.StringIO()
    train(quick_config(epochs=1), path, progress=sink)
    text = sink.getvalue()
    assert "progress: 100.0%" in text
    assert "lr:" in text and "loss:" in text and "tokens/sec:" in text
    assert text.endswith("\n")


def test_trace_writer_emits_parseable_ndjson():
    sink = io.StringIO()
    writer = JsonTraceWriter(sink)
    writer(TraceEvent("skipgram", (1, 2), 3, 0, None))
    writer(TraceEvent("bag", (4,), 5, 1, "next_word"))
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "phase": "skipgram",
        "input_ids": [1, 2],
        "target_id": 3,
        "position": 0,
        "variant": None,
    }
    assert json.loads(lines[1])["variant"] == "next_word"


@pytest.mark.parametrize("variant", (*CBOS_VARIANTS, None))
@pytest.mark.parametrize("phase", ["skipgram", "bag"])
@pytest.mark.parametrize("input_ids", [(7,), (0, 3, 12, 2_000_000, 45)])
def test_trace_writer_lines_are_those_of_json_dumps(phase, input_ids, variant):
    sink = io.StringIO()
    JsonTraceWriter(sink)(TraceEvent(phase, input_ids, 11, 250, variant))
    fields = {"phase": phase, "input_ids": list(input_ids), "target_id": 11, "position": 250, "variant": variant}
    assert sink.getvalue() == json.dumps(fields) + "\n"
