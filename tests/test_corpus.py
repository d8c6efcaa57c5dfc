import unicodedata

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import cbos.corpus as corpus_module
from cbos.corpus import (
    NEGATIVE_TABLE_SIZE,
    CorpusDecodeError,
    EmptyVocabError,
    Vocab,
    build_negative_table,
    build_vocab,
    build_vocab_from_file,
    iter_line_blocks,
    negative_bounds,
    normalize_text,
)

from reference import discard_probability


def test_normalize_lowers_and_strips_punctuation():
    assert normalize_text("Hello, World!") == "hello  world "


def test_normalize_keeps_digits_and_newlines():
    assert normalize_text("3 Cats\nDogs 4") == "3 cats\ndogs 4"


def test_normalize_replaces_symbols_with_spaces():
    # $ and + are symbol-category characters, not punctuation
    assert normalize_text("a$b+c") == "a b c"


@hypothesis.given(st.text(max_size=200))
def test_normalize_is_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@hypothesis.given(st.text(max_size=200))
def test_normalized_text_has_no_punctuation_or_symbols(text):
    for ch in normalize_text(text):
        assert unicodedata.category(ch)[0] not in ("P", "S")


@hypothesis.given(st.text(max_size=200))
def test_normalize_preserves_line_structure(text):
    assert normalize_text(text).count("\n") == text.lower().count("\n")


def test_build_vocab_orders_by_count_then_first_occurrence():
    vocab = build_vocab(["b", "a", "b", "a", "c"])
    # a and b tie at 2; b appeared first
    assert vocab.words == ["b", "a", "c"]
    assert vocab.counts.tolist() == [2, 2, 1]
    assert [vocab.id_of(w) for w in "bac"] == [0, 1, 2]
    assert vocab.total_tokens == 5


def test_build_vocab_applies_min_count():
    vocab = build_vocab(["x"] * 5 + ["y"] * 2 + ["z"], min_count=2)
    assert vocab.words == ["x", "y"]
    assert "z" not in vocab


def test_build_vocab_empty_result_raises():
    with pytest.raises(EmptyVocabError):
        build_vocab(["once", "words", "only"], min_count=2)
    with pytest.raises(EmptyVocabError):
        build_vocab([])


def test_build_vocab_rejects_bad_min_count():
    with pytest.raises(ValueError):
        build_vocab(["a"], min_count=0)


def test_build_vocab_from_file(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("dog cat dog\ncat dog\n", encoding="utf-8")
    vocab = build_vocab_from_file(str(p), min_count=1)
    assert vocab.words == ["dog", "cat"]
    assert vocab.counts.tolist() == [3, 2]


@hypothesis.given(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=3),
)
def test_vocab_invariants(tokens, min_count):
    try:
        vocab = build_vocab(tokens, min_count)
    except EmptyVocabError:
        hypothesis.assume(False)
    counts = vocab.counts
    assert (counts[:-1] >= counts[1:]).all()  # non-increasing
    assert (counts >= min_count).all()
    assert sorted(vocab.word2id.values()) == list(range(len(vocab)))
    assert vocab.total_tokens == counts.sum()


def test_dump_tsv_format(tiny_vocab, capsys):
    tiny_vocab.dump_tsv()
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "the\t6\t0"
    assert len(lines) == len(tiny_vocab)


def zipf_vocab(n=1000):
    """``n`` words with Zipf counts, from far above to far below any threshold."""
    counts = np.floor(1e6 / np.arange(1, n + 1) ** 1.05).astype(np.int64)
    return Vocab([f"w{i}" for i in range(n)], counts)


def scalar_discard_probs(vocab, threshold):
    """The oracle: :func:`discard_probability` of every word, one call each."""
    return [discard_probability(c / vocab.total_tokens, threshold) for c in vocab.counts.tolist()]


def test_discard_probability_worked_value():
    # keep = sqrt(1e-4/0.01) + 1e-4/0.01 = 0.1 + 0.01, discard = 0.89
    vocab = Vocab(["rest", "w"], [99, 1])  # "w" has frequency 0.01
    probs = vocab.discard_probs(1e-4)
    assert probs[1] == pytest.approx(0.89)
    assert probs.tolist() == scalar_discard_probs(vocab, 1e-4)


def test_discard_probability_zero_for_rare_words():
    # keep saturates at 1 once sqrt(t/f) + t/f >= 1
    vocab = Vocab(["big", "at", "below"], [99_989, 10, 1])  # frequencies 1e-4 and 1e-5
    probs = vocab.discard_probs(1e-4)
    assert probs[0] > 0.0
    assert probs[1:].tolist() == [0.0, 0.0]
    assert probs.tolist() == scalar_discard_probs(vocab, 1e-4)


@hypothesis.given(
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=50),
    st.floats(min_value=1e-9, max_value=1.0),
)
def test_discard_probability_is_a_probability(counts, threshold):
    vocab = Vocab([f"w{i}" for i in range(len(counts))], counts)
    probs = vocab.discard_probs(threshold)
    assert ((0.0 <= probs) & (probs < 1.0)).all()
    assert probs.tolist() == scalar_discard_probs(vocab, threshold)


def test_discard_probability_monotone_in_frequency():
    probs = zipf_vocab().discard_probs(1e-4)
    assert (probs[:-1] >= probs[1:]).all()  # ids run from the most frequent word down
    assert probs[0] > 0.0 and probs[-1] == 0.0


def test_discard_probability_rejects_bad_inputs(tiny_vocab):
    with pytest.raises(ValueError):
        discard_probability(0.0, 1e-4)
    for threshold in (0.0, -1e-4, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            discard_probability(0.5, threshold)
        with pytest.raises(ValueError):
            tiny_vocab.discard_probs(threshold)


def test_discard_probs_matches_scalar_function():
    vocab = zipf_vocab()
    for threshold in (1e-6, 1e-5, 1e-4, 1e-3, 0.05, 1.0):
        probs = vocab.discard_probs(threshold)
        assert probs.tolist() == scalar_discard_probs(vocab, threshold)
        # a pure function of the threshold: the vocabulary keeps nothing
        np.testing.assert_array_equal(vocab.discard_probs(threshold), probs)
    assert (vocab.discard_probs(1.0) == 0).all()


def expand(bounds):
    """The table the run ends describe, slot by slot: word w fills [bounds[w - 1], bounds[w])."""
    starts = [0] + bounds[:-1].tolist()
    return [w for w, (lo, hi) in enumerate(zip(starts, bounds.tolist())) for _ in range(lo, hi)]


def test_negative_table_floor_fill_two_words():
    vocab = Vocab(["a", "b"], [4, 1])
    bounds = negative_bounds(vocab, table_size=9)
    # weights [4^0.75, 1] -> cum [0.7388, 1] -> bounds [6, 9]
    assert bounds.dtype == np.int64 and bounds.tolist() == [6, 9]
    assert build_negative_table(vocab, table_size=9).tolist() == expand(bounds) == [0] * 6 + [1] * 3
    assert set(vars(vocab)) == {"words", "counts", "word2id", "total_tokens"}  # nothing cached


def test_negative_table_equal_counts():
    vocab = Vocab(["a", "b", "c"], [1, 1, 1])
    bounds = negative_bounds(vocab, table_size=10)
    # exact thirds: floor boundaries 3, 6, 10
    assert bounds.tolist() == [3, 6, 10]
    assert build_negative_table(vocab, table_size=10).tolist() == expand(bounds) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
    # 11 equal words in 55 slots: without the epsilon, float rounding gives words 2 and 5 only 4 slots
    bounds = negative_bounds(Vocab(list("abcdefghijk"), [1] * 11), table_size=55)
    assert np.diff(bounds, prepend=0).tolist() == [5] * 11


def test_negative_table_rejects_undersized_table(tiny_vocab):
    for build in (negative_bounds, build_negative_table):
        with pytest.raises(ValueError):
            build(tiny_vocab, table_size=len(tiny_vocab) - 1)


def test_negative_table_default_size(tiny_vocab, monkeypatch):
    bounds = negative_bounds(tiny_vocab)
    assert bounds.size == len(tiny_vocab) and bounds[-1] == NEGATIVE_TABLE_SIZE
    # a vocabulary larger than the default size gets as many slots as words
    monkeypatch.setattr(corpus_module, "NEGATIVE_TABLE_SIZE", 4)
    bounds = negative_bounds(tiny_vocab)
    assert bounds[-1] == len(tiny_vocab)
    assert build_negative_table(tiny_vocab).tolist() == expand(bounds)


@hypothesis.given(
    st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=3),
)
def test_negative_table_proportions(counts, size_extra):
    vocab = Vocab([f"w{i}" for i in range(len(counts))], counts)
    size = 1000 + size_extra
    bounds = negative_bounds(vocab, table_size=size)
    assert bounds.size == len(counts) and bounds[-1] == size
    assert (np.diff(bounds, prepend=0) >= 0).all()  # runs in id order, none negative
    assert build_negative_table(vocab, table_size=size).tolist() == expand(bounds)
    weights = np.asarray(counts, dtype=float) ** 0.75
    expected = weights / weights.sum() * size
    got = np.diff(bounds, prepend=0)
    # floor-based fill puts every boundary within one slot of the exact split
    assert np.abs(got - expected).max() < 2.0


def test_word_lookup(tiny_vocab):
    assert "cat" in tiny_vocab
    assert tiny_vocab.id_of("nope") is None
    assert tiny_vocab.frequencies().sum() == pytest.approx(1.0)


# -- decoding errors -------------------------------------------------------


def test_vocab_decode_error_gives_the_file_offset(corrupt_corpus, monkeypatch):
    path, offset = corrupt_corpus
    assert offset > 68_000
    monkeypatch.setattr(corpus_module, "READ_BYTES", 4096)  # the bad byte sits deep in a later block
    with pytest.raises(CorpusDecodeError) as info:
        build_vocab_from_file(path)
    assert (info.value.start, info.value.end) == (offset, offset + 1)
    assert str(info.value) == f"'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte"


@pytest.mark.parametrize(
    "data,at_1000",
    [
        (b"ab\xffcd", "byte 0xff in position 1002: invalid start byte"),
        (b"ab\xe2\x82", "bytes in position 1002-1003: unexpected end of data"),
        (b"\xc3(", "byte 0xc3 in position 1000: invalid continuation byte"),
        (b"ok \xf0\x9f\x98", "bytes in position 1003-1005: unexpected end of data"),
    ],
)
def test_corpus_decode_error_message_is_the_decoders_at_the_file_offset(data, at_1000):
    with pytest.raises(UnicodeDecodeError) as plain:
        data.decode("utf-8")
    assert str(CorpusDecodeError(plain.value, 0)) == str(plain.value)
    later = CorpusDecodeError(plain.value, 1000)
    assert (later.start, later.end) == (plain.value.start + 1000, plain.value.end + 1000)
    assert later.object == data and later.reason == plain.value.reason
    assert str(later) == f"'utf-8' codec can't decode {at_1000}"


def test_vocab_from_file_reads_blocks_like_lines(tmp_path, monkeypatch):
    text = "b a\r\nc\u3000d\n\n  e\x85f\u2028g a\nlast"
    path = tmp_path / "c.txt"
    path.write_bytes(text.encode())
    monkeypatch.setattr(corpus_module, "READ_BYTES", 3)
    vocab = build_vocab_from_file(str(path))
    expected = build_vocab(text.split())
    assert vocab.words == expected.words
    assert vocab.counts.tolist() == expected.counts.tolist()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    text=st.text(alphabet="ab \n", max_size=60), size=st.integers(1, 9), skip_first_line=st.booleans()
)
def test_iter_line_blocks_carry_their_file_offsets(tmp_path_factory, text, size, skip_first_line):
    data = text.encode()
    path = tmp_path_factory.mktemp("blocks") / "c.txt"
    path.write_bytes(data)
    with open(path, "rb") as handle:
        start = len(handle.readline()) if skip_first_line else 0
        pairs = list(iter_line_blocks(handle, len(data), size))
    blocks = [block for _, block in pairs]
    assert b"".join(blocks) == data[start:]
    assert all(block.endswith(b"\n") for block in blocks[:-1])
    # each block carries the file offset of its first byte, for decode errors
    assert [offset for offset, _ in pairs] == [start + len(b"".join(blocks[:i])) for i in range(len(blocks))]
