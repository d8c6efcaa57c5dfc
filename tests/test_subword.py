import hypothesis
import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from cbos.analogy import UnresolvableWordError, word_vector
from cbos.corpus import Vocab, build_vocab
from cbos.model import init_model
from cbos.subword import (
    SubwordConfig,
    build_subword_cache,
    extract_ngrams,
    fnv1a_32,
    hash_ngram,
    subword_ids,
)

# values frozen from a struct-based reference implementation of FNV-1a
# with signed-char XOR; the multibyte case exercises the sign extension
FNV_KNOWN = {
    b"<wh": 1048167652,
    b"whe": 888420941,
    b"her": 4105473420,
    b"abc": 440920331,
    b"<go": 1570936865,
    b"go>": 2384203055,
    "λό".encode("utf-8"): 1798789085,
}


@pytest.mark.parametrize("data,expected", sorted(FNV_KNOWN.items()))
def test_fnv1a_known_values(data, expected):
    assert fnv1a_32(data) == expected


def test_fnv1a_empty_is_offset_basis():
    assert fnv1a_32(b"") == 2166136261


@hypothesis.given(st.binary(max_size=64))
def test_fnv1a_stays_32_bit(data):
    assert 0 <= fnv1a_32(data) < 1 << 32


def test_extract_ngrams_where():
    expected = [
        "<wh", "<whe", "<wher", "<where",
        "whe", "wher", "where", "where>",
        "her", "here", "here>",
        "ere", "ere>",
        "re>",
    ]
    assert extract_ngrams("where", 3, 6) == expected


def test_extract_ngrams_short_word():
    # wrapped form <go> has length 4; the full form is excluded
    assert extract_ngrams("go", 3, 6) == ["<go", "go>"]
    assert extract_ngrams("ab", 3, 6) == ["<ab", "ab>"]


def test_extract_ngrams_single_char_none():
    # <a> is exactly the excluded full form at length 3
    assert extract_ngrams("a", 3, 6) == []


def test_extract_ngrams_empty_word():
    assert extract_ngrams("", 3, 6) == []


def test_extract_ngrams_rejects_bad_range():
    with pytest.raises(ValueError):
        extract_ngrams("word", 0, 3)
    with pytest.raises(ValueError):
        extract_ngrams("word", 4, 3)


@hypothesis.given(
    st.text(alphabet="abcdefgh", min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_extract_ngrams_properties(word, minn, extra):
    maxn = minn + extra
    wrapped = f"<{word}>"
    grams = extract_ngrams(word, minn, maxn)
    assert wrapped not in grams
    for g in grams:
        assert minn <= len(g) <= maxn
        assert g in wrapped
    # count: every (start, length) window inside the wrapped form, minus the
    # full form when its length is in range
    expected = sum(max(0, len(wrapped) - n + 1) for n in range(minn, maxn + 1))
    if minn <= len(wrapped) <= maxn:
        expected -= 1
    assert len(grams) == expected


@hypothesis.given(st.text(min_size=1, max_size=10), st.integers(1, 10**6))
def test_hash_ngram_in_range(ngram, bucket):
    assert 0 <= hash_ngram(ngram, bucket) < bucket


def test_hash_ngram_matches_fnv_mod():
    assert hash_ngram("abc", 100) == 440920331 % 100
    assert hash_ngram("λό", 100) == 1798789085 % 100


def test_subword_config_validation():
    SubwordConfig(0, 0, 0)  # disabled
    SubwordConfig(3, 6, 10)
    with pytest.raises(ValueError):
        SubwordConfig(0, 6, 10)
    with pytest.raises(ValueError):
        SubwordConfig(3, 0, 10)
    with pytest.raises(ValueError):
        SubwordConfig(4, 3, 10)
    with pytest.raises(ValueError):
        SubwordConfig(3, 6, 0)
    assert not SubwordConfig(0, 0, 0).enabled
    assert SubwordConfig(1, 1, 5).enabled


def test_subword_ids_in_vocab_word_first():
    vocab = build_vocab(["cat", "cat", "dog"])
    cfg = SubwordConfig(3, 6, 100)
    ids = subword_ids("cat", vocab, cfg)
    # n-grams of <cat>: <ca, <cat, cat, cat>, at>  (full <cat> excluded)
    grams = ["<ca", "<cat", "cat", "cat>", "at>"]
    expected = [len(vocab) + fnv1a_32(g.encode()) % 100 for g in grams]
    assert ids.dtype == np.int64
    assert ids.tolist() == [0] + expected


def test_subword_ids_oov_has_no_word_row():
    vocab = build_vocab(["cat"])
    cfg = SubwordConfig(3, 6, 100)
    ids = subword_ids("dog", vocab, cfg)
    assert ids.size > 0
    assert (ids >= len(vocab)).all()


def test_subword_ids_disabled_config():
    vocab = build_vocab(["cat"])
    cfg = SubwordConfig(0, 0, 0)
    ids = subword_ids("cat", vocab, cfg)
    assert ids.tolist() == [0]
    oov = subword_ids("dog", vocab, cfg)
    assert oov.size == 0 and oov.dtype == np.int64


def test_build_subword_cache_matches_per_word():
    vocab = build_vocab(["alpha", "beta", "beta", "gamma"])
    cfg = SubwordConfig(2, 3, 50)
    cache = build_subword_cache(vocab, cfg)
    assert len(cache) == len(vocab)
    for wid, word in enumerate(vocab.words):
        expected = subword_ids(word, vocab, cfg)
        np.testing.assert_array_equal(cache[wid], expected)
        assert cache[wid][0] == wid


@hypothesis.given(st.text(alphabet="abcxyz", min_size=1, max_size=8))
def test_subword_ids_deterministic(word):
    vocab = build_vocab(["filler"])
    cfg = SubwordConfig(2, 4, 1000)
    first = subword_ids(word, vocab, cfg)
    second = subword_ids(word, vocab, cfg)
    np.testing.assert_array_equal(first, second)


# -- the kernel's hasher against the scalar one -----------------------------

# 1-, 2-, 3- and 4-byte characters (bytes >= 0x80 from 2 bytes on), the
# boundary markers themselves, NUL, and any other code point UTF-8 can encode
CHARS = st.one_of(
    st.sampled_from(list("ab<>\x00\x7f\x80éÿλ中\uffff😀𝄞")), st.characters(exclude_categories=["Cs"])
)
WORDS = st.text(CHARS, max_size=12)
BUCKETS = st.sampled_from([1, 97, 2_000_000])


def scalar_rows(word, word_id, n_vocab, config):
    """The row ids of one word from extract_ngrams and fnv1a_32."""
    head = [] if word_id is None else [word_id]
    if not config.enabled:
        return head
    grams = extract_ngrams(word, config.minn, config.maxn)
    return head + [n_vocab + fnv1a_32(g.encode()) % config.bucket for g in grams]


def cache_rows(words, config):
    """Every word's cached rows, as lists, for a vocabulary of exactly these words."""
    vocab = Vocab(words, range(len(words), 0, -1))
    cache = build_subword_cache(vocab, config)
    assert cache.offsets.dtype == cache.ids.dtype == np.int64
    assert len(cache) == len(words) and cache.offsets[-1] == cache.ids.size
    got = [cache[i].tolist() for i in range(len(words))]
    # a repeated word takes its last id, as Vocab.word2id does
    return got, [scalar_rows(w, vocab.word2id[w], len(vocab), config) for w in words]


@settings(max_examples=300, deadline=None)
@hypothesis.given(
    words=st.lists(WORDS, min_size=1, max_size=10),
    minn=st.integers(1, 8),
    extra=st.integers(0, 7),
    bucket=BUCKETS,
)
def test_subword_cache_matches_the_scalar_hasher(words, minn, extra, bucket):
    got, expected = cache_rows(words, SubwordConfig(minn, min(8, minn + extra), bucket))
    assert got == expected


@pytest.mark.parametrize("minn", range(1, 9))
def test_subword_cache_every_length_range(minn):
    # every 1 <= minn <= maxn <= 8, on words of every length up to 9 characters
    words = ["", "a", "é", "中", "😀", "ab", "a中b", "wordy", "ÿλ中😀x", "abcdefg", "a😀b😀c😀d"]
    for maxn in range(minn, 9):
        for bucket in (1, 97, 2_000_000):
            got, expected = cache_rows(words, SubwordConfig(minn, maxn, bucket))
            assert got == expected


def test_subword_cache_words_too_short_for_any_ngram():
    # "<a>" is the excluded whole word; the empty word has no n-grams at all
    cache = build_subword_cache(Vocab(["", "a", "😀"], [3, 2, 1]), SubwordConfig(3, 6, 97))
    assert cache.offsets.tolist() == [0, 1, 2, 3]
    assert cache.ids.tolist() == [0, 1, 2]


@settings(max_examples=200, deadline=None)
@hypothesis.given(word=WORDS, minn=st.integers(1, 8), extra=st.integers(0, 7), bucket=BUCKETS)
def test_subword_ids_in_vocab_and_oov_match_the_scalar_hasher(word, minn, extra, bucket):
    config = SubwordConfig(minn, min(8, minn + extra), bucket)
    other = word + "x"
    for vocab in (Vocab(["filler", word], [2, 1]), Vocab(["filler", other], [2, 1])):
        got = subword_ids(word, vocab, config)
        assert got.dtype == np.int64
        assert got.tolist() == scalar_rows(word, vocab.id_of(word), len(vocab), config)


@pytest.mark.parametrize(
    "word,config",
    [
        ("a", SubwordConfig(3, 6, 97)),  # only the excluded "<a>"
        ("", SubwordConfig(1, 2, 97)),
        ("ab", SubwordConfig(5, 8, 97)),  # "<ab>" is shorter than minn
        ("anything", SubwordConfig(0, 0, 0)),  # n-grams disabled
    ],
)
def test_word_without_rows_stays_unresolvable(word, config):
    vocab = build_vocab(["filler"])
    model = init_model(1, config.bucket, 3, seed=0, minn=config.minn, maxn=config.maxn)
    assert subword_ids(word, vocab, config).size == 0
    with pytest.raises(UnresolvableWordError):
        word_vector(model, vocab, word)


def test_build_subword_cache_is_csr_and_a_sequence():
    vocab = Vocab(["alpha", "béta", "alpha", "中"], [4, 3, 2, 1])
    config = SubwordConfig(2, 4, 50)
    cache = build_subword_cache(vocab, config)
    assert len(cache) == 4
    assert cache.offsets.tolist() == np.cumsum([0] + [a.size for a in cache]).tolist()
    np.testing.assert_array_equal(np.concatenate(list(cache)), cache.ids)
    for wid, word in enumerate(vocab.words):
        # a repeated word takes its last id, as Vocab.word2id does
        assert cache[wid].tolist() == scalar_rows(word, vocab.word2id[word], len(vocab), config)
    plain = build_subword_cache(vocab, SubwordConfig(0, 0, 0))
    assert plain.offsets.tolist() == [0, 1, 2, 3, 4]
    assert plain.ids.tolist() == [2, 1, 2, 3]
