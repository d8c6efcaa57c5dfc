import collections
import ctypes
import functools
import itertools
import mmap
import os
import re
import string
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbos.corpus as corpus_module
import cbos.trainer as trainer_module
from cbos import kernel
from cbos.corpus import (
    CorpusDecodeError,
    EmptyVocabError,
    Vocab,
    build_negative_table,
    build_vocab,
    build_vocab_from_file,
    negative_bounds,
)
from cbos.model import init_model
from cbos.persist import save_bin
from cbos.trainer import (
    CBOS_VARIANTS,
    TrainConfig,
    Trainer,
    iter_slice_chunks,
    lr_schedule,
    train,
)

from reference import encode_chunk

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# -- RNG twins -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    worker=st.integers(0, 64),
    stream=st.integers(0, 3),
    low=st.integers(-(2**40), 2**40),
    span=st.integers(1, 2**40),
    n=st.integers(0, 40),
)
def test_python_and_c_rng_give_identical_sequences(seed, worker, stream, low, span, n):
    ints = np.zeros(n, dtype=np.int64)
    reals = np.zeros(n, dtype=np.float64)
    kernel.load().cbos_rng_draws(
        seed % 2**64, worker, stream, low, low + span, n, ints.ctypes.data, reals.ctypes.data
    )
    rng = kernel.CounterRng(seed, worker, stream)
    half = n // 2  # scalar and sized draws advance the stream alike
    expected = [rng.integers(low, low + span) for _ in range(half)]
    expected += rng.integers(low, low + span, size=n - half).tolist()
    assert ints.tolist() == expected
    assert reals.tolist() == rng.random(n).tolist()
    assert all(low <= v < low + span for v in expected)


def test_counter_rng_streams_differ_and_bounds_match_numpy_surface():
    draws = {
        (w, s): kernel.CounterRng(1, w, s).integers(0, 2**62, size=4).tolist()
        for w in range(3)
        for s in range(4)
    }
    assert len({tuple(v) for v in draws.values()}) == len(draws)
    rng = kernel.CounterRng(5, 0, 0)
    assert 0 <= rng.integers(3) < 3  # one bound means [0, bound)
    assert all(0.0 <= x < 1.0 for x in rng.random(50))
    with pytest.raises(ValueError):
        rng.integers(4, 4)


# -- negative-sampling map against the table --------------------------------


def checked_guide(bounds):
    """The guide table and shift of ``bounds``, with every entry checked against its definition."""
    guide, shift = kernel.negative_guide(bounds)
    assert guide.size <= max(2 * bounds.size, -(-int(bounds[-1]) >> 15))
    # bucket g: the word of its first slot, and the run ends of that word and the next, capped at its width
    starts = np.arange(guide.size) << shift
    first = np.searchsorted(bounds, starts, side="right")
    ends = bounds[np.minimum(first[:, None] + [0, 1], bounds.size - 1)] - starts[:, None]
    assert guide["word"].tolist() == first.tolist()
    assert guide["end"].tolist() == np.minimum(ends, 1 << shift).tolist()
    return guide, shift


def kernel_words(bounds, slots):
    """The word the kernel draws for each slot, through the guide table it trains with."""
    guide, shift = checked_guide(bounds)
    words = np.empty(slots.size, dtype=np.int32)
    kernel.load().cbos_negative_words(
        bounds.ctypes.data, guide.ctypes.data, shift, slots.ctypes.data, slots.size, words.ctypes.data
    )
    return words


@settings(max_examples=150, deadline=None)
@given(
    counts=st.lists(st.integers(1, 10**6), min_size=1, max_size=40),
    extra=st.integers(0, 400),
)
def test_kernel_draws_the_tables_word_for_every_slot(counts, extra):
    vocab = Vocab([f"w{i}" for i in range(len(counts))], counts)
    # down to one slot per word: shift 0, and rare words own no slot
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "NEGATIVE_TABLE_SIZE", len(counts) + extra)
        bounds = negative_bounds(vocab)
        table = build_negative_table(vocab)
    slots = np.arange(table.size, dtype=np.int64)
    assert kernel_words(bounds, slots).tolist() == table.tolist()
    assert np.searchsorted(bounds, slots, side="right").tolist() == table.tolist()


@pytest.mark.parametrize("size", [8, 35, 100_000, 10**7])
def test_negative_guide_steps_past_empty_runs_and_crowded_buckets(size):
    vocab = Vocab([f"w{i}" for i in range(8)], [10**6, 1, 1, 1, 50, 1, 1, 10**4])
    bounds = negative_bounds(vocab, table_size=size)
    guide, shift = kernel.negative_guide(bounds)
    assert shift == min((size // 8).bit_length() - 1, 15)  # at 10**7 slots, buckets of 2**15
    assert guide.size == -(-size >> shift)
    runs = np.diff(bounds, prepend=0)
    if size < 100_000:
        assert (runs == 0).any()  # a word that owns no slot
        assert np.bincount(bounds[:-1] >> shift).max() >= 3  # a bucket four or more runs meet in
    slots = np.arange(size, dtype=np.int64)
    assert kernel_words(bounds, slots).tolist() == build_negative_table(vocab, table_size=size).tolist()


def test_negative_guide_needs_no_compiler(monkeypatch):
    def no_kernel():
        raise AssertionError("negative_guide loaded the kernel")

    monkeypatch.setattr(kernel, "load", no_kernel)
    vocab = Vocab([f"w{i}" for i in range(5)], [900, 1, 40, 1, 7])
    for size in (5, 12, 10**6):
        guide, shift = checked_guide(negative_bounds(vocab, table_size=size))
        assert guide.size == -(-size >> shift)


# -- block encoder against encode_chunk -----------------------------------

# Every character str.split() splits on, except the newline that ends a sentence.
SEPARATORS = (
    "\t\v\f\r \x1c\x1d\x1e\x1f\x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)
# Characters next to those in the code charts that str.split() keeps inside a token.
NEAR_SEPARATORS = (
    "\x08\x0e\x1b\x84\x86\x9f\xa1\u167f\u1681\u180e\u200b\u2027\u202a\u205e\u2060\u2fff\u3001\ufeff"
)
WORDS = ["the", "cat", "a", "sat", "café", "naïve", "日本語", "𝔘𝔫𝔦", "nul\x00byte", "ŝ"]


@functools.cache
def parity_index():
    return kernel.VocabIndex(WORDS), {w: i for i, w in enumerate(WORDS)}


def raw_encode(index, block):
    """cbos_encode_block's return value, the sentence count."""
    ids = np.empty(len(block) // 2 + 1, dtype=np.int32)
    offsets = np.empty(ids.size + 1, dtype=np.int64)
    return kernel.load().cbos_encode_block(
        ctypes.byref(index.struct), block, len(block), ids.ctypes.data, offsets.ctypes.data
    )


def assert_encodes_like_encode_chunk(index, word2id, block):
    ids, offsets = index.encode(block)
    want_ids, want_offsets = encode_chunk(block, word2id)
    assert ids.dtype == want_ids.dtype and offsets.dtype == want_offsets.dtype
    assert ids.tolist() == want_ids.tolist()
    assert offsets.tolist() == want_offsets.tolist()


def escaped_split(block, word2id):
    """encode_chunk's ids and offsets, as lists, of any bytes: the split of the surrogateescape decoding."""
    ids, offsets = [], [0]
    for line in block.decode("utf-8", "surrogateescape").split("\n"):
        ids += [word2id.get(token, -1) for token in line.split()]
        if len(ids) > offsets[-1]:
            offsets.append(len(ids))
    return ids, offsets


def test_separators_are_exactly_str_split_whitespace():
    spaces = {chr(c) for c in range(0x110000) if chr(c).isspace()}
    assert spaces == set(SEPARATORS) | {"\n"}
    assert not spaces & set(NEAR_SEPARATORS)
    assert all(("a" + c + "b").split() == ["a", "b"] for c in spaces)


non_ascii = st.one_of(
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),  # 2 bytes
    st.characters(min_codepoint=0x800, max_codepoint=0xFFFF, exclude_categories=("Cs",)),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),  # 4 bytes
)
vocab_word = st.sampled_from(WORDS)
text_piece = st.one_of(
    st.text(string.ascii_letters + string.digits + "'-\x00\x7f", min_size=1, max_size=6),
    vocab_word,
    vocab_word.flatmap(  # prefixes and extensions of vocabulary words
        lambda w: st.sampled_from([w[:-1], w[1:], w + "s", w + "é", w + w[-1], "x" + w])
    ),
    st.sampled_from(list(SEPARATORS) + ["\n", "\r\n", "\n\n", " \t\n", "\u3000\n"]),
    st.sampled_from(NEAR_SEPARATORS),
    st.text(non_ascii, min_size=1, max_size=4),
)
corpus_text = st.lists(text_piece, max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=corpus_text)
def test_encoder_matches_encode_chunk(text):
    assert_encodes_like_encode_chunk(*parity_index(), text.encode("utf-8"))


# Any bytes, rich in lead bytes, separator prefixes and cut-off separators
arbitrary_bytes = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=3),
        st.sampled_from([bytes([b]) for b in b"\x80\x8f\x90\x9f\xa0\xbf\xc0\xc2\xe0\xe1\xe2\xe3\xed\xf0\xf4\xf5"]),
        st.sampled_from([b"\xc2\x85", b"\xe1\x9a", b"\xe2\x80", b"\xe2\x81", b"\xe3\x80", b"\xe2\x80\x0a"]),
        text_piece.map(lambda t: t.encode("utf-8")),
    ),
    max_size=20,
).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(data=arbitrary_bytes)
def test_encoder_matches_encode_chunk_on_arbitrary_bytes(data):
    index, word2id = parity_index()
    try:
        encode_chunk(data, word2id)
    except UnicodeDecodeError:
        assert raw_encode(index, data) >= 0  # the encoder reports nothing: train() decodes the corpus first
        ids, offsets = index.encode(data)
        assert (ids.tolist(), offsets.tolist()) == escaped_split(data, word2id)
    else:
        assert_encodes_like_encode_chunk(index, word2id, data)


def encode_before_a_guard_page(index, data):
    """cbos_encode_block's ids and offsets, as lists, of ``data`` placed flush against an unreadable page.

    A read past the block faults, which ends the test process.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    page = mmap.PAGESIZE
    region = mmap.mmap(-1, 2 * page)
    anchor = ctypes.c_char.from_buffer(region)
    guard = ctypes.addressof(anchor) + page
    try:
        if libc.mprotect(guard, page, 0) != 0:  # PROT_NONE
            raise OSError(ctypes.get_errno(), "mprotect failed")
        region[page - len(data) : page] = data
        ids = np.empty(len(data) // 2 + 1, dtype=np.int32)
        offsets = np.empty(ids.size + 1, dtype=np.int64)
        n = kernel.load().cbos_encode_block(
            ctypes.byref(index.struct),
            ctypes.c_char_p(guard - len(data)),
            len(data),
            ids.ctypes.data,
            offsets.ctypes.data,
        )
        return ids[: offsets[n]].tolist(), offsets[: n + 1].tolist()
    finally:
        libc.mprotect(guard, page, mmap.PROT_READ | mmap.PROT_WRITE)
        del anchor
        region.close()


# Every multi-byte separator cut short, as a block may end
CUT_SEPARATORS = sorted({c.encode()[:k] for c in SEPARATORS for k in range(1, len(c.encode()))})


@pytest.mark.skipif(sys.platform != "linux", reason="guards a page with the C library's mprotect")
@settings(max_examples=400, deadline=None)
@given(data=arbitrary_bytes, end=st.sampled_from([b""] + CUT_SEPARATORS))
def test_encoder_reads_nothing_past_its_block(data, end):
    index, word2id = parity_index()
    assert encode_before_a_guard_page(index, data + end) == escaped_split(data + end, word2id)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def test_colliding_words_take_the_probe_path():
    # Four words fill an 8-slot table, and every word below hashes to slot 5,
    # so each lookup (out-of-vocabulary ones too) walks the probe chain.
    same_slot = (w for w in map("w{}".format, itertools.count()) if fnv1a64(w.encode()) % 8 == 5)
    colliding = list(itertools.islice(same_slot, 7))
    words, strangers = colliding[:4], colliding[4:]
    index = kernel.VocabIndex(words)
    assert index.table.tolist() == [3, -1, -1, -1, -1, 0, 1, 2]  # the last one wrapped around
    word2id = {w: i for i, w in enumerate(words)}
    text = " ".join(words[::-1] + strangers + [w + "x" for w in words] + [w[:-1] for w in words])
    assert_encodes_like_encode_chunk(index, word2id, f"{text}\n{text}".encode())
    ids, _ = index.encode(text.encode())
    assert ids.tolist()[:7] == [3, 2, 1, 0, -1, -1, -1]


def test_index_capacity_and_repeated_words():
    for n in (1, 2, 3, 4, 5, 100):
        size = kernel.VocabIndex([f"v{i}" for i in range(n)]).table.size
        assert size & (size - 1) == 0 and 2 * n <= size < 4 * n
    # a repeated word maps to its last id, as in a dict
    index = kernel.VocabIndex(["a", "b", "a"])
    assert_encodes_like_encode_chunk(index, {"a": 2, "b": 1}, b"a b c a")


def test_encode_returns_arrays_of_its_own():
    index, word2id = parity_index()
    first = "the cat sat\nnaïve a cat\n".encode()
    ids, offsets = index.encode(first)
    index.encode(b"sat a\n")  # shorter, so a reused buffer would be overwritten in place
    want_ids, want_offsets = encode_chunk(first, word2id)
    assert ids.tolist() == want_ids.tolist()
    assert offsets.tolist() == want_offsets.tolist()


# -- vocabulary counter against build_vocab -----------------------------------


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(text_piece, max_size=80), min_count=st.integers(1, 3), read_bytes=st.integers(1, 24))
def test_vocab_count_matches_build_vocab(tmp_path_factory, pieces, min_count, read_bytes):
    # Small blocks, so that words repeat across blocks; the vocabulary words tie often.
    text = "".join(pieces)
    path = tmp_path_factory.mktemp("count") / "corpus.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "READ_BYTES", read_bytes)
        try:
            want = build_vocab(text.split(), min_count)
        except EmptyVocabError:
            with pytest.raises(EmptyVocabError, match="^no words with count >= min_count$"):
                build_vocab_from_file(str(path), min_count)
            return
        got = build_vocab_from_file(str(path), min_count)
    assert got.words == want.words
    assert got.counts.tolist() == want.counts.tolist()


def test_vocab_count_grows_its_table_past_100k_words(tmp_path):
    words = [f"w{i}" for i in range(120_000)]
    tokens = words[::7] + words + words[::3] + ["ü"] * 5
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(" ".join(tokens[i : i + 20]) for i in range(0, len(tokens), 20)), encoding="utf-8")
    sizes = []
    for min_count in (1, 2):
        got = build_vocab_from_file(str(path), min_count)
        want = build_vocab(tokens, min_count)
        assert got.words == want.words
        assert got.counts.tolist() == want.counts.tolist()
        sizes.append(len(got))
    assert sizes == [120_001, 51_429]  # the table grew from 2,048 to 262,144 slots


@settings(max_examples=200, deadline=None)
@given(blocks=st.lists(arbitrary_bytes, max_size=4))
def test_count_words_splits_any_bytes_like_the_encoder(blocks):
    blob, offsets, counts = kernel.count_words(blocks)
    words = [blob[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]
    escaped = (block.decode("utf-8", "surrogateescape").split() for block in blocks)
    want = collections.Counter(token.encode("utf-8", "surrogateescape") for tokens in escaped for token in tokens)
    assert list(zip(words, counts.tolist())) == list(want.items())  # first-occurrence order


def test_count_words_raises_memory_error_when_the_kernel_runs_out(monkeypatch):
    lib = kernel.load()

    class OutOfMemory:
        cbos_count_release = lib.cbos_count_release

        @staticmethod
        def cbos_count_block(counter, block, n):
            return -1

    monkeypatch.setattr(kernel, "load", lambda: OutOfMemory)
    with pytest.raises(MemoryError, match="vocabulary counter ran out of memory"):
        kernel.count_words([b"a b\n"])


INVALID_UTF8 = {
    "stray continuation byte": b"ok \x80 tail",
    "invalid start byte": b"word \xff\n",
    "overlong 2-byte form": b"a \xc0\xaf b",
    "overlong 3-byte form": b"a\n\xe0\x80\xaf",
    "overlong 4-byte form": b"\xf0\x80\x80\xaf",
    "surrogate": "café ".encode() + b"\xed\xa0\x80",
    "above U+10FFFF": b"x \xf4\x90\x80\x80 y",
    "lead byte above F4": b"\xf5\x80\x80\x80",
    "truncated at the end": b"text \xe2\x82",
    "truncated before ASCII": b"\xe2\x82x\n",
    "truncated 4-byte form before a newline": b"ok\n\xf0\x9f\x98\n",
    "truncated after multi-byte text": "日本 \u3000".encode() + b"\xc3",
}


@pytest.mark.parametrize("block", INVALID_UTF8.values(), ids=INVALID_UTF8.keys())
def test_invalid_utf8_raises_like_the_decoder(block, tmp_path):
    # The corpus pass raises the strict decoder's error; the kernel's encoder splits the bytes all the same.
    index, word2id = parity_index()
    with pytest.raises(UnicodeDecodeError) as want:
        encode_chunk(block, word2id)
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"ok\n" + block)
    with pytest.raises(CorpusDecodeError) as got:
        corpus_module.check_utf8(str(path))
    assert (got.value.start, got.value.end) == (3 + want.value.start, 3 + want.value.end)
    assert got.value.reason == want.value.reason
    assert raw_encode(index, block) >= 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", INVALID_UTF8.values(), ids=INVALID_UTF8.keys())
def test_train_with_a_prebuilt_vocabulary_rejects_invalid_utf8(tmp_path, monkeypatch, block, workers):
    # The vocabulary build never reads this corpus, so only the decode pass can meet the bad bytes.
    data = b"alpha beta\nbeta alpha\n" * 40 + block + b"\nalpha beta\n"
    path = tmp_path / "corpus.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as want:
        data.decode("utf-8")

    def train_chunk(*args):
        raise AssertionError("a block was trained before the corpus was checked")

    monkeypatch.setattr(trainer_module, "CHUNK_BYTES", 64)  # many blocks precede the bad bytes
    monkeypatch.setattr(kernel.ChunkTrainer, "train_chunk", train_chunk)
    config = TrainConfig(dim=4, ws=2, epochs=1, minn=0, maxn=0, bucket=0, min_count=1, seed=1, workers=workers)
    with pytest.raises(CorpusDecodeError) as info:
        train(config, str(path), vocab=build_vocab(["alpha", "beta", "beta"]))
    assert (info.value.start, info.value.end, info.value.reason) == (want.value.start, want.value.end, want.value.reason)


# -- build -----------------------------------------------------------------


def test_missing_compiler_raises_runtime_error(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "_compiler", lambda: None)
    with pytest.raises(RuntimeError, match="C compiler.*'cc'.*'gcc'"):
        kernel.build()


def test_failing_compiler_error_names_it_and_quotes_stderr(tmp_path, monkeypatch):
    fake = tmp_path / "fake-cc"
    fake.write_text("#!/bin/sh\necho 'fake-cc: fatal error: no space left' >&2\nexit 3\n")
    fake.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_compiler", lambda: str(fake))
    with pytest.raises(RuntimeError) as info:
        kernel.build()
    message = str(info.value)
    assert str(fake) in message and "exit 3" in message
    assert "fake-cc: fatal error: no space left" in message
    assert os.listdir(tmp_path / "cache" / "cbos") == []  # no half-built leftovers


def test_build_caches_by_source_hash(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = kernel.build()
    assert os.path.dirname(first) == str(tmp_path / "cbos")
    monkeypatch.setattr(kernel, "_compiler", lambda: None)  # a cached build needs no compiler
    assert kernel.build() == first
    assert os.listdir(tmp_path / "cbos") == [os.path.basename(first)]


def stale_builds(directory, count):
    """``count`` fake kernel builds in ``directory``, newest first."""
    paths = [directory / f"kernel-{i:016x}.so" for i in range(count)]
    for age, path in enumerate(paths, start=1):
        path.write_bytes(b"stale")
        os.utime(path, (1e9 - age, 1e9 - age))
    return paths


def test_a_new_build_prunes_the_cache_to_the_newest_builds(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "cbos"
    cache.mkdir()
    old = stale_builds(cache, 6)
    (cache / "notes.txt").write_text("not a build")
    built = kernel.build()
    kept = sorted(os.listdir(cache))
    assert kernel.KEPT_BUILDS == 4
    assert kept == sorted([os.path.basename(built), "notes.txt"] + [p.name for p in old[:3]])
    assert kernel.build() == built  # a cached build prunes nothing
    assert sorted(os.listdir(cache)) == kept


def test_pruning_keeps_the_new_build_and_skips_removed_ones(tmp_path, monkeypatch):
    paths = stale_builds(tmp_path, kernel.KEPT_BUILDS + 2)
    unlink = os.unlink

    def racing_unlink(path):
        unlink(path)  # another process got there first
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "unlink", racing_unlink)
    kernel._prune_builds(str(tmp_path), str(paths[-1]))  # the new build, even if its clock is behind
    monkeypatch.undo()
    kept = paths[: kernel.KEPT_BUILDS - 1] + paths[-1:]
    assert sorted(os.listdir(tmp_path)) == sorted(p.name for p in kept)


def test_import_and_queries_work_without_a_compiler(tmp_path):
    vocab_path = tmp_path / "corpus.txt"
    vocab_path.write_text("paris france rome italy berlin germany madrid spain\n" * 3)
    vocab = build_vocab_from_file(str(vocab_path), 1)
    model_path, ngram_path = tmp_path / "m.cbos", tmp_path / "ngram.cbos"
    plain = init_model(len(vocab), 0, 6, seed=1)
    save_bin(plain, vocab, TrainConfig(dim=6, minn=0, maxn=0, bucket=0), str(model_path))
    ngram = init_model(len(vocab), 64, 6, seed=1, minn=2, maxn=3)  # saving composes its word block here
    save_bin(ngram, vocab, TrainConfig(dim=6, minn=2, maxn=3, bucket=64), str(ngram_path))
    v1_path = tmp_path / "v1.cbos"  # the same model in format version 1, without the word block
    data = ngram_path.read_bytes()
    v1_path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8 : len(data) - 4 * 6 * len(vocab)])
    questions = tmp_path / "q.txt"
    questions.write_text(": capitals\nparis france rome italy\nberlin germany madrid spain\n")
    script = (
        "import contextlib, io, sys, cbos; from cbos.cli import run\n"
        f"assert run(['nn', '-model', {str(model_path)!r}, '-word', 'paris', '-k', '2']) == 0\n"
        # a v2 n-gram model: a vocabulary word reads the word block, an unseen one the scalar hasher
        f"assert run(['nn', '-model', {str(ngram_path)!r}, '-word', 'paris', '-k', '2']) == 0\n"
        f"assert run(['nn', '-model', {str(ngram_path)!r}, '-word', 'parisian', '-k', '2']) == 0\n"
        f"assert run(['eval-analogy', '-model', {str(model_path)!r}, '-questions', {str(questions)!r}]) == 0\n"
        f"assert run(['eval-analogy', '-model', {str(ngram_path)!r}, '-questions', {str(questions)!r}]) == 0\n"
        f"assert run(['dump-vocab', '-model', {str(model_path)!r}]) == 0\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"  # counting a corpus needs the kernel
        f"    assert run(['dump-vocab', '-input', {str(vocab_path)!r}, '-minCount', '1']) == 2\n"
        "assert 'C compiler' in err.getvalue(), err.getvalue()\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"  # so does composing a v1 file's word vectors
        f"    assert run(['eval-analogy', '-model', {str(v1_path)!r}, '-questions', {str(questions)!r}]) == 2\n"
        "assert 'C compiler' in err.getvalue(), err.getvalue()\n"
        f"sys.exit(run(['train', '-input', {str(vocab_path)!r}, '-output', {str(tmp_path / 'out')!r},"
        " '-model', 'cbos', '-minCount', '1', '-minn', '0', '-maxn', '0']))\n"
    )
    env = dict(os.environ, PATH="", XDG_CACHE_HOME=str(tmp_path / "empty-cache"), PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2, proc.stderr  # training needs the compiler too
    assert "C compiler" in proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ -?\d\.\d{4}", line) for line in lines[:6]), lines
    assert proc.stdout.count("capitals") == 2
    assert "paris\t3\t0\n" in proc.stdout  # dump-vocab -model


def test_kernel_compiles_without_warnings(tmp_path):
    # -c, not -fsyntax-only: GCC reports unmarked switch fall-through only when it generates code
    compiler = kernel._compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    source = tmp_path / "kernel.c"
    source.write_text(kernel.C_SOURCE)
    flags = [*kernel.FLAGS, "-Wall", "-Wextra", "-Wshadow", "-Werror", "-c"]
    proc = subprocess.run(
        [compiler, *flags, str(source), "-o", str(tmp_path / "kernel.o")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# -- kernel against the Python reference -------------------------------------


SCHEDULE_CASES = [("skipgram", None), ("cbow", None)] + [("cbos", v) for v in CBOS_VARIANTS]


@pytest.fixture(scope="module")
def equivalence_corpus(tmp_path_factory):
    """Lines over a skewed 12-word vocabulary, with blank and out-of-vocabulary lines.

    The top word fills about half the negative table, so negative draws
    collide with it often enough to reach the retry limit.
    """
    rng = np.random.default_rng(4)
    words = [f"tok{i:02d}" for i in range(12)]
    weights = np.array([100, 8, 6, 5, 4, 3, 3, 2, 2, 2, 1, 1], dtype=float)
    lines = []
    for i in range(24):
        n = int(rng.integers(1, 12))
        lines.append(" ".join(rng.choice(words, size=n, p=weights / weights.sum())))
        if i % 7 == 3:
            lines.append("" if i % 2 else "unseen1 unseen2")
    path = tmp_path_factory.mktemp("equiv") / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def reference_run(config, path, vocab):
    """The Python reference over the corpus, in train()'s order and learning-rate schedule."""
    model = init_model(
        len(vocab), config.bucket_rows, config.dim, config.seed, minn=config.minn, maxn=config.maxn
    )
    events = []
    trainer = Trainer(model, vocab, config, trace=events.append)
    total = vocab.total_tokens * config.epochs
    for _epoch in range(config.epochs):
        for block in iter_slice_chunks(path, 0, 1):
            ids, offsets = encode_chunk(block, vocab.word2id)
            for start, end in zip(offsets[:-1], offsets[1:]):
                kept, _scanned = trainer.prepare_sentence(ids[start:end])
                if kept:
                    trainer.train_sentence(kept, lr_schedule(config.lr0, trainer.tokens_seen, total))
    return model, trainer, events


@pytest.mark.parametrize("kind,variant", SCHEDULE_CASES)
@pytest.mark.parametrize("ngrams", [False, True])
@pytest.mark.parametrize("subsample", [False, True])
def test_kernel_matches_python_reference(
    equivalence_corpus, tmp_path, monkeypatch, kind, variant, ngrams, subsample
):
    monkeypatch.setattr(trainer_module, "CHUNK_BYTES", 64)  # many kernel calls per epoch
    config = TrainConfig(
        model_kind=kind,
        variant=variant,
        dim=8,
        ws=3,
        epochs=2,
        lr0=0.1,
        negatives=3,
        minn=3 if ngrams else 0,
        maxn=6 if ngrams else 0,
        bucket=50 if ngrams else 0,
        min_count=1,
        t=0.02 if subsample else 1.0,
        seed=11,
    )
    kernel_events = []
    result = train(config, equivalence_corpus, trace=kernel_events.append)
    model, trainer, events = reference_run(config, equivalence_corpus, result.vocab)

    assert kernel_events == events
    stats = result.stats
    assert stats.tokens_scanned == trainer.tokens_seen == result.vocab.total_tokens * 2
    assert stats.updates == trainer.n_updates == len(events)
    assert stats.skipgram_updates == sum(e.phase == "skipgram" for e in events)
    assert stats.bag_updates == sum(e.phase == "bag" for e in events)
    # one subsampling draw per in-vocabulary token, and only when it is on
    assert trainer.subsample_rng.counter == (stats.tokens_scanned if subsample else 0)
    # Only float32 summation order differs; entries stay below 1 in size.
    for got, want in (
        (result.model.input_matrix, model.input_matrix),
        (result.model.output_matrix, model.output_matrix),
    ):
        np.testing.assert_allclose(got, want, rtol=0, atol=16 * np.finfo(np.float32).eps)

    untraced = train(config, equivalence_corpus)
    blobs = []
    for name, res in (("traced", result), ("untraced", untraced)):
        out = tmp_path / f"{name}.cbos"
        save_bin(res.model, res.vocab, res.config, str(out))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


MANY_PREDICTIONS = (1 << 20) // 5  # as (phase, position, target, n, row) int32 records, over 4 MiB


def many_predictions_run(tmp_path):
    """A corpus of one block, and a config, whose traced run makes more than MANY_PREDICTIONS predictions."""
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(50)]
    path = tmp_path / "corpus.txt"
    path.write_text("".join(" ".join(rng.choice(words, size=20)) + "\n" for _ in range(2000)))
    config = TrainConfig(
        model_kind="skipgram", dim=8, ws=5, epochs=1, negatives=1, minn=0, maxn=0, bucket=0,
        min_count=1, t=1.0, seed=2,
    )
    return str(path), config


def test_every_trace_record_of_a_long_chunk_reaches_the_sink_without_changing_the_model(tmp_path):
    path, config = many_predictions_run(tmp_path)
    events = []
    traced = train(config, path, trace=events.append)
    plain = train(config, path)
    assert len(events) == traced.stats.updates > MANY_PREDICTIONS
    np.testing.assert_array_equal(traced.model.input_matrix, plain.model.input_matrix)
    np.testing.assert_array_equal(traced.model.output_matrix, plain.model.output_matrix)


def test_tracing_needs_no_memory_beyond_the_untraced_run(tmp_path):
    path, config = many_predictions_run(tmp_path)
    kernel.load()  # compiling is not part of a run
    count = 0

    def counting(event):
        nonlocal count
        count += 1

    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        train(config, path)
        plain_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        train(config, path, trace=counting)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > MANY_PREDICTIONS
    assert traced_peak < plain_peak + (2 << 20)


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_a_failing_trace_sink_stops_training_with_its_own_exception(tmp_path, capfd, error):
    path, config = many_predictions_run(tmp_path)
    failure = error("the sink fails on its 1000th event")
    seen = []

    def failing(event):
        seen.append(event)
        if len(seen) == 1000:
            raise failure

    with pytest.raises(error) as info:
        train(config, path, trace=failing)
    assert info.value is failure
    assert len(seen) == 1000  # the kernel stopped at the failing prediction
    assert capfd.readouterr().err == ""  # raised, not printed and ignored
