"""Compiled training kernel and the counter-based RNG it shares with Python.

One call of ``cbos_encode_block`` turns a raw block of corpus text into
vocabulary ids: it splits lines on ``\n`` and tokens as ``str.split()``
does, and looks each token up in a :class:`VocabIndex`. Through the same
tokenizer, ``cbos_count_block`` counts the words of a block into a hash
table that grows as it goes (:func:`count_words`, which
:func:`cbos.corpus.build_vocab_from_file` calls; :func:`cbos.corpus.build_vocab`
stays as its reference). Neither checks the UTF-8: the strict decoder reads
the whole corpus once before training, and the tokenizer reads any bytes
safely. One call of ``cbos_train_chunk`` then trains one worker on those
sentences: subsampling, per-position window draws, the skip-gram phase, the
bag rule of every schedule in :data:`cbos.trainer.SCHEDULES`, negative
draws, the clamped-sigmoid loss and the SGD step of
:func:`cbos.model.ns_update`, and the per-sentence linear learning rate.
The Python :class:`cbos.trainer.Trainer` stays as its reference. Before
that, ``cbos_subword_rows`` hashes the n-grams of every vocabulary word
(:func:`cbos.subword.build_subword_cache`).

A traced job holds one function pointer, which the kernel calls after each
prediction's update (:class:`ChunkTrainer`): tracing keeps no buffer.

A negative draw takes a uniform slot of the unigram^0.75 table of
:func:`cbos.corpus.build_negative_table` and maps it to the word that owns
it, through the run ends of :func:`cbos.corpus.negative_bounds` and a guide
table of at most ~2V 8-byte entries, which numpy fills
(:func:`negative_guide`). The table itself (10M slots, 40 MB) is never
built, and each draw gives the word it holds.

The C source below is compiled on first use with the local C compiler into
``$XDG_CACHE_HOME/cbos`` (default ``~/.cache/cbos``; a directory in the temp
dir when that is not writable), under a name keyed by a hash of the source
and the flags, and loaded through :mod:`ctypes`. Compiling a new build
removes all but the ``KEPT_BUILDS`` newest builds from that directory.
Importing this module compiles nothing, so queries on a saved model work
without a compiler; training, counting a corpus's vocabulary and composing
an n-gram model's word vectors (not stored in a fresh or v1 model) need one.

Floating point is strict (no ``-ffast-math``, no contraction into fused
multiply-adds), so a given build is bit-deterministic. The dot products
use eight fixed accumulators, which vectorizes without reassociation.

:class:`CounterRng` is the Python twin of the kernel's RNG: splitmix64 over
a counter, keyed by (seed, worker, stream). Windows, negatives,
subsampling and bag-rule draws each take their own stream, so the kernel
and the reference consume the same values without sharing a buffer order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import secrets
import shutil
import subprocess
import tempfile
from typing import Iterable

import numpy as np

# Columns of the per-worker slot array the kernel adds to: tokens, loss, skip-gram and bag updates
N_SLOTS = 4

# -falign-loops=64: predict's speed must not hinge on where an unrelated edit moves its loops
FLAGS = ("-O3", "-ffp-contract=off", "-falign-loops=64", "-fPIC", "-shared")

# Builds kept in the cache after compiling a new one: more than one, so that
# checkouts of different versions used in turn do not recompile every time.
KEPT_BUILDS = 4

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL

enum { WINDOW, NEGATIVE, SUBSAMPLE, DROP, N_STREAMS };
enum { TOKENS, LOSS, SKIPGRAM_UPDATES, BAG_UPDATES, N_SLOTS };
enum { NO_BAG, FULL_BAG, DROP_ONE, NEXT_WORD, CENTRAL_WORD, VARIABLE_WINDOW, NON_REPEATED };

/* Negative sampling: one entry per bucket of 2^shift slots of the table. */
typedef struct {
    int32_t word;              /* the word that owns the bucket's first slot */
    uint16_t end[2];           /* where the runs of word and word + 1 end, counted from that slot
                                  and capped at the bucket width (at most 2^15) */
} Guide;

/* Every field is 8 bytes wide, so the ctypes mirror needs no padding rules. */
typedef struct {
    float *inp;                /* (V + bucket) x dim input rows */
    float *out;                /* V x dim output rows */
    const int64_t *row_off;    /* input rows of word w: rows[row_off[w] .. row_off[w + 1]) */
    const int32_t *rows;
    const int64_t *bounds;     /* negative sampling: word w owns slots [bounds[w - 1], bounds[w]) */
    const Guide *guide;        /* bucket g holds slots g << guide_shift onwards (negative_guide) */
    const double *discard;     /* per-word subsampling discard probability */
    double *slots;             /* n_workers x N_SLOTS, this worker adds to its own row */
    int (*trace)(int32_t phase, int64_t pos, int32_t target, const int32_t *in, int64_t n_in); /* NULL: none */
    uint64_t seed;
    int64_t worker;
    uint64_t counter[N_STREAMS];
    double lr0;
    double lr_floor;
    double clamp;
    int64_t total;             /* tokens of all epochs, for the learning rate */
    int64_t n_workers;
    int64_t table_size;        /* negative-sampling slots, bounds[V - 1] */
    int64_t guide_shift;
    int64_t dim;
    int64_t max_rows;          /* most input rows of one word */
    int64_t negatives;
    int64_t ws;
    int64_t window_max;        /* variable-window redraw bound */
    int64_t retry_limit;
    int64_t skipgram;
    int64_t bag_rule;
    int64_t subsample;
} Job;

typedef struct {
    int32_t *sent, *ctx, *bag, *ids, *outs, *draws;
    float *hidden, *grad, *alpha;
    uint64_t key[N_STREAMS];
    double loss;
    int64_t updates[2];
} Scratch;

static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static uint64_t stream_key(uint64_t seed, uint64_t worker, uint64_t stream)
{
    return mix64(mix64(seed) ^ (worker << 8 | stream));
}

static uint64_t next64(uint64_t key, uint64_t *counter)
{
    return mix64(key + ++*counter * GOLDEN);
}

static int64_t below(uint64_t key, uint64_t *counter, int64_t n)
{
    return (int64_t)(((unsigned __int128)next64(key, counter) * (uint64_t)n) >> 64);
}

static double uniform(uint64_t key, uint64_t *counter)
{
    return (double)(next64(key, counter) >> 11) * 0x1.0p-53;
}

#define DRAW_BELOW(J, S, s, n) below((S)->key[s], &(J)->counter[s], (n))

/* The word that owns slot x. One read of x's guide entry settles the slots
   of the bucket's first two runs; past them (three or more runs meet in the
   bucket), step past every run that ends at or before x. */
static inline int32_t slot_word(const int64_t *bounds, const Guide *guide, int64_t shift, int64_t x)
{
    const Guide *g = guide + (x >> shift);
    const int64_t off = x & (((int64_t)1 << shift) - 1);
    int32_t w = g->word + (off >= g->end[0]);
    if (off >= g->end[1])
        for (w = g->word + 2; bounds[w] <= x; w++)
            ;
    return w;
}

static inline int32_t draw_negative(Job *J, Scratch *S)
{
    return slot_word(J->bounds, J->guide, J->guide_shift, DRAW_BELOW(J, S, NEGATIVE, J->table_size));
}

static float dot(const float *a, const float *b, int64_t n)
{
    float s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        s4 += a[i + 4] * b[i + 4];
        s5 += a[i + 5] * b[i + 5];
        s6 += a[i + 6] * b[i + 6];
        s7 += a[i + 7] * b[i + 7];
    }
    float s = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    for (; i < n; i++)
        s += a[i] * b[i];
    return s;
}

/* The trace call after an update; nonzero stops the run. Out of line, so that predict's loops compile as
   without it. */
static __attribute__((noinline)) int report(const Job *J, int32_t phase, int64_t pos, int32_t target,
                                            const int32_t *in, int64_t n_in)
{
    return J->trace(phase, pos, target, in, n_in);
}

/* One negative-sampling SGD step: the mean of the input rows `in` predicts
   `target` against freshly drawn negatives (see cbos.model.ns_update). */
static int predict(Job *J, Scratch *S, int32_t phase, int64_t pos,
                   const int32_t *in, int64_t n_in, int32_t target, double lr)
{
    const int64_t dim = J->dim;
    float *h;
    if (n_in == 1) {
        h = J->inp + (int64_t)in[0] * dim;
    } else {
        h = S->hidden;
        memcpy(h, J->inp + (int64_t)in[0] * dim, (size_t)dim * sizeof(float));
        for (int64_t r = 1; r < n_in; r++) {
            const float *row = J->inp + (int64_t)in[r] * dim;
            for (int64_t i = 0; i < dim; i++)
                h[i] += row[i];
        }
        const float count = (float)n_in;
        for (int64_t i = 0; i < dim; i++)
            h[i] /= count;
    }

    int64_t n_out = 1;
    S->outs[0] = target;
    for (int64_t k = 0; k < J->negatives; k++)
        S->draws[k] = draw_negative(J, S);
    for (int64_t k = 0; k < J->negatives; k++) {
        int32_t v = S->draws[k];
        if (v != target) {
            S->outs[n_out++] = v;
            continue;
        }
        for (int64_t r = 0; r < J->retry_limit; r++) {
            v = draw_negative(J, S);
            if (v != target) {
                S->outs[n_out++] = v;
                break;
            }
        }
    }

    /* Every sigmoid and the input gradient use the incoming parameters. */
    double loss = 0.0;
    for (int64_t j = 0; j < n_out; j++) {
        double s = dot(J->out + (int64_t)S->outs[j] * dim, h, dim);
        if (s > J->clamp)
            s = J->clamp;
        else if (s < -J->clamp)
            s = -J->clamp;
        double sig = 1.0 / (1.0 + exp(-s));
        if (j == 0) {
            loss -= log(sig);
            S->alpha[j] = (float)(lr * (1.0 - sig));
        } else {
            loss -= log1p(-sig);
            S->alpha[j] = (float)(-lr * sig);
        }
    }
    float *grad = S->grad;
    memset(grad, 0, (size_t)dim * sizeof(float));
    for (int64_t j = 0; j < n_out; j++) {
        const float a = S->alpha[j];
        const float *u = J->out + (int64_t)S->outs[j] * dim;
        for (int64_t i = 0; i < dim; i++)
            grad[i] += a * u[i];
    }
    for (int64_t j = 0; j < n_out; j++) {
        const float a = S->alpha[j];
        float *u = J->out + (int64_t)S->outs[j] * dim;
        for (int64_t i = 0; i < dim; i++)
            u[i] += a * h[i];
    }
    const float scale = (float)(1.0 / (double)n_in);
    for (int64_t i = 0; i < dim; i++)
        grad[i] *= scale;
    for (int64_t r = 0; r < n_in; r++) {
        float *row = J->inp + (int64_t)in[r] * dim;
        for (int64_t i = 0; i < dim; i++)
            row[i] += grad[i];
    }

    S->loss += loss;
    S->updates[phase]++;
    return J->trace ? report(J, phase, pos, target, in, n_in) : 0;
}

static int64_t context(int64_t n, int64_t pos, int64_t b, int32_t *ctx)
{
    int64_t lo = pos - b < 0 ? 0 : pos - b;
    int64_t hi = pos + b > n - 1 ? n - 1 : pos + b;
    int64_t k = 0;
    for (int64_t j = lo; j <= hi; j++)
        if (j != pos)
            ctx[k++] = (int32_t)j;
    return k;
}

/* The bag of sentence positions `bag[0..k)` predicts the word at `target`. */
static int bag_predict(Job *J, Scratch *S, const int32_t *sent, int64_t pos,
                       const int32_t *bag, int64_t k, int64_t target, double lr)
{
    int64_t n = 0;
    for (int64_t i = 0; i < k; i++) {
        int32_t w = sent[bag[i]];
        for (int64_t r = J->row_off[w]; r < J->row_off[w + 1]; r++)
            S->ids[n++] = J->rows[r];
    }
    return predict(J, S, 1, pos, S->ids, n, sent[target], lr);
}

static int step(Job *J, Scratch *S, const int32_t *sent, int64_t n, int64_t pos, int64_t b, double lr)
{
    int32_t *ctx = S->ctx, *bag = S->bag;
    int64_t k = context(n, pos, b, ctx);
    if (J->skipgram) {
        int32_t w = sent[pos];
        const int32_t *in = J->rows + J->row_off[w];
        int64_t n_in = J->row_off[w + 1] - J->row_off[w];
        for (int64_t i = 0; i < k; i++)
            if (predict(J, S, 0, pos, in, n_in, sent[ctx[i]], lr))
                return -1;
    }
    switch (J->bag_rule) {
    case FULL_BAG:
        return k > 0 ? bag_predict(J, S, sent, pos, ctx, k, pos, lr) : 0;
    case NEXT_WORD:
        for (int64_t i = 0; i + 1 < k; i++)
            if (bag_predict(J, S, sent, pos, ctx, i + 1, ctx[i + 1], lr))
                return -1;
        return 0;
    case CENTRAL_WORD:
        for (int64_t i = 0; i < k; i++)
            if (bag_predict(J, S, sent, pos, ctx, i + 1, pos, lr))
                return -1;
        return 0;
    case VARIABLE_WINDOW: /* drop-one inside a redrawn window */
        k = context(n, pos, 1 + DRAW_BELOW(J, S, DROP, J->window_max), ctx);
        /* fall through */
    case DROP_ONE:
    case NON_REPEATED: {
        if (k < 2)
            return 0;
        int32_t p = ctx[DRAW_BELOW(J, S, DROP, k)];
        int64_t m = 0;
        for (int64_t i = 0; i < k; i++) {
            if (ctx[i] == p)
                continue;
            int fresh = 1;
            if (J->bag_rule == NON_REPEATED)
                for (int64_t q = 0; q < m && fresh; q++)
                    fresh = sent[bag[q]] != sent[ctx[i]];
            if (fresh)
                bag[m++] = ctx[i];
        }
        return bag_predict(J, S, sent, pos, bag, m, p, lr);
    }
    default:
        return 0;
    }
}

static double lr_at(const Job *J, double done)
{
    if (J->total <= 0)
        return J->lr_floor;
    double progress = (double)(int64_t)done / (double)J->total;
    if (progress > 1.0)
        progress = 1.0;
    double lr = J->lr0 * (1.0 - progress);
    return lr > J->lr_floor ? lr : J->lr_floor;
}

/* Train on sentences ids[offsets[s] .. offsets[s + 1]); ids < 0 are
   out-of-vocabulary tokens. Returns 0, or -1 when memory ran out or the
   trace sink returned nonzero. */
int cbos_train_chunk(Job *J, const int32_t *ids, const int64_t *offsets, int64_t n_sentences)
{
    int64_t longest = 0;
    for (int64_t s = 0; s < n_sentences; s++)
        if (offsets[s + 1] - offsets[s] > longest)
            longest = offsets[s + 1] - offsets[s];
    int64_t span = 2 * (J->ws > J->window_max ? J->ws : J->window_max);
    Scratch S = {0};
    S.sent = malloc((size_t)(longest + 1) * sizeof(int32_t));
    S.ctx = malloc((size_t)span * sizeof(int32_t));
    S.bag = malloc((size_t)span * sizeof(int32_t));
    S.ids = malloc((size_t)(span * J->max_rows + 1) * sizeof(int32_t));
    S.outs = malloc((size_t)(J->negatives + 1) * sizeof(int32_t));
    S.draws = malloc((size_t)(J->negatives + 1) * sizeof(int32_t));
    S.hidden = malloc((size_t)J->dim * sizeof(float));
    S.grad = malloc((size_t)J->dim * sizeof(float));
    S.alpha = malloc((size_t)(J->negatives + 1) * sizeof(float));
    int status = 0;
    if (!S.sent || !S.ctx || !S.bag || !S.ids || !S.outs || !S.draws || !S.hidden || !S.grad || !S.alpha) {
        status = -1;
        goto done;
    }
    for (int stream = 0; stream < N_STREAMS; stream++)
        S.key[stream] = stream_key(J->seed, (uint64_t)J->worker, (uint64_t)stream);

    /* Other workers add to their rows concurrently: read and write through volatile. */
    volatile double *slots = J->slots;
    volatile double *row = slots + J->worker * N_SLOTS;
    for (int64_t s = 0; s < n_sentences && status == 0; s++) {
        int64_t n = 0, scanned = 0;
        for (int64_t i = offsets[s]; i < offsets[s + 1]; i++) {
            int32_t w = ids[i];
            if (w < 0)
                continue;
            scanned++;
            if (J->subsample && uniform(S.key[SUBSAMPLE], &J->counter[SUBSAMPLE]) < J->discard[w])
                continue;
            S.sent[n++] = w;
        }
        row[TOKENS] += (double)scanned;
        if (n == 0)
            continue;
        double done = 0.0;
        for (int64_t w = 0; w < J->n_workers; w++)
            done += slots[w * N_SLOTS + TOKENS];
        double lr = lr_at(J, done);
        S.loss = 0.0;
        S.updates[0] = S.updates[1] = 0;
        for (int64_t pos = 0; pos < n && status == 0; pos++)
            status = step(J, &S, S.sent, n, pos, 1 + DRAW_BELOW(J, &S, WINDOW, J->ws), lr);
        row[LOSS] += S.loss;
        row[SKIPGRAM_UPDATES] += (double)S.updates[0];
        row[BAG_UPDATES] += (double)S.updates[1];
    }
done:
    free(S.sent);
    free(S.ctx);
    free(S.bag);
    free(S.ids);
    free(S.outs);
    free(S.draws);
    free(S.hidden);
    free(S.grad);
    free(S.alpha);
    return status ? -1 : 0;
}

/* -- vocabulary index and block encoder ---------------------------------- */

#define FNV_OFFSET 0xcbf29ce484222325ULL
#define FNV_PRIME 0x100000001b3ULL

typedef struct {
    uint8_t *blob;             /* UTF-8 bytes of every word, back to back */
    int64_t *offsets;          /* word w is blob[offsets[w] .. offsets[w + 1]) */
    int32_t *table;            /* word ids by FNV-1a-64 slot, -1 empty; mask + 1 >= 2 words */
    int64_t n_words;
    int64_t mask;
} Index;

/* The slot holding word s[0..n) with hash h, or the empty slot where it would go. */
static int32_t *index_slot(const Index *X, const uint8_t *s, int64_t n, uint64_t h)
{
    for (uint64_t i = h & (uint64_t)X->mask;; i = (i + 1) & (uint64_t)X->mask) {
        int32_t w = X->table[i];
        if (w < 0 || (X->offsets[w + 1] - X->offsets[w] == n
                      && memcmp(X->blob + X->offsets[w], s, (size_t)n) == 0))
            return X->table + i;
    }
}

void cbos_index_build(Index *X)
{
    for (int64_t i = 0; i <= X->mask; i++)
        X->table[i] = -1;
    for (int64_t w = 0; w < X->n_words; w++) {
        const uint8_t *s = X->blob + X->offsets[w];
        int64_t n = X->offsets[w + 1] - X->offsets[w];
        uint64_t h = FNV_OFFSET;
        for (int64_t i = 0; i < n; i++)
            h = (h ^ s[i]) * FNV_PRIME;
        *index_slot(X, s, n, h) = (int32_t)w; /* a repeated word keeps its last id, as a dict does */
    }
}

/* The length of the str.split() separator that starts s[0..n), or 0 when none
   does: \t \v \f \r, space, \x1c-\x1f, U+0085, U+00A0, U+1680, U+2000-U+200A,
   U+2028, U+2029, U+202F, U+205F and U+3000 (the newline is handled apart).
   Only bytes <= 0x20, 0xC2 and 0xE1-0xE3 can start one; the match is exact,
   so on any bytes the split equals the one of the surrogateescape decoding. */
static inline int64_t space_length(const uint8_t *s, int64_t n)
{
    const uint8_t c = s[0];
    if (c <= ' ')
        return c == ' ' || (c >= 0x09 && c <= 0x0D) || (c >= 0x1C && c <= 0x1F);
    if (c == 0xC2)
        return n >= 2 && (s[1] == 0x85 || s[1] == 0xA0) ? 2 : 0;
    if (c < 0xE1 || c > 0xE3 || n < 3)
        return 0;
    if (c == 0xE1)
        return s[1] == 0x9A && s[2] == 0x80 ? 3 : 0;
    if (c == 0xE3)
        return s[1] == 0x80 && s[2] == 0x80 ? 3 : 0;
    if (s[1] == 0x80) /* c == 0xE2 */
        return (s[2] >= 0x80 && s[2] <= 0x8A) || s[2] == 0xA8 || s[2] == 0xA9 || s[2] == 0xAF ? 3 : 0;
    return s[1] == 0x81 && s[2] == 0x9F ? 3 : 0;
}

/* The length of the separator that starts s[0..n) ('\n' or one of space_length),
   or 0 when a token byte does. */
static inline int64_t separator_length(const uint8_t *s, int64_t n)
{
    if (s[0] > ' ' && s[0] < 0x80) /* ASCII inside a token: the common case */
        return 0;
    return s[0] == '\n' ? 1 : space_length(s, n);
}

/* The tokenizer of the encoder and the counter: the next token of s[*i..n),
   split as str.split() splits, with its FNV-1a-64 hash in *h. Returns its
   start and moves *i past it, or returns -1 when no token is left. Sets
   *newline when a '\n' precedes it. No byte outside s[0..n) is read. */
static inline int64_t next_token(const uint8_t *s, int64_t n, int64_t *i, uint64_t *h, int *newline)
{
    int64_t j = *i, k;
    for (; j < n && (k = separator_length(s + j, n - j)) > 0; j += k)
        if (s[j] == '\n')
            *newline = 1;
    if (j == n)
        return -1;
    const int64_t start = j;
    uint64_t hash = FNV_OFFSET;
    do
        hash = (hash ^ s[j]) * FNV_PRIME;
    while (++j < n && separator_length(s + j, n - j) == 0);
    *i = j;
    *h = hash;
    return start;
}

/* Encode a block of text for cbos_train_chunk: lines split on '\n', tokens as
   str.split() splits them, ids[] the vocabulary id of each token (-1 out of
   vocabulary), sentence s = ids[offsets[s] .. offsets[s + 1]); lines without
   tokens make no sentence. The text is not validated (train() decodes the
   corpus once before training). ids needs room for n / 2 + 1 entries and
   offsets for one more. Returns the sentence count. */
int64_t cbos_encode_block(const Index *X, const uint8_t *s, int64_t n, int32_t *ids, int64_t *offsets)
{
    int64_t n_ids = 0, n_sentences = 0, i = 0, start;
    int newline = 0;
    uint64_t h;
    offsets[0] = 0;
    while ((start = next_token(s, n, &i, &h, &newline)) >= 0) {
        if (newline && n_ids > offsets[n_sentences])
            offsets[++n_sentences] = n_ids;
        newline = 0;
        ids[n_ids++] = *index_slot(X, s + start, i - start, h);
    }
    if (n_ids > offsets[n_sentences]) /* the end of the block ends its last line */
        offsets[++n_sentences] = n_ids;
    return n_sentences;
}

/* -- vocabulary counter ---------------------------------------------------- */

/* The distinct tokens of every block counted so far, in first-occurrence
   order. Every array is allocated and grown here and freed by
   cbos_count_release; the table doubles when it is half full. */
typedef struct {
    Index index;
    int64_t *counts;           /* occurrences of word w */
    int64_t blob_cap;          /* bytes allocated for index.blob */
    int64_t words_cap;         /* words allocated for counts (index.offsets has one more) */
} Counter;

/* Append word s[0..n), seen once, at its empty table slot. */
static int counter_add(Counter *C, const uint8_t *s, int64_t n, int32_t *slot)
{
    Index *X = &C->index;
    const int64_t w = X->n_words, used = X->offsets[w];
    if (w == C->words_cap) {
        if (w >= INT32_MAX)
            return -1;
        int64_t *offsets = realloc(X->offsets, (size_t)(2 * w + 1) * sizeof(int64_t));
        if (!offsets)
            return -1;
        X->offsets = offsets;
        int64_t *counts = realloc(C->counts, (size_t)(2 * w) * sizeof(int64_t));
        if (!counts)
            return -1;
        C->counts = counts;
        C->words_cap = 2 * w;
    }
    if (used + n > C->blob_cap) {
        int64_t cap = 2 * C->blob_cap;
        while (cap < used + n)
            cap *= 2;
        uint8_t *blob = realloc(X->blob, (size_t)cap);
        if (!blob)
            return -1;
        X->blob = blob;
        C->blob_cap = cap;
    }
    memcpy(X->blob + used, s, (size_t)n);
    X->offsets[w + 1] = used + n;
    C->counts[w] = 1;
    *slot = (int32_t)w;
    X->n_words = w + 1;
    if (2 * X->n_words <= X->mask + 1)
        return 0;
    int32_t *table = malloc((size_t)(2 * (X->mask + 1)) * sizeof(int32_t));
    if (!table)
        return -1;
    free(X->table);
    X->table = table;
    X->mask = 2 * X->mask + 1;
    cbos_index_build(X);
    return 0;
}

/* Count the tokens of a block, split as cbos_encode_block splits them.
   Returns 0, or -1 when memory ran out. */
int64_t cbos_count_block(Counter *C, const uint8_t *s, int64_t n)
{
    Index *X = &C->index;
    if (!C->words_cap) { /* the first block: room for 1024 words */
        X->table = malloc(2048 * sizeof(int32_t));
        X->offsets = calloc(1025, sizeof(int64_t));
        C->counts = malloc(1024 * sizeof(int64_t));
        X->blob = malloc(1 << 14);
        if (!X->table || !X->offsets || !C->counts || !X->blob)
            return -1; /* cbos_count_release frees what was allocated */
        X->mask = 2047;
        C->words_cap = 1024;
        C->blob_cap = 1 << 14;
        cbos_index_build(X);
    }
    int64_t i = 0, start;
    int newline = 0; /* lines do not matter to the count */
    uint64_t h;
    while ((start = next_token(s, n, &i, &h, &newline)) >= 0) {
        int32_t *slot = index_slot(X, s + start, i - start, h);
        if (*slot >= 0)
            C->counts[*slot]++;
        else if (counter_add(C, s + start, i - start, slot))
            return -1;
    }
    return 0;
}

void cbos_count_release(Counter *C)
{
    free(C->index.blob);
    free(C->index.offsets);
    free(C->index.table);
    free(C->counts);
    memset(C, 0, sizeof *C);
}

/* -- subword rows ---------------------------------------------------------- */

/* Word w's input rows for build_subword_cache, at rows[row_off[w] .. row_off[w + 1]): its own
   row, left to the caller, then n_words + fnv1a_32(g) % bucket (bytes XORed sign-extended) for
   each n-gram g of minn..maxn characters of "<word>", blob[offsets[w] .. offsets[w + 1]) (empty
   for the empty word), in extract_ngrams order. With rows NULL it only fills row_off. */
void cbos_subword_rows(const uint8_t *blob, const int64_t *offsets, int64_t n_words, int64_t minn, int64_t maxn,
                       int64_t bucket, int64_t *row_off, int64_t *rows)
{
    int64_t k = row_off[0] = 0;
    for (int64_t w = 0; w < n_words; w++) {
        const uint8_t *s = blob + offsets[w];
        const int64_t n = offsets[w + 1] - offsets[w];
        k++; /* the word's own row */
        for (int64_t start = 0; start < n; start++) {
            if ((s[start] & 0xC0) == 0x80) /* a continuation byte starts no character */
                continue;
            uint32_t h = 2166136261u;
            for (int64_t i = start, chars = 0; i < n && chars < maxn; i++) {
                h = (h ^ (uint32_t)(int32_t)(int8_t)s[i]) * 16777619u;
                if (i + 1 < n && (s[i + 1] & 0xC0) == 0x80)
                    continue; /* inside a character */
                if (++chars >= minn && !(start == 0 && i + 1 == n)) {
                    if (rows)
                        rows[k] = n_words + (int64_t)(h % (uint64_t)bucket);
                    k++;
                }
            }
        }
        row_off[w + 1] = k;
    }
}

/* The negative-sampling map from outside: the word training draws for each
   slot x[0..n) (for tests). */
void cbos_negative_words(const int64_t *bounds, const Guide *guide, int64_t shift,
                         const int64_t *x, int64_t n, int32_t *words)
{
    for (int64_t i = 0; i < n; i++)
        words[i] = slot_word(bounds, guide, shift, x[i]);
}

/* The RNG from outside: n draws in [low, high), then n uniforms on [0, 1),
   from one stream (the twin of CounterRng, for tests). */
void cbos_rng_draws(uint64_t seed, int64_t worker, int64_t stream, int64_t low, int64_t high,
                    int64_t n, int64_t *ints, double *reals)
{
    uint64_t key = stream_key(seed, (uint64_t)worker, (uint64_t)stream), counter = 0;
    for (int64_t i = 0; i < n; i++)
        ints[i] = low + below(key, &counter, high - low);
    for (int64_t i = 0; i < n; i++)
        reals[i] = uniform(key, &counter);
}
"""

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class CounterRng:
    """Splitmix64 over a counter, keyed by (seed, worker, stream); twin of the kernel's RNG.

    Serves the ``integers`` and ``random`` calls of the training code with
    the surface of :class:`numpy.random.Generator`. Integers come from the
    high 64 bits of ``draw * (high - low)``, uniforms from the top 53 bits.
    """

    def __init__(self, seed: int, worker: int, stream: int):
        self.key = _mix64(_mix64(seed & _M64) ^ ((worker << 8 | stream) & _M64))
        self.counter = 0

    def _next(self) -> int:
        self.counter += 1
        return _mix64((self.key + self.counter * _GOLDEN) & _M64)

    def _below(self, n: int) -> int:
        return (self._next() * n) >> 64

    def integers(self, low: int, high: int | None = None, size: int | None = None):
        if high is None:
            low, high = 0, low
        n = int(high) - int(low)
        if n <= 0:
            raise ValueError("low >= high")
        if size is None:
            return low + self._below(n)
        return np.array([low + self._below(n) for _ in range(size)], dtype=np.int64)

    def random(self, size: int | None = None):
        if size is None:
            return (self._next() >> 11) * 2.0**-53
        return np.array([(self._next() >> 11) * 2.0**-53 for _ in range(size)])


# -- the job a worker hands to the kernel ----------------------------------

# The C ``Job.trace`` callback: phase, position, target, input rows and their count; nonzero stops the run.
Trace = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.c_int32, ctypes.c_int64, ctypes.c_int32, ctypes.POINTER(ctypes.c_int32), ctypes.c_int64
)


class Job(ctypes.Structure):
    """Mirror of the C ``Job`` struct: pointers into the arrays of one worker's run."""

    _fields_ = [
        ("inp", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
        ("row_off", ctypes.c_void_p),
        ("rows", ctypes.c_void_p),
        ("bounds", ctypes.c_void_p),
        ("guide", ctypes.c_void_p),
        ("discard", ctypes.c_void_p),
        ("slots", ctypes.c_void_p),
        ("trace", Trace),
        ("seed", ctypes.c_uint64),
        ("worker", ctypes.c_int64),
        ("counter", ctypes.c_uint64 * 4),
        ("lr0", ctypes.c_double),
        ("lr_floor", ctypes.c_double),
        ("clamp", ctypes.c_double),
        ("total", ctypes.c_int64),
        ("n_workers", ctypes.c_int64),
        ("table_size", ctypes.c_int64),
        ("guide_shift", ctypes.c_int64),
        ("dim", ctypes.c_int64),
        ("max_rows", ctypes.c_int64),
        ("negatives", ctypes.c_int64),
        ("ws", ctypes.c_int64),
        ("window_max", ctypes.c_int64),
        ("retry_limit", ctypes.c_int64),
        ("skipgram", ctypes.c_int64),
        ("bag_rule", ctypes.c_int64),
        ("subsample", ctypes.c_int64),
    ]


# Mirror of the C ``Guide`` struct: one entry per bucket of negative-sampling slots.
GUIDE = np.dtype([("word", np.int32), ("end", np.uint16, 2)])

_ARRAY_FIELDS = {
    "inp": np.float32,
    "out": np.float32,
    "row_off": np.int64,
    "rows": np.int32,
    "bounds": np.int64,
    "guide": GUIDE,
    "discard": np.float64,
    "slots": np.float64,
}


def _pointer(array: np.ndarray, dtype) -> int:
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(f"kernel needs a C-contiguous {np.dtype(dtype)} array, got {array.dtype}")
    return array.ctypes.data


def negative_guide(bounds: np.ndarray) -> tuple[np.ndarray, int]:
    """The guide table over the run ends ``bounds`` of :func:`cbos.corpus.negative_bounds`, and its shift.

    Bucket ``g`` covers the slots from ``g << shift`` on, with ``shift =
    min(floor(log2(slots // V)), 15)``, so there are at most ~2V buckets.
    Its entry holds the word that owns its first slot and where that word's
    run and the next word's run end, relative to that slot and capped at the
    bucket width. A draw of slot ``x`` reads only its bucket's entry unless
    three or more runs meet in the bucket and ``x`` lies past the first two;
    then the kernel steps through ``bounds``. Built in numpy: needs no
    compiler.
    """
    size = int(bounds[-1])
    shift = min((size // bounds.size).bit_length() - 1, 15)
    starts = np.arange(((size - 1) >> shift) + 1, dtype=np.int64) << shift
    guide = np.empty(starts.size, dtype=GUIDE)
    guide["word"] = word = np.searchsorted(bounds, starts, side="right")
    for i in range(2):  # the run ends of word and word + 1 (the last word has no next one)
        guide["end"][:, i] = np.minimum(bounds[np.minimum(word + i, bounds.size - 1)] - starts, 1 << shift)
    return guide, shift


class ChunkTrainer:
    """One worker's kernel job; holds every array the job points into.

    The kernel calls ``on_event(phase, position, target, input_rows)`` after
    each update (phase 0 skip-gram, 1 bag). What it raises cannot cross C:
    it is kept, the kernel stops, and :meth:`train_chunk` raises it.
    """

    def __init__(self, arrays: dict[str, np.ndarray], on_event=None, **scalars):
        self._lib = load()
        self._arrays = arrays  # keeps the buffers alive while C holds pointers
        self.job = Job(**scalars)
        for name, dtype in _ARRAY_FIELDS.items():
            setattr(self.job, name, _pointer(arrays[name], dtype))
        if arrays["slots"].shape[1] != N_SLOTS or not 0 <= self.job.worker < arrays["slots"].shape[0]:
            raise ValueError("slot array does not match the worker count")
        self._errors: list[BaseException] = []
        if on_event is not None:
            errors = self._errors

            def trace(phase, position, target, rows, n):
                try:
                    on_event(phase, position, target, rows[:n])
                except BaseException as exc:
                    errors.append(exc)
                    return 1
                return 0

            self._trace = Trace(trace)  # keeps the callback alive while C holds it
            self.job.trace = self._trace

    def train_chunk(self, ids: np.ndarray, offsets: np.ndarray) -> None:
        """Train on sentence ``s`` = ``ids[offsets[s]:offsets[s + 1]]`` for every ``s``, in one kernel call."""
        if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != ids.size:
            raise ValueError("sentence offsets do not cover the id array")
        status = self._lib.cbos_train_chunk(
            ctypes.byref(self.job), _pointer(ids, np.int32), _pointer(offsets, np.int64), offsets.size - 1
        )
        if status < 0:
            if self._errors:
                raise self._errors.pop()
            raise MemoryError("training kernel ran out of memory")


# -- vocabulary index and block encoder ------------------------------------


class Index(ctypes.Structure):
    """Mirror of the C ``Index`` struct."""

    _fields_ = [
        ("blob", ctypes.c_void_p),
        ("offsets", ctypes.c_void_p),
        ("table", ctypes.c_void_p),
        ("n_words", ctypes.c_int64),
        ("mask", ctypes.c_int64),
    ]


def utf8_blob(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Every word's UTF-8 bytes back to back, and int64 offsets: word w is blob[offsets[w]:offsets[w + 1]]."""
    encoded = [word.encode("utf-8") for word in words]
    offsets = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in encoded], out=offsets[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


class VocabIndex:
    """Vocabulary words -> ids for the kernel's block encoder.

    An open-addressing table of int32 word ids with a power-of-two capacity
    of at least twice the word count, keyed by the FNV-1a-64 hash of each
    word's UTF-8 bytes; ``blob`` and ``offsets`` hold those bytes for the
    exact comparison. The table is built by one kernel call, so the hash
    exists only in C. Build it once before the workers start: they share it
    read-only, and each call of :meth:`encode` returns arrays of its own.
    """

    def __init__(self, words: list[str]):
        self._lib = load()
        self.blob, self.offsets = utf8_blob(words)
        self.table = np.empty(1 << (2 * len(words) - 1).bit_length(), dtype=np.int32)
        self.struct = Index(
            blob=self.blob.ctypes.data,
            offsets=self.offsets.ctypes.data,
            table=self.table.ctypes.data,
            n_words=len(words),
            mask=self.table.size - 1,
        )
        self._lib.cbos_index_build(ctypes.byref(self.struct))

    def encode(self, block: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Token ids (-1 out of vocabulary) and sentence offsets of one block of text.

        Sentence ``s`` is ``ids[offsets[s]:offsets[s + 1]]``: lines split on
        ``\\n``, tokens as ``str.split()`` splits them, and blank lines make
        no sentence. The block is not checked for valid UTF-8; on any bytes
        the split is that of ``block.decode("utf-8", "surrogateescape")``.
        Each call allocates the arrays it returns, so threads may share one
        index.
        """
        # every token but the last ends at a separator byte
        ids = np.empty(len(block) // 2 + 1, dtype=np.int32)
        sentences = np.empty(ids.size + 1, dtype=np.int64)
        n = self._lib.cbos_encode_block(
            ctypes.byref(self.struct), block, len(block), ids.ctypes.data, sentences.ctypes.data
        )
        return ids[: sentences[n]], sentences[: n + 1]


class Counter(ctypes.Structure):
    """Mirror of the C ``Counter`` struct; zeroed, it holds no words."""

    _fields_ = [
        ("index", Index),
        ("counts", ctypes.c_void_p),
        ("blob_cap", ctypes.c_int64),
        ("words_cap", ctypes.c_int64),
    ]


def count_words(blocks: Iterable[bytes]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The distinct tokens of ``blocks`` and how often each occurs, in first-occurrence order.

    Tokens are split as :meth:`VocabIndex.encode` splits them (so as
    ``str.split()`` splits the decoded text) and counted in a hash table of
    the kernel, which doubles when it is half full. Returns every word's
    UTF-8 bytes back to back, the int64 offsets of word ``w``'s bytes,
    ``blob[offsets[w]:offsets[w + 1]]``, and the int64 count of each word.
    A failed allocation raises ``MemoryError``.
    """
    lib = load()
    counter = Counter()
    try:
        for block in blocks:
            if lib.cbos_count_block(ctypes.byref(counter), block, len(block)) < 0:
                raise MemoryError("vocabulary counter ran out of memory")
        n = counter.index.n_words
        if n == 0:
            return b"", np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        int64s = ctypes.POINTER(ctypes.c_int64)
        offsets = np.ctypeslib.as_array(ctypes.cast(counter.index.offsets, int64s), (n + 1,)).copy()
        counts = np.ctypeslib.as_array(ctypes.cast(counter.counts, int64s), (n,)).copy()
        return ctypes.string_at(counter.index.blob, int(offsets[-1])), offsets, counts
    finally:
        lib.cbos_count_release(ctypes.byref(counter))


# -- build and load --------------------------------------------------------


def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for path in (os.path.join(base, "cbos"), os.path.join(tempfile.gettempdir(), f"cbos-{os.getuid()}")):
        try:
            os.makedirs(path, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK | os.X_OK):
            return path
    raise RuntimeError(f"no writable cache directory for the training kernel (tried {base}/cbos and the temp dir)")


def _prune_builds(directory: str, keep: str) -> None:
    """Remove all but the ``KEPT_BUILDS`` newest kernel builds in ``directory``, never ``keep``.

    A build another process removes meanwhile is skipped. A process that
    has a removed build loaded keeps using it.
    """
    builds = []
    for entry in os.scandir(directory):
        if entry.name.startswith("kernel-") and entry.name.endswith(".so"):
            with contextlib.suppress(FileNotFoundError):
                builds.append((entry.path == keep, entry.stat().st_mtime, entry.path))
    for _, _, path in sorted(builds, reverse=True)[KEPT_BUILDS:]:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def build() -> str:
    """Path of the compiled kernel, compiling it into the cache directory if missing.

    After publishing a new build, only the ``KEPT_BUILDS`` newest stay.
    """
    digest = hashlib.sha256((C_SOURCE + "\0" + " ".join(FLAGS)).encode()).hexdigest()[:16]
    directory = _cache_dir()
    target = os.path.join(directory, f"kernel-{digest}.so")
    if os.path.exists(target):
        return target
    compiler = _compiler()
    if compiler is None:
        needs = "training, counting a corpus and composing an n-gram model's word vectors"
        raise RuntimeError(f"{needs} need a C compiler: neither 'cc' nor 'gcc' is on PATH")
    stem = os.path.join(directory, f".kernel-{digest}-{os.getpid()}-{secrets.token_hex(4)}")
    try:
        with open(stem + ".c", "w", encoding="utf-8") as handle:
            handle.write(C_SOURCE)
        try:
            proc = subprocess.run(
                [compiler, *FLAGS, "-o", stem + ".so", stem + ".c", "-lm"],
                capture_output=True,
                text=True,
            )
        except OSError as exc:
            raise RuntimeError(f"C compiler {compiler!r} could not run: {exc}") from exc
        if proc.returncode != 0:
            raise RuntimeError(
                f"C compiler {compiler!r} failed to build the training kernel "
                f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
            )
        os.replace(stem + ".so", target)  # atomic: processes compiling at once each publish a whole file
    finally:
        for leftover in (stem + ".c", stem + ".so"):
            if os.path.exists(leftover):
                os.unlink(leftover)
    _prune_builds(directory, target)
    return target


@functools.cache
def load() -> ctypes.CDLL:
    """The compiled kernel, built on first use and loaded once per process."""
    lib = ctypes.CDLL(build())
    lib.cbos_train_chunk.argtypes = [ctypes.POINTER(Job), ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    lib.cbos_train_chunk.restype = ctypes.c_int
    lib.cbos_index_build.argtypes = [ctypes.POINTER(Index)]
    lib.cbos_index_build.restype = None
    lib.cbos_encode_block.argtypes = [
        ctypes.POINTER(Index), ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p
    ]
    lib.cbos_encode_block.restype = ctypes.c_int64
    lib.cbos_count_block.argtypes = [ctypes.POINTER(Counter), ctypes.c_char_p, ctypes.c_int64]
    lib.cbos_count_block.restype = ctypes.c_int64
    lib.cbos_count_release.argtypes = [ctypes.POINTER(Counter)]
    lib.cbos_count_release.restype = None
    lib.cbos_subword_rows.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 2
    lib.cbos_subword_rows.restype = None
    lib.cbos_negative_words.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p
    ]
    lib.cbos_negative_words.restype = None
    lib.cbos_rng_draws.argtypes = [ctypes.c_uint64] + [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 2
    lib.cbos_rng_draws.restype = None
    return lib
