"""Training schedules and epoch/worker orchestration.

Every schedule is one row of :data:`SCHEDULES`: whether a skip-gram phase
runs, and the bag rule of its bag phase. At each sentence position with a
per-position window draw ``b``, :meth:`Trainer.step` first runs the
skip-gram phase (the center word's rows predict each context word), then
issues the (context bag -> target) predictions the bag rule lists. All go
through the one :func:`cbos.model.ns_update` primitive.

* ``skipgram``: the skip-gram phase only.
* ``cbow``: no skip-gram phase; the averaged context bag predicts the center.
* ``cbos`` (``baseline``): the skip-gram phase, then the context minus one
  randomly chosen word ``p`` predicts ``p``. Five alternative bag rules are
  selectable via ``TrainConfig.variant``; the table is keyed by the variant.

:func:`train` runs every schedule in the compiled kernel of
:mod:`cbos.kernel`: each worker streams its byte slice of the corpus in
blocks of about ``CHUNK_BYTES``, and the kernel turns each raw block into
vocabulary ids (through a :class:`cbos.kernel.VocabIndex` built once before
the workers start) and trains on it; Python only reads the blocks.
:class:`Trainer` (``step``, ``prepare_sentence``, ``train_sentence``,
``draw_negatives``) is the Python reference the tests compare the kernel
against; ``train`` never calls it. The reference reads the encoder's
sentences, the same ids the kernel reads. Both draw from
:class:`cbos.kernel.CounterRng` streams, one each for windows, negatives,
subsampling and bag-rule choices, so at ``workers=1`` they make the same
predictions in the same order.

Multi-worker training is asynchronous (hogwild style): worker 0 runs in the
calling thread and the others in threads of their own, all updating the one
pair of embedding matrices without locks. The kernel calls release the GIL,
so the workers train in parallel. Lost or torn updates are tolerated;
bit-exact reproducibility is guaranteed only at ``workers=1``. Token, loss
and per-phase update totals stay exact: each worker adds to its own row of
a shared slot array.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, IO, Iterator

import numpy as np

from . import kernel
from .corpus import Vocab, build_vocab_from_file, check_utf8, iter_line_blocks, negative_bounds
from .model import (
    SIGMOID_CLAMP,
    EmbeddingModel,
    compute_hidden,
    init_model,
    ns_update,
)
from .subword import SubwordConfig, build_subword_cache

MODEL_KINDS = ("cbow", "skipgram", "cbos")
CBOS_VARIANTS = (
    "baseline",
    "next_word",
    "central_word",
    "non_random",
    "variable_window",
    "non_repeated",
)

LR_FLOOR = 1e-6
VARIABLE_WINDOW_MAX = 5
NEGATIVE_RETRY_LIMIT = 8
CHUNK_BYTES = 1 << 20  # corpus text per kernel call

@dataclass
class TrainConfig:
    """All tuning parameters of one training run.

    Defaults mirror the standard unsupervised fastText-style configuration.
    ``variant`` selects the cbos bag phase and is only meaningful (and only
    accepted) when ``model_kind == "cbos"``; ``minn = maxn = 0`` disables
    subword n-grams.
    """

    model_kind: str = "cbos"
    variant: str | None = None
    dim: int = 100
    ws: int = 5
    epochs: int = 5
    lr0: float = 0.05
    negatives: int = 5
    minn: int = 3
    maxn: int = 6
    bucket: int = 2_000_000
    min_count: int = 5
    t: float = 1e-4
    workers: int = 1
    seed: int = 1

    def __post_init__(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.model_kind == "cbos":
            if self.variant is None:
                self.variant = "baseline"
            if self.variant not in CBOS_VARIANTS:
                raise ValueError(f"unknown cbos variant {self.variant!r}")
        elif self.variant is not None:
            raise ValueError("variant is only valid with model_kind='cbos'")
        for name, minimum in (
            ("dim", 1),
            ("ws", 1),
            ("epochs", 1),
            ("min_count", 1),
            ("workers", 1),
            ("negatives", 0),
            ("seed", 0),
        ):
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}")
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0 < self.t < math.inf:
            raise ValueError(f"subsample threshold t must be positive and finite, got {self.t}")
        self.subword_config()  # validates the minn/maxn/bucket combination

    def subword_config(self) -> SubwordConfig:
        return SubwordConfig(self.minn, self.maxn, self.bucket)

    @property
    def bucket_rows(self) -> int:
        """Extra input-matrix rows for hashed n-grams (0 when disabled)."""
        return self.bucket if self.minn >= 1 else 0


@dataclass(frozen=True)
class TraceEvent:
    """One recorded prediction: which input rows predicted which target."""

    phase: str  # "skipgram" or "bag"
    input_ids: tuple[int, ...]
    target_id: int
    position: int
    variant: str | None = None


TraceSink = Callable[[TraceEvent], object]


class JsonTraceWriter:
    """Trace sink writing newline-delimited JSON events to a file object.

    Each line is what ``json.dumps`` makes of the event's fields, formatted
    directly: the phase and variant names need no escaping.
    """

    def __init__(self, out: IO[str]):
        self.out = out

    def __call__(self, event: TraceEvent) -> None:
        variant = "null" if event.variant is None else f'"{event.variant}"'
        self.out.write(
            f'{{"phase": "{event.phase}", "input_ids": [{", ".join(map(str, event.input_ids))}], '
            f'"target_id": {event.target_id}, "position": {event.position}, "variant": {variant}}}\n'
        )


def sample_window(ws: int, rng: np.random.Generator) -> int:
    """Draw the window half-width for one position, uniform on {1..ws}."""
    if ws < 1:
        raise ValueError(f"ws must be >= 1, got {ws}")
    return int(rng.integers(1, ws + 1))


def lr_schedule(lr0: float, tokens_done: int, tokens_total_all_epochs: int) -> float:
    """Linearly decayed learning rate, floored at ``LR_FLOOR``."""
    if tokens_total_all_epochs <= 0:
        return LR_FLOOR
    progress = min(1.0, tokens_done / tokens_total_all_epochs)
    return max(LR_FLOOR, lr0 * (1.0 - progress))


# -- schedules -------------------------------------------------------------
#
# A bag rule maps one position to the (context positions, target position)
# pairs of its bag phase, given the window's context positions ``ctx``.
# ``Trainer.step`` calls it after the skip-gram phase, whose negative draws
# share ``rng``, so the draw order (and thus every workers=1 run) stays
# fixed. Only drop-one rules read ``p_index``.

BagPlan = list[tuple[list[int], int]]
BagRule = Callable[[list[int], int, list[int], np.random.Generator, int | None], BagPlan]


def _full_bag(sentence, pos, ctx, rng, p_index) -> BagPlan:
    """The whole context predicts the center word."""
    return [(ctx, pos)] if ctx else []


def _drop_one(sentence, pos, ctx, rng, p_index) -> BagPlan:
    """The context minus one random word predicts that word (none if <2 words)."""
    if len(ctx) < 2:
        return []
    p = ctx[int(rng.integers(0, len(ctx))) if p_index is None else p_index]
    return [([j for j in ctx if j != p], p)]


def _next_word(sentence, pos, ctx, rng, p_index) -> BagPlan:
    """The bag grows left to right, predicting the next context word each time."""
    return [(ctx[: i + 1], ctx[i + 1]) for i in range(len(ctx) - 1)]


def _central_word(sentence, pos, ctx, rng, p_index) -> BagPlan:
    """The growing bag predicts the center word at every size, the full bag too."""
    return [(ctx[: i + 1], pos) for i in range(len(ctx))]


def _variable_window(sentence, pos, ctx, rng, p_index) -> BagPlan:
    """Drop-one inside a window redrawn uniform on [1, VARIABLE_WINDOW_MAX]."""
    b = sample_window(VARIABLE_WINDOW_MAX, rng)
    return _drop_one(sentence, pos, Trainer._context(len(sentence), pos, b), rng, p_index)


def _non_repeated(sentence, pos, ctx, rng, p_index) -> BagPlan:
    """Drop-one where each distinct word enters the bag once, in first-seen order."""
    return [
        (list({sentence[j]: j for j in bag}.values()), p)
        for bag, p in _drop_one(sentence, pos, ctx, rng, p_index)
    ]


# schedule -> (skip-gram phase?, bag rule or None); keyed by variant for cbos
SCHEDULES: dict[str, tuple[bool, BagRule | None]] = {
    "skipgram": (True, None),
    "cbow": (False, _full_bag),
    "baseline": (True, _drop_one),
    "next_word": (True, _next_word),
    "central_word": (True, _central_word),
    "non_random": (True, _full_bag),
    "variable_window": (True, _variable_window),
    "non_repeated": (True, _non_repeated),
}

# The kernel's code for a bag rule is its index here (the C enum's order).
KERNEL_BAG_RULES = (
    None,
    _full_bag,
    _drop_one,
    _next_word,
    _central_word,
    _variable_window,
    _non_repeated,
)


class Trainer:
    """Python reference of one worker: rng streams, sampling, and the schedule step.

    A trainer never owns the matrices; it builds its own discard
    probabilities, negative-sampling run ends and subword cache, as
    ``train`` does.
    :meth:`step` operates on a ``sentence`` given as a list of vocab ids
    (already subsampled) and returns the summed loss of the updates it
    issued. By default it draws from the four
    :class:`~cbos.kernel.CounterRng` streams of worker 0, as the kernel
    does at ``workers=1``; a given ``rng`` (anything with ``integers`` and
    ``random``) serves every draw instead.
    """

    def __init__(
        self,
        model: EmbeddingModel,
        vocab: Vocab,
        config: TrainConfig,
        rng=None,
        trace: TraceSink | None = None,
    ):
        self.model = model
        self.cfg = config
        if rng is None:
            streams = [kernel.CounterRng(config.seed, 0, s) for s in range(4)]
        else:
            streams = [rng] * 4
        # in the kernel's stream order: WINDOW, NEGATIVE, SUBSAMPLE, DROP
        self.window_rng, self.negative_rng, self.subsample_rng, self.drop_rng = streams
        self.trace = trace
        self.subwords = build_subword_cache(vocab, config.subword_config())
        self._discard = vocab.discard_probs(config.t)
        self._subsample_active = bool((self._discard > 0).any())
        self._bounds = negative_bounds(vocab)
        self.n_updates = 0
        self.tokens_seen = 0
        self._skipgram, self._bag_rule = SCHEDULES[config.variant or config.model_kind]

    # -- sampling ----------------------------------------------------------

    def draw_negatives(self, target: int) -> np.ndarray:
        """Sample up to ``negatives`` ids from the unigram^0.75 table, none equal to ``target``.

        Each draw is a uniform slot of the table, read as the word whose run
        in :func:`cbos.corpus.negative_bounds` holds it. A collision with the
        target is redrawn up to ``NEGATIVE_RETRY_LIMIT`` times, then that
        slot is dropped (the update simply uses one negative fewer). A
        single-word vocabulary therefore yields no negatives.
        """
        k = self.cfg.negatives
        if k == 0:  # draws nothing, so the stream does not move
            return np.empty(0, dtype=np.int32)
        rng, bounds = self.negative_rng, self._bounds
        slots = int(bounds[-1])
        kept: list[int] = []
        for value in np.searchsorted(bounds, rng.integers(0, slots, size=k), side="right").tolist():
            if value != target:
                kept.append(value)
                continue
            for _ in range(NEGATIVE_RETRY_LIMIT):
                redrawn = int(np.searchsorted(bounds, rng.integers(0, slots), side="right"))
                if redrawn != target:
                    kept.append(redrawn)
                    break
        return np.array(kept, dtype=np.int32)

    # -- shared machinery --------------------------------------------------

    def _update(
        self, input_ids: np.ndarray, target: int, lr: float, phase: str, position: int
    ) -> float:
        hidden = compute_hidden(input_ids, self.model)
        negatives = self.draw_negatives(target)
        loss = ns_update(hidden, target, negatives, lr, self.model)
        self.n_updates += 1
        if self.trace is not None:
            self.trace(
                TraceEvent(
                    phase=phase,
                    input_ids=tuple(int(i) for i in np.atleast_1d(input_ids)),
                    target_id=int(target),
                    position=position,
                    variant=self.cfg.variant,
                )
            )
        return loss

    @staticmethod
    def _context(n: int, pos: int, b: int) -> list[int]:
        lo = pos - b
        if lo < 0:
            lo = 0
        hi = pos + b
        if hi > n - 1:
            hi = n - 1
        return [j for j in range(lo, hi + 1) if j != pos]

    def _bag_ids(self, sentence: list[int], positions: list[int]) -> np.ndarray:
        return np.concatenate([self.subwords[sentence[j]] for j in positions])

    # -- schedule ----------------------------------------------------------

    def step(
        self,
        sentence: list[int],
        pos: int,
        b: int,
        lr: float,
        p_index: int | None = None,
    ) -> float:
        """Run the configured schedule at ``pos`` with window ``b``; return the summed loss.

        ``p_index`` (an index into the left-to-right context list) overrides
        the random choice of the dropped word in drop-one bag rules;
        instrumentation and tests use it to force a particular replay.
        """
        ctx = self._context(len(sentence), pos, b)
        loss = 0.0
        if self._skipgram:
            ids = self.subwords[sentence[pos]]
            for j in ctx:
                loss += self._update(ids, sentence[j], lr, "skipgram", pos)
        if self._bag_rule is not None:
            for bag, target in self._bag_rule(sentence, pos, ctx, self.drop_rng, p_index):
                loss += self._update(
                    self._bag_ids(sentence, bag), sentence[target], lr, "bag", pos
                )
        return loss

    cbos_step = step

    # -- sentence loop -----------------------------------------------------

    def prepare_sentence(self, ids: np.ndarray) -> tuple[list[int], int]:
        """Drop out-of-vocabulary ids (-1) of one encoded sentence and subsample the rest.

        Returns (kept ids, in-vocabulary count). ``ids`` is one sentence of
        :meth:`cbos.kernel.VocabIndex.encode`, as the kernel reads it.
        """
        ids = np.asarray(ids, dtype=np.int64)
        ids = ids[ids >= 0]
        scanned = ids.size
        self.tokens_seen += scanned
        if scanned and self._subsample_active:
            ids = ids[self.subsample_rng.random(scanned) >= self._discard[ids]]
        return ids.tolist(), scanned

    def train_sentence(self, sentence: list[int], lr: float) -> None:
        """Run :meth:`step` at every position with per-position windows."""
        if not sentence:
            return
        bs = self.window_rng.integers(1, self.cfg.ws + 1, size=len(sentence)).tolist()
        for pos in range(len(sentence)):
            self.step(sentence, pos, bs[pos], lr)


# -- corpus slicing --------------------------------------------------------


def iter_slice_chunks(path: str, worker_id: int, n_workers: int) -> Iterator[bytes]:
    """Blocks of whole lines that together hold every line starting in this worker's byte range.

    The file is split into ``n_workers`` equal byte ranges; a worker whose
    range starts mid-line skips forward to the next newline, so every line
    is processed by exactly one worker. A block holds about ``CHUNK_BYTES``
    bytes, extended to the end of its last line.
    """
    size = os.path.getsize(path)
    start = size * worker_id // n_workers
    end = size * (worker_id + 1) // n_workers
    with open(path, "rb") as handle:
        if start > 0:
            handle.seek(start - 1)
            handle.readline()
        for _offset, block in iter_line_blocks(handle, end, CHUNK_BYTES):
            yield block


# -- worker loop -----------------------------------------------------------


@dataclass
class TrainStats:
    duration: float
    tokens_scanned: int
    tokens_per_sec: float
    updates: int  # skipgram_updates + bag_updates
    avg_loss: float
    skipgram_updates: int
    bag_updates: int


@dataclass
class TrainResult:
    model: EmbeddingModel
    vocab: Vocab
    config: TrainConfig
    stats: TrainStats


# Each worker's kernel adds only to its own row of the (workers, kernel.N_SLOTS)
# slot array, so the column sums are exact totals (counts stay exact in
# float64 below 2**53).
def _totals(slots: np.ndarray) -> tuple[int, float, int, int]:
    """Tokens scanned, summed loss, skip-gram and bag updates over every worker's row."""
    tokens, loss, skipgram, bag = slots.sum(axis=0)
    return int(tokens), loss, int(skipgram), int(bag)


def _print_progress(
    out: IO[str], slots: np.ndarray, total: int, lr0: float, t0: float
) -> None:
    done, loss, skipgram, bag = _totals(slots)
    updates = skipgram + bag
    pct = 100.0 * min(1.0, done / total) if total else 100.0
    lr = lr_schedule(lr0, done, total)
    avg = loss / updates if updates else float("nan")
    tps = done / max(time.monotonic() - t0, 1e-9)
    out.write(
        f"\rprogress: {pct:5.1f}% lr: {lr:.6f} loss: {avg:.4f} tokens/sec: {tps:.0f}"
    )
    out.flush()


_PHASES = ("skipgram", "bag")


def train(
    config: TrainConfig,
    corpus_path: str,
    *,
    vocab: Vocab | None = None,
    trace: TraceSink | None = None,
    progress: IO[str] | None = None,
) -> TrainResult:
    """Train a model on a one-sentence-per-line corpus file.

    Builds the vocabulary (unless one is supplied; then the corpus is only
    decoded once), then this run's own discard probabilities,
    negative-sampling run ends and subword cache, loads the compiled kernel
    (building it on first use; a missing C compiler raises
    ``RuntimeError``) and builds its guide table over the run ends, then
    runs ``config.epochs`` passes with ``config.workers``
    workers over equal byte-range slices of the corpus. ``stats.duration``
    covers the training passes only, not vocabulary I/O. With ``progress``,
    a progress line is rewritten there about twice a second.

    The strict decoder reads the whole corpus once before any block is
    trained, so invalid UTF-8 raises :class:`cbos.corpus.CorpusDecodeError`
    at its file offset, at every worker count; the kernel's encoder only
    splits.

    Tracing requires ``workers=1``; multi-worker runs share matrices without
    locks and are not bit-reproducible. The kernel hands ``trace`` each
    event as it makes the prediction, so tracing keeps no buffer; what
    ``trace`` raises stops the run and is raised here. When a worker fails,
    the others stop before their next block, and the lowest-numbered failing
    worker's own exception is raised here, so an error reads the same at
    every worker count. A signal that kills the process ends every worker
    with it.
    """
    if trace is not None and config.workers != 1:
        raise ValueError("tracing requires workers=1")
    if vocab is None:
        vocab = build_vocab_from_file(corpus_path, config.min_count)
    else:
        check_utf8(corpus_path)
    discard = vocab.discard_probs(config.t)
    bounds = negative_bounds(vocab)
    subwords = build_subword_cache(vocab, config.subword_config())
    # Also loads (or builds) the kernel: outside the timed passes, once for all workers.
    index = kernel.VocabIndex(vocab.words)
    guide, guide_shift = kernel.negative_guide(bounds)
    model = init_model(
        len(vocab), config.bucket_rows, config.dim, config.seed, minn=config.minn, maxn=config.maxn
    )

    total_expected = vocab.total_tokens * config.epochs
    slots = np.zeros((config.workers, kernel.N_SLOTS), dtype=np.float64)
    arrays = dict(
        inp=model.input_matrix,
        out=model.output_matrix,
        row_off=subwords.offsets,
        rows=subwords.ids.astype(np.int32),
        bounds=bounds,
        guide=guide,
        discard=discard,
        slots=slots,
    )
    skipgram, bag_rule = SCHEDULES[config.variant or config.model_kind]
    stop = threading.Event()  # set by any worker's failure; every worker checks it before each block
    t0 = time.monotonic()

    def emit(phase: int, position: int, target: int, rows: list[int]) -> None:
        trace(TraceEvent(_PHASES[phase], tuple(rows), target, position, config.variant))

    def run_slice(worker_id: int, on_event: Callable | None, progress_out: IO[str] | None) -> None:
        """Train this worker's byte slice of the corpus for every epoch in one kernel job."""
        job = kernel.ChunkTrainer(
            arrays,
            on_event,
            seed=config.seed % 2**64,
            worker=worker_id,
            lr0=config.lr0,
            lr_floor=LR_FLOOR,
            clamp=SIGMOID_CLAMP,
            total=total_expected,
            n_workers=config.workers,
            table_size=int(bounds[-1]),
            guide_shift=guide_shift,
            dim=config.dim,
            max_rows=int(np.diff(subwords.offsets).max()),
            negatives=config.negatives,
            ws=config.ws,
            window_max=VARIABLE_WINDOW_MAX,
            retry_limit=NEGATIVE_RETRY_LIMIT,
            skipgram=int(skipgram),
            bag_rule=KERNEL_BAG_RULES.index(bag_rule),
            subsample=int((discard > 0).any()),
        )
        last_print = time.monotonic()
        try:
            for _epoch in range(config.epochs):
                for block in iter_slice_chunks(corpus_path, worker_id, config.workers):
                    if stop.is_set():
                        return
                    encoded = index.encode(block)
                    job.train_chunk(*encoded)
                    del encoded  # free this block's ids before the next block's are allocated
                    if progress_out is not None:
                        now = time.monotonic()
                        if now - last_print >= 0.5:
                            _print_progress(progress_out, slots, total_expected, config.lr0, t0)
                            last_print = now
        except BaseException:
            stop.set()
            raise

    # Worker 0 runs here; at workers=1 no thread starts, as the pool starts its threads on submit.
    with ThreadPoolExecutor(max(1, config.workers - 1)) as pool:
        others = [pool.submit(run_slice, w, None, None) for w in range(1, config.workers)]
        try:
            run_slice(0, emit if trace is not None else None, progress)
            for future in others:  # waits for each worker in turn, raising its own exception
                future.result()
        except BaseException:  # also stops the others when an interrupt comes during the wait
            stop.set()
            raise

    duration = time.monotonic() - t0
    if progress is not None:
        _print_progress(progress, slots, total_expected, config.lr0, t0)
        progress.write("\n")
        progress.flush()
    scanned, loss, skipgram_updates, bag_updates = _totals(slots)
    updates = skipgram_updates + bag_updates
    stats = TrainStats(
        duration=duration,
        tokens_scanned=scanned,
        tokens_per_sec=scanned / max(duration, 1e-9),
        updates=updates,
        avg_loss=float(loss / updates) if updates else float("nan"),
        skipgram_updates=skipgram_updates,
        bag_updates=bag_updates,
    )
    return TrainResult(model=model, vocab=vocab, config=config, stats=stats)
