"""The benchmark workloads and the measured rounds they run.

Every round trains cbos on a seeded corpus at 1 worker without n-grams,
then reads back, queries and re-saves a model. What differs is where the
work goes:

* ``words``: time goes to the per-update Python path (``ns_update``,
  ``compute_hidden``, the step methods, negative draws, subsampling) on
  1-row inputs and bags of at most 10 rows. Its query side is the small
  trained model, so persist and analogy do almost nothing.
* ``query``: the query side dominates. A generated 2M-bucket model with a
  10k-word vocabulary and character n-grams 3-6 is saved, reloaded and
  queried with semantic and ``gram`` analogy questions and in-vocabulary
  and unseen-word neighbour queries. It also trains the ``words`` cbos
  config, because every workload reports every end-to-end metric; that
  part is identical to ``words``.

Each round is a closed loop: one caller, one operation at a time. The
traced run (:func:`run_traced`) also trains cbow and skipgram, for the
per-schedule throughputs and quality probes, and cbos at ``nproc``
workers, for the worker speedup.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import cbos.analogy as analogy
import cbos.cli as cli
import cbos.persist as persist
import cbos.trainer as trainer
from cbos.corpus import Vocab
from cbos.model import EmbeddingModel, composed_word_matrix

from inputs import CorpusSpec, QuerySpec, query_matrices

NPROC = len(os.sched_getaffinity(0))
SCHEDULES = ("cbow", "skipgram", "cbos")
CORPUS = CorpusSpec(tokens=150_000, background_words=500, pairs=8, topic_share=0.2, pair_share=0.4)
HYPER = dict(dim=100, ws=5, negatives=5, t=1e-4, min_count=5, epochs=2, lr0=0.2, minn=0, maxn=0, bucket=0)
NN_K = 10
CHECK_SAMPLE = 25
# A shared machine runs this code up to ~1.5x slower or faster for seconds
# at a time. So each figure is the median of many samples spread over the
# run: of the rounds' trainings, and of the query calls that repeat in
# cycles after each training.
VEC_PRECISION = 4


@dataclass(frozen=True)
class Workload:
    name: str
    query: QuerySpec | None = None  # None: query the trained cbos model
    burst_seconds: float = 3.0  # the query cycles after each training last this long (at least one)
    save_every: int = 1  # re-save in cycles 0, save_every, 2 * save_every, ... of each burst

    def config(self, kind: str, seed: int, workers: int = 1) -> trainer.TrainConfig:
        return trainer.TrainConfig(model_kind=kind, workers=workers, seed=seed, **HYPER)


WORKLOADS = {
    "words": Workload("words"),
    # One evaluate of the 2M-bucket model takes ~1 s and one re-save ~3 s, so
    # its bursts are longer and re-save in every third cycle: the two rounds
    # of a run then give ~11 evaluates and 4 re-saves.
    "query": Workload("query", query=QuerySpec(), burst_seconds=12.0, save_every=3),
}


@dataclass
class Inputs:
    """Paths of one run's generated inputs (see ``run.py``)."""

    rundir: str
    seed: int
    corpus: str
    planted: str
    lexicon: dict
    query_prefix: str | None


@dataclass
class Checks:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def sync(path: str) -> None:
    """Write a saved file back to disk now, so that its write-back does not overlap later timings."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def model_digest(model: EmbeddingModel, vocab: Vocab) -> str:
    h = hashlib.sha256()
    for matrix in (model.input_matrix, model.output_matrix):
        h.update(np.ascontiguousarray(matrix, dtype="<f4").data)
    h.update(json.dumps([vocab.words, vocab.counts.tolist()]).encode())
    return h.hexdigest()


def unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 unit rows and a mask of rows too short to normalize."""
    m = matrix.astype(np.float64)
    norms = np.sqrt((m * m).sum(axis=1))
    degenerate = norms < analogy.NORM_EPSILON
    norms[degenerate] = 1.0
    return m / norms[:, None], degenerate


def topic_margin(model: EmbeddingModel, vocab: Vocab, lexicon: dict) -> float:
    """Mean intra-topic cosine minus mean inter-topic cosine (acceptance criterion 6)."""
    unit, _ = unit_rows(composed_word_matrix(model, vocab))
    a = [vocab.word2id[w] for w in lexicon["topic_a"]]
    b = [vocab.word2id[w] for w in lexicon["topic_b"]]
    sims = unit @ unit.T

    def intra(ids):
        block = sims[np.ix_(ids, ids)]
        return (block.sum() - len(ids)) / (len(ids) * (len(ids) - 1))

    return float(0.5 * (intra(a) + intra(b)) - sims[np.ix_(a, b)].mean())


# -- training --------------------------------------------------------------


@dataclass
class Trained:
    result: trainer.TrainResult | None
    tokens: int  # vocab.total_tokens x epochs: the trainer's own counters race across workers
    duration: float
    setup: float
    margin: float
    accuracy: float
    digest: str | None = None

    @property
    def tok_s(self) -> float:
        return self.tokens / self.duration


def train_one(workload, kind, inputs, checks, workers=1, trace=None, quiet=contextlib.nullcontext) -> Trained:
    cfg = workload.config(kind, inputs.seed, workers)
    t0 = time.perf_counter()
    result = trainer.train(cfg, inputs.corpus, trace=trace)
    wall = time.perf_counter() - t0
    model = result.model
    checks.expect(
        bool(np.isfinite(model.input_matrix).all() and np.isfinite(model.output_matrix).all()),
        f"{kind}: trained matrices are not finite",
    )
    with quiet():
        report = analogy.evaluate(model, result.vocab, analogy.load_analogy_file(inputs.planted))
        margin = topic_margin(model, result.vocab, inputs.lexicon)
    return Trained(
        result=result,
        tokens=result.vocab.total_tokens * cfg.epochs,
        duration=result.stats.duration,
        setup=wall - result.stats.duration,
        margin=margin,
        accuracy=report.total_acc or 0.0,
    )


# -- query side ------------------------------------------------------------


@dataclass
class Source:
    """The model the query side saves, with the words it is queried on."""

    model: EmbeddingModel
    vocab: Vocab
    config: trainer.TrainConfig
    questions: str
    nn_words: list[str]


def generated_source(inputs: Inputs, spec: QuerySpec) -> Source:
    prefix = inputs.query_prefix
    with open(prefix + ".json", encoding="utf-8") as handle:
        meta = json.load(handle)
    input_matrix, output_matrix = query_matrices(inputs.seed, spec)
    model = EmbeddingModel(
        input_matrix=input_matrix,
        output_matrix=output_matrix,
        dim=spec.dim,
        bucket=spec.bucket,
        minn=spec.minn,
        maxn=spec.maxn,
    )
    config = trainer.TrainConfig(dim=spec.dim, minn=spec.minn, maxn=spec.maxn, bucket=spec.bucket)
    return Source(
        model,
        Vocab(meta["words"], meta["counts"]),
        config,
        prefix + ".questions.txt",
        meta["nn_in_vocab"] + meta["nn_oov"],
    )


def trained_source(trained: Trained, inputs: Inputs) -> Source:
    """The trained cbos model, queried on every vocabulary word."""
    result = trained.result
    return Source(result.model, result.vocab, result.config, inputs.planted, list(result.vocab.words))


@dataclass
class Saved:
    """A model written by save_bin and save_vec, and what reading it back must give."""

    bin_path: str
    vec_path: str
    digest: str
    config: trainer.TrainConfig
    questions: str
    nn_words: list[str]


@dataclass
class Samples:
    """Times of the query-side calls over the bursts of a run; the figures are their medians."""

    setup: list[float] = field(default_factory=list)  # load_bin plus the first VectorSpace
    save_bin: list[float] = field(default_factory=list)
    save_vec: list[float] = field(default_factory=list)
    evaluate: list[float] = field(default_factory=list)
    nn_pass: list[float] = field(default_factory=list)  # one pass over every neighbour query
    questions: int = 0
    queries: int = 0

    def metrics(self) -> dict[str, float]:
        return {
            "save_s": float(np.median(self.save_bin) + np.median(self.save_vec)),
            "analogy_q_s": self.questions / float(np.median(self.evaluate)),
            "nn_q_s": self.queries / float(np.median(self.nn_pass)),
        }


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def query_burst(
    workload: Workload, saved: Saved, samples: Samples, checks: Checks | None, quiet=contextlib.nullcontext
) -> None:
    """load_bin and the first VectorSpace, then cycles of evaluate, every neighbour query and a re-save.

    The cycles repeat for the workload's ``burst_seconds`` (at least once),
    re-saving in the first and then every ``save_every``-th, so that the
    samples of each operation spread over the whole burst. With ``checks``,
    also verifies the reload, the .vec file and sampled answers against
    brute force (outside the timed calls).
    """
    t0 = time.perf_counter()
    model, vocab, config = persist.load_bin(saved.bin_path)
    space = analogy.VectorSpace(model, vocab)
    samples.setup.append(time.perf_counter() - t0)

    dataset = analogy.load_analogy_file(saved.questions)
    samples.questions, samples.queries = len(dataset), len(saved.nn_words)
    results = []
    end = time.perf_counter() + workload.burst_seconds
    cycle = 0
    while not results or time.perf_counter() < end:
        samples.evaluate.append(timed(lambda: analogy.evaluate(model, vocab, dataset)))
        t1 = time.perf_counter()
        results = [analogy.nearest_neighbors(model, vocab, w, NN_K, space=space) for w in saved.nn_words]
        samples.nn_pass.append(time.perf_counter() - t1)
        if cycle % workload.save_every == 0:
            samples.save_bin.append(timed(lambda: persist.save_bin(model, vocab, config, saved.bin_path)))
            sync(saved.bin_path)
            samples.save_vec.append(
                timed(lambda: persist.save_vec(model, vocab, saved.vec_path, precision=VEC_PRECISION))
            )
            sync(saved.vec_path)
        cycle += 1

    if checks is not None:
        checks.expect(
            model_digest(model, vocab) == saved.digest and config == saved.config,
            "load_bin is not bit-identical to the saved model",
        )
        with quiet():
            composed = composed_word_matrix(model, vocab)
            check_queries(model, vocab, space, composed, dataset, saved.nn_words, results, checks)
        words, matrix = persist.load_vec(saved.vec_path)
        checks.expect(
            words == vocab.words
            and bool(np.all(np.abs(matrix - composed) <= 0.5 * 10.0**-VEC_PRECISION + 1e-6 * (1 + np.abs(composed)))),
            "load_vec differs from composed_word_matrix beyond the printed precision",
        )


def check_queries(model, vocab, space, composed, dataset, nn_words, results, checks) -> None:
    """Sampled predict_id and nearest_neighbors answers against float64 brute force."""
    unit, degenerate = unit_rows(composed)
    rng = np.random.default_rng(0)
    in_vocab = [q for q in dataset if all(w in vocab for w in q.words)]
    for qi in rng.choice(len(in_vocab), size=min(CHECK_SAMPLE, len(in_vocab)), replace=False):
        ia, ib, ic = (vocab.word2id[w] for w in in_vocab[qi].words[:3])
        if degenerate[[ia, ib, ic]].any():
            continue
        scores = unit @ (unit[ib] - unit[ia] + unit[ic])
        scores[[ia, ib, ic]] = -np.inf
        scores[degenerate] = -np.inf
        expected = int(np.flatnonzero(scores == scores.max())[0])  # lowest id wins ties
        checks.expect(space.predict_id(ia, ib, ic) == expected, f"predict_id({ia},{ib},{ic})")

    for qi in rng.choice(len(nn_words), size=min(CHECK_SAMPLE, len(nn_words)), replace=False):
        word = nn_words[qi]
        own = vocab.id_of(word)
        vec = composed[own] if own is not None else analogy.word_vector(model, vocab, word)
        vec = vec.astype(np.float64)
        scores = unit @ (vec / np.linalg.norm(vec))
        scores[degenerate] = -np.inf
        if own is not None:
            scores[own] = -np.inf
        order = np.argsort(-scores, kind="stable")[:NN_K]
        got = results[qi]
        checks.expect(
            [w for w, _ in got] == [vocab.words[i] for i in order]
            and np.allclose([s for _, s in got], scores[order], rtol=0, atol=1e-9),
            f"nearest_neighbors({word!r}) differs from a full argsort",
        )


def save_source(workload, inputs, cbos: Trained) -> Saved:
    """Save this workload's query model (the trained cbos model, or the generated one), untimed."""
    if workload.query is None:
        source = trained_source(cbos, inputs)
    else:
        source = generated_source(inputs, workload.query)
    saved = Saved(
        os.path.join(inputs.rundir, "model.cbos"),
        os.path.join(inputs.rundir, "model.vec"),
        model_digest(source.model, source.vocab),
        source.config,
        source.questions,
        source.nn_words,
    )
    persist.save_bin(source.model, source.vocab, source.config, saved.bin_path)
    persist.save_vec(source.model, source.vocab, saved.vec_path, precision=VEC_PRECISION)
    sync(saved.bin_path)
    sync(saved.vec_path)
    return saved


# -- rounds ----------------------------------------------------------------


def one_round(workload, inputs, checks, samples: Samples, saved: Saved | None) -> tuple[Trained, Saved]:
    """Train cbos, then read back, query and re-save the query model.

    The first round saves the query model (the trained cbos model, or the
    generated one); later rounds query and re-save that file, so no model
    is held while the next one trains.
    """
    t = train_one(workload, "cbos", inputs, checks)
    first = saved is None
    if first:
        saved = save_source(workload, inputs, t)
    t.digest = model_digest(t.result.model, t.result.vocab)
    t.result = None
    query_burst(workload, saved, samples, checks if first else None)
    return t, saved


def run_untraced(workload, inputs, seconds: float, checks: Checks) -> dict[str, float]:
    """Whole rounds until ``seconds`` have passed (at least one); every figure is a median.

    Throughput is the median over rounds of a training's exact tokens over
    its ``stats.duration``; query-side times are medians over every cycle
    of the run.
    """
    rounds: list[Trained] = []
    samples = Samples()
    saved = None
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        t, saved = one_round(workload, inputs, checks, samples, saved)
        rounds.append(t)
        print(
            f"bench: round {len(rounds)} took {time.perf_counter() - t0:.1f} s, "
            f"cbos {t.tok_s:.0f} tokens/s",
            file=sys.stderr,
        )
    check_determinism(workload, inputs, [t.digest for t in rounds], checks)
    metrics = {
        "setup_s": float(np.median([t.setup for t in rounds]) + np.median(samples.setup)),
        "cbos_tok_s": float(np.median([t.tok_s for t in rounds])),
        "topic_margin": float(np.median([t.margin for t in rounds])),
        "analogy_acc": float(np.median([t.accuracy for t in rounds])),
    }
    metrics.update(samples.metrics())
    return metrics


def cbos_sources() -> dict[str, bytes]:
    """The source files of the ``cbos`` package under test, by file name."""
    src = os.path.dirname(os.path.abspath(trainer.__file__))
    out = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                out[name] = handle.read()
    return out


def src_lines() -> int:
    """Non-blank lines of the ``cbos`` sources."""
    return sum(
        1 for text in cbos_sources().values() for line in text.decode().splitlines() if line.strip()
    )


def check_determinism(workload, inputs, digests, checks) -> None:
    """At 1 worker the cbos model is bit-identical across rounds and across runs of one seed.

    Runs are compared only when they ran the same ``cbos`` sources, so a
    change that alters the model's bits on purpose is not counted as failing.
    """
    for digest in digests[1:]:
        checks.expect(digest == digests[0], "cbos model differs between rounds at 1 worker")
    store = os.path.join(os.path.dirname(inputs.rundir), "digests.json")
    try:
        with open(store, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    code = hashlib.sha256()
    for name, text in cbos_sources().items():
        code.update(name.encode() + b"\0" + text + b"\0")
    key = f"{workload.name}:{inputs.seed}:{code.hexdigest()[:16]}"
    if key in known:
        checks.expect(known[key] == digests[0], "cbos model differs from an earlier run of this seed")
    known[key] = digests[0]
    with open(store, "w", encoding="utf-8") as handle:
        json.dump(known, handle)


# -- traced run ------------------------------------------------------------


def percentile_us(ns: np.ndarray, q: float) -> float:
    return float(np.percentile(ns, q)) / 1e3 if ns.size else 0.0


def run_traced(workload, inputs, checks: Checks) -> dict[str, float]:
    """Untraced reference trainings, then a traced cbos training and query side at 1 worker.

    Tracing records spans only at 1 worker: forked workers would record
    theirs in their own memory. The references give the 1-worker
    throughputs that trace.overhead, the worker speedup and the paper's
    time ratio compare, and the quality of the other two schedules.
    """
    from spans import NS_ADD_AT, Tracer

    plain = {kind: train_one(workload, kind, inputs, checks, workers=1) for kind in SCHEDULES}
    plain_digest = model_digest(plain["cbos"].result.model, plain["cbos"].result.vocab)
    for t in plain.values():
        t.result = None
    parallel = train_one(workload, "cbos", inputs, checks, workers=NPROC)
    parallel.result = None

    phases = {"skipgram": 0, "bag": 0}

    def sink(event) -> None:
        phases[event.phase] += 1

    tracer = Tracer().install()
    try:
        traced = train_one(workload, "cbos", inputs, checks, 1, sink, tracer.paused)
        digest = model_digest(traced.result.model, traced.result.vocab)
        saved = save_source(workload, inputs, traced)
        traced.result = None
        query_burst(workload, saved, Samples(), checks, tracer.paused)
        cli_s = run_cli(workload, inputs, saved.bin_path, checks)
    finally:
        tracer.uninstall()
    tracer.save(os.path.join(os.path.dirname(inputs.rundir), f"trace-{workload.name}.npz"))
    checks.expect(digest == plain_digest, "tracing changed the 1-worker cbos model")

    cols = tracer.arrays()
    dur = tracer.durations_ns()
    info = cols["info"]

    def calls(span):
        return tracer.select(span)

    def median_s(span):
        idx = calls(span)
        return float(np.median(dur[idx])) / 1e9 if idx.size else 0.0

    out: dict[str, float] = {}
    for span in (
        "corpus.build_vocab_from_file",
        "corpus.build_negative_table",
        "subword.build_subword_cache",
        "model.initialize_matrices",
        "analogy.composed_word_matrix",
        "analogy.VectorSpace",
        "persist.save_bin",
        "persist.save_vec",
        "persist.load_bin",
        "persist.load_vec",
    ):
        out[f"{span}.s"] = median_s(span)

    prep = calls("trainer.prepare_sentence")
    kept, scanned = info[prep] >> 20, info[prep] & ((1 << 20) - 1)
    out["corpus.subsample.keep_share"] = float(kept.sum() / max(scanned.sum(), 1))
    out["trainer.prepare_sentence.us_per_token"] = float(dur[prep].sum() / 1e3 / max(scanned.sum(), 1))

    caches = calls("subword.build_subword_cache")
    last = caches[-1:]  # the cache of the model the query side reads
    rows = (info[last] >> 20).sum()
    words = (info[last] & ((1 << 20) - 1)).sum()
    out["subword.rows_per_word.mean"] = float(rows / max(words, 1))

    ns = calls("model.ns_update")
    ns_rows = info[ns] & (NS_ADD_AT - 1)
    for label, lo, hi in (("rows1", 1, 1), ("rows2_10", 2, 10), ("rows11plus", 11, 1 << 29)):
        sel = dur[ns][(ns_rows >= lo) & (ns_rows <= hi)]
        out[f"model.ns_update.us.p50.{label}"] = percentile_us(sel, 50)
        out[f"model.ns_update.us.p99.{label}"] = percentile_us(sel, 99)
    out["model.ns_update.add_at_share"] = float(((info[ns] & NS_ADD_AT) != 0).mean()) if ns.size else 0.0
    ch = dur[calls("model.compute_hidden")]
    out["model.compute_hidden.us.p50"] = percentile_us(ch, 50)
    out["model.compute_hidden.us.p99"] = percentile_us(ch, 99)

    out["trainer.updates.skipgram"] = float(phases["skipgram"])
    out["trainer.updates.bag"] = float(phases["bag"])
    out["trainer.updates_per_token"] = (phases["skipgram"] + phases["bag"]) / traced.tokens
    draws = calls("trainer.draw_negatives")
    out["trainer.draw_negatives.us.p50"] = percentile_us(dur[draws], 50)
    out["trainer.draw_negatives.us.p99"] = percentile_us(dur[draws], 99)
    neg = HYPER["negatives"]
    out["trainer.draw_negatives.short_share"] = float((info[draws] < neg).mean()) if draws.size else 0.0
    sentences = calls("trainer.train_sentence")
    own = tracer.self_ns()
    out["trainer.train_sentence.self_share"] = float(own[sentences].sum() / max(dur[sentences].sum(), 1))
    out["trainer.speedup_nproc"] = parallel.tok_s / plain["cbos"].tok_s

    predicts = dur[calls("analogy.predict_id")]
    out["analogy.predict_id.us.p50"] = percentile_us(predicts, 50)
    out["analogy.predict_id.us.p99"] = percentile_us(predicts, 99)
    nn = calls("analogy.nearest_neighbors")
    for label, flag in (("inv", 0), ("oov", 1)):
        sel = dur[nn][info[nn] == flag]
        out[f"analogy.nearest_neighbors.us.p50.{label}"] = percentile_us(sel, 50)
        out[f"analogy.nearest_neighbors.us.p99.{label}"] = percentile_us(sel, 99)

    out["persist.cbos_mb"] = os.path.getsize(saved.bin_path) / 1e6
    out.update(cli_s)

    for kind in SCHEDULES:
        out[f"trainer.tok_s.{kind}"] = plain[kind].tok_s
    out["paper.cbos_over_cbow_time"] = plain["cbos"].duration / plain["cbow"].duration
    for kind in ("cbow", "skipgram"):
        out[f"quality.{kind}.topic_margin"] = plain[kind].margin
        out[f"quality.{kind}.analogy_acc"] = plain[kind].accuracy
    out["trace.overhead"] = traced.tok_s / plain["cbos"].tok_s
    out["trace.span_cost_ns"] = float(tracer.wrapper_ns().mean())
    out["repo.src_lines"] = float(src_lines())
    for span, seconds in tracer.self_seconds_by_name().items():
        out[f"self_s.{span}"] = seconds
    return out


def run_cli(workload, inputs, bin_path, checks) -> dict[str, float]:
    """Time one ``cbos nn`` and one ``cbos eval-analogy`` invocation on the saved model."""
    if workload.query is None:
        questions = inputs.planted
        word = inputs.lexicon["capitals"][0]
    else:
        questions = inputs.query_prefix + ".questions.txt"
        with open(inputs.query_prefix + ".json", encoding="utf-8") as handle:
            word = json.load(handle)["nn_in_vocab"][0]
    out = {}
    for name, argv in (
        ("nn", ["nn", "-model", bin_path, "-word", word, "-k", str(NN_K)]),
        ("eval-analogy", ["eval-analogy", "-model", bin_path, "-questions", questions]),
    ):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.run(argv)
        out[f"cli.run.{name}.s"] = time.perf_counter() - t0
        checks.expect(code == 0 and bool(captured.getvalue()), f"cbos {name} exited with {code}")
    return out
