"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single [PASS]/[FAIL] line
with the measured numbers (run with ``-s`` to see them live). Criteria with a
stated runtime budget include elapsed time in the pass condition. Nothing
here is tuned at test time: every configuration and expected number was fixed
in advance.
"""

import functools
import math
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import conftest
from cbos.analogy import AnalogyQuestion, VectorSpace, evaluate
from cbos.corpus import build_vocab
from cbos.model import (
    EmbeddingModel,
    composed_word_matrix,
    compute_hidden,
    init_model,
    ns_loss,
    ns_update,
)
from cbos.persist import load_bin, save_bin, save_vec
from cbos.trainer import TrainConfig, Trainer, train


def check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    conftest.GATE_LINES.append(line)
    assert ok, f"{name}: {detail}"


def vocab_of(words):
    tokens = []
    for i, w in enumerate(words):
        tokens.extend([w] * (len(words) + 1 - i))
    return build_vocab(tokens)


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, event):
        self.events.append(event)


# -- criterion 1: analytic gradients vs central finite differences ----------


def random_instance(seed):
    rng = np.random.default_rng(seed)
    v = int(rng.integers(4, 12))
    dim = int(rng.integers(2, 9))  # dim <= 8
    model = EmbeddingModel(
        input_matrix=rng.uniform(-0.5, 0.5, (v, dim)),
        output_matrix=rng.uniform(-0.5, 0.5, (v, dim)),
        dim=dim,
    )
    bag = rng.integers(0, v, size=int(rng.integers(1, 5)))
    target = int(rng.integers(0, v))
    negatives = rng.integers(0, v, size=int(rng.integers(0, 6)))  # <= 5
    return model, bag, target, negatives


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    eps = 1e-4
    worst = 0.0
    for seed in range(100):
        model, bag, target, negatives = random_instance(seed)
        probe = EmbeddingModel(
            input_matrix=model.input_matrix.copy(),
            output_matrix=model.output_matrix.copy(),
            dim=model.dim,
        )
        ns_update(compute_hidden(bag, probe), target, negatives, 1.0, probe)
        grads = (
            model.input_matrix - probe.input_matrix,
            model.output_matrix - probe.output_matrix,
        )
        for matrix, grad in zip((model.input_matrix, model.output_matrix), grads):
            for idx in np.ndindex(matrix.shape):
                keep = matrix[idx]
                matrix[idx] = keep + eps
                plus = ns_loss(compute_hidden(bag, model), target, negatives, model)
                matrix[idx] = keep - eps
                minus = ns_loss(compute_hidden(bag, model), target, negatives, model)
                matrix[idx] = keep
                fd = (plus - minus) / (2 * eps)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    check(
        "criterion 1 (gradient correctness)",
        ok,
        f"100 instances, max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 5s)",
    )


# -- criterion 2: analogy prediction vs exhaustive scorer -------------------


def brute_force_predict(rows, ia, ib, ic):
    def unit(row):
        norm = math.sqrt(sum(x * x for x in row))
        return [x / norm for x in row]

    ua, ub, uc = unit(rows[ia]), unit(rows[ib]), unit(rows[ic])
    query = [b - a + c for a, b, c in zip(ua, ub, uc)]
    best, best_score = None, -math.inf
    for i, row in enumerate(rows):
        if i in (ia, ib, ic):
            continue
        score = sum(q * u for q, u in zip(query, unit(row)))
        if score > best_score:
            best, best_score = i, score
    return best


def test_criterion_2_analogy_oracle_equivalence():
    t0 = time.monotonic()
    vocab = vocab_of([f"w{i:02d}" for i in range(50)])
    model = init_model(50, 0, 20, seed=11)
    space = VectorSpace(model, vocab)
    rows = model.input_matrix.astype(np.float64).tolist()
    rng = np.random.default_rng(17)
    matches = 0
    for _ in range(100):
        ia, ib, ic = (int(x) for x in rng.choice(50, size=3, replace=False))
        if space.predict_id(ia, ib, ic) == brute_force_predict(rows, ia, ib, ic):
            matches += 1
    elapsed = time.monotonic() - t0
    ok = matches == 100 and elapsed < 1.0
    check(
        "criterion 2 (analogy oracle equivalence)",
        ok,
        f"{matches}/100 questions match brute force, {elapsed:.2f}s (< 1s)",
    )


# -- criterion 3: per-position update counts --------------------------------


def per_position_expected(schedule: str, k: int) -> int:
    return {
        "skipgram": k,
        "cbow": 1 if k >= 1 else 0,
        "cbos": k + (1 if k >= 2 else 0),
        "next_word": k + (k - 1 if k >= 2 else 0),
        "central_word": 2 * k,
        "non_random": k + (1 if k >= 1 else 0),
    }[schedule]


def test_criterion_3_update_count_invariants():
    t0 = time.monotonic()
    n, lines = 20, 10  # 200 tokens
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        sentence = " ".join(f"w{i:02d}" for i in range(n))
        path.write_text("\n".join([sentence] * lines) + "\n")
        failures = []
        for schedule in (
            "skipgram",
            "cbow",
            "cbos",
            "next_word",
            "central_word",
            "non_random",
        ):
            kind = schedule if schedule in ("skipgram", "cbow") else "cbos"
            variant = None if kind != "cbos" or schedule == "cbos" else schedule
            cfg = TrainConfig(
                model_kind=kind,
                variant=variant,
                dim=6,
                ws=1,  # windows are deterministically b=1
                epochs=1,
                negatives=0,
                minn=0,
                maxn=0,
                bucket=0,
                min_count=1,
                t=1.0,
                seed=1,
            )
            rec = Recorder()
            train(cfg, str(path), trace=rec)
            got = Counter(e.position for e in rec.events)
            for pos in range(n):
                k = 1 if pos in (0, n - 1) else 2
                expected = lines * per_position_expected(schedule, k)
                if got.get(pos, 0) != expected:
                    failures.append((schedule, pos, got.get(pos, 0), expected))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5.0
    check(
        "criterion 3 (update-count invariants)",
        ok,
        f"6 schedules x 20 positions exact on 200 tokens, {elapsed:.1f}s (< 5s)"
        + (f"; mismatches: {failures[:3]}" if failures else ""),
    )


# -- criterion 4: reference-sentence replay ---------------------------------


def test_criterion_4_reference_sentence_replay():
    t0 = time.monotonic()
    tokens = "i am reading a paper about word embeddings".split()
    vocab = build_vocab(tokens)
    ids = [vocab.word2id[t] for t in tokens]
    cfg = TrainConfig(
        model_kind="cbos",
        dim=8,
        ws=2,
        epochs=1,
        negatives=0,
        minn=0,
        maxn=0,
        bucket=0,
        min_count=1,
        t=1.0,
        seed=1,
    )
    model = init_model(len(vocab), 0, cfg.dim, seed=1)
    rec = Recorder()
    trainer = Trainer(model, vocab, cfg, trace=rec)
    pos = tokens.index("paper")
    ctx = Trainer._context(len(ids), pos, 2)
    p_index = ctx.index(tokens.index("about"))  # force p = "about"
    trainer.cbos_step(ids, pos, 2, 0.01, p_index=p_index)

    skip = [e for e in rec.events if e.phase == "skipgram"]
    bags = [e for e in rec.events if e.phase == "bag"]
    word = lambda i: vocab.words[i]
    skip_ok = (
        len(skip) == 4
        and all(e.input_ids == (vocab.word2id["paper"],) for e in skip)
        and [word(e.target_id) for e in skip] == ["reading", "a", "about", "word"]
    )
    bag_ok = (
        len(bags) == 1
        and word(bags[0].target_id) == "about"
        and sorted(word(i) for i in bags[0].input_ids) == ["a", "reading", "word"]
    )
    elapsed = time.monotonic() - t0
    ok = skip_ok and bag_ok and elapsed < 1.0
    check(
        "criterion 4 (reference-sentence replay)",
        ok,
        f"4 center->context events + bag {{reading, a, word}} -> about, "
        f"{elapsed:.2f}s (< 1s)",
    )


# -- criterion 5: bit-identical reruns --------------------------------------


def test_criterion_5_determinism():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    words = [f"base{i:02d}" for i in range(30)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        with open(path, "w") as out:
            size = 0
            while size < 10 * 1024:  # 10 KB
                line = " ".join(rng.choice(words, size=9)) + "\n"
                out.write(line)
                size += len(line)
        cfg = dict(
            model_kind="cbos",
            dim=24,
            ws=3,
            epochs=2,
            negatives=3,
            minn=3,
            maxn=4,
            bucket=2000,
            min_count=2,
            t=1e-3,
            seed=9,
        )
        blobs = []
        for run_idx in range(2):
            result = train(TrainConfig(**cfg), str(path))
            out_path = Path(tmp) / f"run{run_idx}.cbos"
            save_bin(result.model, result.vocab, result.config, str(out_path))
            blobs.append(out_path.read_bytes())
    elapsed = time.monotonic() - t0
    ok = blobs[0] == blobs[1] and elapsed < 10.0
    check(
        "criterion 5 (determinism)",
        ok,
        f"two runs, {len(blobs[0])}-byte .cbos files "
        f"{'identical' if blobs[0] == blobs[1] else 'DIFFER'}, "
        f"{elapsed:.1f}s (< 10s)",
    )


# -- criterion 6: topic separation ------------------------------------------


TOPIC_A = ["apple", "pear", "plum", "grape", "melon", "mango", "peach", "cherry"]
TOPIC_B = ["iron", "copper", "zinc", "nickel", "cobalt", "tin", "lead", "silver"]


def topic_margin(result):
    matrix = composed_word_matrix(result.model, result.vocab).astype(np.float64)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    ids_a = [result.vocab.word2id[w] for w in TOPIC_A]
    ids_b = [result.vocab.word2id[w] for w in TOPIC_B]
    sims = matrix @ matrix.T

    def mean_intra(ids):
        block = sims[np.ix_(ids, ids)]
        return (block.sum() - len(ids)) / (len(ids) * (len(ids) - 1))

    intra = 0.5 * (mean_intra(ids_a) + mean_intra(ids_b))
    inter = sims[np.ix_(ids_a, ids_b)].mean()
    return float(intra - inter)


def test_criterion_6_learning_sanity():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "topics.txt"
        with open(path, "w") as out:
            written = 0
            while written < 50_000:  # tokens; topics never share a sentence
                topic = TOPIC_A if rng.random() < 0.5 else TOPIC_B
                out.write(" ".join(rng.choice(topic, size=10)) + "\n")
                written += 10
        margins = {}
        for kind in ("cbow", "skipgram", "cbos"):
            cfg = TrainConfig(
                model_kind=kind,
                dim=20,
                ws=1,
                epochs=5,
                negatives=2,
                minn=0,
                maxn=0,
                bucket=0,
                min_count=1,
                t=1.0,
                seed=1,
            )
            margins[kind] = topic_margin(train(cfg, str(path)))
    elapsed = time.monotonic() - t0
    ok = all(m >= 0.2 for m in margins.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} {v:+.2f}" for k, v in margins.items())
    check(
        "criterion 6 (learning sanity)",
        ok,
        f"intra-inter cosine margins {detail} (each >= 0.2), {elapsed:.1f}s (< 60s)",
    )


# -- criterion 7: templated analogy recovery --------------------------------


PAIRS = [
    ("paris", "france"),
    ("rome", "italy"),
    ("berlin", "germany"),
    ("madrid", "spain"),
    ("lisbon", "portugal"),
    ("vienna", "austria"),
    ("oslo", "norway"),
    ("dublin", "ireland"),
]


def pair_questions():
    return [
        AnalogyQuestion(cap_i, country_i, cap_j, country_j, "capitals")
        for i, (cap_i, country_i) in enumerate(PAIRS)
        for j, (cap_j, country_j) in enumerate(PAIRS)
        if i != j
    ]


def write_pair_corpus(directory: str) -> str:
    """8 pairs x 500 sentences; both pair words flank a pair-specific link word."""
    fillers = [f"filler{i:02d}" for i in range(40)]
    rng = np.random.default_rng(0)
    lines = []
    for idx, (capital, country) in enumerate(PAIRS):
        for _ in range(500):
            f = rng.choice(fillers, size=2)
            lines.append(
                f"{f[0]} city {capital} link{idx} {country} nation {f[1]}"
            )
    rng.shuffle(lines)
    path = Path(directory) / "pairs.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def pair_config(seed: int, workers: int = 1) -> TrainConfig:
    return TrainConfig(
        model_kind="cbos",
        dim=50,
        ws=1,
        epochs=10,
        negatives=3,
        minn=0,
        maxn=0,
        bucket=0,
        min_count=1,
        t=1.0,
        workers=workers,
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def pair_accuracies(workers: int) -> tuple[float, ...]:
    questions = pair_questions()
    accs = []
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write_pair_corpus(tmp)
        for seed in (1, 2, 3):
            result = train(pair_config(seed, workers), corpus)
            report = evaluate(result.model, result.vocab, questions)
            accs.append(report.total_acc)
    return tuple(accs)


def test_criterion_7_micro_analogy_recovery():
    t0 = time.monotonic()
    accs = pair_accuracies(workers=1)
    median = float(np.median(accs))
    elapsed = time.monotonic() - t0
    ok = median >= 50.0 and elapsed < 120.0
    check(
        "criterion 7 (micro-analogy recovery)",
        ok,
        f"56 questions, per-seed accuracy {[f'{a:.0f}%' for a in accs]}, "
        f"median {median:.0f}% (>= 50%), {elapsed:.1f}s (< 120s)",
    )


# -- criterion 8: multi-worker throughput and accuracy ----------------------


def test_criterion_8_throughput_scaling():
    t0 = time.monotonic()
    words = TOPIC_A + TOPIC_B
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "big.txt"
        with open(path, "w") as out:
            size = 0
            while size < 5 * 1024 * 1024:  # 5 MB
                line = " ".join(rng.choice(words, size=12)) + "\n"
                out.write(line)
                size += len(line)

        def tokens_per_sec(workers: int) -> float:
            cfg = TrainConfig(
                model_kind="cbow",
                dim=25,
                ws=2,
                epochs=1,
                negatives=3,
                minn=0,
                maxn=0,
                bucket=0,
                min_count=1,
                t=1.0,
                workers=workers,
                seed=1,
            )
            return train(cfg, str(path)).stats.tokens_per_sec

        tps1 = tokens_per_sec(1)
        tps4 = tokens_per_sec(4)
    ratio = tps4 / tps1
    base = pair_accuracies(workers=1)
    parallel = pair_accuracies(workers=4)
    degradation = float(np.median(base) - np.median(parallel))
    elapsed = time.monotonic() - t0
    ok = ratio >= 2.0 and degradation <= 10.0
    check(
        "criterion 8 (throughput scaling)",
        ok,
        f"4-worker speedup {ratio:.2f}x (>= 2x required), accuracy degradation "
        f"{degradation:.1f} points (<= 10), {elapsed:.1f}s",
    )


# -- criterion 10: persistence ----------------------------------------------


def test_criterion_10_persistence():
    t0 = time.monotonic()
    vocab = vocab_of([f"word{i:02d}" for i in range(40)])
    model = init_model(40, 120, 16, seed=21, minn=2, maxn=3)
    rng = np.random.default_rng(5)
    model.output_matrix[:] = rng.uniform(-1, 1, model.output_matrix.shape).astype(
        np.float32
    )
    config = TrainConfig(dim=16, minn=2, maxn=3, bucket=120, min_count=1)
    with tempfile.TemporaryDirectory() as tmp:
        bin_path = Path(tmp) / "m.cbos"
        save_bin(model, vocab, config, str(bin_path))
        loaded_model, loaded_vocab, loaded_config = load_bin(str(bin_path))
        again = Path(tmp) / "again.cbos"
        save_bin(loaded_model, loaded_vocab, loaded_config, str(again))
        bit_identical = (
            bin_path.read_bytes() == again.read_bytes()
            and np.array_equal(loaded_model.input_matrix, model.input_matrix)
            and np.array_equal(loaded_model.output_matrix, model.output_matrix)
            and loaded_vocab.words == vocab.words
            and loaded_config == config
        )
        vec_path = Path(tmp) / "m.vec"
        save_vec(model, vocab, str(vec_path))
        lines = vec_path.read_text(encoding="utf-8").splitlines()
        vec_ok = len(lines) == len(vocab) + 1 and all(
            len(line.split(" ")) == model.dim + 1 for line in lines[1:]
        )
    elapsed = time.monotonic() - t0
    ok = bit_identical and vec_ok and elapsed < 1.0
    check(
        "criterion 10 (persistence)",
        ok,
        f"binary round-trip bit-identical, .vec {len(lines)} lines x "
        f"{model.dim + 1} fields, {elapsed:.2f}s (< 1s)",
    )
