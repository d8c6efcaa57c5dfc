#!/usr/bin/env python3
"""Train every schedule and cbos variant on one corpus and compare them.

Intended for small and mid-size corpora: prints per-schedule training time,
update counts, average loss, and (with -questions) analogy accuracy, all from
identical hyperparameters and seed.

Example:
    python scripts/compare_variants.py -corpus data/text.txt \
        -questions data/questions.txt -dim 50 -epoch 5 -ws 2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbos.analogy import evaluate, load_analogy_file
from cbos.corpus import build_vocab_from_file
from cbos.trainer import CBOS_VARIANTS, TrainConfig, train


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-corpus", required=True)
    parser.add_argument("-questions", help="optional analogy question file")
    parser.add_argument("-dim", type=int, default=50)
    parser.add_argument("-ws", type=int, default=5)
    parser.add_argument("-epoch", type=int, default=5)
    parser.add_argument("-neg", type=int, default=5)
    parser.add_argument("-minCount", type=int, default=5)
    parser.add_argument("-minn", type=int, default=0, help="0 disables subwords")
    parser.add_argument("-maxn", type=int, default=0)
    parser.add_argument("-bucket", type=int, default=100_000)
    parser.add_argument("-t", type=float, default=1e-4)
    parser.add_argument("-thread", type=int, default=1)
    parser.add_argument("-seed", type=int, default=1)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    questions = load_analogy_file(args.questions) if args.questions else None
    vocab = build_vocab_from_file(args.corpus, args.minCount)  # counted once: every run trains on it
    runs = [("cbow", None), ("skipgram", None)] + [
        ("cbos", variant) for variant in CBOS_VARIANTS
    ]
    print(f"{'schedule':22s} {'time(s)':>8} {'updates':>10} {'avg loss':>9} "
          f"{'tokens/s':>9} {'accuracy':>9}")
    for kind, variant in runs:
        config = TrainConfig(
            model_kind=kind,
            variant=variant,
            dim=args.dim,
            ws=args.ws,
            epochs=args.epoch,
            negatives=args.neg,
            minn=args.minn,
            maxn=args.maxn,
            bucket=args.bucket,
            min_count=args.minCount,
            t=args.t,
            workers=args.thread,
            seed=args.seed,
        )
        result = train(config, args.corpus, vocab=vocab)
        label = kind if variant in (None, "baseline") else f"{kind}/{variant}"
        if questions is not None:
            report = evaluate(result.model, result.vocab, questions)
            accuracy = (
                "n/a" if report.total_acc is None else f"{report.total_acc:7.2f}%"
            )
        else:
            accuracy = "-"
        stats = result.stats
        del result  # free this model before the next one trains
        print(
            f"{label:22s} {stats.duration:8.1f} {stats.updates:10d} "
            f"{stats.avg_loss:9.4f} {stats.tokens_per_sec:9.0f} {accuracy:>9}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
