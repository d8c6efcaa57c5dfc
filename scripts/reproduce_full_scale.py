#!/usr/bin/env python3
"""Full-scale benchmark: cbow vs skipgram vs cbos on a large corpus.

Trains all three schedules with the library's default hyperparameters on the
same corpus (typically the first 10^9 bytes of a prepared Wikipedia dump) and
scores each on a word-analogy question file. This is hours of compute at full
scale; it is a standalone experiment, not part of the test suite.

Reference totals from full-scale runs of this setup, for comparison:
cbow 46.99, skipgram 49.26, cbos 51.20 (tolerance about +/-3 points), with
cbos training time between 1.4x and 2.5x cbow's. The script prints the same
table shape at any scale; the targets only apply near full scale.

Example:
    python scripts/reproduce_full_scale.py \
        -corpus wiki.txt -questions questions-words.txt \
        -output-dir runs/full -max-bytes 1000000000 -normalize
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbos.analogy import evaluate, load_analogy_file
from cbos.corpus import build_vocab_from_file, normalize_text
from cbos.persist import load_bin, save_bin, save_vec
from cbos.trainer import TrainConfig, train

SCHEDULES = ("cbow", "skipgram", "cbos")

EXPECTED_TOTALS = {"cbow": 46.99, "skipgram": 49.26, "cbos": 51.20}
CBOS_TOLERANCE = 3.0
TIME_RATIO_RANGE = (1.4, 2.5)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-corpus", required=True, help="one sentence per line")
    parser.add_argument("-questions", required=True, help="analogy question file")
    parser.add_argument("-output-dir", default="runs/full-scale")
    parser.add_argument(
        "-max-bytes",
        type=int,
        default=None,
        help="use only the first N bytes of the corpus",
    )
    parser.add_argument(
        "-normalize",
        action="store_true",
        help="lowercase and strip punctuation into a temp copy first",
    )
    parser.add_argument("-thread", type=int, default=os.cpu_count() or 1)
    parser.add_argument("-seed", type=int, default=1)
    return parser.parse_args()


def prepare_corpus(args: argparse.Namespace, scratch: str) -> str:
    """The corpus to train on: the input itself, or its prefix and/or normalized copy in ``scratch``."""
    path = args.corpus
    if args.max_bytes is None and not args.normalize:
        return path
    prepared = Path(scratch) / "corpus.txt"
    remaining = args.max_bytes if args.max_bytes is not None else float("inf")
    with open(path, encoding="utf-8", errors="replace") as src, open(
        prepared, "w", encoding="utf-8"
    ) as dst:
        for line in src:
            if remaining <= 0:
                break
            chunk = line[: int(min(len(line), remaining))]
            remaining -= len(chunk.encode("utf-8"))
            dst.write(normalize_text(chunk) if args.normalize else chunk)
    print(f"prepared corpus: {prepared} ({prepared.stat().st_size} bytes)")
    return str(prepared)


def run_schedule(kind: str, args: argparse.Namespace, corpus: str, vocab, questions, out_dir: Path):
    """Train one schedule on the shared vocabulary, save it, and score the saved model: (analogy report, training seconds)."""
    config = TrainConfig(model_kind=kind, workers=args.thread, seed=args.seed)
    print(f"== training {kind} (dim={config.dim}, ws={config.ws}, "
          f"epochs={config.epochs}, workers={config.workers})")
    t0 = time.monotonic()
    result = train(config, corpus, vocab=vocab, progress=sys.stderr)
    wall = time.monotonic() - t0
    prefix = out_dir / kind
    save_bin(result.model, result.vocab, result.config, f"{prefix}.cbos")
    del result  # free the training copy (800 MB at the default bucket) before the queries
    # the saved file holds the composed word vectors, so neither query composes them again
    model, vocab, _config = load_bin(f"{prefix}.cbos")
    save_vec(model, vocab, f"{prefix}.vec")
    return evaluate(model, vocab, questions), wall


def main() -> int:
    args = parse_args()
    questions = load_analogy_file(args.questions)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    with tempfile.TemporaryDirectory(prefix="cbos-full-") as scratch:
        corpus = prepare_corpus(args, scratch)
        # counted once, so each timed run makes the same decode-only pass over the corpus
        vocab = build_vocab_from_file(corpus, TrainConfig().min_count)
        for kind in SCHEDULES:
            report, wall = run_schedule(kind, args, corpus, vocab, questions, out_dir)
            rows.append((kind, report, wall))
            acc = report.total_acc
            print(
                f"{kind}: total {acc if acc is None else f'{acc:.2f}%'} "
                f"(semantic {report.semantic_acc}, syntactic {report.syntactic_acc}), "
                f"{wall / 60:.1f} min"
            )

    print("\nschedule    semantic  syntactic      total  time(min)  expected")
    times = {kind: wall for kind, _, wall in rows}
    totals = {}

    def fmt(x):
        return "     n/a" if x is None else f"{x:7.2f}%"

    for kind, report, wall in rows:
        totals[kind] = report.total_acc
        print(
            f"{kind:10s} {fmt(report.semantic_acc)}  {fmt(report.syntactic_acc)}"
            f"  {fmt(report.total_acc)}  {wall / 60:9.1f}"
            f"  {EXPECTED_TOTALS[kind]:7.2f}%"
        )
    ratio = times["cbos"] / times["cbow"]
    print(f"cbos/cbow time ratio: {ratio:.2f}x (expected {TIME_RATIO_RANGE[0]}x"
          f" to {TIME_RATIO_RANGE[1]}x)")

    ok = True
    if any(totals[k] is None for k in SCHEDULES):
        print("verdict: not comparable (no attempted questions)")
        return 1
    if not (totals["cbos"] > totals["cbow"] and totals["cbos"] > totals["skipgram"]):
        print("verdict: cbos did not beat both baselines")
        ok = False
    if abs(totals["cbos"] - EXPECTED_TOTALS["cbos"]) > CBOS_TOLERANCE:
        print(
            f"verdict: cbos total {totals['cbos']:.2f}% outside "
            f"{EXPECTED_TOTALS['cbos']} +/- {CBOS_TOLERANCE}"
        )
        ok = False
    if not (TIME_RATIO_RANGE[0] <= ratio <= TIME_RATIO_RANGE[1]):
        print("verdict: time ratio outside expected range")
        ok = False
    if ok:
        print("verdict: all full-scale targets met")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
