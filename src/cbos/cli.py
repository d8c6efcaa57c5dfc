"""Command-line driver: normalize text, train models, evaluate, query neighbors.

Flag names follow the fastText convention (single dash, camelCase where
fastText uses it) so published training commands translate directly. Exit
codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .analogy import (
    AnalogyParseError,
    DegenerateVectorError,
    UnresolvableWordError,
    evaluate,
    load_analogy_file,
    load_split_file,
    nearest_neighbors,
)
from .corpus import EmptyVocabError, build_vocab_from_file, normalize_text
from .persist import FormatError, load_bin, save_bin, save_vec
from .trainer import CBOS_VARIANTS, JsonTraceWriter, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

_RUNTIME_ERRORS = (
    OSError,
    UnicodeDecodeError,
    FormatError,
    EmptyVocabError,
    AnalogyParseError,
    UnresolvableWordError,
    DegenerateVectorError,
    RuntimeError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbos", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_train = sub.add_parser("train", allow_abbrev=False, help="train word vectors")
    p_train.add_argument("-input", required=True, metavar="FILE")
    p_train.add_argument(
        "-output", required=True, metavar="MODEL", help="path prefix for .cbos and .vec"
    )
    p_train.add_argument(
        "-model", required=True, choices=("cbow", "skipgram", "cbos")
    )
    p_train.add_argument(
        "-variant",
        choices=tuple(v.replace("_", "-") for v in CBOS_VARIANTS),
        help="cbos bag-phase variant",
    )
    p_train.add_argument("-dim", type=int, default=100)
    p_train.add_argument("-ws", type=int, default=5)
    p_train.add_argument("-epoch", type=int, default=5)
    p_train.add_argument("-lr", type=float, default=0.05)
    p_train.add_argument("-neg", type=int, default=5)
    p_train.add_argument("-minCount", type=int, default=5)
    p_train.add_argument("-minn", type=int, default=3)
    p_train.add_argument("-maxn", type=int, default=6)
    p_train.add_argument("-bucket", type=int, default=2_000_000)
    p_train.add_argument("-t", type=float, default=1e-4)
    p_train.add_argument("-thread", type=int, default=1)
    p_train.add_argument(
        "-seed", type=int, default=None, help="default: $CBOS_SEED, else 1"
    )
    p_train.add_argument(
        "--trace", metavar="FILE", help="write one JSON prediction event per line"
    )
    p_train.add_argument(
        "--precision", type=int, default=4, help="decimal places in the .vec file"
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval-analogy", allow_abbrev=False, help="run the word-analogy benchmark"
    )
    p_eval.add_argument("-model", required=True, metavar="FILE.cbos")
    p_eval.add_argument("-questions", required=True, metavar="FILE")
    p_eval.add_argument(
        "-split", metavar="TSV", help="category<TAB>semantic|syntactic overrides"
    )
    p_eval.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_nn = sub.add_parser("nn", allow_abbrev=False, help="nearest neighbors of a word")
    p_nn.add_argument("-model", required=True, metavar="FILE.cbos")
    p_nn.add_argument("-word", required=True)
    p_nn.add_argument("-k", type=int, default=10)
    p_nn.set_defaults(func=cmd_nn)

    p_norm = sub.add_parser(
        "normalize", allow_abbrev=False, help="lowercase and strip punctuation"
    )
    p_norm.add_argument("-input", metavar="FILE", help="default: stdin")
    p_norm.add_argument("-output", metavar="FILE", help="default: stdout")
    p_norm.set_defaults(func=cmd_normalize)

    p_vocab = sub.add_parser(
        "dump-vocab", allow_abbrev=False, help="print word\\tcount\\tid lines"
    )
    p_vocab.add_argument("-model", metavar="FILE.cbos")
    p_vocab.add_argument("-input", metavar="FILE", help="corpus to count instead (needs a C compiler)")
    p_vocab.add_argument("-minCount", type=int, default=5)
    p_vocab.set_defaults(func=cmd_dump_vocab)

    return parser


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("CBOS_SEED")
    if env is None:
        return 1
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"CBOS_SEED must be an integer, got {env!r}") from None


def cmd_train(args: argparse.Namespace) -> int:
    variant = args.variant.replace("-", "_") if args.variant else None
    if args.trace and args.thread != 1:
        raise _UsageError("--trace requires -thread 1")
    if args.precision < 1:
        raise _UsageError(f"--precision must be >= 1, got {args.precision}")
    try:
        config = TrainConfig(
            model_kind=args.model,
            variant=variant,
            dim=args.dim,
            ws=args.ws,
            epochs=args.epoch,
            lr0=args.lr,
            negatives=args.neg,
            minn=args.minn,
            maxn=args.maxn,
            bucket=args.bucket,
            min_count=args.minCount,
            t=args.t,
            workers=args.thread,
            seed=_resolve_seed(args.seed),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    trace_handle = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        result = train(
            config,
            args.input,
            trace=JsonTraceWriter(trace_handle) if trace_handle else None,
            progress=sys.stderr,
        )
    finally:
        if trace_handle is not None:
            trace_handle.close()
    save_bin(result.model, result.vocab, config, args.output + ".cbos")
    # the file just written holds the composed word vectors: read them back, not compose them again
    model, vocab, _config = load_bin(args.output + ".cbos")
    save_vec(model, vocab, args.output + ".vec", precision=args.precision)
    minutes, seconds = divmod(result.stats.duration, 60.0)
    print(f"training time: {int(minutes)}m {seconds:.3f}s")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model, vocab, _config = load_bin(args.model)
    dataset = load_analogy_file(args.questions)
    split_map = load_split_file(args.split) if args.split else None
    report = evaluate(model, vocab, dataset, split_map=split_map)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.format_table())
    return EXIT_OK


def cmd_nn(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise _UsageError("-k must be >= 1")
    model, vocab, _config = load_bin(args.model)
    for word, cosine in nearest_neighbors(model, vocab, args.word, args.k):
        print(f"{word} {cosine:.4f}")
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as files:  # closes the input also when the output cannot be opened
        instream = files.enter_context(open(args.input, encoding="utf-8")) if args.input else sys.stdin
        outstream = files.enter_context(open(args.output, "w", encoding="utf-8")) if args.output else sys.stdout
        for line in instream:
            outstream.write(normalize_text(line))
    return EXIT_OK


def cmd_dump_vocab(args: argparse.Namespace) -> int:
    if bool(args.model) == bool(args.input):
        raise _UsageError("need exactly one of -model or -input")
    if args.minCount < 1:
        raise _UsageError(f"-minCount must be >= 1, got {args.minCount}")
    if args.model:
        _model, vocab, _config = load_bin(args.model)
    else:
        vocab = build_vocab_from_file(args.input, args.minCount)
    vocab.dump_tsv(sys.stdout)
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
