"""Command line front end.

Thin argparse wrappers over the library: every subcommand loads files,
calls one or two library functions, and writes the result. Exit codes:
0 success, 2 any validation or data error, 3 a train/test leakage
assertion tripped during evaluation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .align import (
    alignment_report,
    fit_translation_matrix,
    load_dictionary,
    resolve_pairs,
    save_translation_matrix,
    select_pivot_pairs,
)
from .corpus import load_corpus, split_dev
from .embeddings import (
    TrainedFile,
    load_embedding_table,
    load_frequency_counts,
    ranks_from_counts,
)
from .errors import ConfigurationError, LeakageError, MultisentError, read_text
from .experiment import (
    CVReport,
    compare_runs,
    compare_runs_csv,
    parse_config,
    prepare_inputs,
    run_experiment,
)
from .nn import load_checkpoint, predict_batch, save_checkpoint, save_training_log, train
from .pipeline import EmbeddingContext, oov_from_fingerprint
from .preprocess import TokenizedTweet, default_rules, preprocess_corpus
from .rng import derive_stream
from .synth import SynthSpec, generate_fixture, write_fixture


def _cmd_preprocess(args) -> int:
    records = load_corpus(args.infile)
    tweets, dropped = preprocess_corpus(records, default_rules(), args.mode)
    with open(args.outfile, "w", encoding="utf-8") as fh:
        for tw in tweets:
            fh.write(json.dumps(
                {"id": tw.id, "lang": tw.lang, "label": int(tw.label), "tokens": tw.tokens},
                ensure_ascii=False,
            ) + "\n")
    print(f"wrote {len(tweets)} tweets to {args.outfile} ({len(dropped)} dropped)")
    return 0


def _cmd_align(args) -> int:
    src_lang = args.src_lang or Path(args.src).stem
    tgt_lang = args.tgt_lang or Path(args.tgt).stem
    src_table = load_embedding_table(args.src, src_lang)
    tgt_table = load_embedding_table(args.tgt, tgt_lang)
    dictionary = load_dictionary(args.dict)
    if args.freq:
        ranks = ranks_from_counts(load_frequency_counts(args.freq))
    else:
        # embedding dumps conventionally list words most frequent first
        ranks = {word: i + 1 for i, word in enumerate(src_table.entries)}
    pairs = select_pivot_pairs(
        ranks, dictionary, args.k, args.train, args.seed,
        src_lang=src_lang, tgt_lang=tgt_lang,
    )
    X, Z = resolve_pairs(pairs.train_pairs, src_table, tgt_table)
    tm = fit_translation_matrix(X, Z, src_lang=src_lang, tgt_lang=tgt_lang)
    save_translation_matrix(tm, args.out)
    print(f"fit {src_lang}->{tgt_lang} map from {len(pairs.train_pairs)} pairs, "
          f"residual {tm.fit_residual:.6g}, wrote {args.out}")
    if args.report and pairs.test_pairs:
        Xt, Zt = resolve_pairs(pairs.test_pairs, src_table, tgt_table)
        rep = alignment_report(Xt, Zt, tm)
        for key, val in rep.as_dict().items():
            print(f"  {key}: {val:.6g}" if isinstance(val, float) else f"  {key}: {val}")
    return 0


def _cmd_train(args) -> int:
    config = parse_config(read_text(args.config), name=Path(args.config).stem)
    if config.kind not in ("lstm", "cnn"):
        raise MultisentError(f"train handles neural kinds only, got {config.kind!r}")
    if config.refit == "per_fold":
        raise ConfigurationError(
            "train cannot use refit=per_fold: per-fold maps are fit inside "
            "evaluate's folds and never saved; use refit=global with matrix.* paths"
        )
    tweets, context = prepare_inputs(config)
    train_tweets, dev_tweets = split_dev(
        tweets, config.dev_fraction, derive_stream(config.seed, "train-cli")
    )
    trained = train(
        config.kind, train_tweets, dev_tweets, context, config.train_config(config.seed)
    )
    save_checkpoint(trained, args.out)
    print(f"trained {config.kind} for {len(trained.history)} epochs, "
          f"best dev accuracy {trained.best_dev_accuracy:.3f}, wrote {args.out}")
    if args.log:
        save_training_log(trained, args.log)
        print(f"wrote training log {args.log}")
    return 0


def _cmd_evaluate(args) -> int:
    config = parse_config(read_text(args.config), name=Path(args.config).stem)
    report = run_experiment(config)
    print(compare_runs([report]), end="")
    per_lang = ", ".join(
        f"{lang} {stats['accuracy']:.3f}" for lang, stats in report.per_language.items()
    )
    print(f"per-language accuracy: {per_lang}")
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"wrote report {args.out}")
    return 0


def _parse_lang_path(values: list[str], flag: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in values:
        if "=" not in item:
            raise MultisentError(f"{flag} expects LANG=PATH, got {item!r}")
        lang, _, path = item.partition("=")
        out[lang] = path
    return out


def _cmd_predict(args) -> int:
    trained = load_checkpoint(args.model)
    oov_seed, oov_scale = oov_from_fingerprint(trained.fingerprints)
    records = load_corpus(args.infile)
    rules = default_rules()
    tweets, empty = preprocess_corpus(records, rules, args.mode)
    words: dict[str, set[str]] = {lang: set() for lang in trained.sources}
    for tw in tweets:
        if tw.lang in words:
            words[tw.lang].update(tw.tokens)
    context = EmbeddingContext.from_paths(
        _parse_lang_path(args.embedding, "--embedding"),
        _parse_lang_path(args.matrix, "--matrix"),
        oov_seed=oov_seed,
        oov_scale=oov_scale,
        max_len=trained.model.max_len,
        rules_version=rules.fingerprint(),
        trained={lang: TrainedFile(sha256, trained.fingerprints[f"embeddings:{lang}"], words[lang])
                 for lang, sha256 in trained.sources.items()},
    )
    skipped = Counter(tw.lang for tw in tweets if tw.lang not in context.tables)
    tweets = [tw for tw in tweets if tw.lang in context.tables]
    # The CNN cannot pad past the max_len it was trained with, so a longer
    # tweet is cut to its first max_len tokens; the LSTM takes any length.
    max_len = trained.model.max_len
    truncated = 0
    if trained.model.kind == "cnn":
        truncated = sum(1 for tw in tweets if tw.length > max_len)
        tweets = [tw if tw.length <= max_len else
                  TokenizedTweet(tw.id, tw.lang, tw.label, tw.tokens[:max_len])
                  for tw in tweets]
    preds = predict_batch(trained, tweets, context)
    with open(args.outfile, "w", encoding="utf-8") as fh:
        for tw, (label, probs) in zip(tweets, preds):
            fh.write(json.dumps(
                {"id": tw.id, "label": int(label), "probs": [float(p) for p in probs]},
            ) + "\n")
    print(f"wrote {len(preds)} predictions to {args.outfile}")
    if skipped:
        by_lang = ", ".join(f"{lang}: {k}" for lang, k in sorted(skipped.items()))
        print(f"skipped {_records(sum(skipped.values()))} with no --embedding ({by_lang})")
    if empty:
        print(f"skipped {_records(len(empty))} with no tokens after normalization")
    if truncated:
        print(f"truncated {_records(truncated)} to the model's max_len of {max_len} tokens")
    return 0


def _records(n: int) -> str:
    return f"{n} record{'' if n == 1 else 's'}"


def _cmd_compare(args) -> int:
    reports = [CVReport.from_json(read_text(p)) for p in args.reports]
    print(compare_runs(reports, baseline=args.baseline), end="")
    if args.csv:
        Path(args.csv).write_text(
            compare_runs_csv(reports, baseline=args.baseline), encoding="utf-8"
        )
        print(f"wrote CSV {args.csv}")
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(seed=args.seed, n_tweets=args.tweets, dim=args.dim)
    fixture = generate_fixture(spec)
    paths = write_fixture(fixture, args.out)
    print(f"wrote {len(paths)} fixture files to {args.out}:")
    for role in sorted(paths):
        print(f"  {role}: {paths[role].name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisent",
        description="Multilingual tweet sentiment: preprocessing, embedding "
                    "alignment, neural and n-gram classifiers, cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normalize and tokenize a JSONL corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--mode", choices=("whitespace", "pretokenized"), default="whitespace")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("align", help="fit a translation matrix between two spaces")
    p.add_argument("--src", required=True, help="source-language .vec file")
    p.add_argument("--tgt", required=True, help="target-language .vec file")
    p.add_argument("--dict", required=True, help="bilingual TSV src<TAB>tgt")
    p.add_argument("--src-lang", default=None)
    p.add_argument("--tgt-lang", default=None)
    p.add_argument("--freq", default=None, help="word<TAB>count TSV for pivot ranking")
    p.add_argument("--k", type=int, default=3500, help="pivot pair count")
    p.add_argument("--train", type=int, default=3000, help="pairs used for fitting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true",
                   help="print held-out distance sums before and after mapping")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("train", help="train one neural model on a full corpus")
    p.add_argument("--config", required=True, help="flat key=value run config")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training log CSV path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="run one cross-validation experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="classify tweets with a saved checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--mode", choices=("whitespace", "pretokenized"), default="whitespace")
    p.add_argument("--embedding", action="append", default=[], metavar="LANG=PATH")
    p.add_argument("--matrix", action="append", default=[], metavar="LANG=PATH")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("compare", help="tabulate saved evaluation reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--baseline", default=None, help="report name the deltas refer to")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synth", help="generate the trilingual demo fixture")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tweets", type=int, default=63)
    p.add_argument("--dim", type=int, default=12)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LeakageError as err:
        print(f"leakage assertion failed: {err}", file=sys.stderr)
        return 3
    except (MultisentError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
