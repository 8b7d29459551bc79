"""Cross-validation experiment driver and run comparison.

A run is declared by a flat key=value config naming the corpus, the
languages, a classifier kind, and (for the neural kinds) embedding
tables plus optional translation matrices. The driver executes k-fold
cross-validation where every per-fold artifact (feature space, neural
model, early-stopping decision) is built from the fold's training split
only; an id audit records exactly which records each stage consulted
and fails the run if any test-fold id leaks in.

Reports serialize canonically: wall-clock timings are carried for
humans but excluded from the canonical form, so identical (config,
seed, data) produce byte-identical report JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .align import (
    fit_translation_matrix,
    load_dictionary,
    resolve_pairs,
    select_pivot_pairs,
)
from .baselines import (
    build_feature_space,
    intern_ngrams,
    predict_nb,
    predict_svm,
    train_nb,
    train_svm_ovo,
    vectorize,
)
from .corpus import Polarity, load_corpus, make_folds, split_dev
from .embeddings import count_tokens, ranks_from_counts
from .errors import (
    ArgumentError,
    ConfigurationError,
    LeakageError,
    MultisentError,
    ParseError,
)
from .nn import TrainConfig, predict_batch, train
from .nn.train import NumberedTokens
from .nn.workspace import Workspace
from .pipeline import EmbeddingContext, corpus_max_len
from .preprocess import TokenizedTweet, default_rules, preprocess_corpus
from .rng import derive_stream
from .shares import run_shares, usable_cpus

KINDS = ("nb", "svm", "lstm", "cnn")
ALIGNMENTS = ("none", "translation_matrix")
REFIT_MODES = ("global", "per_fold")

# The dotted key prefix of each dict-valued config field.
_PREFIXES = {
    "embeddings": "embedding.",
    "matrices": "matrix.",
    "dictionaries": "dictionary.",
    "train_overrides": "train.",
}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_bool(value: str) -> bool:
    """A case-insensitive 1/true/yes or 0/false/no; any other word is a ValueError."""
    try:
        return _BOOLS[value.lower()]
    except KeyError:
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}") from None


# How a config value is read, by the field's annotation.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "str | None": lambda v: v or None,
    "float | None": lambda v: None if v in ("", "none") else float(v),
    "tuple[str, ...]": lambda v: tuple(filter(None, v.split(","))),
    "tuple[int, ...]": lambda v: tuple(int(w) for w in v.split(",")),
    "int | None": int,
    "bool": _read_bool,
}

# The TrainConfig fields a train.* key may set; seed and window_sizes come from the run.
_TRAIN_KEYS = {
    f.name: _PARSERS[f.type] for f in fields(TrainConfig) if f.name not in ("seed", "window_sizes")
}


@dataclass
class ExperimentConfig:
    """Everything one cross-validation run depends on; each field is one config key."""

    name: str
    corpus: str
    languages: tuple[str, ...]
    kind: str
    folds: int = 10
    seed: int = 0
    alignment: str = "none"
    refit: str = "global"                   # per_fold refits maps from fold train splits
    target_language: str | None = None      # shared space for per_fold refit
    pivot_count: int = 20
    pivot_train_count: int = 16
    embeddings: dict[str, str] = field(default_factory=dict)
    matrices: dict[str, str] = field(default_factory=dict)
    dictionaries: dict[str, str] = field(default_factory=dict)
    alpha: float = 1.0
    C: float = 1.0
    dev_fraction: float = 0.1
    tokenize_mode: str = "whitespace"
    oov_seed: int = 0
    oov_scale: float | None = None
    window_sizes: tuple[int, ...] = (3, 4, 5)
    train_overrides: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.alignment not in ALIGNMENTS:
            raise ConfigurationError(
                f"alignment must be one of {ALIGNMENTS}, got {self.alignment!r}"
            )
        if not self.languages or len(set(self.languages)) != len(self.languages):
            raise ConfigurationError(
                f"languages must be distinct and non-empty, got {self.languages}")
        unlisted = [
            f"{_PREFIXES[attr]}{lang}"
            for attr in ("embeddings", "matrices", "dictionaries")
            for lang in sorted(getattr(self, attr)) if lang not in self.languages
        ]
        if unlisted:
            raise ConfigurationError(
                f"{', '.join(unlisted)} would be unused: their languages are not in "
                f"languages {self.languages}"
            )
        for key, value in (("alpha", self.alpha), ("C", self.C)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{key} must be finite and positive, got {value}")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ConfigurationError(f"dev_fraction must lie in (0, 1), got {self.dev_fraction}")
        sizes = self.window_sizes
        if not sizes or min(sizes) < 1 or len(set(sizes)) != len(sizes):
            raise ConfigurationError(
                f"window_sizes must be distinct sizes of at least 1, got {sizes}")
        if self.oov_scale is not None and not (
            math.isfinite(self.oov_scale) and self.oov_scale >= 0
        ):
            raise ConfigurationError(
                f"oov_scale must be finite and non-negative, got {self.oov_scale}"
            )
        if self.refit not in REFIT_MODES:
            raise ConfigurationError(
                f"refit must be one of {REFIT_MODES}, got {self.refit!r}"
            )
        if self.matrices and (self.alignment, self.refit) != ("translation_matrix", "global"):
            keys = ", ".join(f"matrix.{lang}" for lang in sorted(self.matrices))
            raise ConfigurationError(
                f"{keys} would be unused: matrices apply only with "
                f"alignment = translation_matrix and refit = global"
            )
        if self.refit == "per_fold":
            if self.alignment != "translation_matrix":
                raise ConfigurationError("refit=per_fold needs alignment=translation_matrix")
            if self.target_language is None:
                raise ConfigurationError("refit=per_fold needs a target_language")
            if self.target_language not in self.languages:
                raise ConfigurationError(
                    f"target_language {self.target_language!r} is not in languages"
                )
            missing = [
                lang for lang in self.languages
                if lang != self.target_language and lang not in self.dictionaries
            ]
            if missing:
                raise ConfigurationError(
                    f"refit=per_fold needs a dictionary for every mapped language; "
                    f"missing: {missing}"
                )
            if not 0 < self.pivot_train_count <= self.pivot_count:
                raise ConfigurationError(
                    "pivot_train_count must lie in [1, pivot_count]"
                )
        elif self.alignment == "translation_matrix" and not self.matrices:
            # languages without a matrix are taken as the shared target space
            raise ConfigurationError(
                "alignment=translation_matrix requires at least one matrix"
            )
        try:
            # every TrainConfig message starts with its field, so this names the key
            self.train_config(self.seed)
        except ArgumentError as err:
            raise ConfigurationError(f"train.{err}") from None

    def canonical_text(self) -> str:
        """Sorted key=value lines; the basis of the config fingerprint."""
        items: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _PREFIXES:
                items.update((_PREFIXES[f.name] + k, str(v)) for k, v in value.items())
            elif isinstance(value, tuple):
                items[f.name] = ",".join(str(v) for v in value)
            else:
                items[f.name] = str(value)
        return "\n".join(f"{k}={items[k]}" for k in sorted(items)) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(**{**self.train_overrides, "seed": seed, "window_sizes": self.window_sizes})


def parse_config(text: str, name: str = "run") -> ExperimentConfig:
    """Parse flat key=value lines ('#' starts a comment); a missing key takes its default.

    corpus, languages and kind have no default: each must be given a value.
    """
    raw: dict[str, str] = {"name": name}
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {i}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()

    kwargs: dict[str, object] = {}
    for f in fields(ExperimentConfig):
        prefix = _PREFIXES.get(f.name)
        if prefix is None:
            if f.name in raw:
                kwargs[f.name] = _read_value(f.name, _PARSERS[f.type], raw.pop(f.name))
            continue
        values = {}
        for key in [k for k in raw if k.startswith(prefix)]:
            sub = key[len(prefix):]
            read = _TRAIN_KEYS.get(sub) if prefix == "train." else str
            if read is not None:
                values[sub] = _read_value(key, read, raw.pop(key))
        kwargs[f.name] = values
    if raw:
        raise ConfigurationError(f"unknown config keys: {sorted(raw)}")
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is f.default_factory is MISSING and not kwargs.get(f.name)]
    if missing:
        raise ConfigurationError(f"missing or empty required config keys: {missing}")
    return ExperimentConfig(**kwargs)


def _read_value(key: str, read, value: str):
    """value as read's type; a value it cannot read raises an error naming the key."""
    try:
        return read(value)
    except ValueError as err:
        raise ConfigurationError(f"bad config value for {key}: {err}") from None


class IdAudit:
    """Records which example ids training-side artifact construction used."""

    def __init__(self):
        self.touched: set[str] = set()

    def touch(self, ids) -> None:
        if isinstance(ids, str):
            self.touched.add(ids)
        else:
            self.touched.update(ids)

    def use(self, tweets):
        """Pass-through that registers every tweet it yields."""
        for tw in tweets:
            self.touched.add(tw.id)
            yield tw

    def assert_disjoint(self, test_ids) -> None:
        leaked = self.touched & set(test_ids)
        if leaked:
            raise LeakageError(
                f"training artifacts consulted {len(leaked)} held-out ids "
                f"(first: {sorted(leaked)[:3]})"
            )


@dataclass
class CVReport:
    """Cross-validation outcome with canonical serialization."""

    name: str
    kind: str
    folds: int
    seed: int
    fold_accuracies: list[float]
    mean_accuracy: float
    overall_accuracy: float
    per_language: dict[str, dict[str, float]]
    config_fingerprint: str
    wall_clock_per_fold: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.fold_accuracies:
            mean = sum(self.fold_accuracies) / len(self.fold_accuracies)
            if abs(mean - self.mean_accuracy) > 1e-12:
                raise ArgumentError(
                    f"mean_accuracy {self.mean_accuracy} is not the fold mean {mean}"
                )

    def canonical_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "folds": self.folds,
            "seed": self.seed,
            "fold_accuracies": self.fold_accuracies,
            "mean_accuracy": self.mean_accuracy,
            "overall_accuracy": self.overall_accuracy,
            "per_language": {
                lang: dict(sorted(stats.items()))
                for lang, stats in sorted(self.per_language.items())
            },
            "config_fingerprint": self.config_fingerprint,
        }

    def canonical_json(self) -> str:
        """Timings excluded: identical runs give identical bytes."""
        return json.dumps(self.canonical_dict(), sort_keys=True, ensure_ascii=False)

    def to_json(self) -> str:
        obj = self.canonical_dict()
        obj["wall_clock_per_fold"] = self.wall_clock_per_fold
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "CVReport":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"report is not valid JSON: {err.msg}", line=err.lineno) from None
        if not isinstance(obj, dict):
            raise ParseError("report must be a JSON object")
        try:
            _check_report_types(obj)
            return cls(
                name=obj["name"],
                kind=obj["kind"],
                folds=obj["folds"],
                seed=obj["seed"],
                fold_accuracies=list(obj["fold_accuracies"]),
                mean_accuracy=obj["mean_accuracy"],
                overall_accuracy=obj["overall_accuracy"],
                per_language=obj["per_language"],
                config_fingerprint=obj["config_fingerprint"],
                wall_clock_per_fold=list(obj.get("wall_clock_per_fold", [])),
            )
        except KeyError as err:
            raise ParseError(f"report lacks key {err.args[0]!r}") from None
        except TypeError as err:
            raise ParseError(f"report value has the wrong type: {err}") from None


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    return _number(value) and math.isfinite(value)


_STRING = ("a string", lambda v: isinstance(v, str))
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_FINITE = ("a finite number", _finite)

# Each report field's JSON type, in field order, as (description, test).
_REPORT_TYPES = {
    "name": _STRING,
    "kind": _STRING,
    "folds": _INTEGER,
    "seed": _INTEGER,
    "fold_accuracies": ("a list of finite numbers",
                        lambda v: isinstance(v, list) and all(map(_finite, v))),
    "mean_accuracy": _FINITE,
    "overall_accuracy": _FINITE,
    "per_language": ("an object of objects of numbers",
                     lambda v: isinstance(v, dict) and all(
                         isinstance(s, dict) and all(map(_number, s.values()))
                         for s in v.values())),
    "config_fingerprint": _STRING,
}


def _check_report_types(obj: dict) -> None:
    """Raise ParseError naming the first report field whose JSON type is wrong."""
    for key, (what, ok) in _REPORT_TYPES.items():
        if not ok(obj[key]):
            raise ParseError(f"report value has the wrong type: {key} must be {what}, "
                             f"got {reprlib.repr(obj[key])}")


def prepare_inputs(
    config: ExperimentConfig,
    records=None,
    context: EmbeddingContext | None = None,
) -> tuple[list[TokenizedTweet], EmbeddingContext | None]:
    """The tweets of the config's languages and, for a neural kind, its embedding context.

    records and context, when given, stand in for the configured corpus
    and embedding paths. The context holds the config's tables and, under
    global alignment, its maps; its max_len comes from the tweets.
    """
    rules = default_rules()
    if records is None:
        if not config.corpus:
            raise ConfigurationError("corpus is empty: give the corpus path, or pass records")
        records = load_corpus(config.corpus)
    languages = config.languages
    records = [r for r in records if r.lang in languages]
    tweets, _dropped = preprocess_corpus(records, rules, config.tokenize_mode)
    if not tweets:
        raise ArgumentError(f"no usable records in languages {languages}")
    if config.kind not in ("lstm", "cnn") or context is not None:
        return tweets, context
    max_len = corpus_max_len(tweets)
    if config.kind == "cnn" and max(config.window_sizes) > max_len:
        raise ConfigurationError(
            f"window_sizes holds {max(config.window_sizes)}, longer than the longest "
            f"tweet ({max_len} tokens)"
        )
    missing = [lang for lang in languages if lang not in config.embeddings]
    if missing:
        raise ConfigurationError(f"no embedding path for languages: {missing}")
    # matrices are set only under global alignment and for listed languages,
    # which __post_init__ checks
    context = EmbeddingContext.from_paths(
        {lang: config.embeddings[lang] for lang in languages},
        config.matrices,
        oov_seed=config.oov_seed,
        oov_scale=config.oov_scale,
        max_len=max_len,
        rules_version=rules.fingerprint(),
    )
    if config.matrices:
        targets = {tm.tgt_lang for tm in context.translations.values()}
        uncovered = [
            lang for lang in languages
            if lang not in context.translations and lang not in targets
        ]
        if uncovered:
            raise ConfigurationError(
                f"languages neither mapped nor the map target: {uncovered}"
            )
    return tweets, context


def _refit_context(
    config: ExperimentConfig,
    base: EmbeddingContext,
    train_tweets,
    dictionaries: dict[str, dict[str, str]],
    seed: int,
) -> EmbeddingContext:
    """Fit fold-local translation maps from training-split frequency ranks."""
    target = config.target_language
    translations = {}
    for lang in config.languages:
        if lang == target:
            continue
        ranks = ranks_from_counts(count_tokens(train_tweets, lang))
        pairs = select_pivot_pairs(
            ranks,
            dictionaries[lang],
            config.pivot_count,
            config.pivot_train_count,
            seed,
            src_lang=lang,
            tgt_lang=target,
        )
        X, Z = resolve_pairs(
            pairs.train_pairs,
            base.tables[lang],
            base.tables[target],
            oov_seed=config.oov_seed,
            oov_scale=config.oov_scale,
        )
        translations[lang] = fit_translation_matrix(X, Z, src_lang=lang, tgt_lang=target)
    return replace(base, translations=translations)


def run_experiment(
    config: ExperimentConfig,
    records=None,
    context: EmbeddingContext | None = None,
) -> CVReport:
    """Execute k-fold cross-validation per the config.

    records and context may be passed directly (tests, library use);
    otherwise they load from the configured paths. The corpus maximum
    length, the embedding tables and the numbering of the n-gram keys
    and of the (language, token) keys are structural constants shared
    across folds; everything derived from examples (feature spaces,
    model parameters, early stopping) uses training-split ids only, which
    the per-fold audit enforces. A fold's n-gram columns are the keys its
    training tweets hold, so a key seen only in held-out tweets is
    numbered but never a column. Each token key's vector is taken once,
    and mapped once under global alignment; a fold's embedding tables
    are integer remaps of those rows.

    The folds are dealt round-robin into one share per usable CPU, at
    most one per fold. This process runs share 0 and a forked worker
    runs each other share; with one usable CPU nothing is forked. Each
    share runs its folds in order on its own workspace and stops at its
    first failing fold. The report merges the shares in fold order, and
    a failure raises the error of the lowest failing fold, so neither
    depends on the number of CPUs.
    """
    if config.folds < 2:
        raise ArgumentError(f"cross-validation needs k >= 2 folds, got {config.folds}")
    tweets, context = prepare_inputs(config, records, context)
    dictionaries = None
    if config.kind in ("nb", "svm"):
        size, rows = intern_ngrams(tweets)
        numbering = size, {tw.id: row for tw, row in zip(tweets, rows)}
    else:
        if config.refit == "per_fold":
            dictionaries = {
                lang: load_dictionary(path) for lang, path in config.dictionaries.items()
            }
            context = replace(context, translations={})     # each fold fits its own maps
        context.fingerprint()   # hashes each table here, before any worker inherits it
        numbered = NumberedTokens.of(tweets, context)
        numbering = numbered, {tw.id: ids for tw, ids in zip(tweets, numbered.ids)}
    plan = make_folds(tweets, config.folds, config.seed)
    by_id = {tw.id: tw for tw in tweets}
    shares = min(config.folds, usable_cpus())

    def run_share(share: int) -> tuple[list, tuple[int, MultisentError] | None]:
        """(fold, predictions, seconds) per fold run, and (fold, error) if one failed."""
        workspace = Workspace()
        done = []
        for fold in range(share, config.folds, shares):
            start = time.perf_counter()
            test_ids = plan.fold_ids(fold)
            train_ids = [tw.id for tw in tweets if plan.assignments[tw.id] != fold]
            audit = IdAudit()
            try:
                predictions = _run_fold(
                    config, fold, train_ids, test_ids, by_id, context, dictionaries,
                    numbering, audit, workspace,
                )
                audit.assert_disjoint(test_ids)
            except MultisentError as err:
                return done, (fold, err)
            done.append((fold, predictions, time.perf_counter() - start))
        return done, None

    outcomes = run_shares(run_share, shares)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]

    right: dict[str, bool] = {}     # test id -> predicted its label
    fold_accuracies: list[float] = []
    wall_clock: list[float] = []
    runs = sorted((run for done, _ in outcomes for run in done), key=lambda run: run[0])
    for fold, predictions, seconds in runs:
        right.update((rid, pred == by_id[rid].label) for rid, pred in predictions.items())
        fold_accuracies.append(sum(right[rid] for rid in predictions) / len(plan.fold_ids(fold)))
        wall_clock.append(seconds)

    per_language = {}
    for lang in sorted(config.languages):
        marks = [ok for rid, ok in right.items() if by_id[rid].lang == lang]
        per_language[lang] = {
            "correct": float(sum(marks)),
            "total": float(len(marks)),
            "accuracy": sum(marks) / len(marks) if marks else 0.0,
        }
    return CVReport(
        name=config.name,
        kind=config.kind,
        folds=config.folds,
        seed=config.seed,
        fold_accuracies=fold_accuracies,
        mean_accuracy=sum(fold_accuracies) / len(fold_accuracies),
        overall_accuracy=sum(right.values()) / len(tweets),
        per_language=per_language,
        config_fingerprint=config.fingerprint(),
        wall_clock_per_fold=wall_clock,
    )


def _run_fold(
    config: ExperimentConfig,
    fold: int,
    train_ids: list[str],
    test_ids: list[str],
    by_id: dict,
    context: EmbeddingContext | None,
    dictionaries: dict[str, dict[str, str]] | None,
    numbering: tuple[int | NumberedTokens, dict[str, np.ndarray]],
    audit: IdAudit,
    workspace: Workspace,
) -> dict[str, Polarity]:
    """The fold's predictions by test id.

    numbering is the n-gram key count (n-gram kinds) or the numbered
    tokens (neural kinds), with each tweet's key numbers by tweet id.
    """
    test_tweets = [by_id[rid] for rid in test_ids]
    if config.kind in ("nb", "svm"):
        size, rows = numbering
        train_tweets = list(audit.use(by_id[rid] for rid in train_ids))
        space, vecs = build_feature_space([rows[tw.id] for tw in train_tweets], size)
        labels = [int(tw.label) for tw in train_tweets]
        if config.kind == "nb":
            model = train_nb(vecs, labels, space.dimension, alpha=config.alpha)
            predict = predict_nb
        else:
            model = train_svm_ovo(vecs, labels, space.dimension, C=config.C)
            predict = predict_svm
        return {tw.id: predict(model, vectorize(rows[tw.id], space)) for tw in test_tweets}

    # neural kinds
    fold_seed = derive_stream(config.seed, "fold", fold)
    if config.refit == "per_fold":
        all_train = list(audit.use(by_id[rid] for rid in train_ids))
        context = _refit_context(config, context, all_train, dictionaries, fold_seed)
    sub_train_ids, dev_ids = split_dev(train_ids, config.dev_fraction, fold_seed)
    train_tweets = list(audit.use(by_id[rid] for rid in sub_train_ids))
    dev_tweets = list(audit.use(by_id[rid] for rid in dev_ids))
    numbered, ids = numbering

    def numbered_as(tweets: list[TokenizedTweet]) -> NumberedTokens:
        return replace(numbered, ids=[ids[tw.id] for tw in tweets])

    trained = train(
        config.kind, train_tweets, dev_tweets, context, config.train_config(fold_seed),
        workspace, numbered=numbered_as(train_tweets + dev_tweets),
    )
    preds = predict_batch(trained, test_tweets, context, workspace,
                          numbered=numbered_as(test_tweets))
    return {tw.id: pred for tw, (pred, _probs) in zip(test_tweets, preds)}


def _comparison_table(
    reports: list[CVReport], baseline: str | None, digits: int
) -> list[list[str]]:
    """Header plus one row per run sorted by name, accuracies to `digits` places.

    The baseline defaults to the first report (after sorting) when there
    is more than one run; a single report gets no delta column.
    """
    if not reports:
        raise ArgumentError("no reports to compare")
    rows = sorted(reports, key=lambda r: r.name)
    base_row = None
    if len(rows) > 1:
        base_row = rows[0] if baseline is None else next(
            (r for r in rows if r.name == baseline), None
        )
        if base_row is None:
            raise ArgumentError(f"baseline {baseline!r} not among report names")
    table = [["name", "kind", "folds", "mean_accuracy"] + (["delta"] if base_row is not None else [])]
    for r in rows:
        row = [r.name, r.kind, str(r.folds), f"{r.mean_accuracy:.{digits}f}"]
        if base_row is not None:
            delta = r.mean_accuracy - base_row.mean_accuracy
            row.append("baseline" if r is base_row else f"{delta:+.{digits}f}")
        table.append(row)
    return table


def compare_runs(reports: list[CVReport], baseline: str | None = None) -> str:
    """Aligned text table of runs sorted by name, with deltas vs a baseline."""
    table = _comparison_table(reports, baseline, 3)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines) + "\n"


def compare_runs_csv(reports: list[CVReport], baseline: str | None = None) -> str:
    """CSV twin of compare_runs, accuracies to six places."""
    return "\n".join(",".join(row) for row in _comparison_table(reports, baseline, 6)) + "\n"
