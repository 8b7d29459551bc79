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
    ParseError,
    split_lines,
)
from .nn import TrainConfig, predict_batch, train
from .nn.train import NumberedTokens
from .nn.workspace import Workspace
from .pipeline import EmbeddingContext, corpus_max_len
from .preprocess import (
    TOKENIZE_MODES,
    TokenizedTweet,
    default_rules,
    preprocess_corpus,
    rules_version,
)
from .rng import derive_stream
from .shares import run_shares, share_run, usable_cpus

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
    """Everything one cross-validation run depends on; each field is one config key,
    whose rule (its value test and the runs that read it) is one row of _RULES."""

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
        unread = []
        for f in fields(self):
            reads, check = _RULES[f.name]
            value, read = getattr(self, f.name), reads(self)
            if check is not None and not check[0](value):
                raise ConfigurationError(f"{f.name} must {check[1]}, got {value!r}")
            if f.name in _PREFIXES:
                unread += [_PREFIXES[f.name] + k for k in sorted(value) if k not in read]
            elif value != f.default and not read:
                unread.append(f.name)
        try:
            # every TrainConfig message starts with its field, so this names the key
            self.train_config(self.seed)
        except ArgumentError as err:
            raise ConfigurationError(f"train.{err}") from None
        if unread:
            run = ", ".join(f"{key} = {getattr(self, key)}" for key in ("kind", "alignment", "refit")
                            if _RULES[key][0](self))
            raise ConfigurationError(f"config keys that a run with {run} over languages "
                                     f"{self.languages} never reads: {', '.join(unread)}")
        if _per_fold(self):
            if self.target_language is None:
                raise ConfigurationError("refit=per_fold needs a target_language")
            if self.target_language not in self.languages:
                raise ConfigurationError(f"target_language {self.target_language!r} is not in "
                                         "languages")
            missing = [lang for lang in _RULES["dictionaries"][0](self) if lang not in self.dictionaries]
            if missing:
                raise ConfigurationError("refit=per_fold needs a dictionary for every mapped "
                                         f"language; missing: {missing}")
            if not 0 < self.pivot_train_count <= self.pivot_count:
                raise ConfigurationError("pivot_train_count must lie in [1, pivot_count]")
        elif _global(self) and not self.matrices:
            # languages without a matrix are taken as the shared target space
            raise ConfigurationError("alignment=translation_matrix requires at least one matrix")

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


_every = lambda c: True
_neural = lambda c: c.kind in ("lstm", "cnn")
_mapped = lambda c: _neural(c) and c.alignment == "translation_matrix"
_global = lambda c: _mapped(c) and c.refit == "global"
_per_fold = lambda c: _mapped(c) and c.refit == "per_fold"
_one_of = lambda choices: (lambda v: v in choices, f"be one of {choices}")
_distinct = lambda v: bool(v) and len(set(v)) == len(v)
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "be finite and positive")
# The train.* keys that only the other neural kind reads, by kind.
_OTHERS_ONLY = {"lstm": ("filters_per_window", "cnn_activation"),
                "cnn": ("hidden_dim", "forget_bias", "candidate_activation")}

# Each config key's rule, by ExperimentConfig field: (the runs that read it,
# None or (the test its value must pass, what the test asks)). A prefixed
# field's reads give the entries a run reads. A plain key set to other than
# its default, or an entry, that the run does not read is an error.
_RULES = {
    **dict.fromkeys(("name", "corpus", "folds", "seed"), (_every, None)),
    "languages": (_every, (_distinct, "be distinct and non-empty")),
    "kind": (_every, _one_of(KINDS)),
    "alignment": (_neural, _one_of(ALIGNMENTS)),
    "refit": (_mapped, _one_of(REFIT_MODES)),
    **dict.fromkeys(("target_language", "pivot_count", "pivot_train_count"), (_per_fold, None)),
    "embeddings": (lambda c: c.languages if _neural(c) else (), None),
    "matrices": (lambda c: c.languages if _global(c) else (), None),
    "dictionaries": (lambda c: [lang for lang in c.languages if lang != c.target_language]
                     if _per_fold(c) else (), None),
    "alpha": (lambda c: c.kind == "nb", _POSITIVE),
    "C": (lambda c: c.kind == "svm", _POSITIVE),
    "dev_fraction": (_neural, (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    "tokenize_mode": (_every, _one_of(TOKENIZE_MODES)),
    "oov_seed": (_neural, None),
    "oov_scale": (_neural, (lambda v: v is None or math.isfinite(v) and v >= 0,
                            "be finite and non-negative")),
    "window_sizes": (lambda c: c.kind == "cnn",
                     (lambda v: _distinct(v) and min(v) >= 1, "be distinct sizes of at least 1")),
    "train_overrides": (lambda c: [k for k in _TRAIN_KEYS if k not in _OTHERS_ONLY[c.kind]]
                        if _neural(c) else (), None),
}


def parse_config(text: str, name: str = "run") -> ExperimentConfig:
    """Parse flat key=value lines ('#' starts a comment); a missing key takes its default.

    corpus, languages and kind have no default: each must be given a value.
    A key set on two lines raises ConfigurationError naming both.
    """
    raw: dict[str, str] = {"name": name}
    set_on: dict[str, int] = {}     # key -> line that set it
    for i, line in enumerate(split_lines(text), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {i}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigurationError(f"line {i}: config key {key} is already set on line "
                                     f"{set_on[key]}")
        set_on[key] = i
        raw[key] = value.strip()

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
        if not len(self.fold_accuracies) == self.folds >= 1:
            raise ArgumentError(f"fold_accuracies must hold one accuracy per fold, at least one: "
                                f"folds is {self.folds}, got {len(self.fold_accuracies)}")
        mean = sum(self.fold_accuracies) / len(self.fold_accuracies)
        if abs(mean - self.mean_accuracy) > 1e-12:
            raise ArgumentError(f"mean_accuracy {self.mean_accuracy} is not the fold mean {mean}")

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
        obj = {"wall_clock_per_fold": [], **obj}    # the one optional field
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
                wall_clock_per_fold=obj["wall_clock_per_fold"],
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
_FINITE_LIST = ("a list of finite numbers",
                lambda v: isinstance(v, list) and all(map(_finite, v)))

# Each report field's JSON type, in field order, as (description, test).
_REPORT_TYPES = {
    "name": _STRING,
    "kind": _STRING,
    "folds": _INTEGER,
    "seed": _INTEGER,
    "fold_accuracies": _FINITE_LIST,
    "mean_accuracy": _FINITE,
    "overall_accuracy": _FINITE,
    "per_language": ("an object of objects of numbers",
                     lambda v: isinstance(v, dict) and all(
                         isinstance(s, dict) and all(map(_number, s.values()))
                         for s in v.values())),
    "config_fingerprint": _STRING,
    "wall_clock_per_fold": _FINITE_LIST,
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
    global alignment, its maps; its max_len comes from the tweets. A CNN's
    tweets and windows must fit a given context's max_len.
    """
    rules = default_rules()
    languages = config.languages
    build_context = _neural(config) and context is None
    if build_context:   # before the corpus is read
        missing = [lang for lang in languages if lang not in config.embeddings]
        if missing:
            raise ConfigurationError(f"no embedding path for languages: {missing}")
    if records is None:
        if not config.corpus:
            raise ConfigurationError("corpus is empty: give the corpus path, or pass records")
        records = load_corpus(config.corpus)
    records = [r for r in records if r.lang in languages]
    tweets, _dropped = preprocess_corpus(records, rules, config.tokenize_mode)
    if not tweets:
        raise ArgumentError(f"no usable records in languages {languages}")
    if not build_context:
        if context is not None and config.kind == "cnn":
            longest, window = corpus_max_len(tweets), max(config.window_sizes)
            if longest > context.max_len:
                raise ConfigurationError(f"the longest tweet has {longest} tokens, more than "
                                         f"the given context's max_len {context.max_len}")
            if window > context.max_len:
                raise ConfigurationError(f"window_sizes holds {window}, more than the given "
                                         f"context's max_len {context.max_len}")
        return tweets, context
    max_len = corpus_max_len(tweets)
    if config.kind == "cnn" and max(config.window_sizes) > max_len:
        raise ConfigurationError(f"window_sizes holds {max(config.window_sizes)}, longer than "
                                 f"the longest tweet ({max_len} tokens)")
    # __post_init__ allows matrices only under global alignment, for listed languages
    context = EmbeddingContext.from_paths(
        {lang: config.embeddings[lang] for lang in languages},
        config.matrices,
        oov_seed=config.oov_seed,
        oov_scale=config.oov_scale,
        max_len=max_len,
        rules_version=rules_version(rules, config.tokenize_mode),
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

    The folds are dealt in contiguous runs to one share per usable CPU
    (multisent.shares): this process runs share 0, a forked worker each
    other. Each share runs its folds in order on its own workspace and
    stops at its first failing fold, so the report, in fold order, and
    the error of the lowest failing fold do not depend on the CPU count.
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

    def run_share(share: int) -> list[tuple[dict[str, Polarity], float]]:
        """(predictions, seconds) for each fold of the share's run, in fold order."""
        workspace = Workspace()
        done = []
        for fold in share_run(share, shares, config.folds):
            start = time.perf_counter()
            test_ids = plan.fold_ids(fold)
            train_ids = [tw.id for tw in tweets if plan.assignments[tw.id] != fold]
            audit = IdAudit()
            predictions = _run_fold(
                config, fold, train_ids, test_ids, by_id, context, dictionaries,
                numbering, audit, workspace,
            )
            audit.assert_disjoint(test_ids)
            done.append((predictions, time.perf_counter() - start))
        return done

    right: dict[str, bool] = {}     # test id -> predicted its label
    fold_accuracies: list[float] = []
    wall_clock: list[float] = []
    for predictions, seconds in (run for done in run_shares(run_share, shares) for run in done):
        right.update((rid, pred == by_id[rid].label) for rid, pred in predictions.items())
        fold_accuracies.append(sum(right[rid] for rid in predictions) / len(predictions))
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
    for_train = replace(numbered, ids=[ids[tw.id] for tw in train_tweets + dev_tweets])
    trained = train(config.kind, train_tweets, dev_tweets, context,
                    config.train_config(fold_seed), workspace, numbered=for_train)
    preds = predict_batch(trained, test_tweets, context, workspace, numbered=numbered)
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
