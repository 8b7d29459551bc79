"""Cross-validation driver: config plumbing, audits, reports, comparisons."""

import json
import os
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import multisent.experiment as experiment
from multisent.align import TranslationMatrix, save_translation_matrix
from multisent.corpus import Polarity, TweetRecord
from multisent.errors import (
    ArgumentError,
    ConfigurationError,
    CoverageError,
    LeakageError,
    MultisentError,
)
from multisent.experiment import (
    CVReport,
    ExperimentConfig,
    IdAudit,
    compare_runs,
    compare_runs_csv,
    parse_config,
    run_experiment,
)
from multisent.nn import TrainConfig
from multisent.nn.workspace import Workspace
from multisent.synth import SynthSpec, generate_fixture, write_fixture

from conftest import marker_tweets, no_worker_left, toy_context

ROOT = Path(__file__).resolve().parent.parent


def nb_config(**over) -> ExperimentConfig:
    base = dict(name="run", corpus="", languages=("en",), kind="nb",
                folds=5, seed=0)
    base.update(over)
    return ExperimentConfig(**base)


def marker_records(n: int, lang: str = "en") -> list[TweetRecord]:
    return [
        TweetRecord(id=tw.id, lang=tw.lang, text=" ".join(tw.tokens), label=tw.label)
        for tw in marker_tweets(n, lang=lang)
    ]


class TestConfigParsing:
    TEXT = """\
# comment line
name = demo
corpus = corpus.jsonl
languages = en,ja
kind = cnn
folds = 5
seed = 3          # trailing comment
alignment = translation_matrix
embedding.en = en.vec
embedding.ja = ja.vec
matrix.ja = ja-en.mat
train.batch_size = 16
train.dropout_rate = 0.25
window_sizes = 2,3
"""

    def test_parse_round_trip(self):
        cfg = parse_config(self.TEXT)
        assert cfg.name == "demo"
        assert cfg.languages == ("en", "ja")
        assert cfg.folds == 5 and cfg.seed == 3
        assert cfg.embeddings == {"en": "en.vec", "ja": "ja.vec"}
        assert cfg.matrices == {"ja": "ja-en.mat"}
        assert cfg.train_overrides == {"batch_size": 16, "dropout_rate": 0.25}
        assert cfg.window_sizes == (2, 3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("kind = nb\nlanguages = en\nlearning_rate = ction\n")
        assert "unknown config keys" in str(err.value)

    def test_bad_value_reported(self):
        with pytest.raises(ConfigurationError):
            parse_config("kind = nb\nlanguages = en\nfolds = many\n")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("kind = nb\njust words\n")
        assert "line 2" in str(err.value)

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("kind = nb\nlanguages = en\n# kind = lstm\n\nkind= svm\n")
        assert str(err.value) == "line 5: config key kind is already set on line 1"

    def test_name_line_is_not_a_repeat_of_the_default(self):
        config = parse_config("name = mine\ncorpus = c\nlanguages = en\nkind = nb\n",
                              name="from-file")
        assert config.name == "mine"

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("No", False),
    ])
    def test_bool_reads_each_spelling(self, word, value):
        cfg = parse_config("corpus = c.jsonl\nlanguages = en\nkind = cnn\n"
                           f"train.fine_tune_embeddings = {word}\n")
        assert cfg.train_overrides == {"fine_tune_embeddings": value}

    @pytest.mark.parametrize("line, message", [
        ("train.fine_tune_embeddings =", "bad config value for "
         "train.fine_tune_embeddings: expected 1/true/yes or 0/false/no, got ''"),
        ("window_sizes = 2,x", "bad config value for window_sizes: "
         "invalid literal for int() with base 10: 'x'"),
        ("train.rho = fast", "bad config value for train.rho: "
         "could not convert string to float: 'fast'"),
    ], ids=["bool-empty", "int-tuple", "train-float"])
    def test_unreadable_value_names_its_key(self, line, message):
        with pytest.raises(ConfigurationError) as err:
            parse_config(f"corpus = c.jsonl\nlanguages = en\nkind = cnn\n{line}\n")
        assert str(err.value) == message

    @pytest.mark.parametrize("text, missing", [
        ("languages = en\nkind = nb\n", ["corpus"]),
        ("corpus =\nlanguages = en\nkind = nb\n", ["corpus"]),
        ("corpus = c.jsonl\n", ["languages", "kind"]),
    ], ids=["corpus-absent", "corpus-empty", "two-absent"])
    def test_missing_required_key_is_named(self, text, missing):
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert str(err.value) == f"missing or empty required config keys: {missing}"


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            nb_config(kind="transformer")

    def test_alignment_needs_a_matrix(self):
        with pytest.raises(ConfigurationError):
            nb_config(kind="cnn", alignment="translation_matrix")

    def test_per_fold_needs_target_and_dictionaries(self):
        with pytest.raises(ConfigurationError):
            nb_config(kind="cnn", alignment="translation_matrix",
                      refit="per_fold", languages=("en", "ja"))
        with pytest.raises(ConfigurationError):
            nb_config(kind="cnn", alignment="translation_matrix",
                      refit="per_fold", languages=("en", "ja"),
                      target_language="en")  # ja dictionary missing
        with pytest.raises(ConfigurationError, match="target_language 'zh' is not in languages"):
            nb_config(kind="cnn", alignment="translation_matrix",
                      refit="per_fold", languages=("en", "ja"),
                      target_language="zh", dictionaries={"en": "d.tsv", "ja": "d.tsv"})

    def test_pivot_budget_ordering(self):
        with pytest.raises(ConfigurationError):
            nb_config(kind="cnn", alignment="translation_matrix",
                      refit="per_fold", languages=("en", "ja"),
                      target_language="en", dictionaries={"ja": "d.tsv"},
                      pivot_count=10, pivot_train_count=11)

    @pytest.mark.parametrize("over, message", [
        (dict(window_sizes=()), "window_sizes must be distinct sizes of at least 1, got ()"),
        (dict(dev_fraction=0.0), "dev_fraction must lie in (0, 1), got 0.0"),
        (dict(dev_fraction=1.0), "dev_fraction must lie in (0, 1), got 1.0"),
    ])
    def test_run_values_checked_at_construction(self, over, message):
        with pytest.raises(ConfigurationError) as err:
            nb_config(kind="cnn", **over)
        assert str(err.value) == message

    def test_fingerprint_tracks_content_not_insertion_order(self):
        a = nb_config(kind="lstm", languages=("en", "ja"), embeddings={"en": "x", "ja": "y"})
        b = nb_config(kind="lstm", languages=("en", "ja"), embeddings={"ja": "y", "en": "x"})
        assert a.fingerprint() == b.fingerprint()
        c = nb_config(kind="lstm", languages=("en", "ja"), embeddings={"en": "x", "ja": "y"},
                      seed=1)
        assert c.fingerprint() != a.fingerprint()

    def test_train_config_carries_overrides_and_seed(self):
        cfg = nb_config(kind="cnn", train_overrides={"batch_size": 4},
                        window_sizes=(2,))
        tc = cfg.train_config(seed=7)
        assert tc.batch_size == 4 and tc.seed == 7 and tc.window_sizes == (2,)

    @pytest.mark.parametrize("name, fingerprint", [
        ("nb", "5cf41ac3a235ef41b798050833f01b33a8125b4e5de2f8771f89ddfe8373b66e"),
        ("cnn", "50dbc3696347811efbf426c2d2dc1f6f2084709c5407eb7366f003cef08252bf"),
    ])
    def test_readme_demo_fingerprints_hold(self, name, fingerprint):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(rf"```\n# demo/{name}\.cfg\n(.*?)```", readme, re.S).group(1)
        assert parse_config(block, name=name).fingerprint() == fingerprint


class TestKeysEachRunReads:
    """The config rule against its own copy of the keys each run reads.

    kind, alignment and refit pick the run: each run's config, which sets
    them as the run needs, is accepted, and alignment or refit set on a run
    that does not read it is rejected. Every other key is set on each run to
    a valid value other than its default, and the config is accepted exactly
    when the run reads the key; a rejection names the key.
    """

    LISTED = ("en", "ja", "zh")
    EVERY = {"name", "corpus", "languages", "kind", "folds", "seed", "tokenize_mode"}
    NEURAL = {"alignment", "dev_fraction", "oov_seed", "oov_scale",
              *(f"embedding.{lang}" for lang in LISTED),
              *(f"train.{key}" for key in ("batch_size", "dropout_rate", "rho", "eps",
                                           "max_epochs", "patience", "fine_tune_embeddings"))}
    LSTM = {"train.hidden_dim", "train.forget_bias", "train.candidate_activation"}
    CNN = {"window_sizes", "train.filters_per_window", "train.cnn_activation"}
    GLOBAL = {"refit", *(f"matrix.{lang}" for lang in LISTED)}
    PER_FOLD = {"refit", "target_language", "pivot_count", "pivot_train_count",
                "dictionary.ja", "dictionary.zh"}
    EMBEDDINGS = [f"embedding.{lang} = {lang}.vec" for lang in LISTED]
    RUNS = {
        "nb": (["kind = nb"], EVERY | {"alpha"}),
        "svm": (["kind = svm"], EVERY | {"C"}),
        "lstm": (["kind = lstm", *EMBEDDINGS], EVERY | NEURAL | LSTM),
        "cnn-global-maps": (["kind = cnn", *EMBEDDINGS, "alignment = translation_matrix",
                             "matrix.ja = ja-en.mat", "matrix.zh = zh-en.mat"],
                            EVERY | NEURAL | CNN | GLOBAL),
        "lstm-per-fold": (["kind = lstm", *EMBEDDINGS, "alignment = translation_matrix",
                           "refit = per_fold", "target_language = en",
                           "dictionary.ja = ja-en.tsv", "dictionary.zh = zh-en.tsv"],
                          EVERY | NEURAL | LSTM | PER_FOLD),
    }
    # A valid value other than the default for every key; de is not a listed language.
    VALUES = {
        "name": "other", "corpus": "other.jsonl", "languages": "zh,ja,en", "folds": "4",
        "seed": "9", "tokenize_mode": "pretokenized", "alignment": "translation_matrix",
        "refit": "per_fold", "target_language": "en", "pivot_count": "30",
        "pivot_train_count": "10", "alpha": "2", "C": "3", "dev_fraction": "0.2",
        "oov_seed": "4", "oov_scale": "0.5", "window_sizes": "2,3",
        **{f"{prefix}.{lang}": "other" for lang in (*LISTED, "de")
           for prefix in ("embedding", "matrix", "dictionary")},
        "train.batch_size": "8", "train.dropout_rate": "0.25", "train.rho": "0.9",
        "train.eps": "1e-5", "train.max_epochs": "7", "train.patience": "2",
        "train.fine_tune_embeddings": "true", "train.hidden_dim": "8",
        "train.forget_bias": "0.5", "train.candidate_activation": "relu",
        "train.filters_per_window": "8", "train.cnn_activation": "relu",
    }

    def parse(self, lines):
        by_key = {line.partition("=")[0].strip(): line
                  for line in ["corpus = c.jsonl", "languages = en,ja,zh", *lines]}
        return parse_config("\n".join(by_key.values()))

    def test_every_key_has_a_value(self):
        plain = {f.name for f in fields(ExperimentConfig)} - set(experiment._PREFIXES)
        train_keys = {f"train.{f.name}" for f in fields(TrainConfig)
                      if f.name not in ("seed", "window_sizes")}
        assert (plain - {"kind"}) | train_keys <= set(self.VALUES)    # kind picks the run

    @pytest.mark.parametrize("run", RUNS)
    def test_a_key_is_accepted_exactly_when_the_run_reads_it(self, run):
        lines, reads = self.RUNS[run]
        self.parse(lines)
        wrong = []
        for key, value in self.VALUES.items():
            if key in ("kind", "alignment", "refit") and key in reads:
                continue
            try:
                self.parse([*lines, f"{key} = {value}"])
                accepted = True
            except ConfigurationError as err:
                accepted = False
                assert key in str(err).partition(" never reads: ")[2].split(", "), str(err)
            if accepted != (key in reads):
                wrong.append(key)
        assert wrong == []


class TestIdAudit:
    def test_disjoint_passes(self):
        audit = IdAudit()
        audit.touch(["a", "b"])
        audit.assert_disjoint(["c", "d"])

    def test_overlap_raises_with_names(self):
        audit = IdAudit()
        audit.touch(["a", "b", "c"])
        with pytest.raises(LeakageError) as err:
            audit.assert_disjoint(["b", "c", "z"])
        assert "2" in str(err.value) and "'b'" in str(err.value)

    def test_use_registers_while_yielding(self):
        audit = IdAudit()
        tweets = marker_tweets(3)
        out = list(audit.use(tweets))
        assert out == tweets
        assert audit.touched == {tw.id for tw in tweets}


class TestCVReport:
    def make(self, **over):
        base = dict(
            name="r", kind="nb", folds=2, seed=0,
            fold_accuracies=[0.5, 0.7], mean_accuracy=0.6,
            overall_accuracy=0.6,
            per_language={"en": {"correct": 6.0, "total": 10.0, "accuracy": 0.6}},
            config_fingerprint="abc",
            wall_clock_per_fold=[0.1, 0.2],
        )
        base.update(over)
        return CVReport(**base)

    def test_mean_must_match_folds(self):
        with pytest.raises(ArgumentError):
            self.make(mean_accuracy=0.65)

    def test_canonical_json_ignores_wall_clock(self):
        a = self.make(wall_clock_per_fold=[0.1, 0.2])
        b = self.make(wall_clock_per_fold=[9.9, 8.8])
        assert a.canonical_json() == b.canonical_json()
        assert a.to_json() != b.to_json()

    def test_json_round_trip(self):
        a = self.make()
        back = CVReport.from_json(a.to_json())
        assert back == a
        assert json.loads(a.to_json())["wall_clock_per_fold"] == [0.1, 0.2]


class TestCompareRuns:
    def report(self, name, mean, kind="nb"):
        return CVReport(
            name=name, kind=kind, folds=1, seed=0,
            fold_accuracies=[mean], mean_accuracy=mean,
            overall_accuracy=mean, per_language={}, config_fingerprint="f",
        )

    def test_single_report_has_no_delta_column(self):
        text = compare_runs([self.report("solo", 0.5)])
        assert "delta" not in text
        assert "0.500" in text

    def test_delta_against_first_sorted_name(self):
        text = compare_runs([
            self.report("b-new", 0.587), self.report("a-base", 0.573),
        ])
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["name", "kind"]
        assert "baseline" in lines[1] and "a-base" in lines[1]
        assert "+0.014" in lines[2]

    def test_explicit_baseline(self):
        text = compare_runs(
            [self.report("a", 0.5), self.report("b", 0.4)], baseline="b")
        row_a = [l for l in text.splitlines() if l.startswith("a")][0]
        assert "+0.100" in row_a
        with pytest.raises(ArgumentError):
            compare_runs([self.report("a", 0.5), self.report("b", 0.4)],
                         baseline="zzz")

    def test_csv_variant(self):
        text = compare_runs_csv([
            self.report("b-new", 0.587), self.report("a-base", 0.573),
        ])
        lines = text.splitlines()
        assert lines[0] == "name,kind,folds,mean_accuracy,delta"
        assert lines[1].endswith(",baseline")
        assert lines[2].endswith(",+0.014000")

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            compare_runs([])

    @pytest.mark.parametrize("render, expected", [
        (compare_runs, "name  kind  folds  mean_accuracy  delta\n"
                       "a     nb    1      0.500          +0.100\n"
                       "b     nb    1      0.400          baseline\n"),
        (compare_runs_csv, "name,kind,folds,mean_accuracy,delta\n"
                           "a,nb,1,0.500000,+0.100000\n"
                           "b,nb,1,0.400000,baseline\n"),
    ], ids=["text", "csv"])
    def test_explicit_baseline_bytes(self, render, expected):
        assert render([self.report("b", 0.4), self.report("a", 0.5)], baseline="b") == expected

    @pytest.mark.parametrize("render, expected", [
        (compare_runs, "name  kind  folds  mean_accuracy\nsolo  nb    1      0.500\n"),
        (compare_runs_csv, "name,kind,folds,mean_accuracy\nsolo,nb,1,0.500000\n"),
    ], ids=["text", "csv"])
    def test_single_report_bytes(self, render, expected):
        # A lone report has no delta column, whatever baseline is named.
        assert render([self.report("solo", 0.5)]) == expected
        assert render([self.report("solo", 0.5)], baseline="zzz") == expected

    @pytest.mark.parametrize("render", [compare_runs, compare_runs_csv], ids=["text", "csv"])
    def test_unknown_baseline_and_empty_rejected(self, render):
        with pytest.raises(ArgumentError, match="baseline 'zzz' not among report names"):
            render([self.report("a", 0.5), self.report("b", 0.4)], baseline="zzz")
        with pytest.raises(ArgumentError, match="no reports to compare"):
            render([])


class TestRunExperiment:
    def test_needs_two_folds(self):
        with pytest.raises(ArgumentError):
            run_experiment(nb_config(folds=1), records=marker_records(10))

    def test_empty_corpus_without_records_names_corpus(self):
        with pytest.raises(ConfigurationError, match="corpus is empty"):
            run_experiment(nb_config())

    def test_nb_on_marker_corpus(self):
        report = run_experiment(nb_config(), records=marker_records(30))
        assert report.folds == 5
        assert len(report.fold_accuracies) == 5
        assert report.mean_accuracy > 0.8  # marker token decides the label
        stats = report.per_language["en"]
        assert stats["total"] == 30.0
        assert stats["correct"] == report.overall_accuracy * 30.0

    def test_run_is_deterministic(self):
        a = run_experiment(nb_config(), records=marker_records(30))
        b = run_experiment(nb_config(), records=marker_records(30))
        assert a.canonical_json() == b.canonical_json()

    def test_scope_filters_languages(self):
        records = marker_records(15, lang="en") + marker_records(15, lang="ja")
        cfg = nb_config(languages=("ja",), folds=3)
        report = run_experiment(cfg, records=records)
        assert list(report.per_language) == ["ja"]
        assert report.per_language["ja"]["total"] == 15.0

    def test_language_without_usable_records_reports_zeros(self):
        cfg = nb_config(languages=("en", "ja"), folds=3)
        report = run_experiment(cfg, records=marker_records(15, lang="en"))
        assert report.per_language["ja"] == {"correct": 0.0, "total": 0.0, "accuracy": 0.0}
        assert report.per_language["en"]["total"] == 15.0
        assert report.overall_accuracy == report.per_language["en"]["accuracy"]

    def test_svm_kind_runs(self):
        cfg = nb_config(kind="svm", folds=3)
        report = run_experiment(cfg, records=marker_records(30))
        assert report.mean_accuracy > 0.8

    def test_cnn_with_passed_context(self):
        tweets = marker_tweets(30)
        ctx = toy_context(tweets, dim=6)
        cfg = nb_config(
            kind="cnn", folds=3, window_sizes=(2, 3),
            train_overrides=dict(batch_size=8, max_epochs=10, patience=10,
                                 filters_per_window=4, dropout_rate=0.2),
        )
        report = run_experiment(cfg, records=marker_records(30), context=ctx)
        assert report.mean_accuracy > 1.0 / 3.0
        assert len(report.wall_clock_per_fold) == 3
        assert all(t > 0 for t in report.wall_clock_per_fold)

    @pytest.mark.parametrize("max_len, window_sizes, message", [
        (3, (2,), "the longest tweet has 5 tokens, more than the given context's max_len 3"),
        (5, (2, 6), "window_sizes holds 6, more than the given context's max_len 5"),
    ])
    def test_cnn_context_too_short_fails_before_any_fold(self, monkeypatch, max_len,
                                                         window_sizes, message):
        ctx = toy_context(marker_tweets(30), dim=6)
        ctx.max_len = max_len
        monkeypatch.setattr(experiment, "_run_fold", lambda *a: pytest.fail("a fold ran"))
        cfg = nb_config(kind="cnn", folds=3, window_sizes=window_sizes,
                        train_overrides=dict(max_epochs=1, filters_per_window=2))
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            run_experiment(cfg, records=marker_records(30), context=ctx)

    def test_leakage_in_fold_worker_is_fatal(self, monkeypatch):
        def dishonest(config, fold, train_ids, test_ids, by_id, context,
                      dictionaries, ngrams, audit, *_):
            audit.touch(test_ids)  # peeks at held-out examples
            return {rid: Polarity.NEUTRAL for rid in test_ids}

        monkeypatch.setattr(experiment, "_run_fold", dishonest)
        with pytest.raises(LeakageError):
            run_experiment(nb_config(), records=marker_records(20))


# Canonical NB and SVM reports on SynthSpec(seed=3, n_tweets=150), 5 folds, by
# (kind, languages): (fold accuracies, mean, overall, {lang: (correct, total,
# accuracy)}). They were captured while a one-language run still built its
# n-gram space without language tags, so they pin that tagging every n-gram
# changes no prediction.
SCOPE_REPORTS = {
    ("nb", ("en", "ja", "zh")):
        ([0.7, 0.7666666666666667, 0.7, 0.6, 0.7333333333333333],
         0.7000000000000001, 0.7,
         {"en": (32, 51, 0.6274509803921569), "ja": (35, 51, 0.6862745098039216),
          "zh": (38, 48, 0.7916666666666666)}),
    ("nb", ("en",)):
        ([0.45454545454545453, 0.7, 0.8, 0.8, 0.9],
         0.730909090909091, 0.7254901960784313,
         {"en": (37, 51, 0.7254901960784313)}),
    ("nb", ("ja",)):
        ([0.7272727272727273, 0.8, 0.9, 0.7, 0.7],
         0.7654545454545454, 0.7647058823529411,
         {"ja": (39, 51, 0.7647058823529411)}),
    ("svm", ("en", "ja", "zh")):
        ([0.7333333333333333, 0.7333333333333333, 0.7, 0.6, 0.7333333333333333],
         0.7, 0.7,
         {"en": (36, 51, 0.7058823529411765), "ja": (36, 51, 0.7058823529411765),
          "zh": (33, 48, 0.6875)}),
    ("svm", ("en",)):
        ([0.6363636363636364, 0.8, 0.7, 0.8, 0.5],
         0.6872727272727273, 0.6862745098039216,
         {"en": (35, 51, 0.6862745098039216)}),
    ("svm", ("ja",)):
        ([0.6363636363636364, 0.7, 0.7, 0.7, 0.7],
         0.6872727272727273, 0.6862745098039216,
         {"ja": (35, 51, 0.6862745098039216)}),
}


@pytest.fixture(scope="module")
def scope_fixture():
    spec = SynthSpec(seed=3, n_tweets=150)
    return spec, generate_fixture(spec).records


@pytest.mark.parametrize("kind, languages", [
    pytest.param(kind, languages, id=f"{kind}-{languages[0] if len(languages) == 1 else 'all'}")
    for kind, languages in sorted(SCOPE_REPORTS)
])
def test_ngram_reports_per_scope_are_pinned(scope_fixture, kind, languages):
    spec, records = scope_fixture
    assert spec.languages == ("en", "ja", "zh")
    cfg = ExperimentConfig(name="fx", corpus="", languages=languages, kind=kind,
                           folds=5, seed=0)
    got = run_experiment(cfg, records=records).canonical_dict()
    del got["config_fingerprint"]
    folds, mean, overall, per_language = SCOPE_REPORTS[(kind, languages)]
    assert got == {
        "name": "fx", "kind": kind, "folds": 5, "seed": 0,
        "fold_accuracies": folds, "mean_accuracy": mean, "overall_accuracy": overall,
        "per_language": {
            lang: {"accuracy": acc, "correct": float(correct), "total": float(total)}
            for lang, (correct, total, acc) in per_language.items()
        },
    }


class TestPerFoldRefit:
    def test_end_to_end_on_synthetic_fixture(self, tmp_path):
        spec = SynthSpec(n_tweets=36, dim=8, markers_per_class=6,
                         filler_vocab=12, seed=4)
        paths = write_fixture(generate_fixture(spec), tmp_path)
        cfg = ExperimentConfig(
            name="refit", corpus=paths["corpus"],
            languages=spec.languages, kind="cnn", folds=2, seed=0,
            alignment="translation_matrix", refit="per_fold",
            target_language=spec.target,
            pivot_count=8, pivot_train_count=6,
            embeddings={lang: paths[f"embedding.{lang}"] for lang in spec.languages},
            dictionaries={
                lang: paths[f"dictionary.{lang}"]
                for lang in spec.languages if lang != spec.target
            },
            window_sizes=(2, 3),
            train_overrides=dict(batch_size=8, max_epochs=8, patience=8,
                                 filters_per_window=4, dropout_rate=0.2),
        )
        report = run_experiment(cfg)
        assert report.folds == 2
        assert all(0.0 <= acc <= 1.0 for acc in report.fold_accuracies)
        totals = sum(s["total"] for s in report.per_language.values())
        assert totals == 36.0


class TestSharedPerEvaluate:
    """One workspace and one content hash per table serve a whole evaluate."""

    SPEC = SynthSpec(n_tweets=36, dim=8, markers_per_class=6, filler_vocab=12, seed=4)

    def config(self, tmp_path, kind: str, refit: str, **over) -> ExperimentConfig:
        fixture = generate_fixture(self.SPEC)
        paths = write_fixture(fixture, tmp_path)
        mapped = [lang for lang in self.SPEC.languages if lang != self.SPEC.target]
        # only the keys the run reads: its maps, and the CNN's windows and filters
        if refit == "global":
            maps = dict(matrices={lang: tmp_path / f"{lang}.mat" for lang in mapped})
            for lang, path in maps["matrices"].items():
                tm = TranslationMatrix(lang, self.SPEC.target, fixture.rotations[lang].T.copy())
                save_translation_matrix(tm, path)
        else:
            maps = dict(target_language=self.SPEC.target, pivot_count=8, pivot_train_count=6,
                        dictionaries={lang: paths[f"dictionary.{lang}"] for lang in mapped})
        if kind == "cnn":
            maps["window_sizes"] = (2, 3)
            over = dict(filters_per_window=4, **over)
        return ExperimentConfig(
            name="shared", corpus=paths["corpus"], languages=self.SPEC.languages,
            kind=kind, folds=2, seed=0, alignment="translation_matrix", refit=refit,
            embeddings={lang: paths[f"embedding.{lang}"] for lang in self.SPEC.languages},
            train_overrides=dict(batch_size=8, max_epochs=2, patience=2, **over), **maps,
        )

    @staticmethod
    def count_calls(monkeypatch, cls, name: str, key) -> Counter:
        calls = Counter()
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[key(self)] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    @pytest.mark.parametrize("kind, over", [
        ("cnn", dict(fine_tune_embeddings=True)), ("lstm", {}),
    ])
    def test_neural_evaluate_builds_one_workspace(self, tmp_path, monkeypatch, kind, over):
        built = self.count_calls(monkeypatch, Workspace, "__init__", lambda ws: "built")
        run_experiment(self.config(tmp_path, kind, "global", **over))
        assert built == {"built": 1}

    def test_global_map_evaluate_hashes_each_table_once(self, tmp_path, table_hashes):
        run_experiment(self.config(tmp_path, "cnn", "global"))
        assert table_hashes == {lang: 1 for lang in self.SPEC.languages}

    def test_per_fold_evaluate_hashes_each_table_once(self, tmp_path, table_hashes):
        run_experiment(self.config(tmp_path, "lstm", "per_fold"))
        assert table_hashes == {lang: 1 for lang in self.SPEC.languages}

    def test_mutating_a_returned_fingerprint_leaves_the_context_alone(self):
        ctx = toy_context(marker_tweets(12))
        first = ctx.fingerprint()
        kept = dict(first)
        first["embeddings:en"] = "0" * 64
        first["extra"] = "x"
        assert ctx.fingerprint() == kept


class TestShares:
    """Folds dealt into shares by usable CPU, one contiguous run each: with two
    shares and 3 folds, share 0 (folds 0 and 1) runs in this process and share 1
    (fold 2) in a forked worker."""

    @staticmethod
    def cpus(monkeypatch, count: int) -> None:
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform, so evaluate never forks")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def fail_folds(monkeypatch, errors: dict) -> None:
        """_run_fold, except that fold f raises errors[f](pid of the process running it)."""
        real = experiment._run_fold

        def run_fold(config, fold, *args):
            if fold in errors:
                raise errors[fold](os.getpid())
            return real(config, fold, *args)

        monkeypatch.setattr(experiment, "_run_fold", run_fold)

    def test_report_bytes_ignore_the_share_count(self, monkeypatch):
        reports = []
        for count in (1, 2, 3):
            self.cpus(monkeypatch, count)
            with no_worker_left():
                reports.append(run_experiment(nb_config(folds=3), records=marker_records(30)))
        assert len({r.canonical_json() for r in reports}) == 1
        assert all(len(r.wall_clock_per_fold) == 3 for r in reports)

    @pytest.mark.parametrize("count, runs", [
        (2, [[0, 1, 2], [3, 4]]),
        (3, [[0, 1], [2, 3], [4]]),
    ])
    def test_each_share_runs_one_contiguous_run_of_folds(self, monkeypatch, tmp_path,
                                                         count, runs):
        # as many folds per share as round-robin dealing gives it, in fold order
        assert [len(run) for run in runs] == [len(range(share, 5, count))
                                              for share in range(count)]
        self.cpus(monkeypatch, count)
        real = experiment._run_fold

        def run_fold(config, fold, *args):
            with open(tmp_path / "folds.txt", "a", encoding="utf-8") as log:
                log.write(f"{os.getpid()} {fold}\n")
            return real(config, fold, *args)

        monkeypatch.setattr(experiment, "_run_fold", run_fold)
        run_experiment(nb_config(folds=5), records=marker_records(50))
        by_pid: dict[int, list[int]] = {}
        for line in (tmp_path / "folds.txt").read_text(encoding="utf-8").splitlines():
            pid, fold = map(int, line.split())
            by_pid.setdefault(pid, []).append(fold)
        assert by_pid[os.getpid()] == runs[0]
        assert sorted(by_pid.values()) == runs

    def test_worker_error_keeps_its_class_and_attributes(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        self.fail_folds(monkeypatch, {
            2: lambda pid: CoverageError(f"short in {pid}", shortfall=4),
        })
        with no_worker_left(), pytest.raises(CoverageError) as caught:
            run_experiment(nb_config(folds=3), records=marker_records(30))
        assert caught.value.shortfall == 4
        assert str(caught.value).startswith("short in ")
        assert int(str(caught.value).split()[-1]) != os.getpid()   # raised in the worker

    def raises_lowest_failing_fold(self, monkeypatch, failing: dict, raised: type) -> None:
        """4 folds at 1, 2 and 3 CPUs raise failing's lowest fold's error, of class raised.

        At 2 CPUs folds 0-1 run here and 2-3 in the worker; at 3 CPUs folds
        0-1 run here, fold 2 in the first worker and fold 3 in the second.
        """
        self.fail_folds(monkeypatch, {
            fold: lambda pid, error=error, fold=fold: error(f"fold {fold}")
            for fold, error in failing.items()
        })
        for count in (1, 2, 3):
            self.cpus(monkeypatch, count)
            with no_worker_left(), pytest.raises(raised, match=f"fold {min(failing)}") as caught:
                run_experiment(nb_config(folds=4), records=marker_records(40))
            assert type(caught.value) is raised

    def test_lowest_failing_fold_raises_as_with_one_share(self, monkeypatch):
        # one failing fold per share: fold 1 here, folds 2 and 3 in the workers
        self.raises_lowest_failing_fold(
            monkeypatch, {1: ConfigurationError, 2: LeakageError, 3: LeakageError},
            ConfigurationError)

    def test_lowest_failing_fold_in_a_worker_raises_as_with_one_share(self, monkeypatch):
        self.raises_lowest_failing_fold(
            monkeypatch, {2: ArgumentError, 3: LeakageError}, ArgumentError)

    def test_worker_that_dies_raises_naming_its_exit_code(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        self.fail_folds(monkeypatch, {2: lambda pid: os._exit(1)})   # fold 2 is the worker's
        with no_worker_left(), pytest.raises(
                MultisentError,
                match="a worker process exited with code 1 before returning its share"):
            run_experiment(nb_config(folds=3), records=marker_records(30))
