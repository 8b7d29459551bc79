"""Cross-validation driver: config plumbing, audits, reports, comparisons."""

import json
import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest

import multisent.experiment as experiment
from multisent.align import TranslationMatrix, save_translation_matrix
from multisent.corpus import Polarity, TweetRecord
from multisent.errors import ArgumentError, ConfigurationError, CoverageError, LeakageError
from multisent.experiment import (
    CVReport,
    ExperimentConfig,
    IdAudit,
    compare_runs,
    compare_runs_csv,
    parse_config,
    run_experiment,
)
from multisent.nn.workspace import Workspace
from multisent.synth import SynthSpec, generate_fixture, write_fixture

from conftest import marker_tweets, toy_context


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
        a = nb_config(embeddings={"en": "x", "ja": "y"})
        b = nb_config(embeddings={"ja": "y", "en": "x"})
        assert a.fingerprint() == b.fingerprint()
        c = nb_config(seed=1)
        assert c.fingerprint() != a.fingerprint()

    def test_train_config_carries_overrides_and_seed(self):
        cfg = nb_config(kind="cnn", train_overrides={"batch_size": 4},
                        window_sizes=(2,))
        tc = cfg.train_config(seed=7)
        assert tc.batch_size == 4 and tc.seed == 7 and tc.window_sizes == (2,)


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
        matrices = {}
        for lang in mapped:
            matrices[lang] = tmp_path / f"{lang}.mat"
            tm = TranslationMatrix(lang, self.SPEC.target, fixture.rotations[lang].T.copy())
            save_translation_matrix(tm, matrices[lang])
        return ExperimentConfig(
            name="shared", corpus=paths["corpus"], languages=self.SPEC.languages,
            kind=kind, folds=2, seed=0, alignment="translation_matrix", refit=refit,
            target_language=self.SPEC.target, pivot_count=8, pivot_train_count=6,
            embeddings={lang: paths[f"embedding.{lang}"] for lang in self.SPEC.languages},
            matrices=matrices if refit == "global" else {},
            dictionaries={lang: paths[f"dictionary.{lang}"] for lang in mapped},
            window_sizes=(2, 3),
            train_overrides=dict(batch_size=8, max_epochs=2, patience=2,
                                 filters_per_window=4, **over),
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
    """Folds dealt into shares by usable CPU: with two, share 0 (folds 0, 2, ...)
    runs in this process and share 1 (folds 1, 3, ...) in a forked worker."""

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
            reports.append(run_experiment(nb_config(folds=3), records=marker_records(30)))
            assert multiprocessing.active_children() == []
        assert len({r.canonical_json() for r in reports}) == 1
        assert all(len(r.wall_clock_per_fold) == 3 for r in reports)

    def test_worker_error_keeps_its_class_and_attributes(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        self.fail_folds(monkeypatch, {
            1: lambda pid: CoverageError(f"short in {pid}", shortfall=4),
        })
        with pytest.raises(CoverageError) as caught:
            run_experiment(nb_config(folds=3), records=marker_records(30))
        assert caught.value.shortfall == 4
        assert str(caught.value).startswith("short in ")
        assert int(str(caught.value).split()[-1]) != os.getpid()   # raised in the worker
        assert multiprocessing.active_children() == []

    def test_lowest_failing_fold_raises_as_with_one_share(self, monkeypatch):
        self.fail_folds(monkeypatch, {
            1: lambda pid: ConfigurationError("fold 1"),   # in the worker
            2: lambda pid: LeakageError("fold 2"),         # here, after fold 0
        })
        for count in (1, 2):
            self.cpus(monkeypatch, count)
            with pytest.raises(ConfigurationError, match="fold 1"):
                run_experiment(nb_config(folds=3), records=marker_records(30))
            assert multiprocessing.active_children() == []
