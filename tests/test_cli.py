"""Every subcommand driven in-process through main(argv)."""

import argparse
import hashlib
import importlib
import json
import multiprocessing
import os
import re
from pathlib import Path

import pytest

import numpy as np

from multisent import cli, experiment, pipeline, predict
from multisent.align import load_translation_matrix
from multisent.cli import main
from multisent.corpus import load_corpus
from multisent.errors import CoverageError, LeakageError, MultisentError
from multisent.experiment import CVReport
from multisent.nn import load_checkpoint, predict_batch
from multisent.pipeline import EmbeddingContext
from multisent.preprocess import default_rules, preprocess_corpus

from test_option_coverage import invocations_in_readme


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """One generated trilingual corpus shared by the command tests."""
    out = tmp_path_factory.mktemp("fixture")
    rc = main(["synth", "--out", str(out), "--seed", "0",
               "--tweets", "36", "--dim", "8"])
    assert rc == 0
    return out


def test_readme_commands_and_configs_parse():
    """Each README `multisent` command parses, and each "Command line" config block loads."""
    parser = cli.build_parser()
    commands = invocations_in_readme()
    assert commands
    for words in commands:
        parser.parse_args(words)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for lang, body in re.findall(r"```(\w*)\n(.*?)```", section, re.S):
        name = body.splitlines()[0].lstrip("# ")
        if lang == "" and name.endswith(".cfg"):
            experiment.parse_config(body, name=Path(name).stem)
            names.append(name)
    assert names == ["demo/nb.cfg", "demo/cnn.cfg"]


def test_readme_subcommand_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\nSubcommands:\n", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` ", table, re.M)
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(listed) == sorted(subparsers.choices)


class TestSynth:
    def test_writes_all_roles(self, fixture_dir):
        names = {p.name for p in fixture_dir.iterdir()}
        assert {"corpus.jsonl", "en.vec", "ja.vec", "zh.vec",
                "ja-en.tsv", "zh-en.tsv"} <= names


class TestPreprocess:
    def test_writes_token_jsonl(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "tokens.jsonl"
        rc = main(["preprocess", "--in", str(fixture_dir / "corpus.jsonl"),
                   "--out", str(out)])
        assert rc == 0
        assert "wrote 36 tweets" in capsys.readouterr().out
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 36
        assert set(rows[0]) == {"id", "lang", "label", "tokens"}
        assert all(row["label"] in (0, 1, 2) for row in rows)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["preprocess", "--in", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    def test_invalid_utf8_corpus_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id":"\xff"}\n')
        rc = main(["preprocess", "--in", str(bad), "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert "line 1: invalid UTF-8 byte 0xff" in capsys.readouterr().err

    def test_pretokenized_mode_reads_tokens(self, tmp_path, capsys):
        rows = [{"id": "a", "lang": "en", "text": "Good day", "tokens": ["Good", "day"],
                 "label": 0},
                {"id": "b", "lang": "en", "text": "", "tokens": ["Great", "http://x.y/z"],
                 "label": 2}]
        corpus = tmp_path / "in.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "out.jsonl"
        kept = {}
        for mode, dropped in (("whitespace", 1), ("pretokenized", 0)):
            capsys.readouterr()
            assert main(["preprocess", "--in", str(corpus), "--out", str(out),
                         "--mode", mode]) == 0
            assert f"({dropped} dropped)" in capsys.readouterr().out
            rows = [json.loads(ln) for ln in out.read_text().splitlines()]
            kept[mode] = {r["id"]: r["tokens"] for r in rows}
        assert kept["whitespace"] == {"a": ["good", "day"]}
        assert kept["pretokenized"] == {"a": ["good", "day"], "b": ["great", "URL"]}


def test_folds_is_an_invalid_choice(fixture_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["folds", "--in", str(fixture_dir / "corpus.jsonl"),
              "--out", str(tmp_path / "plan.json")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'folds'" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


class TestAlign:
    def test_fit_and_report(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "ja-en.mat"
        rc = main(["align",
                   "--src", str(fixture_dir / "ja.vec"),
                   "--tgt", str(fixture_dir / "en.vec"),
                   "--dict", str(fixture_dir / "ja-en.tsv"),
                   "--src-lang", "ja", "--tgt-lang", "en",
                   "--k", "12", "--train", "9", "--out", str(out), "--report"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "fit ja->en map" in printed
        assert "euclidean" in printed
        tm = load_translation_matrix(out)
        assert tm.src_lang == "ja" and tm.tgt_lang == "en"
        assert tm.W.shape == (8, 8)

    def test_freq_and_seed_choose_the_pivots(self, fixture_dir, tmp_path):
        # Five training pairs in eight dimensions leave the fit underdetermined,
        # so the map depends on which pivots were picked.
        entries = [ln.split(" ", 1)[0]
                   for ln in (fixture_dir / "ja.vec").read_text().splitlines()[1:]]
        n = len(entries)
        for name, counts in (("table", range(n, 0, -1)), ("reversed", range(1, n + 1))):
            (tmp_path / f"{name}.tsv").write_text(
                "".join(f"{w}\t{c}\n" for w, c in zip(entries, counts)))
        files = ["--src", str(fixture_dir / "ja.vec"), "--tgt", str(fixture_dir / "en.vec"),
                 "--dict", str(fixture_dir / "ja-en.tsv"), "--k", "6", "--train", "5"]
        table, rev = str(tmp_path / "table.tsv"), str(tmp_path / "reversed.tsv")
        maps = {}
        for name, argv in (("default", ["align", *files]),
                           ("table", ["align", *files, "--freq", table]),
                           ("reversed", ["align", *files, "--freq", rev]),
                           ("seed", ["align", *files, "--seed", "1"])):
            maps[name] = tmp_path / f"{name}.mat"
            assert main([*argv, "--out", str(maps[name])]) == 0
        assert maps["table"].read_bytes() == maps["default"].read_bytes()
        default_W = load_translation_matrix(maps["default"]).W
        for name in ("reversed", "seed"):
            assert np.abs(load_translation_matrix(maps[name]).W - default_W).max() > 0.1


@pytest.fixture
def spy_calls(monkeypatch):
    """Names of the corpus loads and fold runs made while the test runs, in order."""
    calls = []
    for module, name in ((experiment, "load_corpus"), (experiment, "_run_fold"),
                         (cli, "load_corpus")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


def write_config(path, fixture_dir, lines):
    base = [
        f"corpus = {fixture_dir / 'corpus.jsonl'}",
        "languages = en,ja,zh",
        "folds = 3",
        "seed = 0",
    ]
    path.write_text("\n".join(base + lines) + "\n", encoding="utf-8")
    return path


class TestEvaluateAndCompare:
    def test_nb_evaluate_writes_report(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "nb.cfg", fixture_dir, ["kind = nb"])
        out = tmp_path / "nb.json"
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "mean_accuracy" in printed
        assert "per-language accuracy:" in printed
        report = CVReport.from_json(out.read_text())
        assert report.kind == "nb" and report.folds == 3
        csv_out = tmp_path / "nb.csv"
        assert main(["compare", str(out), "--csv", str(csv_out)]) == 0
        assert csv_out.read_text() == (
            f"name,kind,folds,mean_accuracy\nnb,nb,3,{report.mean_accuracy:.6f}\n"
        )

    def test_csv_flag_is_gone(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "nb.cfg", fixture_dir, ["kind = nb"])
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--config", str(cfg), "--csv", str(tmp_path / "nb.csv")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not (tmp_path / "nb.csv").exists()

    def test_compare_two_reports(self, fixture_dir, tmp_path, capsys):
        paths = []
        for kind in ("nb", "svm"):
            cfg = write_config(tmp_path / f"{kind}.cfg", fixture_dir,
                               [f"kind = {kind}", f"name = run-{kind}"])
            out = tmp_path / f"{kind}.json"
            assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
            paths.append(str(out))
        capsys.readouterr()
        csv_out = tmp_path / "cmp.csv"
        rc = main(["compare", *paths, "--csv", str(csv_out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "baseline" in printed and "run-nb" in printed and "run-svm" in printed
        header = csv_out.read_text().splitlines()[0]
        assert header == "name,kind,folds,mean_accuracy,delta"

        nb, svm = (CVReport.from_json(Path(p).read_text()) for p in paths)
        rc = main(["compare", *paths, "--baseline", "run-svm", "--csv", str(csv_out)])
        assert rc == 0
        assert csv_out.read_text().splitlines()[1:] == [
            f"run-nb,nb,3,{nb.mean_accuracy:.6f},{nb.mean_accuracy - svm.mean_accuracy:+.6f}",
            f"run-svm,svm,3,{svm.mean_accuracy:.6f},baseline",
        ]
        capsys.readouterr()
        assert main(["compare", *paths, "--baseline", "run-lstm"]) == 2
        assert "baseline 'run-lstm' not among report names" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"name": "x", "kind": "cnn"}', "report lacks key 'folds'"),
        ("{not json", "line 1: report is not valid JSON"),
        ('{"name": "x", "kind": "nb", "folds": 2, "seed": 0, "fold_accuracies": 5, '
         '"mean_accuracy": 0.5, "overall_accuracy": 0.5, "per_language": {}, '
         '"config_fingerprint": "f"}', "report value has the wrong type"),
        ('{"name": 5, "kind": "nb", "folds": 2, "seed": 0, "fold_accuracies": [0.5], '
         '"mean_accuracy": 0.5, "overall_accuracy": 0.5, "per_language": {}, '
         '"config_fingerprint": "f"}', "name must be a string, got 5"),
        ('{"name": "x", "kind": "nb", "folds": true, "seed": 0, "fold_accuracies": [0.5], '
         '"mean_accuracy": 0.5, "overall_accuracy": 0.5, "per_language": {}, '
         '"config_fingerprint": "f"}', "folds must be an integer, got True"),
        ('{"name": "x", "kind": "nb", "folds": 2, "seed": 0, "fold_accuracies": [0.5], '
         '"mean_accuracy": 0.5, "overall_accuracy": NaN, "per_language": {}, '
         '"config_fingerprint": "f"}', "overall_accuracy must be a finite number, got nan"),
        ('{"name": "x", "kind": "nb", "folds": 2, "seed": 0, "fold_accuracies": [0.5], '
         '"mean_accuracy": 0.5, "overall_accuracy": 0.5, "per_language": {"en": {"total": "9"}}, '
         '"config_fingerprint": "f"}', "per_language must be an object of objects of numbers"),
        ('{"name": "x", "kind": "nb", "folds": 2, "seed": 0, "fold_accuracies": [0.5], '
         '"mean_accuracy": 0.5, "overall_accuracy": 0.5, "per_language": {}, '
         '"config_fingerprint": null}', "config_fingerprint must be a string, got None"),
    ], ids=["missing-key", "bad-json", "wrong-type", "numeric-name", "bool-folds",
            "nan-accuracy", "string-count", "null-fingerprint"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["compare", str(bad)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_bad_config_exits_2(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = nb\nlanguages = en\nwat = yes\n")
        rc = main(["evaluate", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, line, message", [
        ("svm", "C = nan", "C must be finite and positive, got nan"),
        ("svm", "C = inf", "C must be finite and positive, got inf"),
        ("svm", "C = 0", "C must be finite and positive, got 0.0"),
        ("nb", "alpha = nan", "alpha must be finite and positive, got nan"),
        ("nb", "alpha = -1", "alpha must be finite and positive, got -1.0"),
    ], ids=["C-nan", "C-inf", "C-zero", "alpha-nan", "alpha-negative"])
    def test_bad_baseline_value_exits_2_before_reading_corpus(
        self, fixture_dir, tmp_path, capsys, spy_calls, kind, line, message
    ):
        cfg = write_config(tmp_path / "bad.cfg", fixture_dir, [f"kind = {kind}", line])
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert spy_calls == []
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_oov_scale_exits_2_before_reading_corpus(
        self, fixture_dir, tmp_path, capsys, spy_calls, value
    ):
        cfg = write_config(tmp_path / "bad.cfg", fixture_dir,
                           ["kind = cnn", f"oov_scale = {value}"])
        for command in (["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.json")],
                        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"error: oov_scale must be finite and non-negative, got {float(value)}\n")
        assert spy_calls == []
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("line, message", [
        ("window_sizes = 0,2", "window_sizes must be distinct sizes of at least 1, got (0, 2)"),
        ("window_sizes = -1,2", "window_sizes must be distinct sizes of at least 1, got (-1, 2)"),
        ("window_sizes = 2,2", "window_sizes must be distinct sizes of at least 1, got (2, 2)"),
        ("dev_fraction = 1.5", "dev_fraction must lie in (0, 1), got 1.5"),
        ("dev_fraction = nan", "dev_fraction must lie in (0, 1), got nan"),
        ("train.fine_tune_embeddings = ture", "bad config value for "
         "train.fine_tune_embeddings: expected 1/true/yes or 0/false/no, got 'ture'"),
        ("folds = five", "bad config value for folds: "
         "invalid literal for int() with base 10: 'five'"),
        ("corpus =", "missing or empty required config keys: ['corpus']"),
        ("languages = en,en,ja",
         "languages must be distinct and non-empty, got ('en', 'en', 'ja')"),
        ("scope = ja", "unknown config keys: ['scope']"),
    ], ids=["window-zero", "window-negative", "window-repeated", "dev-above-one", "dev-nan",
            "bool-typo", "int-word", "corpus-empty", "language-repeated", "scope-key"])
    def test_bad_run_value_exits_2_before_reading_anything(
        self, fixture_dir, tmp_path, capsys, spy_calls, line, message
    ):
        cfg = write_config(tmp_path / "bad.cfg", fixture_dir,
                           ["kind = cnn", f"corpus = {tmp_path / 'absent.jsonl'}", line])
        for command in (["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.json")],
                        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]):
            assert main(command) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert spy_calls == []
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.ckpt").exists()

    def test_pretokenized_evaluate_keeps_tokens_only_records(self, fixture_dir, tmp_path):
        rows = [json.loads(ln) for ln in (fixture_dir / "corpus.jsonl").read_text().splitlines()]
        rows = [dict(r, tokens=r["text"].split()) for r in rows]
        rows += [dict(r, id=f"tokens-only-{i}", text="") for i, r in enumerate(rows[:6])]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        totals = {}
        for mode in ("whitespace", "pretokenized"):
            cfg = write_config(tmp_path / f"{mode}.cfg", tmp_path,
                               ["kind = nb", f"tokenize_mode = {mode}"])
            assert main(["evaluate", "--config", str(cfg),
                         "--out", str(tmp_path / f"{mode}.json")]) == 0
            report = json.loads((tmp_path / f"{mode}.json").read_text())
            totals[mode] = sum(stats["total"] for stats in report["per_language"].values())
        assert totals == {"whitespace": len(rows) - 6, "pretokenized": len(rows)}

    @pytest.mark.parametrize("lines, unused", [
        (["matrix.ja = ja-en.mat", "matrix.zh = zh-en.mat"], "matrix.ja, matrix.zh"),
        (["alignment = translation_matrix", "refit = per_fold", "target_language = en",
          "dictionary.ja = ja-en.tsv", "dictionary.zh = zh-en.tsv", "matrix.zh = zh-en.mat"],
         "matrix.zh"),
    ], ids=["alignment-none", "per-fold-refit"])
    def test_unused_matrices_exit_2_before_reading_corpus(
        self, fixture_dir, tmp_path, capsys, spy_calls, lines, unused
    ):
        cfg = write_config(tmp_path / "bad.cfg", fixture_dir, ["kind = cnn", *lines])
        for command in (["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.json")],
                        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"error: {unused} would be unused: matrices apply only with "
                f"alignment = translation_matrix and refit = global\n")
        assert spy_calls == []
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("lines, unlisted", [
        (["kind = nb", "embedding.zh = no-such.vec", "dictionary.zh = no-such.tsv"],
         "embedding.zh, dictionary.zh"),
        (["kind = cnn", "alignment = translation_matrix", "matrix.ja = ja-en.mat",
          "matrix.zh = no-such.mat",
          *(f"embedding.{lang} = {lang}.vec" for lang in ("en", "ja"))], "matrix.zh"),
    ], ids=["nb", "cnn-global-maps"])
    def test_keys_of_unlisted_languages_exit_2_before_reading_corpus(
        self, fixture_dir, tmp_path, capsys, spy_calls, lines, unlisted
    ):
        cfg = write_config(tmp_path / "bad.cfg", fixture_dir, ["languages = en,ja", *lines])
        for command in (["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.json")],
                        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"error: {unlisted} would be unused: their languages are not in "
                f"languages ('en', 'ja')\n")
        assert spy_calls == []
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.ckpt").exists()

    def test_window_longer_than_every_tweet_exits_2_before_reading_vec(
        self, fixture_dir, tmp_path, capsys
    ):
        tweets, _ = preprocess_corpus(load_corpus(fixture_dir / "corpus.jsonl"),
                                      default_rules(), "whitespace")
        longest = max(tw.length for tw in tweets)
        absent = [f"embedding.{lang} = {tmp_path / f'absent-{lang}.vec'}"
                  for lang in ("en", "ja", "zh")]
        for window in (longest + 1, longest):
            cfg = write_config(tmp_path / "cnn.cfg", fixture_dir,
                               ["kind = cnn", f"window_sizes = 2,{window}", *absent])
            for command in (["evaluate", "--config", str(cfg)],
                            ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]):
                assert main(command) == 2
                err = capsys.readouterr().err
                if window > longest:
                    assert err == (f"error: window_sizes holds {window}, longer than the "
                                   f"longest tweet ({longest} tokens)\n")
                else:   # a window as long as the longest tweet fits; the .vec read fails
                    assert "absent-en.vec" in err and "window_sizes" not in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_scheme_key_is_unknown_before_reading_corpus(
        self, fixture_dir, tmp_path, capsys, spy_calls
    ):
        cfg = write_config(tmp_path / "old.cfg", fixture_dir,
                           ["kind = svm", "scheme = per_language"])
        rc = main(["evaluate", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config keys: ['scheme']" in capsys.readouterr().err
        assert spy_calls == []

    @pytest.mark.parametrize("kind, line, message", [
        ("lstm", "train.candidate_activation = softsign",
         "train.candidate_activation must be one of tanh, sigmoid, relu, got 'softsign'"),
        ("cnn", "train.cnn_activation = Tanh",
         "train.cnn_activation must be one of tanh, sigmoid, relu, got 'Tanh'"),
        ("lstm", "train.batch_size = 0", "train.batch_size must be >= 1, got 0"),
        ("lstm", "train.hidden_dim = 0", "train.hidden_dim must be >= 1, got 0"),
        ("cnn", "train.filters_per_window = 0", "train.filters_per_window must be >= 1, got 0"),
        ("lstm", "train.rho = nan", "train.rho must be finite and in [0, 1), got nan"),
        ("cnn", "train.rho = 1.5", "train.rho must be finite and in [0, 1), got 1.5"),
        ("cnn", "train.eps = inf", "train.eps must be finite and positive, got inf"),
        ("lstm", "train.forget_bias = nan", "train.forget_bias must be finite, got nan"),
    ], ids=["candidate-softsign", "cnn-capitalised", "batch-size-zero", "hidden-dim-zero",
            "filters-zero", "rho-nan", "rho-above-one", "eps-inf", "forget-bias-nan"])
    def test_bad_train_value_exits_2_before_reading_corpus(
        self, fixture_dir, tmp_path, capsys, spy_calls, kind, line, message
    ):
        cfg = write_config(tmp_path / "bad.cfg", fixture_dir, [f"kind = {kind}", line])
        for command in (["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.json")],
                        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]):
            rc = main(command)
            assert rc == 2
            assert f"error: {message}\n" == capsys.readouterr().err
        assert spy_calls == []
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.ckpt").exists()

    def test_scope_without_usable_records_exits_2(self, fixture_dir, tmp_path, capsys):
        lines = (fixture_dir / "corpus.jsonl").read_text().splitlines()
        blank = json.dumps({"id": "blank", "lang": "ja", "text": "  ", "label": 0})
        (tmp_path / "corpus.jsonl").write_text("\n".join(
            [ln for ln in lines if json.loads(ln)["lang"] == "en"] + [blank]) + "\n")
        cfg = write_config(tmp_path / "ja.cfg", tmp_path, [
            "kind = cnn", "languages = ja", f"embedding.ja = {fixture_dir / 'ja.vec'}",
        ])
        for command in (["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r.json")],
                        ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]):
            rc = main(command)
            assert rc == 2
            assert capsys.readouterr().err == "error: no usable records in languages ('ja',)\n"
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("error, code, printed", [
        (CoverageError("dictionary covers 16 of 20 pivots", shortfall=4), 2,
         "error: dictionary covers 16 of 20 pivots\n"),
        (LeakageError("training artifacts consulted 1 held-out ids"), 3,
         "leakage assertion failed: training artifacts consulted 1 held-out ids\n"),
    ], ids=["coverage-exits-2", "leakage-exits-3"])
    def test_worker_fold_error_sets_the_exit_code(
        self, fixture_dir, tmp_path, capsys, monkeypatch, error, code, printed
    ):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform, so evaluate never forks")
        # two usable CPUs: fold 1 runs in a forked worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real = experiment._run_fold

        def run_fold(config, fold, *args):
            if fold == 1:
                raise error
            return real(config, fold, *args)

        monkeypatch.setattr(experiment, "_run_fold", run_fold)
        cfg = write_config(tmp_path / "nb.cfg", fixture_dir, ["kind = nb"])
        out = tmp_path / "nb.json"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err == printed
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_relu_candidate_still_evaluates(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "relu.cfg", fixture_dir, [
            "kind = lstm",
            *(f"embedding.{lang} = {fixture_dir / f'{lang}.vec'}" for lang in ("en", "ja", "zh")),
            "train.candidate_activation = relu",
            "train.max_epochs = 1",
        ])
        out = tmp_path / "relu.json"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        report = CVReport.from_json(out.read_text())
        assert report.kind == "lstm" and len(report.fold_accuracies) == 3

    def test_baseline_command_is_gone(self, fixture_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["baseline", "--model", "nb", "--in", str(fixture_dir / "corpus.jsonl")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'baseline'" in capsys.readouterr().err


class TestBaseline:
    def test_nb_report(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "base.cfg", fixture_dir,
                           ["name = nb-baseline", "kind = nb"])
        out = tmp_path / "base.json"
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "nb-baseline" in capsys.readouterr().out
        report = CVReport.from_json(out.read_text())
        assert report.name == "nb-baseline" and report.folds == 3
        assert set(report.per_language) == {"en", "ja", "zh"}


class TestTrainAndPredict:
    def test_round_trip(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cnn.cfg", fixture_dir, [
            "kind = cnn",
            "window_sizes = 2,3",
            f"embedding.en = {fixture_dir / 'en.vec'}",
            f"embedding.ja = {fixture_dir / 'ja.vec'}",
            f"embedding.zh = {fixture_dir / 'zh.vec'}",
            "train.batch_size = 8",
            "train.max_epochs = 4",
            "train.patience = 4",
            "train.filters_per_window = 4",
        ])
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        rc = main(["train", "--config", str(cfg), "--out", str(ckpt),
                   "--log", str(log)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "trained cnn" in printed and "wrote training log" in printed
        assert load_checkpoint(ckpt).model.kind == "cnn"
        assert log.read_text().startswith("epoch,train_loss,dev_accuracy")

        preds = tmp_path / "preds.jsonl"
        rc = main(["predict", "--model", str(ckpt),
                   "--in", str(fixture_dir / "corpus.jsonl"),
                   "--out", str(preds),
                   "--embedding", f"en={fixture_dir / 'en.vec'}",
                   "--embedding", f"ja={fixture_dir / 'ja.vec'}",
                   "--embedding", f"zh={fixture_dir / 'zh.vec'}"])
        assert rc == 0
        rows = [json.loads(line) for line in preds.read_text().splitlines()]
        assert len(rows) == 36
        for row in rows:
            assert row["label"] in (0, 1, 2)
            assert abs(sum(row["probs"]) - 1.0) < 1e-9

    def test_train_reads_the_inputs_evaluate_reads(self, fixture_dir, tmp_path):
        for lang in ("ja", "zh"):
            assert main(["align", "--src", str(fixture_dir / f"{lang}.vec"),
                         "--tgt", str(fixture_dir / "en.vec"),
                         "--dict", str(fixture_dir / f"{lang}-en.tsv"),
                         "--src-lang", lang, "--tgt-lang", "en", "--k", "12", "--train", "9",
                         "--out", str(tmp_path / f"{lang}-en.mat")]) == 0
        cfg = write_config(tmp_path / "cnn.cfg", fixture_dir, [
            "kind = cnn", "window_sizes = 2",
            *(f"embedding.{lang} = {fixture_dir / f'{lang}.vec'}" for lang in ("en", "ja", "zh")),
            "alignment = translation_matrix",
            *(f"matrix.{lang} = {tmp_path / f'{lang}-en.mat'}" for lang in ("ja", "zh")),
            "train.max_epochs = 1", "train.filters_per_window = 2",
        ])
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        config = experiment.parse_config(cfg.read_text())
        fingerprints = load_checkpoint(ckpt).fingerprints
        assert fingerprints == experiment.prepare_inputs(config)[1].fingerprint()
        assert fingerprints["alignment:ja"] != "none"

    def test_per_fold_refit_rejected_before_reading_corpus(
        self, fixture_dir, tmp_path, capsys, spy_calls
    ):
        cfg = write_config(tmp_path / "refit.cfg", fixture_dir, [
            "kind = cnn",
            *(f"embedding.{lang} = {fixture_dir / f'{lang}.vec'}" for lang in ("en", "ja", "zh")),
            "alignment = translation_matrix", "refit = per_fold", "target_language = en",
            *(f"dictionary.{lang} = {fixture_dir / f'{lang}-en.tsv'}" for lang in ("ja", "zh")),
            "pivot_count = 12", "pivot_train_count = 9",
        ])
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train cannot use refit=per_fold")
        assert "fit inside evaluate's folds and never saved" in err
        assert spy_calls == []
        assert not (tmp_path / "m.ckpt").exists()

    def test_kind_and_seed_flags_are_gone(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cnn.cfg", fixture_dir, ["kind = cnn"])
        for flag in (["--kind", "lstm"], ["--seed", "1"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"), *flag])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_skipped_records_are_counted(self, fixture_dir, tmp_path, capsys):
        lines = (fixture_dir / "corpus.jsonl").read_text().splitlines()
        en_lines = [ln for ln in lines if json.loads(ln)["lang"] == "en"]
        ja_line = next(ln for ln in lines if json.loads(ln)["lang"] == "ja")
        (tmp_path / "en.jsonl").write_text("\n".join(en_lines) + "\n")
        (tmp_path / "one.jsonl").write_text(en_lines[0] + "\n")
        empty = json.dumps({"id": "blank", "lang": "en", "text": "  ", "label": 0})
        (tmp_path / "mixed.jsonl").write_text("\n".join([en_lines[0], ja_line, empty]) + "\n")
        cfg = tmp_path / "en.cfg"
        cfg.write_text("\n".join([
            f"corpus = {tmp_path / 'en.jsonl'}", "languages = en", "folds = 3", "seed = 0",
            "kind = cnn", f"embedding.en = {fixture_dir / 'en.vec'}",
            "train.max_epochs = 1", "train.filters_per_window = 3",
        ]) + "\n")
        ckpt = tmp_path / "en.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        printed = {}
        for name in ("one", "mixed"):
            capsys.readouterr()
            rc = main(["predict", "--model", str(ckpt), "--in", str(tmp_path / f"{name}.jsonl"),
                       "--out", str(tmp_path / f"{name}.preds"),
                       "--embedding", f"en={fixture_dir / 'en.vec'}"])
            assert rc == 0
            printed[name] = capsys.readouterr().out
        assert "wrote 1 predictions" in printed["mixed"]
        assert "skipped 1 record with no --embedding (ja: 1)" in printed["mixed"]
        assert "skipped 1 record with no tokens after normalization" in printed["mixed"]
        assert not any(ln.startswith("skipped") for ln in printed["one"].splitlines())
        assert (tmp_path / "mixed.preds").read_bytes() == (tmp_path / "one.preds").read_bytes()

    def test_over_long_tweet_is_cut_to_max_len(self, tmp_path, capsys):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--seed", "3"]) == 0
        embeddings = [f"embedding.{lang} = {fx / f'{lang}.vec'}" for lang in ("en", "ja", "zh")]
        cfg = write_config(tmp_path / "cnn.cfg", fx, [
            "kind = cnn", *embeddings, "train.max_epochs = 1", "train.filters_per_window = 3",
        ])
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        assert load_checkpoint(ckpt).model.max_len == 9
        records = [json.loads(ln) for ln in (fx / "corpus.jsonl").read_text().splitlines()]
        en = [r for r in records if r["lang"] == "en"]
        words = " ".join(r["text"] for r in en).split()
        long_words = (words * (200 // len(words) + 1))[:200]
        rows = [dict(en[0], id="long", text=" ".join(long_words)),
                dict(en[0], id="head", text=" ".join(long_words[:9])),
                en[1]]
        (tmp_path / "in.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        rc = main(["predict", "--model", str(ckpt), "--in", str(tmp_path / "in.jsonl"),
                   "--out", str(tmp_path / "p.jsonl"),
                   *[f"--embedding={lang}={fx / f'{lang}.vec'}" for lang in ("en", "ja", "zh")]])
        assert rc == 0
        assert "truncated 1 record to the model's max_len of 9 tokens" in capsys.readouterr().out
        preds = [json.loads(ln) for ln in (tmp_path / "p.jsonl").read_text().splitlines()]
        assert [p["id"] for p in preds] == ["long", "head", en[1]["id"]]
        assert {k: v for k, v in preds[0].items() if k != "id"} == \
            {k: v for k, v in preds[1].items() if k != "id"}

    def test_nonneural_kind_rejected(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "nb2.cfg", fixture_dir, ["kind = nb"])
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "neural kinds only" in capsys.readouterr().err

    def test_bad_embedding_flag_format(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cnn2.cfg", fixture_dir, [
            "kind = cnn",
            f"embedding.en = {fixture_dir / 'en.vec'}",
            f"embedding.ja = {fixture_dir / 'ja.vec'}",
            f"embedding.zh = {fixture_dir / 'zh.vec'}",
            "train.max_epochs = 1",
        ])
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        capsys.readouterr()
        rc = main(["predict", "--model", str(ckpt),
                   "--in", str(fixture_dir / "corpus.jsonl"),
                   "--out", str(tmp_path / "p.jsonl"),
                   "--embedding", "en.vec"])
        assert rc == 2
        assert "LANG=PATH" in capsys.readouterr().err


    def test_non_finite_embedding_exits_2(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cnn3.cfg", fixture_dir, [
            "kind = cnn",
            f"embedding.en = {fixture_dir / 'en.vec'}",
            f"embedding.ja = {fixture_dir / 'ja.vec'}",
            f"embedding.zh = {fixture_dir / 'zh.vec'}",
            "train.max_epochs = 1",
        ])
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        lines = (fixture_dir / "en.vec").read_text().splitlines()
        lines[2] = " ".join(lines[2].split(" ")[:1] + ["nan"] + lines[2].split(" ")[2:])
        bad_vec = tmp_path / "en.vec"
        bad_vec.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["predict", "--model", str(ckpt),
                   "--in", str(fixture_dir / "corpus.jsonl"),
                   "--out", str(tmp_path / "p.jsonl"),
                   "--embedding", f"en={bad_vec}",
                   "--embedding", f"ja={fixture_dir / 'ja.vec'}",
                   "--embedding", f"zh={fixture_dir / 'zh.vec'}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3:" in err and "non-finite vector component" in err


class TestPredictOptions:
    @pytest.fixture(scope="class")
    def ckpt(self, fixture_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("oov")
        cfg = write_config(out / "cnn.cfg", fixture_dir, [
            "kind = cnn", "window_sizes = 2",
            *(f"embedding.{lang} = {fixture_dir / f'{lang}.vec'}" for lang in ("en", "ja", "zh")),
            "oov_seed = 3", "oov_scale = 0.25",
            "train.max_epochs = 1", "train.filters_per_window = 3",
        ])
        assert main(["train", "--config", str(cfg), "--out", str(out / "m.ckpt")]) == 0
        return out / "m.ckpt"

    def write_input(self, fixture_dir, path):
        """The fixture corpus with tokens, a tokens-only record and one of unseen words."""
        rows = [json.loads(ln) for ln in (fixture_dir / "corpus.jsonl").read_text().splitlines()]
        rows = [dict(r, tokens=r["text"].split()) for r in rows]
        rows.append(dict(rows[0], id="tokens-only", text=""))
        rows.append(dict(rows[1], id="unseen", text="qqq zzz", tokens=["qqq", "zzz"]))
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return len(rows)

    def files(self, fixture_dir, tmp_path, ckpt):
        """predict's file options: this model, in.jsonl to p.jsonl, every fixture table."""
        return ["--model", str(ckpt), "--in", str(tmp_path / "in.jsonl"),
                "--out", str(tmp_path / "p.jsonl"),
                *[f"--embedding={lang}={fixture_dir / f'{lang}.vec'}"
                  for lang in ("en", "ja", "zh")]]

    def test_oov_seed_and_scale_come_from_the_checkpoint(self, fixture_dir, tmp_path, ckpt):
        self.write_input(fixture_dir, tmp_path / "in.jsonl")
        assert main(["predict", *self.files(fixture_dir, tmp_path, ckpt)]) == 0
        trained = load_checkpoint(ckpt)
        assert trained.fingerprints["oov"] == "3:0.25"
        rules = default_rules()
        context = EmbeddingContext.from_paths(
            {lang: str(fixture_dir / f"{lang}.vec") for lang in ("en", "ja", "zh")}, {},
            oov_seed=3, oov_scale=0.25, max_len=trained.model.max_len,
            rules_version=rules.fingerprint(),
        )
        tweets, _ = preprocess_corpus(load_corpus(tmp_path / "in.jsonl"), rules)
        expected = [{"id": tw.id, "label": int(label), "probs": [float(p) for p in probs]}
                    for tw, (label, probs) in zip(tweets, predict_batch(trained, tweets, context))]
        rows = [json.loads(ln) for ln in (tmp_path / "p.jsonl").read_text().splitlines()]
        assert rows == expected
        assert "unseen" in [row["id"] for row in rows]

    def test_pretokenized_mode_classifies_tokens_only_records(
        self, fixture_dir, tmp_path, ckpt, capsys
    ):
        n = self.write_input(fixture_dir, tmp_path / "in.jsonl")
        ids = {}
        for mode, written in (("whitespace", n - 1), ("pretokenized", n)):
            capsys.readouterr()
            assert main(["predict", *self.files(fixture_dir, tmp_path, ckpt), "--mode", mode]) == 0
            printed = capsys.readouterr().out
            assert f"wrote {written} predictions" in printed
            assert ("skipped 1 record with no tokens after normalization" in printed) == \
                (mode == "whitespace")
            preds = (tmp_path / "p.jsonl").read_text().splitlines()
            ids[mode] = [json.loads(ln)["id"] for ln in preds]
        assert "tokens-only" not in ids["whitespace"]
        assert ids["pretokenized"] == ids["whitespace"][:-1] + ["tokens-only", "unseen"]

    def test_oov_flags_are_gone(self, fixture_dir, tmp_path, ckpt, capsys):
        self.write_input(fixture_dir, tmp_path / "in.jsonl")
        for flag in (["--oov-seed", "3"], ["--oov-scale", "0.25"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["predict", *self.files(fixture_dir, tmp_path, ckpt), *flag])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_worker_that_dies_exits_2(self, fixture_dir, tmp_path, ckpt, capsys, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform, so predict never forks")
        # two usable CPUs: the second half of the records is preprocessed in a forked worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, real = os.getpid(), predict.preprocess_corpus

        def preprocess(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(predict, "preprocess_corpus", preprocess)
        self.write_input(fixture_dir, tmp_path / "in.jsonl")
        message = "a worker process exited with code 1 before returning its share"
        with pytest.raises(MultisentError, match=message):
            predict.predict_records(
                load_checkpoint(ckpt), load_corpus(tmp_path / "in.jsonl"),
                {lang: str(fixture_dir / f"{lang}.vec") for lang in ("en", "ja", "zh")}, {})
        assert multiprocessing.active_children() == []
        assert main(["predict", *self.files(fixture_dir, tmp_path, ckpt)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "p.jsonl").exists()
        assert multiprocessing.active_children() == []

    def test_unwritable_out_exits_2_naming_it(self, fixture_dir, tmp_path, ckpt, capsys):
        self.write_input(fixture_dir, tmp_path / "in.jsonl")
        out = tmp_path / "no-such-dir" / "p.jsonl"
        files = self.files(fixture_dir, tmp_path, ckpt)
        files[files.index("--out") + 1] = str(out)
        assert main(["predict", *files]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


class TestPredictNumbersByPosition:
    def test_duplicate_ids_and_unseen_tokens(self, fixture_dir, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "ft.cfg", fixture_dir, [
            "kind = cnn", "window_sizes = 2",
            *(f"embedding.{lang} = {fixture_dir / f'{lang}.vec'}" for lang in ("en", "ja", "zh")),
            "train.max_epochs = 1", "train.filters_per_window = 3",
            "train.fine_tune_embeddings = true",
        ])
        ckpt = tmp_path / "ft.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        records = [json.loads(ln) for ln in (fixture_dir / "corpus.jsonl").read_text().splitlines()]
        # first, so its two words are the first keys the model's vocabulary lacks
        records.insert(0, dict(records[0], id="unseen", text="qqq zzz"))
        seen = []   # (table, ids) of each prediction
        train_module = importlib.import_module("multisent.nn.train")
        real = train_module._predict_in_length_order
        monkeypatch.setattr(train_module, "_predict_in_length_order",
                            lambda model, table, ids, *a: seen.append((table, ids))
                            or real(model, table, ids, *a))
        preds = {}
        for name, ids in (("unique", [r["id"] for r in records]),
                          ("repeated", ["a", "b"] * (len(records) // 2) + ["a"] * (len(records) % 2))):
            (tmp_path / f"{name}.jsonl").write_text(
                "".join(json.dumps(dict(r, id=i)) + "\n" for r, i in zip(records, ids)))
            assert main(["predict", "--model", str(ckpt), "--in", str(tmp_path / f"{name}.jsonl"),
                         "--out", str(tmp_path / f"{name}.preds.jsonl"),
                         *(f"--embedding={lang}={fixture_dir / f'{lang}.vec'}"
                           for lang in ("en", "ja", "zh"))]) == 0
            preds[name] = [json.loads(ln) for ln in
                           (tmp_path / f"{name}.preds.jsonl").read_text().splitlines()]
        unique, repeated = preds["unique"], preds["repeated"]
        assert [dict(row, id=u["id"]) for row, u in zip(repeated, unique)] == unique
        assert len({row["id"] for row in repeated}) == 2

        E = load_checkpoint(ckpt).fine_tuned.E
        context = EmbeddingContext.from_paths(
            {lang: str(fixture_dir / f"{lang}.vec") for lang in ("en", "ja", "zh")}, {},
            oov_seed=0, oov_scale=None, max_len=1, rules_version="-")
        lang = records[0]["lang"]
        for table, ids in seen:
            assert ids[0].tolist() == [len(E), len(E) + 1]
            assert table[:len(E)].tobytes() == E.tobytes()
            assert table[len(E)].tobytes() == context.vector(lang, "qqq").tobytes()
            assert table[len(E) + 1].tobytes() == context.vector(lang, "zzz").tobytes()
        assert len(seen) == 2


class TestPredictRejectsBadCheckpoint:
    @pytest.fixture
    def ckpt_lines(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "ft.cfg", fixture_dir, [
            "kind = cnn",
            "window_sizes = 2,3",
            f"embedding.en = {fixture_dir / 'en.vec'}",
            f"embedding.ja = {fixture_dir / 'ja.vec'}",
            f"embedding.zh = {fixture_dir / 'zh.vec'}",
            "train.max_epochs = 1",
            "train.filters_per_window = 3",
            "train.fine_tune_embeddings = true",
        ])
        ckpt = tmp_path / "ft.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(ckpt)]) == 0
        return ckpt.read_text().splitlines()

    def predict(self, fixture_dir, tmp_path, lines):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text("\n".join(lines) + "\n")
        return main(["predict", "--model", str(ckpt),
                     "--in", str(fixture_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "p.jsonl"),
                     "--embedding", f"en={fixture_dir / 'en.vec'}",
                     "--embedding", f"ja={fixture_dir / 'ja.vec'}",
                     "--embedding", f"zh={fixture_dir / 'zh.vec'}"])

    def test_truncated_tensor_exits_2(self, fixture_dir, tmp_path, ckpt_lines, capsys):
        cut = ckpt_lines.index(next(ln for ln in ckpt_lines
                                    if ln.startswith("tensor __embeddings__ "))) + 3
        capsys.readouterr()
        assert self.predict(fixture_dir, tmp_path, ckpt_lines[:cut]) == 2
        err = capsys.readouterr().err
        assert f"line {cut}:" in err and "tensor __embeddings__ is truncated" in err

    def test_vocab_row_outside_embeddings_exits_2(self, fixture_dir, tmp_path, ckpt_lines,
                                                 capsys):
        at = max(i for i, ln in enumerate(ckpt_lines) if ln.startswith("vocab "))
        lines = list(ckpt_lines)
        lines[at] = " ".join(lines[at].split(" ")[:3] + ["999999"])
        capsys.readouterr()
        assert self.predict(fixture_dir, tmp_path, lines) == 2
        err = capsys.readouterr().err
        assert f"line {at + 1}:" in err and "vocab row 999999" in err

    @pytest.mark.parametrize("prefix, new, message", [
        ("history ", "history 1 x1.49 0.5", "non-numeric history value"),
        ("dropout_rate ", None, "checkpoint lacks the 'dropout_rate' header field"),
        ("max_len ", "max_len nine", "non-numeric max_len"),
        ("window_sizes ", "window_sizes 2,7", "checkpoint lacks tensor 'filters_7'"),
    ])
    def test_malformed_header_exits_2(self, fixture_dir, tmp_path, ckpt_lines, capsys,
                                      prefix, new, message):
        at = next(i for i, ln in enumerate(ckpt_lines) if ln.startswith(prefix))
        lines = list(ckpt_lines)
        if new is None:
            del lines[at]
        else:
            lines[at] = new
        capsys.readouterr()
        assert self.predict(fixture_dir, tmp_path, lines) == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("new", ["fingerprint oov x:y", None, "fingerprint oov 0:nan",
                                     "fingerprint oov 0:inf"],
                             ids=["malformed", "missing", "nan", "inf"])
    def test_bad_oov_fingerprint_exits_2(self, fixture_dir, tmp_path, ckpt_lines, capsys, new):
        at = ckpt_lines.index("fingerprint oov 0:None")
        lines = list(ckpt_lines)
        if new is None:
            del lines[at]
        else:
            lines[at] = new
        capsys.readouterr()
        assert self.predict(fixture_dir, tmp_path, lines) == 2
        assert "fingerprint 'oov'" in capsys.readouterr().err

    def test_tensor_shapes_that_disagree_exit_2(self, fixture_dir, tmp_path, ckpt_lines, capsys):
        at = ckpt_lines.index("tensor V 3 6")
        lines = list(ckpt_lines)
        lines[at] = "tensor V 6 3"
        capsys.readouterr()
        assert self.predict(fixture_dir, tmp_path, lines) == 2
        err = capsys.readouterr().err
        assert f"line {at + 1}: tensor V has shape (6, 3), the model needs (3, 6)" in err

    @pytest.mark.parametrize("key", ["activation", "candidate_activation"])
    def test_unknown_activation_exits_2_before_reading_embeddings(
        self, fixture_dir, tmp_path, ckpt_lines, capsys, key
    ):
        at = next(i for i, ln in enumerate(ckpt_lines) if ln.startswith(f"{key} "))
        lines = list(ckpt_lines)
        lines[at] = f"{key} softsign"
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(ckpt),
                     "--in", str(fixture_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "p.jsonl"),
                     "--embedding", f"en={tmp_path / 'absent.vec'}"]) == 2
        assert capsys.readouterr().err == (
            f"error: {key} must be one of tanh, sigmoid, relu, got 'softsign'\n")
        assert not (tmp_path / "p.jsonl").exists()


class TestPredictRejectsBadInputs:
    @pytest.fixture(scope="class")
    def ckpt(self, fixture_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("ckpt")
        cfg = write_config(out / "cnn.cfg", fixture_dir, [
            "kind = cnn",
            f"embedding.en = {fixture_dir / 'en.vec'}",
            f"embedding.ja = {fixture_dir / 'ja.vec'}",
            f"embedding.zh = {fixture_dir / 'zh.vec'}",
            "train.max_epochs = 1",
            "train.filters_per_window = 3",
        ])
        assert main(["train", "--config", str(cfg), "--out", str(out / "m.ckpt")]) == 0
        return out / "m.ckpt"

    def predict(self, fixture_dir, tmp_path, ckpt, *extra, en=None):
        return main(["predict", "--model", str(ckpt),
                     "--in", str(fixture_dir / "corpus.jsonl"),
                     "--out", str(tmp_path / "p.jsonl"),
                     "--embedding", f"en={en or fixture_dir / 'en.vec'}",
                     "--embedding", f"ja={fixture_dir / 'ja.vec'}",
                     "--embedding", f"zh={fixture_dir / 'zh.vec'}", *extra])

    def test_invalid_utf8_embedding_exits_2(self, fixture_dir, tmp_path, ckpt, capsys):
        lines = (fixture_dir / "en.vec").read_bytes().split(b"\n")
        lines[3] = b"\xff" + lines[3]
        bad = tmp_path / "en.vec"
        bad.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert self.predict(fixture_dir, tmp_path, ckpt, en=bad) == 2
        assert "line 4: invalid UTF-8 byte 0xff" in capsys.readouterr().err

    def test_bad_matrix_comment_exits_2(self, fixture_dir, tmp_path, ckpt, capsys):
        mat = tmp_path / "ja-en.mat"
        rc = main(["align", "--src", str(fixture_dir / "ja.vec"),
                   "--tgt", str(fixture_dir / "en.vec"),
                   "--dict", str(fixture_dir / "ja-en.tsv"),
                   "--src-lang", "ja", "--tgt-lang", "en",
                   "--k", "12", "--train", "9", "--out", str(mat)])
        assert rc == 0
        lines = mat.read_text().splitlines()
        lines[1] = "# fit_residual abc ridge_lambda 0"
        mat.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert self.predict(fixture_dir, tmp_path, ckpt, "--matrix", f"ja={mat}") == 2
        assert "line 2: non-numeric fit_residual" in capsys.readouterr().err

    def test_max_len_flag_is_gone(self, fixture_dir, tmp_path, ckpt, capsys):
        with pytest.raises(SystemExit) as exit_:
            self.predict(fixture_dir, tmp_path, ckpt, "--max-len", "9")
        assert exit_.value.code == 2
        assert "unrecognized arguments: --max-len 9" in capsys.readouterr().err


class TestPredictParsesOnlyTheUsedRows:
    """predict parses only the rows its tweets use of a .vec file whose bytes
    hash to the SHA-256 the checkpoint records, and the whole file otherwise."""

    WORDS = {"en": ["good", "bad", "day", "night", "fine", "rain", "sun"],
             "ja": ["良い", "悪い", "日", "夜", "雨"],
             "zh": ["好", "坏", "天", "夜", "雨"]}
    USED = {"en": ["bad", "day", "fine", "good", "night"], "ja": ["夜", "悪い", "良い"]}

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("verified")
        rng = np.random.default_rng(4)
        for lang, words in self.WORDS.items():
            rows = [f"{w} " + " ".join(f"{v:.4f}" for v in rng.uniform(-1, 1, 4)) for w in words]
            end = "\n"
            if lang == "en":
                # an earlier "good" row the later one overwrites, a word holding
                # U+001F, an unused word holding 0.5, and CRLF line ends
                rows = ["good 0.9 0.9 0.9 0.9", *rows, "odd\x1fword 0.25 1 2 3",
                        "spare 0.5 -0.5 0.125 1"]
                end = "\r\n"
            (d / f"{lang}.vec").write_bytes(
                end.join([f"{len(rows)} 4", *rows, ""]).encode("utf-8"))
        records = []
        for i in range(45):
            lang = ("en", "ja", "zh")[i % 3]
            words = rng.choice(self.WORDS[lang], size=3)
            records.append({"id": f"t{i}", "lang": lang, "text": " ".join(words), "label": i % 3})
        (d / "corpus.jsonl").write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
        # the input holds no zh tweet, and one word no table holds
        unseen = [{"id": f"u{i}", "lang": lang, "text": " ".join(words), "label": i % 3}
                  for i, (lang, words) in enumerate([
                      ("en", ["good", "day"]), ("en", ["bad", "night", "zzz"]),
                      ("en", ["fine", "good"]), ("ja", ["良い", "夜"]), ("ja", ["悪い"])])]
        (d / "unseen.jsonl").write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in unseen), encoding="utf-8")
        cfg = write_config(d / "cnn.cfg", d, [
            "kind = cnn", "window_sizes = 2",
            *(f"embedding.{lang} = {d / f'{lang}.vec'}" for lang in ("en", "ja", "zh")),
            "train.max_epochs = 2", "train.filters_per_window = 3",
        ])
        assert main(["train", "--config", str(cfg), "--out", str(d / "model.ckpt")]) == 0
        lines = (d / "model.ckpt").read_text(encoding="utf-8").splitlines(keepends=True)
        (d / "old.ckpt").write_text("".join(ln for ln in lines if not ln.startswith("source ")),
                                    encoding="utf-8")
        return d

    @pytest.fixture
    def loaded(self, monkeypatch):
        """lang -> the table predict loaded last for it."""
        tables = {}
        real = pipeline.load_embedding_table

        def record(path, lang, **kwargs):
            tables[lang] = real(path, lang, **kwargs)
            return tables[lang]

        monkeypatch.setattr(pipeline, "load_embedding_table", record)
        return tables

    def predict(self, d, ckpt, out, en=None):
        return main(["predict", "--model", str(d / ckpt), "--in", str(d / "unseen.jsonl"),
                     "--out", str(out), "--embedding", f"en={en or d / 'en.vec'}",
                     "--embedding", f"ja={d / 'ja.vec'}", "--embedding", f"zh={d / 'zh.vec'}"])

    def test_used_rows_give_the_bytes_the_whole_file_gives(self, files, tmp_path, loaded,
                                                           table_hashes):
        checkpoint = (files / "model.ckpt").read_text(encoding="utf-8")
        for lang in ("en", "ja", "zh"):
            digest = hashlib.sha256((files / f"{lang}.vec").read_bytes()).hexdigest()
            assert f"\nsource {lang} {digest}\n" in checkpoint
        assert self.predict(files, "model.ckpt", tmp_path / "used.jsonl") == 0
        used = dict(loaded)
        assert {lang: sorted(t.entries) for lang, t in used.items()} == {**self.USED, "zh": []}
        assert used["en"].duplicate_count == 1          # both "good" rows, the last kept
        assert used["en"].entries["good"].tolist() != [0.9] * 4
        assert table_hashes == {}       # the checkpoint's fingerprints stand for the tables

        # Without source lines, as checkpoints were written before them.
        assert self.predict(files, "old.ckpt", tmp_path / "whole.jsonl") == 0
        assert {lang: len(t.entries) for lang, t in loaded.items()} == {"en": 9, "ja": 5, "zh": 5}
        assert table_hashes == {"en": 1, "ja": 1, "zh": 1}
        for lang, table in used.items():
            assert table.fingerprint() == loaded[lang].fingerprint()
            for word, vec in table.entries.items():
                assert vec.tobytes() == loaded[lang].entries[word].tobytes()
        assert (tmp_path / "used.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()

    def test_respelled_unused_value_loads_the_whole_file(self, files, tmp_path, loaded,
                                                         table_hashes):
        assert self.predict(files, "model.ckpt", tmp_path / "used.jsonl") == 0
        text = (files / "en.vec").read_bytes().decode("utf-8")
        respelled = tmp_path / "en.vec"
        respelled.write_bytes(text.replace("spare 0.5 ", "spare 0.50 ").encode("utf-8"))
        assert self.predict(files, "model.ckpt", tmp_path / "p.jsonl", en=respelled) == 0
        assert len(loaded["en"].entries) == 9 and len(loaded["ja"].entries) == 3
        assert table_hashes == {"en": 1}
        assert (tmp_path / "p.jsonl").read_bytes() == (tmp_path / "used.jsonl").read_bytes()

    def test_changed_unused_value_exits_2(self, files, tmp_path, capsys):
        text = (files / "en.vec").read_bytes().decode("utf-8")
        changed = tmp_path / "en.vec"
        changed.write_bytes(text.replace("spare 0.5 ", "spare 0.25 ").encode("utf-8"))
        capsys.readouterr()
        assert self.predict(files, "model.ckpt", tmp_path / "p.jsonl", en=changed) == 2
        assert "differs: ['embeddings:en']" in capsys.readouterr().err
