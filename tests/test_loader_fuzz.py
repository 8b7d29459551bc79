"""Corrupted checkpoints, matrices, .vec files, report JSON, bilingual
dictionaries, frequency TSVs, JSONL corpora, run configs and the packaged
pattern, literal and mapping files fail with MultisentError or load.

Each example takes a file the package itself wrote (tiny dims) or ships,
or for the two TSV inputs a small file in their documented format, and
either replaces, deletes or cuts one line, or splices arbitrary bytes
in at some offset. The loader must return or raise MultisentError; any
other exception would end the CLI in a traceback instead of exit 2. A
packaged file's loader also builds a NormalizationRuleSet from what it
read and normalizes a sample under it.
"""

import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multisent.align import (
    fit_translation_matrix,
    load_dictionary,
    load_translation_matrix,
    save_translation_matrix,
)
from multisent.corpus import Polarity, TweetRecord, load_corpus, save_corpus
from multisent.embeddings import load_embedding_table, load_frequency_counts, save_embedding_table
from multisent.errors import MultisentError, ParseError, read_text
from multisent.experiment import CVReport, compare_runs, compare_runs_csv, parse_config
from multisent.nn import NeuralModel, TrainedModel, init_cnn_params, init_lstm_params
from multisent.nn import load_checkpoint, save_checkpoint
from multisent.nn.train import FineTunedEmbeddings
from multisent.preprocess import (
    NormalizationRuleSet,
    load_literal_file,
    load_mapping_table,
    load_pattern_file,
    normalize,
)

from conftest import seeded_table


def _checkpoint(kind: str) -> TrainedModel:
    if kind == "cnn":
        params = init_cnn_params(3, seed=1, window_sizes=(2, 3), filters_per_window=2)
    else:
        params = init_lstm_params(3, 2, seed=1)
    ft = FineTunedEmbeddings(index={("en", "a"): 0, ("ja", "b"): 1},
                             E=np.arange(6, dtype=np.float64).reshape(2, 3) / 7)
    return TrainedModel(
        model=NeuralModel(kind=kind, params=params, max_len=4),
        seed=3,
        fingerprints={"max_len": "4", "oov": "0:None",
                      "embeddings:en": "1e" * 32, "embeddings:ja": "2f" * 32},
        sources={"en": "3a" * 32, "ja": "4b" * 32},
        history=[(1, 1.25, 0.5), (2, 0.75, 0.625)],
        best_epoch=2,
        best_dev_accuracy=0.625,
        fine_tuned=ft if kind == "cnn" else None,
    )


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """File name -> (bytes the package wrote, the loader that reads them)."""
    directory = tmp_path_factory.mktemp("originals")
    loaders = {}
    for kind in ("cnn", "lstm"):
        save_checkpoint(_checkpoint(kind), directory / f"{kind}.ckpt")
        loaders[f"{kind}.ckpt"] = load_checkpoint
    table = seeded_table("en", ["alpha", "beta", "gamma"], dim=3)
    save_embedding_table(table, directory / "en.vec")
    loaders["en.vec"] = lambda path: load_embedding_table(path, "en")
    X = np.stack(list(table.entries.values()))
    save_translation_matrix(fit_translation_matrix(X, X[::-1], src_lang="ja", tgt_lang="en"),
                            directory / "ja-en.mat")
    loaders["ja-en.mat"] = load_translation_matrix
    report = CVReport(name="run", kind="lstm", folds=2, seed=3, fold_accuracies=[0.5, 0.75],
                      mean_accuracy=0.625, overall_accuracy=0.625,
                      per_language={"en": {"correct": 5.0, "total": 8.0},
                                    "ja": {"correct": 5.0, "total": 8.0}},
                      config_fingerprint="ab" * 32, wall_clock_per_fold=[0.25, 0.5])
    (directory / "report.json").write_text(report.to_json(), encoding="utf-8")
    loaders["report.json"] = lambda path: CVReport.from_json(read_text(path))
    (directory / "ja-en.tsv").write_text("# ja\ten\n良い\tgood\n日\tday\n話\tgood\n",
                                         encoding="utf-8")
    loaders["ja-en.tsv"] = load_dictionary
    (directory / "en.freq").write_text("good\t12\nday\t7\n# tail\n\nnight\t1\n",
                                       encoding="utf-8")
    loaders["en.freq"] = load_frequency_counts
    save_corpus([TweetRecord("t1", "en", "good day :)", Polarity.POSITIVE),
                 TweetRecord("t2", "ja", "今日は 雨", Polarity.NEGATIVE, tokens=["今日", "は", "雨"]),
                 TweetRecord("t3", "zh", "說話", Polarity.NEUTRAL)], directory / "corpus.jsonl")
    loaders["corpus.jsonl"] = load_corpus
    (directory / "run.cfg").write_text(
        "# a fine-tuned CNN over mapped embeddings\n"
        "corpus = corpus.jsonl\nlanguages = en,ja\nkind = cnn\nfolds = 5\nseed = 3\n"
        "alignment = translation_matrix\nrefit = per_fold\ntarget_language = en\n"
        "pivot_count = 20\npivot_train_count = 16\nwindow_sizes = 2,3\n"
        "embedding.en = en.vec\nembedding.ja = ja.vec\ndictionary.ja = ja-en.tsv\n"
        "oov_scale = 0.25\ntrain.batch_size = 50\ntrain.dropout_rate = 0.5\n"
        "train.filters_per_window = 8\ntrain.fine_tune_embeddings = true\n", encoding="utf-8")
    loaders["run.cfg"] = lambda path: parse_config(read_text(path))
    for name, read, field in [("emoticon_patterns.txt", load_pattern_file, "emoticon_patterns"),
                              ("emoticon_literals.txt", load_literal_file, "emoticon_literals"),
                              ("zh_trad2simp.tsv", load_mapping_table, "trad2simp")]:
        (directory / name).write_bytes((resources.files("multisent") / "data" / name).read_bytes())
        loaders[name] = lambda path, read=read, field=field: _normalize_sample(
            NormalizationRuleSet(**{field: read(path)}))
    return {name: ((directory / name).read_bytes(), load) for name, load in loaders.items()}


def _normalize_sample(rules: NormalizationRuleSet) -> None:
    for lang in ("en", "ja", "zh"):
        normalize("Good :-) (^_^) orz ＡＢ 說話 \U0001F600\u200d http://x.co", lang, rules)


_line_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


def _corrupt(data: bytes, draw) -> bytes:
    """data with one line replaced, deleted or cut short, or with bytes spliced in."""
    op = draw(st.sampled_from(["replace", "delete", "cut", "splice"]))
    if op == "splice":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.binary(min_size=1, max_size=12)) + data[at:]
    lines = data.split(b"\n")
    at = draw(st.integers(0, len(lines) - 1))
    if op == "replace":
        lines[at] = draw(_line_text).encode("utf-8")
    elif op == "delete":
        del lines[at]
    else:
        lines[at] = lines[at][:draw(st.integers(0, max(len(lines[at]) - 1, 0)))]
    return b"\n".join(lines)


@pytest.mark.parametrize("name", ["cnn.ckpt", "lstm.ckpt", "en.vec", "ja-en.mat", "report.json", "ja-en.tsv", "en.freq",
                                  "corpus.jsonl", "run.cfg",
                                  "emoticon_patterns.txt", "emoticon_literals.txt", "zh_trad2simp.tsv"])
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_file_loads_or_raises_multisent_error(originals, tmp_path, name, data):
    original, load = originals[name]
    path = tmp_path / name
    # A fresh file per example: truncating and rewriting the last one is far slower.
    path.unlink(missing_ok=True)
    path.write_bytes(_corrupt(original, data.draw))
    try:
        load(path)
    except MultisentError:
        pass


@pytest.mark.parametrize("name", ["cnn.ckpt", "lstm.ckpt"])
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_source_line_loads_or_raises_multisent_error(originals, tmp_path, name, data):
    """A `source LANG SHA256` line with any other text after `source`."""
    original, load = originals[name]
    lines = original.decode("utf-8").split("\n")
    at = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.startswith("source ")]))
    lines[at] = "source" + data.draw(_line_text)
    path = tmp_path / name
    path.unlink(missing_ok=True)
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        load(path)
    except MultisentError:
        pass


@pytest.mark.parametrize("name", ["cnn.ckpt", "lstm.ckpt"])
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_permuted_tensor_shape_is_rejected(originals, tmp_path, name, data):
    """The same values under a reordered shape load only if the shape is unchanged."""
    original, load = originals[name]
    lines = original.decode("utf-8").split("\n")
    at = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.startswith("tensor ")]))
    _, tensor, *dims = lines[at].split(" ")
    permuted = data.draw(st.permutations(dims))
    lines[at] = " ".join(["tensor", tensor, *permuted])
    path = tmp_path / name
    path.unlink(missing_ok=True)
    path.write_text("\n".join(lines), encoding="utf-8")
    if permuted == dims:
        load(path)
    else:
        with pytest.raises(ParseError, match=f"tensor {tensor} has shape"):
            load(path)


def test_uncorrupted_files_load(originals, tmp_path):
    for name, (data, load) in originals.items():
        path = tmp_path / name
        path.write_bytes(data)
        load(path)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    """Every key or index path into a JSON object's nested objects and lists."""
    for k, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (k,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (k,))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_report_with_any_json_value_in_a_field_loads_or_raises_multisent_error(originals, data):
    """`compare` reads each report and prints a table of it; a field that holds
    any other JSON value must fail in from_json, not in the table."""
    obj = json.loads(originals["report.json"][0])
    path = data.draw(st.sampled_from(list(_paths(obj))), label="path")
    target = obj
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = data.draw(_json_values, label="value")
    try:
        report = CVReport.from_json(json.dumps(obj))
    except MultisentError:
        return
    compare_runs([report, report])
    compare_runs_csv([report])
