"""Embedding table IO and OOV policy."""

import numpy as np
import pytest

from multisent.corpus import Polarity
from multisent.embeddings import (
    EmbeddingTable,
    check_dim_uniformity,
    count_tokens,
    default_oov_scale,
    load_embedding_table,
    load_frequency_counts,
    oov_vector,
    ranks_from_counts,
    save_embedding_table,
)
from multisent.errors import ArgumentError, ConfigurationError, ParseError
from multisent.pipeline import EmbeddingContext
from multisent.preprocess import TokenizedTweet

from conftest import seeded_table


def _tw(tokens, lang="en"):
    return TokenizedTweet(id="t", lang=lang, label=Polarity.NEUTRAL, tokens=tokens)


def _embed(tweet, table, oov_seed):
    """tweet's rows through a context holding only table."""
    return EmbeddingContext(tables={table.lang: table}, oov_seed=oov_seed).embed(tweet)


# -- file format -----------------------------------------------------------

def test_two_by_three_header(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
    table = load_embedding_table(p, "en")
    assert len(table.entries) == 2 and table.dim == 3
    assert np.array_equal(table.entries["beta"], [4.0, 5.0, 6.0])


def test_row_arity_error_names_line(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("2 3\nalpha 1 2\nbeta 4 5 6\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_component_names_line(tmp_path, bad):
    p = tmp_path / "e.vec"
    p.write_text(f"2 2\ngood 0.5 1.0\nbad {bad} 1.0\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 3
    assert "non-finite" in str(exc.value)


def test_invalid_utf8_names_line(tmp_path):
    p = tmp_path / "e.vec"
    p.write_bytes(b"2 2\ngood 0.5 1.0\nb\xffd 0.5 1.0\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 3
    assert "invalid UTF-8 byte 0xff" in str(exc.value)


def test_row_count_mismatch(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("3 2\na 1 2\nb 3 4\n")
    with pytest.raises(ParseError):
        load_embedding_table(p, "en")


def test_bad_header(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("not a header\n")
    with pytest.raises(ParseError) as exc:
        load_embedding_table(p, "en")
    assert exc.value.line == 1


def test_duplicates_last_win_and_are_counted(tmp_path):
    p = tmp_path / "e.vec"
    p.write_text("3 2\na 1 2\nb 3 4\na 9 9\n")
    table = load_embedding_table(p, "en")
    assert np.array_equal(table.entries["a"], [9.0, 9.0])
    assert table.duplicate_count == 1


def test_five_word_round_trip(tmp_path):
    table = seeded_table("en", ["v", "w", "x", "y", "z"], dim=4, seed=3)
    p = tmp_path / "rt.vec"
    save_embedding_table(table, p)
    loaded = load_embedding_table(p, "en")
    for word in table.entries:
        assert np.array_equal(loaded.entries[word], table.entries[word])


def test_frequency_counts_sidecar(tmp_path):
    p = tmp_path / "freq.tsv"
    p.write_text("# header comment\nthe\t100\ncat\t7\n")
    assert load_frequency_counts(p) == {"the": 100, "cat": 7}


# -- OOV policy ------------------------------------------------------------

def test_default_scale():
    assert default_oov_scale(100) == pytest.approx(0.005)


def test_in_vocabulary_rows_exact():
    table = seeded_table("en", ["a", "b"], dim=3)
    X = _embed(_tw(["b", "a"]), table, oov_seed=0)
    assert np.array_equal(X[0], table.entries["b"])
    assert np.array_equal(X[1], table.entries["a"])


def test_same_oov_token_identical_rows():
    table = seeded_table("en", ["a"], dim=3)
    X = _embed(_tw(["mystery", "a", "mystery"]), table, oov_seed=5)
    assert np.array_equal(X[0], X[2])
    assert not np.array_equal(X[0], X[1])


def test_oov_reproducible_across_runs():
    t1 = seeded_table("en", ["a"], dim=4)
    t2 = seeded_table("en", ["a"], dim=4)
    x1 = _embed(_tw(["ghost"]), t1, oov_seed=9)
    x2 = _embed(_tw(["ghost"]), t2, oov_seed=9)
    assert np.array_equal(x1, x2)


def test_oov_depends_on_seed_lang_token():
    base = oov_vector(0, "en", "word", 4, 0.01)
    assert not np.array_equal(base, oov_vector(1, "en", "word", 4, 0.01))
    assert not np.array_equal(base, oov_vector(0, "ja", "word", 4, 0.01))
    assert not np.array_equal(base, oov_vector(0, "en", "down", 4, 0.01))


def test_oov_respects_scale_bounds():
    v = oov_vector(3, "en", "tok", 200, 0.01)
    assert np.all(np.abs(v) <= 0.01)
    # the scale reaches the vector under the same seed
    table = seeded_table("en", [], dim=4)
    a = table.lookup("tok", oov_seed=0, oov_scale=0.5)
    b = table.lookup("tok", oov_seed=0, oov_scale=0.005)
    assert np.max(np.abs(b)) <= 0.005 < np.max(np.abs(a))


def test_lang_mismatch_rejected():
    table = seeded_table("ja", ["a"], dim=3)
    with pytest.raises(ArgumentError):
        EmbeddingContext(tables={"en": table}).embed(_tw(["a"], lang="en"))


# -- counts and ranks ------------------------------------------------------

def test_count_tokens_respects_lang_filter():
    tweets = [_tw(["x", "y", "x"]), _tw(["x"], lang="ja")]
    assert count_tokens(tweets) == {"x": 3, "y": 1}
    assert count_tokens(tweets, lang="ja") == {"x": 1}


def test_ranks_most_frequent_first_ties_lexicographic():
    ranks = ranks_from_counts({"b": 5, "a": 5, "c": 9})
    assert ranks == {"c": 1, "a": 2, "b": 3}


# -- dim uniformity --------------------------------------------------------

def test_dim_uniformity():
    tables = {
        "en": seeded_table("en", ["a"], dim=4),
        "ja": seeded_table("ja", ["b"], dim=4),
    }
    assert check_dim_uniformity(tables.values()) == 4
    tables["zh"] = seeded_table("zh", ["c"], dim=5)
    with pytest.raises(ConfigurationError):
        check_dim_uniformity(tables.values())


def test_table_fingerprint_tracks_content():
    a = seeded_table("en", ["a", "b"], dim=3, seed=0)
    b = seeded_table("en", ["a", "b"], dim=3, seed=0)
    c = seeded_table("en", ["a", "b"], dim=3, seed=1)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
