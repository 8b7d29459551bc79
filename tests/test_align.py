"""Least-squares maps between embedding spaces."""

import numpy as np
import pytest

from multisent.align import (
    PivotPairSet,
    alignment_report,
    cosine_distance,
    fit_objective,
    fit_translation_matrix,
    load_dictionary,
    load_translation_matrix,
    resolve_pairs,
    save_translation_matrix,
    select_pivot_pairs,
)
from multisent.errors import ArgumentError, CoverageError, ParseError
from multisent.rng import SplitMix64, derive_stream

from conftest import seeded_table


def _gaussian(rng, n):
    u1 = np.maximum(rng.float_array(n), 1e-300)
    u2 = rng.float_array(n)
    return np.sqrt(-2 * np.log(u1)) * np.cos(2 * np.pi * u2)


def _rotation(dim, seed):
    A = _gaussian(SplitMix64(seed), dim * dim).reshape(dim, dim)
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def _pairs(dim, n, seed, noise=0.0):
    rng = SplitMix64(derive_stream(seed, "pairs"))
    X = _gaussian(rng, n * dim).reshape(n, dim)
    R = _rotation(dim, seed + 1)
    Z = X @ R
    if noise:
        Z = Z + _gaussian(rng, n * dim).reshape(n, dim) * noise
    return X, Z, R


# -- fitting ---------------------------------------------------------------

def test_exact_rotation_recovery():
    X, Z, R = _pairs(10, 200, seed=0)
    tm = fit_translation_matrix(X, Z)
    assert np.linalg.norm(tm.W - R) < 1e-8
    assert tm.fit_residual < 1e-12
    assert tm.ridge_lambda == 0.0


def test_residual_matches_brute_force():
    X, Z, _ = _pairs(6, 80, seed=3, noise=0.05)
    tm = fit_translation_matrix(X, Z)
    direct = fit_objective(X, Z, tm.W)
    assert abs(tm.fit_residual - direct) < 1e-10


def test_residual_is_sum_of_squared_row_errors():
    X, Z, _ = _pairs(4, 30, seed=5, noise=0.1)
    tm = fit_translation_matrix(X, Z)
    manual = sum(float(np.sum((x @ tm.W - z) ** 2)) for x, z in zip(X, Z))
    assert abs(tm.fit_residual - manual) < 1e-10


def test_rank_deficient_falls_back_to_ridge():
    rng = SplitMix64(1)
    X = np.tile(_gaussian(rng, 5), (20, 1))  # rank one
    Z = np.tile(_gaussian(rng, 5), (20, 1))
    tm = fit_translation_matrix(X, Z)
    assert tm.ridge_lambda > 0.0
    assert tm.underdetermined
    assert np.all(np.isfinite(tm.W))


def test_shape_validation():
    with pytest.raises(ArgumentError):
        fit_translation_matrix(np.zeros((4, 3)), np.zeros((5, 3)))
    with pytest.raises(ArgumentError):
        fit_translation_matrix(np.zeros((4, 3)), np.zeros((4, 2)))


# -- distance report -------------------------------------------------------

def test_exact_pairs_after_distance_near_zero():
    X, Z, _ = _pairs(8, 100, seed=4)
    tm = fit_translation_matrix(X[:80], Z[:80])
    rep = alignment_report(X[80:], Z[80:], tm)
    assert rep.euclidean_sum_before > 1.0
    assert rep.euclidean_sum_after < 1e-6
    assert rep.cosine_sum_after < 1e-9
    assert rep.pair_count == 20


def test_noisy_pairs_improve_in_both_metrics():
    for seed in range(5):
        X, Z, _ = _pairs(8, 100, seed=seed, noise=0.05)
        tm = fit_translation_matrix(X[:80], Z[:80])
        rep = alignment_report(X[80:], Z[80:], tm)
        assert rep.euclidean_sum_after < rep.euclidean_sum_before
        assert rep.cosine_sum_after < rep.cosine_sum_before


def test_cosine_distance_zero_norm_convention():
    assert cosine_distance(np.zeros(3), np.ones(3)) == 1.0
    assert cosine_distance(np.ones(3), np.ones(3)) == pytest.approx(0.0, abs=1e-12)


# -- pivot selection -------------------------------------------------------

def test_pivot_selection_skips_uncovered_words():
    ranks = {"top": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5}
    dictionary = {"second": "b", "third": "c", "fourth": "d"}
    pairs = select_pivot_pairs(ranks, dictionary, K=2, train_count=1, seed=0)
    assert pairs.pairs == [("second", "b"), ("third", "c")]  # rank 1 not in dict


def test_pivot_shortfall_raises_coverage_error():
    ranks = {"a": 1, "b": 2}
    with pytest.raises(CoverageError) as exc:
        select_pivot_pairs(ranks, {"a": "x"}, K=3, train_count=2, seed=0)
    assert exc.value.shortfall == 2


def test_pivot_split_partitions():
    ranks = {f"w{i}": i + 1 for i in range(30)}
    dictionary = {f"w{i}": f"t{i}" for i in range(30)}
    pairs = select_pivot_pairs(ranks, dictionary, K=20, train_count=15, seed=3)
    assert len(pairs.pairs) == 20
    assert len(pairs.train_pairs) == 15 and len(pairs.test_pairs) == 5
    assert set(pairs.train_pairs) | set(pairs.test_pairs) == set(pairs.pairs)
    again = select_pivot_pairs(ranks, dictionary, K=20, train_count=15, seed=3)
    assert again.train_pairs == pairs.train_pairs


def test_pivot_pair_set_validates():
    with pytest.raises(ArgumentError):
        PivotPairSet(src_lang="a", tgt_lang="b",
                     pairs=[("x", "1"), ("x", "2")],
                     train_pairs=[("x", "1")], test_pairs=[("x", "2")])


def test_pivot_argument_errors():
    ranks = {"a": 1}
    with pytest.raises(ArgumentError):
        select_pivot_pairs(ranks, {"a": "x"}, K=0, train_count=0, seed=0)
    with pytest.raises(ArgumentError):
        select_pivot_pairs(ranks, {"a": "x"}, K=1, train_count=2, seed=0)


# -- resolving pairs to vectors --------------------------------------------

def test_resolve_strict_requires_coverage():
    src = seeded_table("ja", ["inu", "neko"], dim=3)
    tgt = seeded_table("en", ["dog"], dim=3)
    X, Z = resolve_pairs([("inu", "dog")], src, tgt)
    assert X.shape == (1, 3)
    with pytest.raises(CoverageError) as exc:
        resolve_pairs([("neko", "cat")], src, tgt)
    assert "cat" in str(exc.value)


def test_resolve_with_oov_fallback():
    src = seeded_table("ja", [], dim=3)
    tgt = seeded_table("en", [], dim=3)
    X, Z = resolve_pairs([("inu", "dog")], src, tgt, oov_seed=0)
    assert np.array_equal(X[0], src.lookup("inu", oov_seed=0))
    assert np.array_equal(Z[0], tgt.lookup("dog", oov_seed=0))


# -- serialization ---------------------------------------------------------

def test_matrix_round_trip(tmp_path):
    X, Z, _ = _pairs(5, 50, seed=8, noise=0.01)
    rng = SplitMix64(1)
    full = fit_translation_matrix(X, Z, src_lang="ja", tgt_lang="en")
    deficient = fit_translation_matrix(np.tile(_gaussian(rng, 5), (20, 1)),
                                       np.tile(_gaussian(rng, 5), (20, 1)))
    assert deficient.underdetermined and not full.underdetermined
    for i, tm in enumerate((full, deficient)):
        p = tmp_path / f"w{i}.mat"
        save_translation_matrix(tm, p)
        back = load_translation_matrix(p)
        assert (back.src_lang, back.tgt_lang) == (tm.src_lang, tm.tgt_lang)
        assert np.array_equal(back.W, tm.W)
        assert back.fit_residual == pytest.approx(tm.fit_residual, rel=1e-15)
        assert back.ridge_lambda == tm.ridge_lambda
        assert back.underdetermined is tm.underdetermined


def test_matrix_without_underdetermined_field_loads(tmp_path):
    p = tmp_path / "w.mat"
    p.write_text("ja en 2\n# fit_residual 0.5 ridge_lambda 0\n1 0\n0 1\n")
    back = load_translation_matrix(p)
    assert back.fit_residual == 0.5 and back.underdetermined is False


@pytest.mark.parametrize("text, message", [
    ("", "line 1: empty translation matrix file"),
    ("ja en two\n1 0\n0 1\n", "line 1: dim must be an integer, got 'two'"),
], ids=["empty-file", "non-integer-dim"])
def test_matrix_header_message(tmp_path, text, message):
    p = tmp_path / "w.mat"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_translation_matrix(p)
    assert str(exc.value) == message


def test_matrix_load_rejects_garbage(tmp_path):
    p = tmp_path / "w.mat"
    p.write_text("nonsense\n")
    with pytest.raises(ParseError):
        load_translation_matrix(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "1e999"])
def test_matrix_load_rejects_non_finite_value(tmp_path, bad):
    p = tmp_path / "w.mat"
    p.write_text(f"ja en 2\n# fit_residual 0 ridge_lambda 0\n1 0\n0 {bad}\n")
    with pytest.raises(ParseError) as exc:
        load_translation_matrix(p)
    assert exc.value.line == 4
    assert "non-finite" in str(exc.value)


@pytest.mark.parametrize("lines,message", [
    (["# fit_residual abc ridge_lambda 0", "1 0", "0 1"], "non-numeric fit_residual"),
    (["# fit_residual 0 ridge_lambda inf", "1 0", "0 1"], "non-finite ridge_lambda"),
    (["# fit_residual", "1 0", "0 1"], "non-numeric fit_residual"),
    (["1 0", "0 x"], "non-numeric matrix value in '0 x'"),
])
def test_matrix_load_names_the_bad_line(tmp_path, lines, message):
    p = tmp_path / "w.mat"
    p.write_text("ja en 2\n" + "\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_translation_matrix(p)
    assert exc.value.line == (2 if lines[0].startswith("#") else 3)
    assert message in str(exc.value)


def test_dictionary_loading(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("# comment\ninu\tdog\nneko\tcat\ninu\thound\n")
    d = load_dictionary(p)
    assert d == {"inu": "hound", "neko": "cat"}  # last duplicate wins


def test_dictionary_word_may_hold_a_unicode_line_break(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("inu\u2028x\tdog\u2028y\r\nneko\tcat\rtori\tbird\n", encoding="utf-8")
    assert load_dictionary(p) == {"inu\u2028x": "dog\u2028y", "neko": "cat", "tori": "bird"}
