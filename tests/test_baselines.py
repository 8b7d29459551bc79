"""N-gram features, Naive Bayes posteriors, and the dual-trained SVM.

The SVM checks compare against a brute-force primal minimizer computed
in-test by grid refinement, so no solver constant is trusted twice.
"""

from fractions import Fraction

import numpy as np
import pytest

from multisent.baselines import (
    NGRAM_JOINER,
    BinarySVM,
    FeatureSpace,
    SVMModel,
    build_feature_space,
    intern_ngrams,
    nb_posterior,
    ngrams_of,
    predict_nb,
    predict_svm,
    train_binary_svm,
    train_nb,
    train_svm_ovo,
    vectorize,
)
from multisent.corpus import Polarity, make_folds
from multisent.errors import ArgumentError, ConfigurationError
from multisent.experiment import ExperimentConfig, prepare_inputs
from multisent.preprocess import TokenizedTweet
from multisent.synth import SynthSpec, generate_fixture

from conftest import oracle_feature_space, oracle_vectorize, svm_primal_objective


def _tw(tokens, lang="en", label=Polarity.NEUTRAL, id="t0"):
    return TokenizedTweet(id=id, lang=lang, label=label, tokens=tokens)


class TestNgrams:
    def test_unigrams_and_bigrams_in_first_occurrence_order(self):
        grams = ngrams_of(["a", "b", "a"])
        assert grams == ["a", "b", "a" + NGRAM_JOINER + "b", "b" + NGRAM_JOINER + "a"]

    def test_repeats_binarize(self):
        grams = ngrams_of(["x", "x", "x"])
        assert grams == ["x", "x" + NGRAM_JOINER + "x"]

    def test_single_token_has_no_bigram(self):
        assert ngrams_of(["only"]) == ["only"]


def _fold_space(train, test=()):
    """Intern train and test tweets together, as evaluate does; build the space from train.

    Returns the space, the training vectors and the test vectors.
    """
    size, rows = intern_ngrams(list(train) + list(test))
    space, vectors = build_feature_space(rows[:len(train)], size)
    return space, vectors, [vectorize(row, space) for row in rows[len(train):]]


def _sorted_key_vectors(tweets):
    """Each tweet's column ids when columns number the tagged n-grams in sorted order."""
    return [v.tolist() for v in oracle_feature_space(tweets)[1]]


class TestFeatureSpace:
    def test_columns_are_lexicographic(self):
        tweets = [_tw(["b", "a"], id="t1"), _tw(["c"], id="t2")]
        space, vectors, _ = _fold_space(tweets)
        # columns: a, b, b+a bigram, c
        assert [v.tolist() for v in vectors] == [[0, 1, 2], [3]]
        assert [v.tolist() for v in vectors] == _sorted_key_vectors(tweets)
        assert space.dimension == 4

    def test_corpus_order_does_not_matter(self):
        tweets = [_tw(["b", "a"], id="t1"), _tw(["c"], id="t2")]
        a, a_vectors, _ = _fold_space(tweets)
        b, b_vectors, _ = _fold_space(tweets[::-1])
        assert a.remap.tolist() == b.remap.tolist()
        assert [v.tolist() for v in a_vectors] == [v.tolist() for v in b_vectors[::-1]]

    def test_cumulative_scheme_namespaces_by_language(self):
        tweets = [_tw(["same"], lang="en", id="t1"), _tw(["same"], lang="ja", id="t2")]
        space, _, _ = _fold_space(tweets)
        assert space.dimension == 2
        en_only, _, _ = _fold_space([tweets[0]])
        ja_only, _, _ = _fold_space([tweets[1]])
        assert space.dimension == en_only.dimension + ja_only.dimension

    def test_one_language_keeps_plain_ngram_order(self):
        tweets = [_tw(["b", "a", "Z"], lang="ja", id="t1"),
                  _tw(["c", "a", "b"], lang="ja", id="t2")]
        space, vectors, _ = _fold_space(tweets)
        plain = sorted({ng for tw in tweets for ng in ngrams_of(tw.tokens)})
        assert space.dimension == len(plain)
        assert [v.tolist() for v in vectors] == [
            sorted(plain.index(ng) for ng in ngrams_of(tw.tokens)) for tw in tweets]

    def test_returned_vectors_equal_vectorize(self):
        tweets = [_tw(["b", "a", "b"], id="t1"), _tw(["c", "a"], lang="ja", id="t2"),
                  _tw(["a", "c", "a", "c"], id="t3"), _tw(["c"], lang="en", id="t4")]
        size, rows = intern_ngrams(tweets)
        space, vectors = build_feature_space(rows, size)
        assert len(vectors) == len(tweets)
        for row, vec in zip(rows, vectors):
            want = vectorize(row, space)
            assert vec.dtype == want.dtype == np.int64
            assert vec.tolist() == want.tolist()
            assert all(a < b for a, b in zip(vec.tolist(), vec.tolist()[1:]))

    def test_vectorize_known_and_unknown(self):
        train = [_tw(["a", "b"], id="t1")]
        space, _, (vec,) = _fold_space(train, [_tw(["b", "zzz", "a"], id="q")])
        # Unknown token and the unseen bigrams drop; ids come back sorted.
        # columns: a, a+b bigram, b
        assert vec.tolist() == [0, 2]
        assert space.dimension == 3

    def test_vectorize_respects_language_namespacing(self):
        tweets = [_tw(["same"], lang="en", id="t1"), _tw(["same"], lang="ja", id="t2")]
        _, _, (en_vec, ja_vec) = _fold_space(
            tweets, [_tw(["same"], lang="en", id="q1"), _tw(["same"], lang="ja", id="q2")])
        assert en_vec.tolist() != ja_vec.tolist()

    def test_dense_id_validation(self):
        for remap in ([0, -1, 2], [1, 0], [-1, 1]):
            with pytest.raises(ArgumentError, match="dense"):
                FeatureSpace(remap=np.array(remap))


class TestInternNgrams:
    def test_languages_follow_their_tagged_key_order(self):
        # Sorted by code, "en" precedes "en\x01"; as a key prefix "en" + joiner
        # sorts after "en\x01" + joiner, and the keys' order is what counts.
        tweets = [_tw(["b", "a"], lang=lang, id=f"t{i}")
                  for i, lang in enumerate(["en", "en\x01", "e", "zh-tw", "zh"])]
        size, rows = intern_ngrams(tweets)
        assert size == 15
        assert [r.tolist() for r in rows] == _sorted_key_vectors(tweets)

    def test_ids_are_dense_sorted_int64(self):
        tweets = [_tw(["b", "a", "b", "a"], id="t1"), _tw(["a"], lang="ja", id="t2"),
                  _tw(["c", "b"], id="t3")]
        size, rows = intern_ngrams(tweets)
        assert size == 7      # en: a, b, a+b, b+a, c, c+b; ja: a
        assert sorted({i for r in rows for i in r.tolist()}) == list(range(size))
        for row in rows:
            assert row.dtype == np.int64
            assert all(a < b for a, b in zip(row.tolist(), row.tolist()[1:]))

    def test_language_with_the_joiner_is_rejected(self):
        with pytest.raises(ArgumentError, match="n-gram joiner"):
            intern_ngrams([_tw(["a"], lang="e" + NGRAM_JOINER + "n")])

    def test_bad_rows_rejected(self):
        with pytest.raises(ArgumentError, match="feature id 3 outside"):
            build_feature_space([np.array([0, 3])], 3)
        with pytest.raises(ArgumentError, match="strictly increasing"):
            build_feature_space([np.array([1, 0])], 3)


@pytest.fixture(scope="module")
def synth_records():
    return generate_fixture(SynthSpec(seed=3, n_tweets=150)).records


@pytest.mark.parametrize("languages", [("en", "ja", "zh"), ("ja",)], ids=["all", "ja"])
def test_fold_spaces_match_the_string_indexed_oracle(synth_records, languages):
    cfg = ExperimentConfig(name="o", corpus="", languages=languages, kind="svm",
                           folds=5, seed=0)
    tweets, _ = prepare_inputs(cfg, records=synth_records)
    plan = make_folds(tweets, cfg.folds, cfg.seed)
    size, rows = intern_ngrams(tweets)
    for fold in range(cfg.folds):
        train = [i for i, tw in enumerate(tweets) if plan.assignments[tw.id] != fold]
        test = [i for i, tw in enumerate(tweets) if plan.assignments[tw.id] == fold]
        index, want = oracle_feature_space([tweets[i] for i in train])
        space, got = build_feature_space([rows[i] for i in train], size)
        assert space.dimension == len(index)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert (np.diff(g) > 0).all()
            assert g.tolist() == w.tolist()
        for i in test:
            g = vectorize(rows[i], space)
            assert g.dtype == np.int64
            assert g.tolist() == oracle_vectorize(tweets[i], index).tolist()


class TestNaiveBayes:
    # Two features; class 0 docs {f0} and {f0,f1}, class 2 docs {f1} twice.
    VECTORS = [np.array([0]), np.array([0, 1]), np.array([1]), np.array([1])]
    LABELS = [0, 0, 2, 2]

    def test_multinomial_posterior_exact(self):
        model = train_nb(self.VECTORS, self.LABELS, alpha=1.0, dimension=2)
        # Likelihood of f0: class 0 (2+1)/(3+2) = 3/5, class 2 (0+1)/(2+2) = 1/4.
        # Equal priors, so P(class0 | {f0}) = (3/5) / (3/5 + 1/4) = 12/17.
        post = nb_posterior(model, np.array([0]))
        want = Fraction(3, 5) / (Fraction(3, 5) + Fraction(1, 4))
        assert want == Fraction(12, 17)
        assert abs(post[0] - float(want)) < 1e-12
        assert abs(post.sum() - 1.0) < 1e-12
        assert model.classes == [0, 2]

    def test_empty_vector_uses_priors_only_multinomial(self):
        model = train_nb(self.VECTORS, [0, 0, 2, 2, ][: len(self.VECTORS)],
                         alpha=1.0, dimension=2)
        post = nb_posterior(model, np.array([], dtype=np.int64))
        assert abs(post[0] - 0.5) < 1e-12

    def test_prediction_tie_goes_to_lowest_code(self):
        # Symmetric data: {f0} labeled 0 and {f1} labeled 2 mirror each
        # other, so an empty test vector scores both classes equally.
        model = train_nb([np.array([0]), np.array([1])], [0, 2],
                         alpha=1.0, dimension=2)
        assert predict_nb(model, np.array([], dtype=np.int64)) == Polarity.POSITIVE

    def test_alpha_shrinks_posterior_toward_uniform(self):
        sharp = train_nb(self.VECTORS, self.LABELS, alpha=0.1, dimension=2)
        flat = train_nb(self.VECTORS, self.LABELS, alpha=50.0, dimension=2)
        p_sharp = nb_posterior(sharp, np.array([0]))[0]
        p_flat = nb_posterior(flat, np.array([0]))[0]
        assert p_sharp > p_flat > 0.5

    def test_validation(self):
        with pytest.raises(ArgumentError):
            train_nb([], [], dimension=1)
        with pytest.raises(ArgumentError):
            train_nb([np.array([0])], [0, 1], dimension=1)
        with pytest.raises(ArgumentError):
            train_nb([np.array([0])], [0], dimension=1, alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ArgumentError, match="alpha must be finite and positive"):
            train_nb(self.VECTORS, self.LABELS, alpha=alpha, dimension=2)

    @pytest.mark.parametrize("bad, dimension", [
        (-1, 2), (2, 2), (5, 2),
    ])
    def test_feature_id_out_of_range_rejected(self, bad, dimension):
        vectors = [np.array([0]), np.array([bad]), np.array([1])]
        with pytest.raises(ArgumentError, match=f"feature id {bad} outside"):
            train_nb(vectors, [0, 0, 2], dimension=dimension)

    @pytest.mark.parametrize("bad", [[1, 1], [1, 0]], ids=["repeated", "unsorted"])
    def test_ids_must_strictly_increase(self, bad):
        # A repeated id would count twice; vectorize never returns one.
        vectors = [np.array([0]), np.array(bad), np.array([1])]
        with pytest.raises(ArgumentError, match="strictly increasing"):
            train_nb(vectors, [0, 0, 2], dimension=2)

    def test_counts_match_a_per_tweet_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        dimension = 40
        vectors = [np.flatnonzero(rng.random(dimension) < 0.2) for _ in range(60)]
        labels = [int(y) for y in rng.integers(0, 3, len(vectors))]
        model = train_nb(vectors, labels, dimension=dimension, alpha=0.5)
        n_by_class = np.zeros(3)
        present = np.zeros((3, dimension))
        for vec, y in zip(vectors, labels):
            n_by_class[y] += 1
            present[y, vec] += 1.0
        totals = present.sum(axis=1, keepdims=True)
        assert model.log_prior.tobytes() == np.log(n_by_class / n_by_class.sum()).tobytes()
        want = np.log((present + 0.5) / (totals + 0.5 * dimension))
        assert model.log_lik.tobytes() == want.tobytes()


def brute_force_primal(vectors, ys, dim, C, span=3.0, levels=6, points=13):
    """Grid-refinement minimizer of the primal objective over (w, bias)."""
    center = np.zeros(dim + 1)
    best_w = center.copy()
    best_f = svm_primal_objective(vectors, ys, best_w, C)
    width = span
    for _ in range(levels):
        axes = [np.linspace(c - width, c + width, points) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        stacked = np.stack([m.ravel() for m in mesh], axis=1)
        for w in stacked:
            f = svm_primal_objective(vectors, ys, w, C)
            if f < best_f:
                best_f, best_w = f, w.copy()
        center = best_w
        width = width * (2.0 / (points - 1)) * 1.5
    return best_w, best_f


class TestBinarySvm:
    # Feature 0 marks the positive class, feature 1 the negative one.
    VECTORS = [
        np.array([0]), np.array([0, 1]), np.array([0]),
        np.array([1]), np.array([], dtype=np.int64), np.array([1]),
    ]
    YS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])

    def test_matches_brute_force_primal(self):
        m = train_binary_svm(self.VECTORS, self.YS, dimension=2,
                             pos_code=0, neg_code=2, C=1.0, tol=1e-10)
        oracle_w, oracle_f = brute_force_primal(self.VECTORS, self.YS, 2, 1.0)
        got_f = svm_primal_objective(self.VECTORS, self.YS, m.w, 1.0)
        assert got_f <= oracle_f + 1e-6
        assert np.max(np.abs(m.w - oracle_w)) < 1e-3

    def test_dual_objective_is_monotone(self):
        m = train_binary_svm(self.VECTORS, self.YS, dimension=2,
                             pos_code=0, neg_code=2, C=1.0, tol=0.0,
                             max_sweeps=40)
        hist = m.dual_objective_history
        assert len(hist) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_duplicating_data_matches_doubled_c(self):
        # 0.5||w||^2 + C * (each hinge twice) equals the 2C objective, so
        # both runs must land on the same minimizer.
        doubled = train_binary_svm(self.VECTORS * 2, np.concatenate([self.YS] * 2),
                                   dimension=2, pos_code=0, neg_code=2,
                                   C=1.0, tol=1e-10)
        scaled = train_binary_svm(self.VECTORS, self.YS, dimension=2,
                                  pos_code=0, neg_code=2, C=2.0, tol=1e-10)
        assert np.max(np.abs(doubled.w - scaled.w)) < 1e-4

    def test_decision_uses_bias(self):
        m = BinarySVM(pos_code=0, neg_code=2,
                      w=np.array([0.5, -0.25, 0.1]),
                      sweeps=0, converged=True)
        assert abs(m.decision(np.array([0, 1])) - 0.35) < 1e-15
        assert abs(m.decision(np.array([], dtype=np.int64)) - 0.1) < 1e-15

    def test_separable_data_converges(self):
        m = train_binary_svm(
            [np.array([0]), np.array([1])], np.array([1.0, -1.0]),
            dimension=2, pos_code=0, neg_code=1, C=10.0,
        )
        assert m.converged
        assert m.decision(np.array([0])) > 0 > m.decision(np.array([1]))

    def test_validation(self):
        with pytest.raises(ArgumentError):
            train_binary_svm([], np.array([]), dimension=1, pos_code=0, neg_code=1)
        with pytest.raises(ArgumentError):
            train_binary_svm([np.array([0])], np.array([1.0]), dimension=1,
                             pos_code=0, neg_code=1, C=0.0)

    @pytest.mark.parametrize("C", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_c_rejected(self, C):
        with pytest.raises(ArgumentError, match="C must be finite and positive"):
            train_binary_svm(self.VECTORS, self.YS, dimension=2,
                             pos_code=0, neg_code=2, C=C)

    @pytest.mark.parametrize("bad, message", [
        (np.array([-1]), "feature id -1 outside \\[0, 2\\)"),
        (np.array([5]), "feature id 5 outside \\[0, 2\\)"),
        (np.array([1, 0]), "strictly increasing"),
        (np.array([1, 1]), "strictly increasing"),
        (np.array([0.0]), "must be integers"),
    ], ids=["negative", "too-large", "unsorted", "repeated", "float"])
    def test_bad_feature_ids_rejected(self, bad, message):
        vectors = [np.array([0]), bad, np.array([1])]
        with pytest.raises(ArgumentError, match=message):
            train_binary_svm(vectors, np.array([1.0, -1.0, -1.0]), dimension=2,
                             pos_code=0, neg_code=2)

    def test_label_count_must_match(self):
        with pytest.raises(ArgumentError, match="differ in length"):
            train_binary_svm(self.VECTORS, self.YS[:-1], dimension=2,
                             pos_code=0, neg_code=2)


def per_example_dcd(vectors, ys, dimension, C, tol=1e-4, max_sweeps=1000):
    """The one-example-at-a-time sweep the blocked one must reproduce.

    Returns (w, alpha, sweeps, converged, dual objective history).
    """
    n = len(vectors)
    q_diag = np.array([float(v.size) + 1.0 for v in vectors])
    alpha = np.zeros(n)
    w = np.zeros(dimension + 1)
    history = []
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_pg = 0.0
        for i in range(n):
            vec = vectors[i]
            y = ys[i]
            wx = w[-1] + (float(w[vec].sum()) if vec.size else 0.0)
            G = y * wx - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(G, 0.0)
            elif a >= C:
                pg = max(G, 0.0)
            else:
                pg = G
            if pg != 0.0:
                max_pg = max(max_pg, abs(pg))
                a_new = min(max(a - G / q_diag[i], 0.0), C)
                delta = (a_new - a) * y
                if delta != 0.0:
                    if vec.size:
                        w[vec] += delta
                    w[-1] += delta
                    alpha[i] = a_new
        history.append(float(alpha.sum() - 0.5 * float(w @ w)))
        if max_pg < tol:
            converged = True
            break
    return w, alpha, sweeps, converged, history


def random_problem(n, seed, dimension, max_ids=12):
    """Seeded sparse problem with empty vectors and duplicated examples.

    Labels follow a random linear rule, one in ten flipped.
    """
    rng = np.random.default_rng(seed)
    vectors = [np.unique(rng.integers(0, dimension, rng.integers(1, max_ids)))
               for _ in range(n)]
    for i in range(0, n, 5):
        vectors[i] = np.array([], dtype=np.int64)
    for i in range(3, n, 7):
        vectors[i] = vectors[i - 1].copy()
    rule = rng.normal(size=dimension)
    ys = np.array([1.0 if rule[v].sum() > 0 else -1.0 for v in vectors])
    ys[rng.random(n) < 0.1] *= -1
    return vectors, ys


class TestBlockedSweep:
    """The blocked sweep against the per-example loop it replaces."""

    def check(self, vectors, ys, dimension, C):
        ref_w, ref_alpha, ref_sweeps, ref_converged, ref_hist = per_example_dcd(
            vectors, ys, dimension, C)
        m = train_binary_svm(vectors, ys, dimension, 0, 2, C=C)
        assert (m.sweeps, m.converged) == (ref_sweeps, ref_converged)
        assert np.max(np.abs(m.w - ref_w)) <= 1e-12
        hist = m.dual_objective_history
        assert len(hist) == len(ref_hist)
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
        return ref_alpha

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 233])
    def test_matches_per_example_sweep(self, n):
        vectors, ys = random_problem(n, seed=n, dimension=3 * n + 5)
        self.check(vectors, ys, 3 * n + 5, C=1.0)

    @pytest.mark.parametrize("n", [9, 233])
    def test_matches_with_alphas_on_both_bounds(self, n):
        # Few columns and a small C: some examples end outside the margin
        # (alpha 0) and some inside it (alpha C).
        vectors, ys = random_problem(n, seed=1, dimension=12, max_ids=6)
        C = 0.5
        alpha = self.check(vectors, ys, 12, C)
        assert (alpha == 0.0).any() and (alpha == C).any()

    def test_all_empty_vectors(self):
        vectors = [np.array([], dtype=np.int64)] * 11
        ys = np.array([1.0, -1.0, 1.0] * 3 + [1.0, 1.0])
        self.check(vectors, ys, dimension=4, C=1.0)


class TestOneVsOne:
    def three_class_data(self):
        vectors, labels = [], []
        for code, feat in ((0, 0), (1, 1), (2, 2)):
            for _ in range(4):
                vectors.append(np.array([feat]))
                labels.append(code)
        return vectors, labels

    def test_learns_three_classes(self):
        vectors, labels = self.three_class_data()
        model = train_svm_ovo(vectors, labels, dimension=3, C=10.0)
        assert set(model.machines) == {(0, 1), (0, 2), (1, 2)}
        for feat, code in ((0, 0), (1, 1), (2, 2)):
            assert int(predict_svm(model, np.array([feat]))) == code

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigurationError):
            train_svm_ovo([np.array([0]), np.array([1])], [0, 1], dimension=2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_feature_id_out_of_range_rejected(self, bad):
        vectors, labels = self.three_class_data()
        vectors[-1] = np.array([bad])      # a negative-class example
        with pytest.raises(ArgumentError, match=f"feature id {bad} outside"):
            train_svm_ovo(vectors, labels, dimension=3)

    @pytest.mark.parametrize("C", [float("nan"), float("inf")])
    def test_non_finite_c_rejected(self, C):
        vectors, labels = self.three_class_data()
        with pytest.raises(ArgumentError, match="C must be finite and positive"):
            train_svm_ovo(vectors, labels, dimension=3, C=C)

    def test_circular_votes_tie_to_lowest_code(self):
        def stub(pos, neg, bias):
            return BinarySVM(pos_code=pos, neg_code=neg,
                             w=np.array([bias]), sweeps=0, converged=True)

        # (0,1) votes 0, (1,2) votes 1, (0,2) votes 2: one vote each.
        model = SVMModel(machines={
            (0, 1): stub(0, 1, 1.0),
            (1, 2): stub(1, 2, 1.0),
            (0, 2): stub(0, 2, -1.0),
        })
        empty = np.array([], dtype=np.int64)
        assert predict_svm(model, empty) == Polarity.POSITIVE

    def test_zero_decision_sides_with_lower_code(self):
        def stub(pos, neg, bias):
            return BinarySVM(pos_code=pos, neg_code=neg,
                             w=np.array([bias]), sweeps=0, converged=True)

        model = SVMModel(machines={
            (0, 1): stub(0, 1, 0.0),
            (0, 2): stub(0, 2, 0.0),
            (1, 2): stub(1, 2, 0.0),
        })
        empty = np.array([], dtype=np.int64)
        assert predict_svm(model, empty) == Polarity.POSITIVE
