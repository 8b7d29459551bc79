"""Non-neural baselines: binarized n-gram features, Naive Bayes, linear SVM.

Features are unigrams and bigrams with no frequency cutoff, binarized
(each n-gram counts once per tweet) and tagged with the tweet's
language, so the same surface string in two languages occupies two
columns and a multilingual space's dimensionality is exactly the sum of
the per-language ones. intern_ngrams computes every tweet's n-grams once
and numbers them in sorted key order; a fold's feature space is then the
ids its training tweets hold, renumbered in the same order, so both the
columns and the vectors come from integer array operations.

Naive Bayes is multinomial over the binary features with add-alpha
smoothing.

The SVM is a soft-margin linear machine trained in the dual by
coordinate descent with a deterministic sweep order; the bias is an
appended constant feature. The sweep visits examples in blocks of
BLOCK consecutive ones: it reads a block's margins with one gather,
steps through the block's coordinates in Python scalars, correcting each
margin by the block's own earlier steps through the block's exact
integer Gram entries, and writes the block's weight changes at once.
That is the sequential iterate with a different float summation order.
Multiclass is one-vs-one with majority voting, ties resolved to the
lowest label code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Polarity
from .errors import ArgumentError, ConfigurationError
from .preprocess import TokenizedTweet

NGRAM_JOINER = "\x1f"
BLOCK = 8  # examples per block of the SVM coordinate sweep


def ngrams_of(tokens: list[str]) -> list[str]:
    """Distinct unigrams and bigrams, in first-occurrence order."""
    seen: dict[str, None] = {}
    for tok in tokens:
        seen.setdefault(tok, None)
    for a, b in zip(tokens, tokens[1:]):
        seen.setdefault(a + NGRAM_JOINER + b, None)
    return list(seen)


def intern_ngrams(tweets: list[TokenizedTweet]) -> tuple[int, list[np.ndarray]]:
    """Number the tweets' distinct language-tagged n-grams in sorted key order.

    A key is lang + NGRAM_JOINER + n-gram. Returns the number of keys
    and each tweet's key ids, strictly increasing int64. Keys sort by
    their language tag first, so each language's keys take one run of
    ids in the order of its plain n-grams; the languages are numbered one
    at a time and the tagged strings are never built. Any subset of the
    keys keeps its sorted order under the ids.
    """
    by_lang: dict[str, list[int]] = {}
    for i, tw in enumerate(tweets):
        by_lang.setdefault(tw.lang, []).append(i)
    rows: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(tweets)
    size = 0
    for lang in sorted(by_lang, key=lambda lang: lang + NGRAM_JOINER):
        if NGRAM_JOINER in lang:
            raise ArgumentError(f"language {lang!r} contains the n-gram joiner")
        members = by_lang[lang]
        index: dict[str, int] = {}      # n-gram -> first-seen number
        seen: list[int] = []
        sizes: list[int] = []
        for i in members:
            grams = ngrams_of(tweets[i].tokens)
            seen.extend([index.setdefault(g, len(index)) for g in grams])
            sizes.append(len(grams))
        rank = np.empty(len(index), dtype=np.int64)     # first-seen number -> id
        order = np.fromiter(map(index.__getitem__, sorted(index)), np.int64, len(index))
        rank[order] = np.arange(size, size + len(index))
        size += len(index)
        del index, order        # free the n-gram strings before the id arrays come
        ids = rank[np.array(seen, dtype=np.int64)]
        member = np.repeat(np.arange(len(members)), sizes)
        ids = ids[np.lexsort((ids, member))]     # by tweet, then by id
        for i, row in zip(members, np.split(ids, np.cumsum(sizes)[:-1])):
            rows[i] = row
    return size, rows


@dataclass
class FeatureSpace:
    """A fold's columns: remap[g] is the column of interned n-gram id g, or -1."""

    remap: np.ndarray
    dimension: int = field(init=False)

    def __post_init__(self):
        columns = self.remap[self.remap >= 0]
        if not np.array_equal(columns, np.arange(columns.size)):
            raise ArgumentError("feature ids must be dense 0..V-1")
        self.dimension = columns.size


def build_feature_space(
    rows: list[np.ndarray], size: int
) -> tuple[FeatureSpace, list[np.ndarray]]:
    """One column per interned n-gram id the training rows hold, and each row's column ids.

    rows are training tweets' ids from intern_ngrams, over `size` keys.
    Columns keep the ids' order, which is sorted key order, so the space
    is independent of corpus order and is the one numbered from the
    training tweets' own sorted keys; on a one-language corpus that is
    the order of the plain n-grams. The vectors equal vectorize(row,
    space) per row.
    """
    ids, sizes = _joined_rows(rows, size)
    present = np.zeros(size, dtype=bool)
    present[ids] = True
    columns = np.flatnonzero(present)
    remap = np.full(size, -1, dtype=np.int64)
    remap[columns] = np.arange(columns.size)
    return FeatureSpace(remap), np.split(remap[ids], np.cumsum(sizes)[:-1])


def vectorize(row: np.ndarray, space: FeatureSpace) -> np.ndarray:
    """Active column ids for a tweet's interned ids, strictly increasing; unknown n-grams drop."""
    columns = space.remap[row]
    return columns[columns >= 0]


@dataclass
class NBModel:
    """Smoothed class-conditional log-likelihoods over binary features."""

    classes: list[int]
    log_prior: np.ndarray          # (n_classes,)
    log_lik: np.ndarray            # (n_classes, V) log P(feature present | class)


def _joined_rows(vectors: list[np.ndarray], dimension: int) -> tuple[np.ndarray, list[int]]:
    """All examples' feature ids end to end, and each example's id count.

    Raises unless every id is an integer in [0, dimension) and each
    example's ids strictly increase.
    """
    sizes = [v.size for v in vectors]
    ids = np.concatenate([v for v in vectors if v.size] or [np.empty(0, dtype=np.int64)])
    if not ids.size:
        return ids, sizes
    if ids.dtype.kind not in "iu":
        raise ArgumentError(f"feature ids must be integers, got dtype {ids.dtype}")
    bad = ids[(ids < 0) | (ids >= dimension)]
    if bad.size:
        raise ArgumentError(f"feature id {int(bad[0])} outside [0, {dimension})")
    rising = np.diff(ids) > 0
    ends = np.cumsum(sizes)[:-1]
    rising[ends[(ends > 0) & (ends < ids.size)] - 1] = True   # one example to the next
    if not rising.all():
        raise ArgumentError("the feature ids of each example must be strictly increasing")
    return ids, sizes


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ArgumentError(f"{name} must be finite and positive, got {value}")


def train_nb(
    vectors: list[np.ndarray],
    labels: list[int],
    dimension: int,
    alpha: float = 1.0,
) -> NBModel:
    """Fit counts over ids in [0, dimension); alpha > 0 is the add-alpha smoothing strength."""
    if not vectors:
        raise ArgumentError("empty training set")
    if len(vectors) != len(labels):
        raise ArgumentError("vectors and labels differ in length")
    _check_positive("alpha", alpha)
    ids, sizes = _joined_rows(vectors, dimension)
    classes = sorted(set(int(y) for y in labels))
    pos = {c: i for i, c in enumerate(classes)}
    codes = np.array([pos[int(y)] for y in labels], dtype=np.int64)
    n_by_class = np.zeros(len(classes))
    np.add.at(n_by_class, codes, 1.0)
    # One scatter over (class, feature) cells; the counts are exact integers.
    present = np.zeros((len(classes), dimension))
    np.add.at(present.reshape(-1), np.repeat(codes * dimension, sizes) + ids, 1.0)
    log_prior = np.log(n_by_class / n_by_class.sum())
    totals = present.sum(axis=1, keepdims=True)
    return NBModel(
        classes=classes,
        log_prior=log_prior,
        log_lik=np.log((present + alpha) / (totals + alpha * dimension)),
    )


def nb_log_posterior(model: NBModel, vector: np.ndarray) -> np.ndarray:
    """Unnormalized log posterior per class, in model.classes order."""
    scores = model.log_prior.copy()
    if vector.size:
        scores = scores + model.log_lik[:, vector].sum(axis=1)
    return scores


def nb_posterior(model: NBModel, vector: np.ndarray) -> np.ndarray:
    """Normalized class posterior, in model.classes order."""
    scores = nb_log_posterior(model, vector)
    scores = scores - scores.max()
    e = np.exp(scores)
    return e / e.sum()


def predict_nb(model: NBModel, vector: np.ndarray) -> Polarity:
    """Highest-posterior class; exact ties go to the lowest label code."""
    return Polarity(model.classes[int(np.argmax(nb_log_posterior(model, vector)))])


@dataclass
class BinarySVM:
    """Soft-margin linear classifier for one label pair; bias is w[-1]."""

    pos_code: int
    neg_code: int
    w: np.ndarray                  # (V + 1,)
    sweeps: int
    converged: bool
    dual_objective_history: list[float] = field(default_factory=list)

    def decision(self, vector: np.ndarray) -> float:
        s = self.w[-1]
        if vector.size:
            s += float(self.w[vector].sum())
        return float(s)


def train_binary_svm(
    vectors: list[np.ndarray],
    ys: np.ndarray,
    dimension: int,
    pos_code: int,
    neg_code: int,
    C: float = 1.0,
    tol: float = 1e-4,
    max_sweeps: int = 1000,
) -> BinarySVM:
    """Dual coordinate descent on the soft-margin objective.

    Minimizes 0.5 ||w||^2 + C sum_i hinge(1 - y_i w.x_i) through its
    dual; the recorded dual objective sum(alpha) - 0.5 ||w||^2 is
    non-decreasing across sweeps. Examples are visited in a fixed order
    every sweep, so training is deterministic. Each vector holds
    strictly increasing ids in [0, dimension), as vectorize returns them.

    The sweep runs over blocks of BLOCK consecutive examples. A block's
    margins w.x_j are read at once, before any of its steps; step j then
    adds the block's earlier alpha changes times their signed Gram
    entries y_j y_k (|x_j & x_k| + 1), which are exact small integers,
    so every step sees the same margin as in a one-example-at-a-time
    sweep, summed in a different order. The block's weight changes are
    written after its last step, in example order.
    """
    n = len(vectors)
    if n == 0:
        raise ArgumentError("empty training set")
    if len(ys) != n:
        raise ArgumentError("vectors and labels differ in length")
    _check_positive("C", C)
    ids, sizes = _joined_rows(vectors, dimension)
    # Bias handled as a constant feature appended to every example.
    ids = np.insert(ids, np.cumsum(sizes), dimension)
    lengths = np.array(sizes) + 1
    starts = np.cumsum(lengths) - lengths

    ys = [float(y) for y in ys]
    q_diag = [s + 1.0 for s in sizes]     # Q_ii = |x_i| + 1 > 0
    alpha = [0.0] * n
    blocks = []
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        sets = [set(v.tolist()) for v in vectors[lo:hi]]
        # gram[j][k] = y_j y_k (|x_j & x_k| + 1) for the block's rows k < j
        gram = [[ys[lo + j] * ys[lo + k] * (len(sets[j] & sets[k]) + 1) for k in range(j)]
                for j in range(hi - lo)]
        first = starts[lo]
        row_lengths = lengths[lo:hi]
        blocks.append((lo, ids[first:first + row_lengths.sum()], starts[lo:hi] - first,
                       row_lengths, gram))

    w = np.zeros(dimension + 1)
    history: list[float] = []
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_pg = 0.0
        for lo, block_ids, row_starts, row_lengths, gram in blocks:
            margins = np.add.reduceat(w[block_ids], row_starts).tolist()
            steps: list[tuple[int, float]] = []    # (row in block, alpha change)
            for j, margin in enumerate(margins):
                i = lo + j
                G = ys[i] * margin
                row = gram[j]
                for k, change in steps:
                    G += change * row[k]
                G -= 1.0
                a = alpha[i]
                # Skip when the projected gradient is 0: G == 0, or G
                # pushes alpha out through the bound it already sits on.
                if G == 0.0 or (G > 0.0 and a <= 0.0) or (G < 0.0 and a >= C):
                    continue
                if abs(G) > max_pg:
                    max_pg = abs(G)
                a_new = a - G / q_diag[i]
                if a_new < 0.0:
                    a_new = 0.0
                elif a_new > C:
                    a_new = C
                if a_new != a:
                    steps.append((j, a_new - a))
                    alpha[i] = a_new
            if steps:
                deltas = [0.0] * len(margins)
                for j, change in steps:
                    deltas[j] = change * ys[lo + j]
                np.add.at(w, block_ids, np.array(deltas).repeat(row_lengths))
        history.append(sum(alpha) - 0.5 * float(w @ w))
        if max_pg < tol:
            converged = True
            break
    return BinarySVM(
        pos_code=pos_code,
        neg_code=neg_code,
        w=w,
        sweeps=sweeps,
        converged=converged,
        dual_objective_history=history,
    )


@dataclass
class SVMModel:
    """One-vs-one ensemble over the three polarity classes."""

    machines: dict[tuple[int, int], BinarySVM]


def train_svm_ovo(
    vectors: list[np.ndarray],
    labels: list[int],
    dimension: int,
    C: float = 1.0,
) -> SVMModel:
    """Train one binary machine per class pair; every class must appear."""
    if not vectors:
        raise ArgumentError("empty training set")
    if len(vectors) != len(labels):
        raise ArgumentError("vectors and labels differ in length")
    present = set(int(y) for y in labels)
    for polarity in Polarity:
        if int(polarity) not in present:
            raise ConfigurationError(f"class {polarity.name} absent from training data")
    machines: dict[tuple[int, int], BinarySVM] = {}
    codes = sorted(int(p) for p in Polarity)
    for ai in range(len(codes)):
        for bi in range(ai + 1, len(codes)):
            a, b = codes[ai], codes[bi]
            sub = [(v, 1.0 if int(y) == a else -1.0)
                   for v, y in zip(vectors, labels) if int(y) in (a, b)]
            svecs = [v for v, _ in sub]
            sys_ = np.array([y for _, y in sub])
            machines[(a, b)] = train_binary_svm(svecs, sys_, dimension, a, b, C=C)
    return SVMModel(machines=machines)


def predict_svm(model: SVMModel, vector: np.ndarray) -> Polarity:
    """Majority vote over the pairwise machines; ties to the lowest code."""
    votes = {int(p): 0 for p in Polarity}
    for (a, b), m in model.machines.items():
        d = m.decision(vector)
        # d >= 0 sides with the pair's lower code (the machine's +1 class)
        votes[a if d >= 0.0 else b] += 1
    return Polarity(max(votes, key=votes.__getitem__))     # keys run in code order
