"""Cross-lingual embedding alignment via a least-squares translation matrix.

A translation matrix W maps one language's embedding space onto
another's. Fitting minimizes the summed squared error over pivot word
pairs {(x_i, z_i)}: sum_i ||W x_i - z_i||^2. The row-vector convention
is fixed globally: X stacks x_i as rows, and the stored W satisfies
mapped = x_i^T W, so a stack of row vectors maps as X W.

The solver is the closed-form normal-equations solution, with a small
ridge term as fallback when X^T X is numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable
from .errors import (
    ArgumentError,
    CoverageError,
    ParseError,
    parse_numbers,
    read_text,
    split_lines,
    write_output,
)
from .rng import SplitMix64, derive_stream

RIDGE_LAMBDA = 1e-8


@dataclass
class PivotPairSet:
    """Frequency-ranked translation pairs with a seeded train/test split."""

    src_lang: str
    tgt_lang: str
    pairs: list[tuple[str, str]]
    train_pairs: list[tuple[str, str]]
    test_pairs: list[tuple[str, str]]

    def __post_init__(self):
        srcs = [s for s, _ in self.pairs]
        if len(set(srcs)) != len(srcs):
            raise ArgumentError("duplicate source word in pivot pairs")
        if len(self.train_pairs) + len(self.test_pairs) != len(self.pairs):
            raise ArgumentError("train/test split does not partition the pair set")
        overlap = set(self.train_pairs) & set(self.test_pairs)
        if overlap:
            raise ArgumentError(f"train/test overlap: {sorted(overlap)[:3]}")


@dataclass
class TranslationMatrix:
    """Fitted map between two embedding spaces, row-vector convention."""

    src_lang: str
    tgt_lang: str
    W: np.ndarray
    fit_residual: float = 0.0
    ridge_lambda: float = 0.0
    underdetermined: bool = False

    def __post_init__(self):
        if self.W.ndim != 2 or self.W.shape[0] != self.W.shape[1]:
            raise ArgumentError(f"W must be square, got shape {self.W.shape}")
        if not np.all(np.isfinite(self.W)):
            raise ArgumentError("W contains non-finite values")

    @property
    def dim(self) -> int:
        return self.W.shape[0]


@dataclass
class DistanceReport:
    """Distance sums over test pairs before and after mapping."""

    euclidean_sum_before: float
    euclidean_sum_after: float
    cosine_sum_before: float
    cosine_sum_after: float
    pair_count: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "euclidean_sum_before": self.euclidean_sum_before,
            "euclidean_sum_after": self.euclidean_sum_after,
            "cosine_sum_before": self.cosine_sum_before,
            "cosine_sum_after": self.cosine_sum_after,
            "pair_count": float(self.pair_count),
        }


def load_dictionary(path: str | Path) -> dict[str, str]:
    """Read a bilingual lexicon TSV "src_word<TAB>tgt_word".

    Duplicate source words keep the last line. Several source words may
    share one target word.
    """
    mapping: dict[str, str] = {}
    for i, raw in enumerate(split_lines(read_text(path)), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"expected 'src<TAB>tgt', got {raw!r}", line=i)
        mapping[parts[0]] = parts[1]
    return mapping


def select_pivot_pairs(
    freq_ranks: dict[str, int],
    dictionary: dict[str, str],
    K: int,
    train_count: int,
    seed: int,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> PivotPairSet:
    """Pick the K most frequent dictionary-covered words as pivot pairs.

    Words lacking a dictionary entry are skipped, moving down the rank
    list. The pair list stays in descending-frequency order; the
    train/test split is a seeded shuffle of pair indices.
    """
    if K <= 0:
        raise ArgumentError(f"K must be positive, got {K}")
    if not 0 < train_count <= K:
        raise ArgumentError(f"train_count must be in [1, K], got {train_count} for K={K}")
    by_rank = sorted(freq_ranks.items(), key=lambda kv: (kv[1], kv[0]))
    pairs: list[tuple[str, str]] = []
    for word, _rank in by_rank:
        tgt = dictionary.get(word)
        if tgt is None:
            continue
        pairs.append((word, tgt))
        if len(pairs) == K:
            break
    if len(pairs) < K:
        raise CoverageError(
            f"dictionary covers only {len(pairs)} of the requested {K} pivot words",
            shortfall=K - len(pairs),
        )
    rng = SplitMix64(derive_stream(seed, "pivot-split", K, train_count))
    indices = list(range(K))
    rng.shuffle(indices)
    train_idx = sorted(indices[:train_count])
    test_idx = sorted(indices[train_count:])
    return PivotPairSet(
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        pairs=pairs,
        train_pairs=[pairs[i] for i in train_idx],
        test_pairs=[pairs[i] for i in test_idx],
    )


def resolve_pairs(
    pairs: list[tuple[str, str]],
    src_table: EmbeddingTable,
    tgt_table: EmbeddingTable,
    oov_seed: int | None = None,
    oov_scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Turn word pairs into stacked vector matrices (X rows src, Z rows tgt).

    Without an oov_seed every word must be in its table; missing words
    raise CoverageError. With a seed, missing words fall back to the
    tables' deterministic OOV vectors.
    """
    if not pairs:
        raise ArgumentError("empty pair list")
    if oov_seed is None:
        missing = [s for s, _ in pairs if s not in src_table]
        missing += [t for _, t in pairs if t not in tgt_table]
        if missing:
            raise CoverageError(
                f"{len(missing)} pivot words missing from embeddings "
                f"(first: {missing[:3]})",
                shortfall=len(missing),
            )
        X = np.stack([src_table.entries[s] for s, _ in pairs])
        Z = np.stack([tgt_table.entries[t] for _, t in pairs])
    else:
        X = np.stack([src_table.lookup(s, oov_seed, oov_scale) for s, _ in pairs])
        Z = np.stack([tgt_table.lookup(t, oov_seed, oov_scale) for _, t in pairs])
    return X.astype(np.float64), Z.astype(np.float64)


def fit_objective(X: np.ndarray, Z: np.ndarray, W: np.ndarray) -> float:
    """Summed squared mapping error at W: sum_i ||x_i^T W - z_i^T||^2."""
    diff = X @ W - Z
    return float(np.sum(diff * diff))


def fit_translation_matrix(
    X: np.ndarray,
    Z: np.ndarray,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> TranslationMatrix:
    """Fit W minimizing the summed squared mapping error over row pairs.

    Solves the normal equations (X^T X) W = X^T Z. When X^T X is
    numerically singular the ridge system (X^T X + lambda I) W = X^T Z is
    solved instead and the lambda used is recorded on the result.
    """
    if X.ndim != 2 or Z.ndim != 2 or X.shape != Z.shape:
        raise ArgumentError(f"X and Z must be equal-shape 2d arrays, got {X.shape} and {Z.shape}")
    n, dim = X.shape
    if n == 0:
        raise ArgumentError("cannot fit a translation matrix from zero pairs")
    XtX = X.T @ X
    XtZ = X.T @ Z
    used_lambda = 0.0
    full_rank = int(np.linalg.matrix_rank(XtX)) == dim
    W = None
    # Normal equations are exact when X^T X is well conditioned.
    if full_rank:
        try:
            W = np.linalg.solve(XtX, XtZ)
        except np.linalg.LinAlgError:
            W = None
    if W is None or not np.all(np.isfinite(W)):
        W = np.linalg.solve(XtX + RIDGE_LAMBDA * np.eye(dim), XtZ)
        used_lambda = RIDGE_LAMBDA
    return TranslationMatrix(
        src_lang=src_lang,
        tgt_lang=tgt_lang,
        W=W,
        fit_residual=fit_objective(X, Z, W),
        ridge_lambda=used_lambda,
        underdetermined=not full_rank,
    )


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cosine similarity; a zero-norm vector contributes distance 1."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return 1.0 - float(np.dot(u, v)) / (nu * nv)


def alignment_report(X_test: np.ndarray, Z_test: np.ndarray, tm: TranslationMatrix) -> DistanceReport:
    """Distance sums over test pairs before and after applying the map.

    Euclidean sums add plain (not squared) distances per pair; cosine
    sums add 1 - cos per pair.
    """
    if X_test.shape != Z_test.shape:
        raise ArgumentError(f"test matrices differ in shape: {X_test.shape} vs {Z_test.shape}")
    mapped = X_test @ tm.W
    eu_before = float(np.sum(np.linalg.norm(X_test - Z_test, axis=1)))
    eu_after = float(np.sum(np.linalg.norm(mapped - Z_test, axis=1)))
    cos_before = sum(cosine_distance(x, z) for x, z in zip(X_test, Z_test))
    cos_after = sum(cosine_distance(m, z) for m, z in zip(mapped, Z_test))
    return DistanceReport(
        euclidean_sum_before=eu_before,
        euclidean_sum_after=eu_after,
        cosine_sum_before=float(cos_before),
        cosine_sum_after=float(cos_after),
        pair_count=X_test.shape[0],
    )


def save_translation_matrix(tm: TranslationMatrix, path: str | Path) -> None:
    """Write a map as text: "src tgt dim" header, a "#" line of fit stats, one row per line."""
    lines = [
        f"{tm.src_lang} {tm.tgt_lang} {tm.dim}\n",
        f"# fit_residual {tm.fit_residual:.17g} ridge_lambda {tm.ridge_lambda:.17g}"
        f" underdetermined {tm.underdetermined:d}\n",
    ]
    lines += [" ".join(f"{v:.17g}" for v in row) + "\n" for row in tm.W]
    write_output(path, "".join(lines))


def load_translation_matrix(path: str | Path) -> TranslationMatrix:
    """Read a map written by save_translation_matrix."""
    lines = split_lines(read_text(path))
    if not lines:
        raise ParseError("empty translation matrix file", line=1)
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"header must be 'src tgt dim', got {lines[0]!r}", line=1)
    src, tgt = header[0], header[1]
    try:
        dim = int(header[2])
    except ValueError:
        raise ParseError(f"dim must be an integer, got {header[2]!r}", line=1) from None
    # each comment key's default, whose type is how its value is read
    stats = {"fit_residual": 0.0, "ridge_lambda": 0.0, "underdetermined": 0}
    rows: list[list[float]] = []
    for i, raw in enumerate(lines[1:], start=2):
        if raw.startswith("#"):
            parts = raw[1:].split()
            for key in stats:
                if key in parts:
                    # a key with no value after it reads as the empty string
                    value = parts[parts.index(key) + 1:][:1] or [""]
                    stats[key], = parse_numbers(value, type(stats[key]), key, raw, i)
            continue
        if not raw.strip():
            continue
        values = raw.split()
        if len(values) != dim:
            raise ParseError(f"expected {dim} values per row, got {len(values)}", line=i)
        rows.append(parse_numbers(values, float, "matrix value", raw, i))
    if len(rows) != dim:
        raise ParseError(f"expected {dim} rows, got {len(rows)}", line=len(lines))
    stats["underdetermined"] = bool(stats["underdetermined"])
    return TranslationMatrix(
        src_lang=src,
        tgt_lang=tgt,
        W=np.array(rows, dtype=np.float64),
        **stats,
    )
