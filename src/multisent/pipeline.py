"""Embedding context: the bridge from tokenized tweets to input matrices.

An EmbeddingContext bundles the per-language embedding tables, optional
translation matrices mapping each language into the shared target
space, the OOV policy, and the corpus maximum length used for padding.
A token's vector is its table row, or its seeded OOV vector, then its
language's map, if any; `vectors` gives the vectors of a list of
(lang, token) keys. Nothing is cached: callers number their tokens and
take each vector once (nn.train.NumberedTokens).
Its fingerprint ties a trained model to exactly these inputs, and by
`rules_version` (multisent.preprocess.rules_version) to the rule set and
tokenize mode its tweets were preprocessed with, so stale model/context
pairings fail loudly instead of predicting garbage. Each table hashes
its own content once and keeps the digest, so contexts that share
tables, such as one per fold, share those hashes; a context's tables,
maps and settings do not change after it is built.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .align import TranslationMatrix, load_translation_matrix
from .embeddings import (
    EmbeddingTable,
    TrainedFile,
    check_dim_uniformity,
    load_embedding_table,
)
from .errors import ArgumentError, ConfigurationError, ParseError
from .preprocess import TokenizedTweet


def corpus_max_len(tweets: list[TokenizedTweet]) -> int:
    """Maximum token count over the corpus (the padding target)."""
    if not tweets:
        raise ArgumentError("empty corpus has no maximum length")
    return max(tw.length for tw in tweets)


@dataclass
class EmbeddingContext:
    """Effective embeddings per language, after optional alignment."""

    tables: dict[str, EmbeddingTable]
    translations: dict[str, TranslationMatrix] = field(default_factory=dict)
    oov_seed: int = 0
    oov_scale: float | None = None
    max_len: int = 1
    rules_version: str = "-"

    def __post_init__(self):
        if not self.tables:
            raise ArgumentError("context needs at least one embedding table")
        self.dim = check_dim_uniformity(list(self.tables.values()))
        for lang, table in self.tables.items():
            if table.lang != lang:
                raise ArgumentError(f"table for {table.lang!r} stored under {lang!r}")
        for lang, tm in self.translations.items():
            if lang not in self.tables:
                raise ConfigurationError(f"translation for unknown language {lang!r}")
            if tm.src_lang != lang:
                raise ConfigurationError(
                    f"translation stored under {lang!r} maps from {tm.src_lang!r}"
                )
            if tm.dim != self.dim:
                raise ConfigurationError(
                    f"translation for {lang!r} has dim {tm.dim}, tables have {self.dim}"
                )
        if self.max_len < 1:
            raise ArgumentError(f"max_len must be >= 1, got {self.max_len}")

    @classmethod
    def from_paths(
        cls,
        embeddings: dict[str, str],
        matrices: dict[str, str],
        oov_seed: int,
        oov_scale: float | None,
        max_len: int,
        rules_version: str,
        trained: dict[str, TrainedFile] | None = None,
    ) -> "EmbeddingContext":
        """Load one table per language, in the given order, then one map per mapped language.

        A language in `trained` whose file is the one recorded there, byte
        for byte, gets only the rows of the words recorded with it. Every
        table and map loads in this process, so the first language whose
        table fails raises.
        """
        return cls(
            tables={lang: load_embedding_table(path, lang, _trained=(trained or {}).get(lang))
                    for lang, path in embeddings.items()},
            translations={lang: load_translation_matrix(path) for lang, path in matrices.items()},
            oov_seed=oov_seed,
            oov_scale=oov_scale,
            max_len=max_len,
            rules_version=rules_version,
        )

    def vectors(self, keys: list[tuple[str, str]]) -> np.ndarray:
        """Row k is keys[k]'s vector in the shared space, lookup then map: a new (K, dim) array."""
        rows = np.empty((len(keys), self.dim))
        for k, (lang, token) in enumerate(keys):
            rows[k] = self._table(lang).lookup(token, self.oov_seed, self.oov_scale)
        self.map_rows(keys, rows)
        return rows

    def map_rows(self, keys: list[tuple[str, str]], rows: np.ndarray) -> None:
        """Map row k of rows, in place, by the map of keys[k]'s language, if it has one.

        Each mapped language's rows go through one stacked product of
        (1, dim) rows with its map. numpy runs it row by row with the
        vector-matrix kernel that `rows[k] @ tm.W` runs, so every row keeps
        the bits that product gives it. A 2-D gemm `rows[sel] @ tm.W`
        blocks its sums in another order and would change them.
        """
        selected: dict[str, list[int]] = {}
        for k, (lang, _token) in enumerate(keys):
            if lang in self.translations:
                selected.setdefault(lang, []).append(k)
        for lang, sel in selected.items():
            rows[sel] = np.matmul(rows[sel][:, None, :], self.translations[lang].W)[:, 0]

    def _table(self, lang: str) -> EmbeddingTable:
        table = self.tables.get(lang)
        if table is None:
            raise ConfigurationError(f"no embedding table for language {lang!r}")
        return table

    def embed(self, tweet: TokenizedTweet) -> np.ndarray:
        """Embed one tweet into the shared space; row t is token t's vector."""
        return self.vectors([(tweet.lang, tok) for tok in tweet.tokens])

    def fingerprint(self) -> dict[str, str]:
        """Stable hashes of everything that shapes model inputs, in a new dict."""
        out: dict[str, str] = {
            "rules": self.rules_version,
            "oov": f"{self.oov_seed}:{self.oov_scale}",
            "max_len": str(self.max_len),
        }
        for lang in sorted(self.tables):
            out[f"embeddings:{lang}"] = self.tables[lang].fingerprint()
        for lang in sorted(self.tables):
            tm = self.translations.get(lang)
            if tm is None:
                out[f"alignment:{lang}"] = "none"
            else:
                h = hashlib.sha256()
                h.update(f"{tm.src_lang}->{tm.tgt_lang}\x1f".encode())
                h.update(np.ascontiguousarray(tm.W, dtype=np.float64).tobytes())
                out[f"alignment:{lang}"] = h.hexdigest()
        return out


def oov_from_fingerprint(fingerprints: dict[str, str]) -> tuple[int, float | None]:
    """(oov_seed, oov_scale) from the "SEED:SCALE" `EmbeddingContext.fingerprint` writes."""
    text = fingerprints.get("oov")
    if text is None:
        raise ParseError("checkpoint lacks fingerprint 'oov'")
    seed, _, scale = text.partition(":")
    try:
        oov_seed, oov_scale = int(seed), None if scale == "None" else float(scale)
    except ValueError:
        raise ParseError(
            f"checkpoint fingerprint 'oov' must read SEED:SCALE, got {text!r}"
        ) from None
    if oov_scale is not None and not math.isfinite(oov_scale):
        raise ParseError(f"checkpoint fingerprint 'oov' has a non-finite scale, got {text!r}")
    return oov_seed, oov_scale
