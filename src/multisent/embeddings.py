"""Monolingual embedding tables and out-of-vocabulary resolution.

Tables load from word2vec text format (header "vocab_size dim", then one
"word v1 ... vk" line per word). Out-of-vocabulary tokens get seeded
random vectors: the vector is a pure function of (seed, lang, token), so
the same token resolves identically within a run and across runs.

All tables used together must share one dimensionality; that is checked
when tables are combined, never mid-training.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, NamedTuple

import numpy as np

from .errors import (
    ArgumentError,
    ConfigurationError,
    LinePieces,
    ParseError,
    parse_numbers,
    read_text,
    split_lines,
    write_output,
)
from .preprocess import TokenizedTweet
from .rng import SplitMix64, derive_stream


# Rows per np.loadtxt call; bounds the transient array each call returns.
_LOAD_CHUNK_ROWS = 1024


def default_oov_scale(dim: int) -> float:
    """Per-component bound for OOV vectors; small relative to unit vectors."""
    return 0.5 / dim


@dataclass
class EmbeddingTable:
    """One language's word vectors. A table does not change after it is built."""

    lang: str
    dim: int
    entries: dict[str, np.ndarray]
    duplicate_count: int = 0
    sha256: str | None = None   # of the file the table was parsed from
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise ArgumentError(f"embedding dim must be positive, got {self.dim}")
        for word, vec in self.entries.items():
            if vec.shape != (self.dim,):
                raise ArgumentError(
                    f"vector for {word!r} has shape {vec.shape}, expected ({self.dim},)"
                )

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def lookup(self, token: str, oov_seed: int, oov_scale: float | None = None) -> np.ndarray:
        """Vector for token; OOV tokens get a seeded random vector."""
        vec = self.entries.get(token)
        if vec is not None:
            return vec
        scale = default_oov_scale(self.dim) if oov_scale is None else oov_scale
        return oov_vector(oov_seed, self.lang, token, self.dim, scale)

    def fingerprint(self) -> str:
        """Content hash covering language, dim, and every entry; taken once and kept."""
        if self._fingerprint is None:
            h = hashlib.sha256(f"{self.lang}\x1f{self.dim}".encode())
            for word in sorted(self.entries):
                h.update(b"\x1e" + word.encode() + b"\x1f")
                h.update(np.ascontiguousarray(self.entries[word], dtype=np.float64).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint


class TrainedFile(NamedTuple):
    """What a checkpoint records of the .vec file a table was trained from,
    and the only words a caller will look up in that table."""

    sha256: str
    fingerprint: str
    words: Collection[str]


def load_embedding_table(
    path: str | Path, lang: str, *, _trained: TrainedFile | None = None
) -> EmbeddingTable:
    """Parse a word2vec text file.

    A value is anything Python float() accepts, with the same bits. The
    entries are read-only row views of one (rows, dim) matrix. Duplicate
    words keep the last occurrence; the table records how many were
    overwritten. The first malformed line, including one with nan or
    infinite components, raises ParseError with its 1-based line number.

    The file is read in pieces (errors.LinePieces), never whole, and
    errors keep the order of a whole-file read: an undecodable byte, an
    empty file, a bad header, a row count that differs from the header's,
    then the first bad row.

    Given `_trained`, that one read keeps only the rows whose word is in
    `_trained.words`. When the file's bytes then hash to `_trained.sha256`,
    the file is the one a model was trained on and parsed whole then, so
    only those rows are parsed (duplicate_count then counts only among
    them) and the table reports `_trained.fingerprint`, the whole table's,
    as its own. The hash, the header checks and the UTF-8 decode still
    cover the whole file. Other bytes are read a second time and parsed
    whole. `predict` passes the words it will look up: those of its
    tweets as classified that the checkpoint's fine-tuned rows lack.
    """
    words = None if _trained is None else _trained.words
    vocab_size, dim, body, sha256 = _read_rows(path, words)
    if words is not None and sha256 != _trained.sha256:
        # not the bytes the model was trained on: read again, keeping every row
        words = None
        vocab_size, dim, body, sha256 = _read_rows(path, None)
    if words is None and len(body) != vocab_size:
        lineno = body[-1][0] if body else 1
        raise ParseError(f"header promises {vocab_size} rows, file has {len(body)}", line=lineno)

    rows = [ln.rstrip() for _, ln in body]
    M = np.empty((len(rows), dim), dtype=np.float64)
    if not _parse_rows(rows, dim, M):
        _parse_each_line(body, dim, M)
    M.flags.writeable = False
    entries = dict(zip((row.partition(" ")[0] for row in rows), M))
    table = EmbeddingTable(lang=lang, dim=dim, entries=entries, sha256=sha256,
                           duplicate_count=len(M) - len(entries))
    if words is not None:
        table._fingerprint = _trained.fingerprint
    return table


def _read_rows(
    path: str | Path, words: Collection[str] | None
) -> tuple[int, int, list[tuple[int, str]], str]:
    """(vocab_size, dim, the kept rows with their line numbers, the hex SHA-256
    of the file's bytes). A row is kept when it is not blank and, given
    words, its word (the text before its first space) is one of them. The
    header is checked once the last piece is read."""
    pieces = LinePieces(path)
    header = None
    body: list[tuple[int, str]] = []
    for first, lines in pieces:
        if header is None:
            header = lines[0]
            lines, first = lines[1:], 2
        if words is None:
            body += [(i, ln) for i, ln in enumerate(lines, first) if ln.strip()]
        else:
            body += [(i, ln) for i, ln in enumerate(lines, first)
                     if ln.partition(" ")[0] in words and ln.strip()]
    if header is None:
        raise ParseError("empty embedding file", line=1)
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"header must be 'vocab_size dim', got {header!r}", line=1)
    try:
        vocab_size, dim = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"header must be two integers, got {header!r}", line=1) from None
    if dim <= 0 or vocab_size < 0:
        raise ParseError(f"invalid header values {vocab_size} {dim}", line=1)
    return vocab_size, dim, body, pieces.sha256


def _parse_rows(rows: list[str], dim: int, M: np.ndarray) -> bool:
    """Fill M from "word v1 .. vdim" rows in one vectorised pass.

    False when some row has the wrong field count, a value loadtxt cannot
    read or a non-finite value; M is then partly written and the caller
    parses line by line instead. A U+001F in a row also sends it there:
    numpy strips that character around a number and float() does not.
    """
    if any(row.count(" ") != dim or "\x1f" in row for row in rows):
        return False
    columns = range(1, dim + 1)
    try:
        for start in range(0, len(rows), _LOAD_CHUNK_ROWS):
            chunk = rows[start:start + _LOAD_CHUNK_ROWS]
            M[start:start + len(chunk)] = np.loadtxt(
                chunk, dtype=np.float64, delimiter=" ", usecols=columns,
                comments=None, quotechar=None, ndmin=2,
            )
    except ValueError:
        return False
    return bool(np.isfinite(M).all())


def _parse_each_line(body: list[tuple[int, str]], dim: int, M: np.ndarray) -> None:
    """Fill M with float() per field; the first bad line in file order raises
    ParseError. Also reads the spellings float() accepts and loadtxt does not,
    such as `1_0` and full-width digits."""
    for i, (lineno, ln) in enumerate(body):
        parts = ln.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise ParseError(
                f"expected a word and {dim} values, got {len(parts)} fields", line=lineno
            )
        M[i] = parse_numbers(parts[1:], float, "vector component", ln, lineno)


def save_embedding_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in word2vec text format (word order is lexicographic)."""
    lines = [f"{len(table.entries)} {table.dim}\n"]
    for word in sorted(table.entries):
        values = " ".join(f"{v:.17g}" for v in table.entries[word])
        lines.append(f"{word} {values}\n")
    write_output(path, "".join(lines))


def oov_vector(seed: int, lang: str, token: str, dim: int, scale: float) -> np.ndarray:
    """Deterministic random vector in [-scale, +scale]^dim for an unknown token."""
    rng = SplitMix64(derive_stream(seed, "oov", lang, token))
    return rng.uniform_array(dim, -scale, scale)


def count_tokens(tweets: list[TokenizedTweet], lang: str | None = None) -> dict[str, int]:
    """Token occurrence counts, optionally restricted to one language."""
    counts: Counter[str] = Counter()
    for tw in tweets:
        if lang is None or tw.lang == lang:
            counts.update(tw.tokens)
    return dict(counts)


def ranks_from_counts(counts: dict[str, int]) -> dict[str, int]:
    """1-based frequency ranks, most frequent first; ties break lexicographically."""
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {word: i + 1 for i, (word, _) in enumerate(ordered)}


def load_frequency_counts(path: str | Path) -> dict[str, int]:
    """Read a sidecar frequency TSV: "word<TAB>count" per line."""
    counts: dict[str, int] = {}
    for i, raw in enumerate(split_lines(read_text(path)), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise ParseError(f"expected 'word<TAB>count', got {raw!r}", line=i)
        try:
            counts[parts[0]] = int(parts[1])
        except ValueError:
            raise ParseError(f"count must be an integer, got {parts[1]!r}", line=i) from None
    return counts


def check_dim_uniformity(tables: list[EmbeddingTable]) -> int:
    """Assert all tables share one dim; returns it. Raised at load time."""
    if not tables:
        raise ArgumentError("no embedding tables given")
    dims = {t.dim for t in tables}
    if len(dims) != 1:
        detail = ", ".join(f"{t.lang}={t.dim}" for t in tables)
        raise ConfigurationError(f"embedding dims differ across tables: {detail}")
    return dims.pop()
