"""Corpus ingestion, label schema, and deterministic cross-validation splits."""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

from .errors import ArgumentError, ParseError, SchemaError, read_text
from .rng import SplitMix64, derive_stream

T = TypeVar("T")


class Polarity(enum.IntEnum):
    """Three-way tweet sentiment with stable integer codes."""

    POSITIVE = 0
    NEUTRAL = 1
    NEGATIVE = 2


# Accepted label spellings, case-insensitive. Integer codes "0"/"1"/"2"
# are accepted as well.
LABEL_ALIASES = {
    "positive": Polarity.POSITIVE,
    "pos": Polarity.POSITIVE,
    "neutral": Polarity.NEUTRAL,
    "neu": Polarity.NEUTRAL,
    "negative": Polarity.NEGATIVE,
    "neg": Polarity.NEGATIVE,
}


def parse_label(raw: str | int, line: int | None = None) -> Polarity:
    """Map a label string (or integer code) to a Polarity."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        try:
            return Polarity(raw)
        except ValueError:
            raise SchemaError(f"unknown label code {raw!r}", line) from None
    text = str(raw).strip().lower()
    if text in LABEL_ALIASES:
        return LABEL_ALIASES[text]
    if text in {"0", "1", "2"}:
        return Polarity(int(text))
    raise SchemaError(f"unknown label {raw!r}", line)


@dataclass
class TweetRecord:
    """One labeled example: id, language, raw text and/or tokens, label."""

    id: str
    lang: str
    text: str
    label: Polarity
    tokens: list[str] | None = None

    def __post_init__(self):
        if not self.text and not self.tokens:
            raise SchemaError(f"record {self.id!r}: both text and tokens are empty")


def _record_from_json(obj: dict, line: int) -> TweetRecord:
    for key in ("id", "lang", "label"):
        if key not in obj:
            raise SchemaError(f"missing field {key!r}", line)
    tokens = obj.get("tokens")
    if tokens is not None:
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise SchemaError("tokens must be a list of strings", line)
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise SchemaError("text must be a string", line)
    try:
        return TweetRecord(
            id=str(obj["id"]),
            lang=str(obj["lang"]),
            text=text,
            label=parse_label(obj["label"], line),
            tokens=tokens,
        )
    except SchemaError as err:
        if err.line is None:
            raise SchemaError(str(err), line) from None
        raise


# A line and its end: \n, \r\n or \r only. A raw U+2028 or U+0085 inside
# a JSON string belongs to its record, so str.splitlines would be wrong.
_LINE = re.compile(r"([^\r\n]*)(?:\r\n?|\n)?")


def load_corpus(path: str | Path) -> list[TweetRecord]:
    """Load a labeled JSONL corpus, in file order.

    Lines carry {id, lang, text, tokens?, label}; unknown fields are
    ignored. Labels are validated against the three-way set; errors name
    the offending line.
    """
    records: list[TweetRecord] = []
    # Matches one line at a time, so no second copy of the text is made.
    for lineno, match in enumerate(_LINE.finditer(read_text(path)), start=1):
        line = match[1]
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"invalid JSON: {err.msg}", lineno) from None
        if not isinstance(obj, dict):
            raise ParseError("line is not a JSON object", lineno)
        records.append(_record_from_json(obj, lineno))
    return records


def save_corpus(records: Iterable[TweetRecord], path: str | Path) -> None:
    """Write records as JSONL (the inverse of load_corpus)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {"id": rec.id, "lang": rec.lang, "text": rec.text, "label": int(rec.label)}
            if rec.tokens is not None:
                obj["tokens"] = rec.tokens
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


@dataclass
class FoldPlan:
    """Deterministic assignment of record ids to k folds."""

    assignments: dict[str, int]

    def fold_ids(self, fold: int) -> list[str]:
        """Ids assigned to one fold, in assignment-map order."""
        return [rid for rid, f in self.assignments.items() if f == fold]


def make_folds(
    records: Sequence[TweetRecord],
    k: int,
    seed: int,
) -> FoldPlan:
    """Partition records into k stratified folds whose sizes differ by at most one.

    Each label's members are dealt separately so per-fold label counts
    stay within one of the ideal proportional share. The deal position is
    continuous across labels, which keeps overall fold sizes balanced too.
    A pure function of (records, k, seed).
    """
    if k <= 0:
        raise ArgumentError("k must be positive")
    if k > len(records):
        raise ArgumentError(f"k={k} exceeds record count {len(records)}")
    ids = [rec.id for rec in records]
    if len(set(ids)) != len(ids):
        raise ArgumentError("duplicate record ids; fold assignment requires unique ids")

    # The trailing True is part of the stream name, so every fold plan depends on it.
    rng = SplitMix64(derive_stream(seed, "folds", k, True))
    assignments: dict[str, int] = {}
    position = 0
    for label in sorted(Polarity):
        group = [rec.id for rec in records if rec.label == label]
        rng.shuffle(group)
        for rid in group:
            assignments[rid] = position % k
            position += 1
    # Restore corpus order for a stable, input-independent map layout.
    ordered = {rid: assignments[rid] for rid in ids}
    return FoldPlan(ordered)


def split_dev(items: Sequence[T], fraction: float, seed: int) -> tuple[list[T], list[T]]:
    """Split items into (train, dev) with dev size round(fraction * n).

    Rounding is half-up. Selection is a seeded shuffle of positions, so it
    depends only on n and the seed; both outputs keep the relative order
    of the input.
    """
    if not items:
        raise ArgumentError("cannot split an empty id list")
    if not 0.0 < fraction < 1.0:
        raise ArgumentError("fraction must lie in (0, 1)")
    n = len(items)
    if fraction * n < 1.0:
        raise ArgumentError(f"fraction {fraction} of {n} ids rounds below one dev example")
    dev_n = int(fraction * n + 0.5)
    if dev_n >= n:
        raise ArgumentError("dev split would consume the whole training set")
    order = list(range(n))
    SplitMix64(derive_stream(seed, "dev-split", n)).shuffle(order)
    dev_idx = set(order[:dev_n])
    train_out = [items[i] for i in range(n) if i not in dev_idx]
    dev_out = [items[i] for i in range(n) if i in dev_idx]
    return train_out, dev_out
