"""Tweet text normalization and tokenization.

Normalization unifies surface variation before tokenization. Stages, in
order: per-language casing/width policy, URL replacement, emoji
replacement, emoticon replacement, whitespace collapse. Casing runs
first so width-normalized faces ("（＾ｏ＾）") are visible to the
emoticon patterns. Every stage skips replacement tokens already present
in the text, which is what makes normalize idempotent: a second pass
finds only protected tokens and already-normalized text.

Emoji are detected by codepoint ranges, listed in EMOJI_RANGES. Variation
selectors (U+FE0E/U+FE0F) and the zero-width joiner (U+200D) are dropped,
so each pictographic codepoint yields exactly one token.

Emoticon detection ships as a versioned pattern file (one regex per line)
plus a literal exception list for rare faces; both live in the package
data directory and can be replaced by the caller.
"""

from __future__ import annotations

import enum
import hashlib
import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .corpus import Polarity, TweetRecord
from .errors import ArgumentError, ConfigurationError, RecordDropError, read_text

# Codepoint ranges replaced by emoji tokens (inclusive).
EMOJI_RANGES: tuple[tuple[int, int], ...] = (
    (0x1F300, 0x1F5FF),  # symbols & pictographs, incl. skin tone modifiers
    (0x1F600, 0x1F64F),  # emoticons block
    (0x1F680, 0x1F6FF),  # transport & map symbols
    (0x1F900, 0x1F9FF),  # supplemental symbols & pictographs
    (0x1FA70, 0x1FAFF),  # symbols & pictographs extended-A
    (0x2600, 0x26FF),    # miscellaneous symbols
    (0x2700, 0x27BF),    # dingbats
    (0x1F1E6, 0x1F1FF),  # regional indicator letters
)

# Invisible joiners/selectors removed during the emoji pass.
_DROPPED_CODEPOINTS = {0xFE0E, 0xFE0F, 0x200D}

_URL_PATTERN = re.compile(r"(?:https?|ftp)://\S+", re.IGNORECASE)


class CasingPolicy(enum.Enum):
    """Per-language character normalization applied after token replacement."""

    PLAIN = "plain"            # lowercase only
    NFKC = "nfkc"              # NFKC width/compat normalization, then lowercase
    TRAD2SIMP = "trad2simp"    # traditional->simplified mapping, then lowercase


DEFAULT_POLICIES = {"en": CasingPolicy.PLAIN, "ja": CasingPolicy.NFKC, "zh": CasingPolicy.TRAD2SIMP}


def load_pattern_file(path: str | Path) -> list[str]:
    """Read a pattern file: one regular expression per line, '#' comments."""
    lines = read_text(path).splitlines()
    return [ln for ln in (l.strip() for l in lines) if ln and not ln.startswith("#")]


def load_literal_file(path: str | Path) -> list[str]:
    """Read a literal emoticon list: one verbatim string per line."""
    lines = read_text(path).splitlines()
    return [ln for ln in lines if ln.strip() and not ln.startswith("#")]


def load_mapping_table(path: str | Path) -> dict[int, int]:
    """Read a TSV of hex codepoint pairs (traditional -> simplified)."""
    table: dict[int, int] = {}
    for raw in read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ArgumentError(f"mapping line needs two tab-separated codepoints: {raw!r}")
        table[int(parts[0], 16)] = int(parts[1], 16)
    return table


def _data_path(name: str) -> Path:
    return Path(str(resources.files("multisent") / "data" / name))


@dataclass
class NormalizationRuleSet:
    """Replacement tokens, per-language policies, and detection pattern sets."""

    emoji_token_prefix: str = "EMOJI_"
    emoticon_token: str = "EMOTICON"
    url_token: str = "URL"
    policies: dict[str, CasingPolicy] = field(default_factory=lambda: dict(DEFAULT_POLICIES))
    emoticon_patterns: list[str] = field(default_factory=list)
    emoticon_literals: list[str] = field(default_factory=list)
    trad2simp: dict[int, int] = field(default_factory=dict)
    version: str = "1"

    def __post_init__(self):
        for token in (self.emoji_token_prefix, self.emoticon_token, self.url_token):
            if not token or any(ch.isspace() for ch in token):
                raise ArgumentError(f"replacement token {token!r} must be non-empty and whitespace-free")
        self._compiled = [re.compile(p) for p in self.emoticon_patterns]
        # Literals are matched before patterns, longest first and
        # case-insensitively (casing runs before emoticon detection, so
        # each literal's NFKC form must match too). Bare-word literals
        # like "orz" only match as whole words.
        variants: set[str] = set()
        for lit in self.emoticon_literals:
            variants.add(lit)
            variants.add(unicodedata.normalize("NFKC", lit))
        parts = []
        for lit in sorted(variants, key=len, reverse=True):
            body = re.escape(lit)
            if all(ch.isalnum() or ch == "_" for ch in lit):
                body = rf"(?<!\w){body}(?!\w)"
            parts.append(body)
        self._literal_re = re.compile("|".join(parts), re.IGNORECASE) if parts else None
        # Replacement tokens are protected from every stage.
        self._protected_re = re.compile(
            "("
            + "|".join(
                [
                    re.escape(self.emoji_token_prefix) + "[0-9A-F]+",
                    re.escape(self.emoticon_token),
                    re.escape(self.url_token),
                ]
            )
            + ")"
        )

    def policy_for(self, lang: str) -> CasingPolicy:
        return self.policies.get(lang, CasingPolicy.PLAIN)

    def fingerprint_payload(self) -> str:
        policies = {k: v.value for k, v in sorted(self.policies.items())}
        mapping = ",".join(f"{k:X}:{v:X}" for k, v in sorted(self.trad2simp.items()))
        return "\x1e".join(
            [
                self.version,
                self.emoji_token_prefix,
                self.emoticon_token,
                self.url_token,
                repr(policies),
                "\x1f".join(self.emoticon_patterns),
                "\x1f".join(self.emoticon_literals),
                mapping,
            ]
        )

    def fingerprint(self) -> str:
        """Content hash; models refuse prediction under a different rule set."""
        return hashlib.sha256(self.fingerprint_payload().encode()).hexdigest()


def default_rules() -> NormalizationRuleSet:
    """Rule set backed by the packaged pattern, literal, and mapping files."""
    return NormalizationRuleSet(
        emoticon_patterns=load_pattern_file(_data_path("emoticon_patterns.txt")),
        emoticon_literals=load_literal_file(_data_path("emoticon_literals.txt")),
        trad2simp=load_mapping_table(_data_path("zh_trad2simp.tsv")),
    )


def _is_emoji(cp: int) -> bool:
    return any(lo <= cp <= hi for lo, hi in EMOJI_RANGES)


def _replace_emoji(text: str, prefix: str) -> str:
    out: list[str] = []
    for ch in text:
        cp = ord(ch)
        if cp in _DROPPED_CODEPOINTS:
            continue
        if _is_emoji(cp):
            out.append(f" {prefix}{cp:X} ")
        else:
            out.append(ch)
    return "".join(out)


def _outside_tokens(text: str, protected_re: re.Pattern, fn) -> str:
    """Apply fn to the stretches of text between protected tokens."""
    pieces = protected_re.split(text)
    for i in range(0, len(pieces), 2):  # odd indices are protected tokens
        pieces[i] = fn(pieces[i])
    return "".join(pieces)


def normalize(text: str, lang: str, rules: NormalizationRuleSet) -> str:
    """Normalize one tweet's text for a given language.

    Pipeline: the language's casing/width policy, then URL, emoji, and
    emoticon replacement, then whitespace collapse. Each stage leaves
    replacement tokens created earlier (or already present) untouched.
    Total on valid input and idempotent: a second pass leaves the output
    unchanged.
    """
    policy = rules.policy_for(lang)

    def apply_policy(seg: str) -> str:
        if policy is CasingPolicy.NFKC:
            seg = unicodedata.normalize("NFKC", seg)
        elif policy is CasingPolicy.TRAD2SIMP:
            seg = seg.translate(rules.trad2simp)
        return seg.lower()

    guard = rules._protected_re
    text = _outside_tokens(text, guard, apply_policy)
    text = _outside_tokens(text, guard, lambda s: _URL_PATTERN.sub(f" {rules.url_token} ", s))
    text = _outside_tokens(text, guard, lambda s: _replace_emoji(s, rules.emoji_token_prefix))
    if rules._literal_re is not None:
        literal_re = rules._literal_re
        text = _outside_tokens(text, guard, lambda s: literal_re.sub(f" {rules.emoticon_token} ", s))
    for pattern in rules._compiled:
        text = _outside_tokens(text, guard, lambda s: pattern.sub(f" {rules.emoticon_token} ", s))
    return " ".join(text.split())


def tokenize(text: str, lang: str, mode: str = "whitespace", tokens: list[str] | None = None) -> list[str]:
    """Split normalized text on whitespace, or pass pre-tokenized input through."""
    if mode == "whitespace":
        return text.split()
    if mode == "pretokenized":
        if tokens is None:
            raise ConfigurationError("pretokenized mode requires a tokens field")
        return list(tokens)
    raise ArgumentError(f"unknown tokenize mode {mode!r}")


@dataclass
class TokenizedTweet:
    """A preprocessed example ready for feature extraction or embedding."""

    id: str
    lang: str
    label: Polarity
    tokens: list[str]
    length: int = 0

    def __post_init__(self):
        self.length = len(self.tokens)
        if self.length == 0:
            raise ArgumentError(f"tweet {self.id!r} has no tokens")
        if any(t == "" for t in self.tokens):
            raise ArgumentError(f"tweet {self.id!r} contains an empty token")


def preprocess_record(
    record: TweetRecord,
    rules: NormalizationRuleSet,
    mode: str = "whitespace",
) -> TokenizedTweet:
    """Normalize and tokenize one record.

    In pretokenized mode each supplied token is normalized individually;
    tokens whose normalization introduces spaces (an embedded emoji or
    URL) expand into several tokens, and tokens that normalize to nothing
    are dropped. A record with no tokens left raises RecordDropError so
    corpus statistics can report the drop.
    """
    if mode == "pretokenized":
        if record.tokens is None:
            raise ConfigurationError(f"record {record.id!r} has no tokens for pretokenized mode")
        toks: list[str] = []
        for tok in record.tokens:
            toks.extend(normalize(tok, record.lang, rules).split())
    else:
        toks = tokenize(normalize(record.text, record.lang, rules), record.lang, mode)
    if not toks:
        raise RecordDropError(record.id, "empty after normalization")
    return TokenizedTweet(id=record.id, lang=record.lang, label=record.label, tokens=toks)


def preprocess_corpus(
    records: list[TweetRecord],
    rules: NormalizationRuleSet,
    mode: str = "whitespace",
) -> tuple[list[TokenizedTweet], list[str]]:
    """Preprocess a corpus, returning kept tweets and dropped record ids."""
    kept: list[TokenizedTweet] = []
    dropped: list[str] = []
    for rec in records:
        try:
            kept.append(preprocess_record(rec, rules, mode))
        except RecordDropError:
            dropped.append(rec.id)
    return kept, dropped
