"""Tweet text normalization and record preprocessing.

Normalization unifies surface variation before tokenization: first the
language's casing/width policy, then a table of replacement stages, then
whitespace collapse. Casing runs first so width-normalized faces
("（＾ｏ＾）") are visible to the emoticon patterns.

`NormalizationRuleSet.stages` is that table: an ordered tuple of
(compiled regex, replacement) pairs, applied with `re.sub`. The order is
URL, emoji, the emoticon literals (one alternation, present only when
there are literals), then each emoticon pattern in file order. Every
stage skips the replacement tokens already present in the text, which
is what makes normalize idempotent: a second pass finds only protected
tokens and already-normalized text.

The emoji stage is one character class over EMOJI_RANGES and the dropped
codepoints. Each codepoint in those ranges becomes one token; variation
selectors (U+FE0E/U+FE0F) and the zero-width joiner (U+200D) are dropped.

normalize splits the text on the guard once after the casing pass and
again only after a stage changed some piece, since a change can merge a
piece into the token beside it. `NormalizationRuleSet.screens` holds, per
stage, None or a tuple of cheap regexes, one of which finds something in
every piece the stage could change, and a stage skips each piece in
which none of them finds anything.
Both skips are exact: the output has the bytes of splitting, substituting
and joining for every stage.

Emoticon detection ships as a versioned pattern file (one regex per line)
plus a literal exception list for rare faces; both live in the package
data directory and can be replaced by the caller.

`preprocess_record` reads one record; `preprocess_corpus`, which
`evaluate`, `train`, `preprocess` and `predict` all call, runs it over
a corpus on every usable CPU (multisent.shares), in contiguous runs
merged in input order.
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
from .errors import ArgumentError, ConfigurationError, ParseError, RecordDropError, read_text, split_lines
from .shares import run_shares, share_run, usable_cpus

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
_DROPPED_CODEPOINTS = (0xFE0E, 0xFE0F, 0x200D)

_URL_PATTERN = re.compile(r"(?:https?|ftp)://\S+", re.IGNORECASE)

# Every URL match contains "://", and neither ":" nor "/" has a case variant.
_URL_SCREEN = re.compile("://")

_EMOJI_PATTERN = re.compile(
    "["
    + "".join(f"\\U{cp:08X}" for cp in _DROPPED_CODEPOINTS)
    + "".join(f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in EMOJI_RANGES)
    + "]"
)
_DROPPED = frozenset(map(chr, _DROPPED_CODEPOINTS))


class CasingPolicy(enum.Enum):
    """Per-language character normalization applied before token replacement."""

    PLAIN = "plain"            # lowercase only
    NFKC = "nfkc"              # NFKC width/compat normalization, then lowercase
    TRAD2SIMP = "trad2simp"    # traditional->simplified mapping, then lowercase


POLICIES = {"en": CasingPolicy.PLAIN, "ja": CasingPolicy.NFKC, "zh": CasingPolicy.TRAD2SIMP}
TOKENIZE_MODES = ("whitespace", "pretokenized")

# Replacement tokens, and the rule-set version every fingerprint starts with.
EMOJI_TOKEN_PREFIX = "EMOJI_"
EMOTICON_TOKEN = "EMOTICON"
URL_TOKEN = "URL"
RULES_VERSION = "1"

# Replacement tokens are protected from every stage.
_GUARD = re.compile(
    f"({re.escape(EMOJI_TOKEN_PREFIX)}[0-9A-F]+|{re.escape(EMOTICON_TOKEN)}|{re.escape(URL_TOKEN)})"
)


def load_pattern_file(path: str | Path) -> list[str]:
    """Read a pattern file: one regular expression per line, '#' comments."""
    lines = split_lines(read_text(path))
    return [ln for ln in (l.strip() for l in lines) if ln and not ln.startswith("#")]


def load_literal_file(path: str | Path) -> list[str]:
    """Read a literal emoticon list: one verbatim string per line."""
    lines = split_lines(read_text(path))
    return [ln for ln in lines if ln.strip() and not ln.startswith("#")]


def load_mapping_table(path: str | Path) -> dict[int, int]:
    """Read a TSV of hex codepoint pairs (traditional -> simplified)."""
    table: dict[int, int] = {}
    for lineno, raw in enumerate(split_lines(read_text(path)), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ParseError(f"mapping line needs two tab-separated codepoints: {raw!r}", lineno)
        try:
            src, dst = int(parts[0], 16), int(parts[1], 16)
            chr(src), chr(dst)  # rejects codepoints outside Unicode
        except ValueError:
            raise ParseError(f"mapping line needs hex codepoints up to 10FFFF: {raw!r}", lineno) from None
        table[src] = dst
    return table


def _data_path(name: str) -> Path:
    return Path(str(resources.files("multisent") / "data" / name))


@dataclass
class NormalizationRuleSet:
    """Emoticon detection patterns and literals, and the trad->simp table.

    The replacement tokens and per-language policies are module constants.
    Construction compiles `stages`, the ordered (regex, replacement) pairs
    that normalize applies; `screens`, aligned with `stages`, each None or
    a tuple of regexes, one of which finds something in every piece its
    stage could change;
    `guard`, the regex of replacement tokens every stage leaves alone; and
    `simplify`, None without a trad->simp table, else a (regex, replacement)
    pair that maps each character as str.translate with the table would.
    An emoticon pattern that does not compile raises ConfigurationError.
    """

    emoticon_patterns: list[str] = field(default_factory=list)
    emoticon_literals: list[str] = field(default_factory=list)
    trad2simp: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        # Literals are matched before patterns, longest first and
        # case-insensitively (casing runs before emoticon detection, so
        # each literal's NFKC form must match too). Bare-word literals
        # like "orz" only match as whole words.
        variants: set[str] = set()
        for lit in self.emoticon_literals:
            variants.add(lit)
            variants.add(unicodedata.normalize("NFKC", lit))
        parts, screen_chars, screen_words = [], set(), set()
        for lit in sorted(variants, key=len, reverse=True):
            body = re.escape(lit)
            symbol = next((ch for ch in lit if not (ch.isalnum() or ch == "_")), None)
            if symbol is None:
                # Under IGNORECASE an ASCII word accepts what its lower case
                # does, and lower-case words that share a first letter give
                # the search a common prefix to scan for.
                screen_words.add(re.escape(lit.lower()) if lit.isascii() else body)
                body = rf"(?<!\w){body}(?!\w)"
            else:
                screen_chars.add(symbol)
            parts.append(body)
        emoticon = f" {EMOTICON_TOKEN} "
        stages = [
            (_URL_PATTERN, f" {URL_TOKEN} "),
            (_EMOJI_PATTERN,
             lambda m: "" if m[0] in _DROPPED else f" {EMOJI_TOKEN_PREFIX}{ord(m[0]):X} "),
        ]
        screens = [(_URL_SCREEN,), None]
        if parts:
            stages.append((re.compile("|".join(parts), re.IGNORECASE), emoticon))
            # Every match of a literal contains the character or word its
            # screen names, and under IGNORECASE a class [c] accepts the
            # same characters as the literal c. The class and the words
            # are two searches: re scans fast for a class or for a common
            # prefix, but not for an alternation that starts with a class.
            searches = []
            if screen_chars:
                searches.append("[" + "".join(map(re.escape, sorted(screen_chars))) + "]")
            if screen_words:
                searches.append("|".join(sorted(screen_words)))
            screens.append(tuple(re.compile(rx, re.IGNORECASE) for rx in searches))
        for position, pattern in enumerate(self.emoticon_patterns, start=1):
            try:
                stages.append((re.compile(pattern), emoticon))
            except (re.error, OverflowError, RecursionError) as err:
                raise ConfigurationError(
                    f"emoticon pattern {position} {pattern!r} does not compile: {err}"
                ) from None
            screens.append(None)
        self.stages = tuple(stages)
        self.screens = tuple(screens)
        self.guard = _GUARD
        # One class of the mapped characters scans far faster than a
        # dict-backed str.translate walks non-ASCII text.
        self.simplify = None
        if self.trad2simp:
            simple = {chr(k): chr(v) for k, v in self.trad2simp.items()}
            mapped = re.compile("[" + "".join(map(re.escape, sorted(simple))) + "]")
            self.simplify = (mapped, lambda m: simple[m[0]])

    def policy_for(self, lang: str) -> CasingPolicy:
        return POLICIES.get(lang, CasingPolicy.PLAIN)

    def fingerprint_payload(self) -> str:
        policies = {k: v.value for k, v in sorted(POLICIES.items())}
        mapping = ",".join(f"{k:X}:{v:X}" for k, v in sorted(self.trad2simp.items()))
        return "\x1e".join(
            [
                RULES_VERSION,
                EMOJI_TOKEN_PREFIX,
                EMOTICON_TOKEN,
                URL_TOKEN,
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


def rules_version(rules: NormalizationRuleSet, mode: str) -> str:
    """A model's `fingerprint rules` value: the rule-set hash, then `:MODE` unless whitespace.

    A whitespace model's value is the plain hash, so a value without a
    suffix, such as one written before the mode was recorded, reads as
    whitespace (mode_from_fingerprint).
    """
    return rules.fingerprint() if mode == "whitespace" else f"{rules.fingerprint()}:{mode}"


def mode_from_fingerprint(fingerprints: dict[str, str]) -> str:
    """The tokenize mode of the "HASH[:MODE]" `rules_version` writes."""
    text = fingerprints.get("rules")
    if text is None:
        raise ParseError("checkpoint lacks fingerprint 'rules'")
    _hash, colon, mode = text.partition(":")
    if not colon:
        return "whitespace"
    if mode == "whitespace" or mode not in TOKENIZE_MODES:
        raise ParseError(f"checkpoint fingerprint 'rules' must read HASH or HASH:MODE, MODE a "
                         f"tokenize mode other than whitespace, got {text!r}")
    return mode


def normalize(text: str, lang: str, rules: NormalizationRuleSet) -> str:
    """Normalize one tweet's text for a given language.

    The language's casing/width policy, then each of `rules.stages` in
    order, then whitespace collapse. Each stage leaves replacement tokens
    created earlier (or already present) untouched. Total on valid input
    and idempotent: a second pass leaves the output unchanged.
    """
    policy = rules.policy_for(lang)
    guard = rules.guard
    pieces = guard.split(text)  # odd indices are protected tokens
    for i in range(0, len(pieces), 2):
        seg = pieces[i]
        if policy is CasingPolicy.NFKC:
            seg = unicodedata.normalize("NFKC", seg)
        elif policy is CasingPolicy.TRAD2SIMP and rules.simplify is not None:
            mapped, simple = rules.simplify
            seg = mapped.sub(simple, seg)
        pieces[i] = seg.lower()
    pieces = guard.split("".join(pieces))
    for (rx, repl), screen in zip(rules.stages, rules.screens):
        changed = False
        for i in range(0, len(pieces), 2):
            piece = pieces[i]
            if screen is not None:
                for rx_screen in screen:
                    if rx_screen.search(piece) is not None:
                        break
                else:
                    continue
            new = rx.sub(repl, piece)
            if new != piece:
                pieces[i] = new
                changed = True
        if changed:  # never patch in place: a change can merge a piece into a token
            pieces = guard.split("".join(pieces))
    return " ".join("".join(pieces).split())


@dataclass
class TokenizedTweet:
    """A preprocessed example ready for feature extraction or embedding."""

    id: str
    lang: str
    label: Polarity
    tokens: list[str]
    length: int = field(init=False)

    def __post_init__(self):
        self.length = len(self.tokens)
        if self.length == 0:
            raise ArgumentError(f"tweet {self.id!r} has no tokens")
        if "" in self.tokens:
            raise ArgumentError(f"tweet {self.id!r} contains an empty token")


def preprocess_record(
    record: TweetRecord,
    rules: NormalizationRuleSet,
    mode: str = "whitespace",
) -> TokenizedTweet:
    """Normalize and tokenize one record; the one place that reads `mode`.

    In whitespace mode the normalized text is split on whitespace. In
    pretokenized mode each supplied token is normalized individually;
    tokens whose normalization introduces spaces (an embedded emoji or
    URL) expand into several tokens, and tokens that normalize to nothing
    are dropped. A record with no tokens left raises RecordDropError so
    corpus statistics can report the drop.
    """
    if mode == "whitespace":
        toks = normalize(record.text, record.lang, rules).split()
    elif mode == "pretokenized":
        if record.tokens is None:
            raise ConfigurationError(f"record {record.id!r} has no tokens for pretokenized mode")
        toks = [t for tok in record.tokens for t in normalize(tok, record.lang, rules).split()]
    else:
        raise ArgumentError(f"unknown tokenize mode {mode!r}")
    if not toks:
        raise RecordDropError(record.id, "empty after normalization")
    return TokenizedTweet(id=record.id, lang=record.lang, label=record.label, tokens=toks)


def preprocess_corpus(
    records: list[TweetRecord],
    rules: NormalizationRuleSet,
    mode: str = "whitespace",
) -> tuple[list[TokenizedTweet], list[str]]:
    """Preprocess a corpus on every usable CPU, returning kept tweets and dropped record ids.

    The records are dealt in contiguous runs to one share per usable CPU
    (multisent.shares), and each share's tweets and drops are merged in
    share order, which is input order. So the result, and the first
    record to raise, are those of one CPU whatever the CPU count.
    """
    shares = min(usable_cpus(), len(records))

    def run_share(share: int) -> tuple[list[TokenizedTweet], list[str]]:
        kept: list[TokenizedTweet] = []
        dropped: list[str] = []
        for i in share_run(share, shares, len(records)):
            try:
                kept.append(preprocess_record(records[i], rules, mode))
            except RecordDropError:
                dropped.append(records[i].id)
        return kept, dropped

    kept, dropped = [], []
    for share_kept, share_dropped in run_shares(run_share, shares):
        kept += share_kept
        dropped += share_dropped
    return kept, dropped
