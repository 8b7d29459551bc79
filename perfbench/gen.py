"""Seeded benchmark inputs: a noisy trilingual corpus and every file it needs.

The base tweets and embedding tables come from the package's own
`SynthSpec` fixture. On top of that the benchmark adds the surface noise
that the normalizer exists to remove, so preprocessing does real work and
its output still matches the tables:

- English tokens are sometimes capitalised.
- Japanese table words carry a katakana suffix; the text writes the ASCII
  part in full-width forms and the katakana in half-width forms, which NFKC
  folds back.
- Chinese table words carry a simplified-character suffix; the text writes
  it with the traditional characters of the packaged `zh_trad2simp.tsv`.
- Tweets get URLs, emoji (with ZWJ sequences, skin tones and variation
  selectors) and faces from the packaged emoticon lists.
- Every 40th record is made only of joiners and selectors, so it normalizes
  to nothing and is dropped: a steady, non-zero error base.

Everything is a pure function of the seed.
"""

from __future__ import annotations

import random
import unicodedata
from pathlib import Path

import numpy as np

from multisent.align import fit_translation_matrix, resolve_pairs, save_translation_matrix
from multisent.align import select_pivot_pairs
from multisent.corpus import TweetRecord, save_corpus
from multisent.embeddings import EmbeddingTable
from multisent.preprocess import load_literal_file, load_mapping_table
from multisent.synth import SynthSpec, generate_fixture

SRC = Path(__file__).resolve().parent.parent / "src"
LANGS = ("en", "ja", "zh")
TARGET = "en"
DIM = 50
DROP_EVERY = 40
DROP_TEXT = "\u200d\ufe0f \ufe0e\u200d"
PIVOTS, PIVOTS_TRAIN = 120, 100

URL_STEMS = ("https://t.co/", "http://example.com/p/", "https://www.example.org/a?id=")
EMOJI = (
    "\U0001F600", "\U0001F602", "\u2764\ufe0f", "\U0001F44D\U0001F3FD", "\u2600\ufe0f",
    "\u2728", "\U0001F469\u200d\U0001F4BB", "\U0001F3F3\ufe0f\u200d\U0001F308",
    "\U0001F468\u200d\U0001F469\u200d\U0001F467",
)
LONGEST_EMOJI = EMOJI[-1]   # the decoration that normalizes to the most tokens
PATTERN_FACES = (":)", ":-(", ";-)", ":D", "<3", "^_^", ":'(", "xD")


def _halfwidth_katakana() -> dict[str, str]:
    """Full-width katakana -> the half-width form that NFKC folds back to it."""
    out = {}
    for cp in range(0xFF71, 0xFF9E):
        full = unicodedata.normalize("NFKC", chr(cp))
        if len(full) == 1:
            out[full] = chr(cp)
    return out


class Noise:
    """Surface decorations drawn from the package's own normalization data."""

    def __init__(self):
        data = SRC / "multisent" / "data"
        self.faces = tuple(load_literal_file(data / "emoticon_literals.txt")) + PATTERN_FACES
        trad2simp = load_mapping_table(data / "zh_trad2simp.tsv")
        self.zh_pairs = sorted(
            (chr(t), chr(s)) for t, s in trad2simp.items() if t != s and s not in trad2simp
        )
        self.simp2trad = {s: t for t, s in self.zh_pairs}
        self.half_kana = _halfwidth_katakana()
        self.kana = sorted(self.half_kana)

    def rename(self, lang: str, word: str, rng: random.Random) -> str:
        """Table spelling of a fixture word: script suffixes for ja and zh."""
        if lang == "ja":
            return word + "".join(rng.choice(self.kana) for _ in range(rng.randint(1, 2)))
        if lang == "zh":
            return word + "".join(rng.choice(self.zh_pairs)[1] for _ in range(rng.randint(1, 2)))
        return word

    def surface(self, lang: str, word: str, rng: random.Random) -> str:
        """A noisy spelling of a table word that normalizes back to it."""
        if lang == "en":
            r = rng.random()
            return word.upper() if r < 0.1 else word.title() if r < 0.3 else word
        if lang == "ja":
            wide = rng.random() < 0.5
            half = rng.random() < 0.5
            out = []
            for ch in word:
                if ch.isascii() and wide:
                    ch = chr(ord(ch.upper() if rng.random() < 0.2 else ch) + 0xFEE0)
                elif ch in self.half_kana and half:
                    ch = self.half_kana[ch]
                out.append(ch)
            return "".join(out)
        if lang == "zh":
            return "".join(
                self.simp2trad[ch] if ch in self.simp2trad and rng.random() < 0.7 else ch
                for ch in word
            )
        return word

    def decoration(self, rng: random.Random) -> str:
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice(URL_STEMS) + "".join(
                rng.choice("abcdefghijkmnpqrstuvwxyz0123456789") for _ in range(8)
            )
        if kind == 1:
            return rng.choice(EMOJI)
        return rng.choice(self.faces)


def _decorate(tokens: list[str], rng: random.Random, noise: Noise, extra=None) -> str:
    toks = list(tokens)
    decorations = [noise.decoration(rng) for _ in range(rng.choice((0, 1, 1, 2)))]
    for dec in decorations if extra is None else extra:
        toks.insert(rng.randint(0, len(toks)), dec)
    return " ".join(toks)


def make_corpus(seed: int, n_train: int, n_unseen: int = 0):
    """Noisy records plus tables and dictionaries in their table spelling.

    Returns (train_records, unseen_records, tables, dictionaries). Unseen
    tweets are cut to the longest training tweet and the longest training
    tweet carries the longest decorations, so every unseen tweet fits the
    padded length of a model trained on the training records.
    """
    spec = SynthSpec(
        languages=LANGS, dim=DIM, n_tweets=n_train + n_unseen, markers_per_class=20,
        filler_vocab=300, min_len=5, max_len=30, seed=seed,
    )
    fixture = generate_fixture(spec)
    noise = Noise()
    rng = random.Random(f"perfbench-names-{seed}")
    names = {
        lang: {w: noise.rename(lang, w, rng) for w in fixture.tables[lang].entries}
        for lang in LANGS
    }
    tables = {
        lang: EmbeddingTable(
            lang=lang, dim=DIM,
            entries={names[lang][w]: v for w, v in fixture.tables[lang].entries.items()},
        )
        for lang in LANGS
    }
    dictionaries = {
        lang: {names[lang][s]: names[TARGET][t] for s, t in pairs.items()}
        for lang, pairs in fixture.dictionaries.items()
    }

    rng = random.Random(f"perfbench-noise-{seed}")
    base = [(rec, [names[rec.lang][t] for t in rec.text.split()]) for rec in fixture.records]
    train_base, unseen_base = base[:n_train], base[n_train:]
    longest = max(
        (i for i in range(n_train) if i % DROP_EVERY != DROP_EVERY - 1),
        key=lambda i: len(train_base[i][1]),
    )
    cap = len(train_base[longest][1])

    def noisy(i: int, rec, tokens, extra=None) -> TweetRecord:
        if i % DROP_EVERY == DROP_EVERY - 1:
            text = DROP_TEXT
        else:
            surfaces = [noise.surface(rec.lang, t, rng) for t in tokens]
            text = _decorate(surfaces, rng, noise, extra)
        return TweetRecord(id=rec.id, lang=rec.lang, text=text, label=rec.label)

    train = [
        noisy(i, rec, toks, [LONGEST_EMOJI] * 2 if i == longest else None)
        for i, (rec, toks) in enumerate(train_base)
    ]
    unseen = [noisy(i, rec, toks[:cap]) for i, (rec, toks) in enumerate(unseen_base)]
    return train, unseen, tables, dictionaries


def write_vec(path: Path, table: EmbeddingTable, distractors: int = 0, seed: int = 0) -> int:
    """Write a .vec file: the table's words, then seeded distractor rows.

    Table rows keep every digit; distractor rows are written to six
    decimals, as published pre-trained tables are.
    """
    rng = np.random.default_rng([seed, distractors, ord(table.lang[0]), ord(table.lang[-1])])
    tags = rng.integers(0, 36**4, size=distractors)
    noise = rng.standard_normal((distractors, table.dim)) * (0.8 / DIM**0.5)
    fmt = " ".join(["%.6f"] * table.dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.entries) + distractors} {table.dim}\n")
        for word, vec in table.entries.items():
            fh.write(word + " " + " ".join(map(repr, vec.tolist())) + "\n")
        for j, (tag, row) in enumerate(zip(tags.tolist(), noise.tolist())):
            fh.write(f"{table.lang}dx{j}{np.base_repr(tag, 36).lower()} " + fmt % tuple(row) + "\n")
    return len(table.entries) + distractors


def write_dictionary(path: Path, mapping: dict[str, str]) -> None:
    path.write_text("".join(f"{s}\t{t}\n" for s, t in sorted(mapping.items())), encoding="utf-8")


def fit_global_matrices(out: Path, tables, dictionaries, seed: int) -> dict[str, Path]:
    """Fit and save one translation matrix per mapped language."""
    paths = {}
    for lang, mapping in sorted(dictionaries.items()):
        ranks = {w: i + 1 for i, w in enumerate(tables[lang].entries)}
        pairs = select_pivot_pairs(
            ranks, mapping, PIVOTS, PIVOTS_TRAIN, seed, src_lang=lang, tgt_lang=TARGET
        )
        X, Z = resolve_pairs(pairs.train_pairs, tables[lang], tables[TARGET])
        tm = fit_translation_matrix(X, Z, src_lang=lang, tgt_lang=TARGET)
        paths[lang] = out / f"{lang}-{TARGET}.mat"
        save_translation_matrix(tm, paths[lang])
    return paths


def write_config(path: Path, items: dict[str, object]) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()), encoding="utf-8")


def drops(records) -> int:
    """How many records were generated to normalize to nothing."""
    return sum(1 for r in records if r.text == DROP_TEXT)


def write_corpus(d: Path, seed: int, n_train: int, n_unseen: int = 0):
    """Write corpus.jsonl (and unseen.jsonl when asked).

    Returns (unseen records, tables, dictionaries, dropped training records).
    """
    train, unseen, tables, dicts = make_corpus(seed, n_train, n_unseen)
    save_corpus(train, d / "corpus.jsonl")
    if unseen:
        save_corpus(unseen, d / "unseen.jsonl")
    return unseen, tables, dicts, drops(train)
