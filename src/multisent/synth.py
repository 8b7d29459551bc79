"""Self-contained trilingual fixture corpora for tests and demos.

Three toy "languages" share one latent vector space: each language's
embedding table is a random orthogonal rotation of the latent vectors
(the first language keeps the identity, so it doubles as the map
target). Class identity is carried by marker tokens; every marker
exists once per language, and the pool is large relative to the
corpus, so a given surface form is often absent from one language's
training split while its translations are present in the others.
Mapping all languages into the shared space therefore pools evidence
across languages, and a classifier trained on mapped vectors beats
the same classifier on raw ones. Because the spaces are exactly
linearly related, a least-squares map fitted from the shipped
bilingual dictionaries recovers the rotation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Polarity, TweetRecord, save_corpus
from .embeddings import EmbeddingTable, save_embedding_table
from .errors import ArgumentError
from .rng import SplitMix64, derive_stream

MARKERS_PER_TWEET = 2
MARKER_SCALE = 1.2
MARKER_JITTER = 1.2
FILLER_SCALE = 0.8


@dataclass
class SynthSpec:
    """Size and shape knobs for one generated fixture."""

    languages: tuple[str, ...] = ("en", "ja", "zh")
    dim: int = 12
    n_tweets: int = 63
    markers_per_class: int = 18
    filler_vocab: int = 30
    min_len: int = 5
    max_len: int = 9
    seed: int = 0

    def __post_init__(self):
        if len(self.languages) < 2:
            raise ArgumentError("need at least two languages")
        if len(set(self.languages)) != len(self.languages):
            raise ArgumentError("duplicate language codes")
        if self.dim < 3:
            raise ArgumentError("dim must be at least 3 to hold the class axes")
        if not MARKERS_PER_TWEET <= self.min_len <= self.max_len:
            raise ArgumentError(f"need {MARKERS_PER_TWEET} <= min_len <= max_len")
        if self.n_tweets < len(self.languages) * 3:
            raise ArgumentError("too few tweets to cover every language and label")

    @property
    def target(self) -> str:
        return self.languages[0]


@dataclass
class SynthFixture:
    """A generated corpus plus everything needed to embed and align it."""

    spec: SynthSpec
    records: list[TweetRecord]
    tables: dict[str, EmbeddingTable]
    dictionaries: dict[str, dict[str, str]] = field(default_factory=dict)
    rotations: dict[str, np.ndarray] = field(default_factory=dict)


def _gaussian(rng: SplitMix64, n: int) -> np.ndarray:
    """Standard normals via Box-Muller on paired uniforms."""
    m = (n + 1) // 2
    u1 = rng.float_array(m)
    u2 = rng.float_array(m)
    u1 = np.maximum(u1, 1e-300)  # log(0) guard
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.concatenate([r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)])
    return out[:n]


def _random_rotation(rng: SplitMix64, dim: int) -> np.ndarray:
    """Orthogonal matrix from QR of a Gaussian draw, sign-fixed."""
    A = _gaussian(rng, dim * dim).reshape(dim, dim)
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))  # unique factor: positive R diagonal
    return Q


def _marker_word(lang: str, label: int, j: int) -> str:
    return f"{lang}mark{label}n{j}"

def _filler_word(lang: str, j: int) -> str:
    return f"{lang}fill{j}"


def generate_fixture(spec: SynthSpec) -> SynthFixture:
    """Build the corpus, per-language tables, and bilingual dictionaries.

    Latent layout: label c markers sit at MARKER_SCALE * e_c plus
    per-word jitter comparable in size, so class geometry is loose and
    marker identity carries most of the signal; fillers are isotropic
    low-norm noise shared across languages. Language L stores
    latent @ rotation_L, so the exact map back into the target space is
    the transposed rotation. Pure function of the spec.
    """
    d = spec.dim
    latent: dict[str, np.ndarray] = {}  # latent id -> vector
    vec_rng = SplitMix64(derive_stream(spec.seed, "synth", "latent"))
    for c in range(3):
        axis = np.zeros(d)
        axis[c] = MARKER_SCALE
        for j in range(spec.markers_per_class):
            jitter = _gaussian(vec_rng, d) * MARKER_JITTER
            latent[f"m{c}n{j}"] = axis + jitter
    for j in range(spec.filler_vocab):
        latent[f"f{j}"] = _gaussian(vec_rng, d) * FILLER_SCALE / math.sqrt(d)

    rotations: dict[str, np.ndarray] = {}
    tables: dict[str, EmbeddingTable] = {}
    for lang in spec.languages:
        if lang == spec.target:
            Q = np.eye(d)
        else:
            Q = _random_rotation(SplitMix64(derive_stream(spec.seed, "synth", "rot", lang)), d)
        rotations[lang] = Q
        entries = {}
        for lid, vec in latent.items():
            word = (
                _marker_word(lang, int(lid[1]), int(lid.split("n")[1]))
                if lid.startswith("m")
                else _filler_word(lang, int(lid[1:]))
            )
            entries[word] = vec @ Q
        tables[lang] = EmbeddingTable(lang=lang, dim=d, entries=entries)

    dictionaries: dict[str, dict[str, str]] = {}
    for lang in spec.languages[1:]:
        pairs = {}
        for c in range(3):
            for j in range(spec.markers_per_class):
                pairs[_marker_word(lang, c, j)] = _marker_word(spec.target, c, j)
        for j in range(spec.filler_vocab):
            pairs[_filler_word(lang, j)] = _filler_word(spec.target, j)
        dictionaries[lang] = pairs

    records: list[TweetRecord] = []
    text_rng = SplitMix64(derive_stream(spec.seed, "synth", "tweets"))
    cells = [(lang, label) for lang in spec.languages for label in range(3)]
    for i in range(spec.n_tweets):
        lang, label = cells[i % len(cells)]
        length = spec.min_len + text_rng.next_below(spec.max_len - spec.min_len + 1)
        tokens = [
            _filler_word(lang, text_rng.next_below(spec.filler_vocab))
            for _ in range(length)
        ]
        positions = list(range(length))
        text_rng.shuffle(positions)
        for pos in positions[:MARKERS_PER_TWEET]:
            tokens[pos] = _marker_word(lang, label, text_rng.next_below(spec.markers_per_class))
        records.append(
            TweetRecord(id=f"syn{i:04d}", lang=lang, text=" ".join(tokens), label=Polarity(label))
        )
    return SynthFixture(
        spec=spec,
        records=records,
        tables=tables,
        dictionaries=dictionaries,
        rotations=rotations,
    )


def write_fixture(fixture: SynthFixture, outdir: str | Path) -> dict[str, Path]:
    """Write corpus.jsonl, per-language .vec tables, and dictionary TSVs.

    Returns the path of every file written, keyed by role ("corpus",
    "embedding.<lang>", "dictionary.<lang>").
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    corpus_path = out / "corpus.jsonl"
    save_corpus(fixture.records, corpus_path)
    paths["corpus"] = corpus_path
    for lang, table in fixture.tables.items():
        vec_path = out / f"{lang}.vec"
        save_embedding_table(table, vec_path)
        paths[f"embedding.{lang}"] = vec_path
    target = fixture.spec.target
    for lang, mapping in fixture.dictionaries.items():
        dict_path = out / f"{lang}-{target}.tsv"
        lines = [f"{src}\t{tgt}" for src, tgt in sorted(mapping.items())]
        dict_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[f"dictionary.{lang}"] = dict_path
    return paths
