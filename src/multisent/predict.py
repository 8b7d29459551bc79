"""Classify a corpus with a saved checkpoint, on every usable CPU.

`predict_records` is `multisent predict` without its files. It runs two
rounds of shares (multisent.shares), one share per usable CPU, and
numbers the tokens and loads the tables in this process between them:

1. `preprocess_corpus` deals the records to the shares in contiguous
   runs and merges their tweets in input order. It tokenizes them in
   the mode the checkpoint's `fingerprint rules` records
   (`mode_from_fingerprint`).
2. This process numbers the tokens of the tweets as classified (in a
   language with a table, cut to a CNN's max_len), once: a token with a
   fine-tuned row in the checkpoint takes that row's number, and the
   others are the words the model will look up in the tables.
3. `EmbeddingContext.from_paths` loads the `.vec` tables. Of a file
   whose bytes are the ones the checkpoint recorded it parses only the
   rows of those words.
4. `predict_batch` takes that numbering and deals its length-sorted
   batches, whole and longest first, round-robin to the shares.

No share re-cuts a batch, so the predictions keep their bits whatever
the CPU count; with one usable CPU nothing is forked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Polarity, TweetRecord
from .embeddings import TrainedFile
from .nn import TrainedModel, predict_batch
from .nn.train import number_for_prediction
from .pipeline import EmbeddingContext, oov_from_fingerprint
from .preprocess import (
    TokenizedTweet,
    default_rules,
    mode_from_fingerprint,
    preprocess_corpus,
    rules_version,
)
from .shares import usable_cpus


@dataclass
class PredictResult:
    """The classified tweets in input order, and the records left out or cut."""

    tweets: list[TokenizedTweet]        # as classified: a CNN's are cut to its max_len
    predictions: list[tuple[Polarity, np.ndarray]]  # (label, class probabilities) per tweet
    skipped: dict[str, int]     # language without an embedding -> records not classified
    empty: int                  # records that normalize to no tokens
    truncated: int              # tweets cut to the model's max_len


def predict_records(
    trained: TrainedModel,
    records: list[TweetRecord],
    embeddings: dict[str, str],
    matrices: dict[str, str],
) -> PredictResult:
    """Classify records with a trained model over the given .vec and matrix paths.

    The records are tokenized in the mode the model was trained with,
    which its checkpoint records. The model's tables must be the files
    it was trained on: any other set raises ConfigurationError naming
    what differs. A record whose language has no table, or whose text
    normalizes to no tokens, is not classified. A CNN classifies a tweet
    longer than its max_len on its first max_len tokens.
    """
    oov_seed, oov_scale = oov_from_fingerprint(trained.fingerprints)
    mode = mode_from_fingerprint(trained.fingerprints)
    rules = default_rules()
    tweets, dropped = preprocess_corpus(records, rules, mode)
    skipped = Counter(tw.lang for tw in tweets if tw.lang not in embeddings)
    tweets = [tw for tw in tweets if tw.lang in embeddings]
    # The CNN cannot pad past the max_len it was trained with, so a longer
    # tweet is cut to its first max_len tokens; the LSTM takes any length.
    max_len = trained.model.max_len
    truncated = 0
    if trained.model.kind == "cnn":
        truncated = sum(1 for tw in tweets if tw.length > max_len)
        tweets = [tw if tw.length <= max_len else
                  TokenizedTweet(tw.id, tw.lang, tw.label, tw.tokens[:max_len])
                  for tw in tweets]
    # The keys numbering adds are the tokens the fine-tuned rows lack,
    # the only ones predict_batch looks up in the tables.
    numbering = number_for_prediction(trained, tweets)
    words: dict[str, set[str]] = {lang: set() for lang in trained.sources}
    for lang, tok in numbering[1]:
        if lang in words:
            words[lang].add(tok)
    context = EmbeddingContext.from_paths(
        embeddings,
        matrices,
        oov_seed=oov_seed,
        oov_scale=oov_scale,
        max_len=max_len,
        rules_version=rules_version(rules, mode),
        trained={lang: TrainedFile(sha256, trained.fingerprints[f"embeddings:{lang}"], words[lang])
                 for lang, sha256 in trained.sources.items()},
    )
    predictions = predict_batch(trained, tweets, context, shares=usable_cpus(),
                                numbering=numbering)
    return PredictResult(tweets, predictions, dict(skipped), len(dropped), truncated)
