"""Classify a corpus with a saved checkpoint, on every usable CPU.

`predict_records` is `multisent predict` without its files. It runs two
rounds of shares (multisent.shares), one share per usable CPU:

1. The records are dealt to the shares in contiguous chunks and
   preprocessed; the tweets are merged in share order, which is input
   order.
2. This process then builds the embedding context once, because the
   partial `.vec` parse needs the words of every share, and numbers the
   tweets' tokens. `predict_batch` deals its length-sorted batches,
   whole and longest first, round-robin to the shares.

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
from .pipeline import EmbeddingContext, oov_from_fingerprint
from .preprocess import TokenizedTweet, default_rules, preprocess_corpus
from .shares import run_shares, usable_cpus


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
    mode: str = "whitespace",
) -> PredictResult:
    """Classify records with a trained model over the given .vec and matrix paths.

    The model's tables must be the files it was trained on: any other
    set raises ConfigurationError naming what differs. A record whose
    language has no table, or whose text normalizes to no tokens, is
    not classified. A CNN classifies a tweet longer than its max_len on
    its first max_len tokens.
    """
    oov_seed, oov_scale = oov_from_fingerprint(trained.fingerprints)
    rules = default_rules()
    n, shares = len(records), min(usable_cpus(), len(records))
    parts = run_shares(lambda share: preprocess_corpus(
        records[share * n // shares:(share + 1) * n // shares], rules, mode), shares)
    tweets = [tw for kept, _ in parts for tw in kept]
    empty = sum(len(dropped) for _, dropped in parts)
    words: dict[str, set[str]] = {lang: set() for lang in trained.sources}
    for tw in tweets:
        if tw.lang in words:
            words[tw.lang].update(tw.tokens)
    context = EmbeddingContext.from_paths(
        embeddings,
        matrices,
        oov_seed=oov_seed,
        oov_scale=oov_scale,
        max_len=trained.model.max_len,
        rules_version=rules.fingerprint(),
        trained={lang: TrainedFile(sha256, trained.fingerprints[f"embeddings:{lang}"], words[lang])
                 for lang, sha256 in trained.sources.items()},
    )
    skipped = Counter(tw.lang for tw in tweets if tw.lang not in context.tables)
    tweets = [tw for tw in tweets if tw.lang in context.tables]
    # The CNN cannot pad past the max_len it was trained with, so a longer
    # tweet is cut to its first max_len tokens; the LSTM takes any length.
    max_len = trained.model.max_len
    truncated = 0
    if trained.model.kind == "cnn":
        truncated = sum(1 for tw in tweets if tw.length > max_len)
        tweets = [tw if tw.length <= max_len else
                  TokenizedTweet(tw.id, tw.lang, tw.label, tw.tokens[:max_len])
                  for tw in tweets]
    predictions = predict_batch(trained, tweets, context, shares=usable_cpus())
    return PredictResult(tweets, predictions, dict(skipped), empty, truncated)
