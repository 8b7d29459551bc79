"""Shared builders for the test suite."""

import contextlib
import hashlib
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multisent
from multisent import embeddings
from multisent.baselines import NGRAM_JOINER, ngrams_of
from multisent.corpus import Polarity, TweetRecord
from multisent.embeddings import EmbeddingTable
from multisent.pipeline import EmbeddingContext
from multisent.preprocess import TokenizedTweet
from multisent.rng import SplitMix64, derive_stream


def seeded_table(lang: str, words: list[str], dim: int, seed: int = 0) -> EmbeddingTable:
    """Embedding table with deterministic uniform vectors per word."""
    entries = {}
    for word in words:
        rng = SplitMix64(derive_stream(seed, "tbl", lang, word))
        entries[word] = rng.uniform_array(dim, -1.0, 1.0)
    return EmbeddingTable(lang=lang, dim=dim, entries=entries)


def marker_tweets(n: int, lang: str = "en", tokens_per_tweet: int = 5) -> list[TokenizedTweet]:
    """Single-language toy corpus: one class-marker token per tweet."""
    tweets = []
    rng = SplitMix64(derive_stream(99, "marker-corpus", lang, n))
    for i in range(n):
        label = Polarity(i % 3)
        toks = [f"pad{rng.next_below(6)}" for _ in range(tokens_per_tweet)]
        toks[rng.next_below(tokens_per_tweet)] = f"mark{int(label)}"
        tweets.append(TokenizedTweet(id=f"m{i:03d}", lang=lang, label=label, tokens=toks))
    return tweets


def toy_context(tweets: list[TokenizedTweet], dim: int = 6, seed: int = 0) -> EmbeddingContext:
    """Context whose table covers every token in the tweets."""
    langs = sorted({tw.lang for tw in tweets})
    vocab = {lang: sorted({t for tw in tweets if tw.lang == lang for t in tw.tokens})
             for lang in langs}
    tables = {lang: seeded_table(lang, words, dim, seed) for lang, words in vocab.items()}
    max_len = max(tw.length for tw in tweets)
    return EmbeddingContext(tables=tables, translations={}, max_len=max_len)


@pytest.fixture
def tiny_records() -> list[TweetRecord]:
    return [
        TweetRecord(id="a1", lang="en", text="good stuff here", label=Polarity.POSITIVE),
        TweetRecord(id="a2", lang="en", text="bad stuff here", label=Polarity.NEGATIVE),
        TweetRecord(id="a3", lang="en", text="plain stuff here", label=Polarity.NEUTRAL),
    ]


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _time_out(signum, frame):
    raise TimeoutError("the body outlived its alarm")


@contextlib.contextmanager
def no_worker_left(seconds: int = 60):
    """Run the body, then assert that it left no child process and no open fd behind.

    A body that runs longer than seconds raises TimeoutError, so a pipe
    whose write end stays open fails the test instead of hanging it.
    """
    fds = _open_fds()
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def signal_parent(script: str, args: list[str], tmp_path: Path, signum: int) -> tuple[int, str]:
    """Run `python -c script PIDFILE *args`, whose worker writes its pid to PIDFILE as one
    line; then send the parent signum, and assert that the worker is gone within 5 s of
    the parent's exit. Returns the parent's exit code and its stderr."""
    src = str(Path(multisent.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    marker = tmp_path / "worker.pid"
    # stderr goes to a file: an orphaned worker would hold a pipe open
    with open(tmp_path / "stderr.txt", "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen([sys.executable, "-c", script, str(marker), *args], env=env,
                                stdout=subprocess.DEVNULL, stderr=stderr)
    worker = None
    try:
        deadline = time.monotonic() + 60
        while not (marker.exists() and marker.read_text(encoding="utf-8").endswith("\n")):
            assert proc.poll() is None, "the process ended before its worker started"
            assert time.monotonic() < deadline, "no worker started"
            time.sleep(0.02)
        worker = int(marker.read_text(encoding="utf-8"))
        proc.send_signal(signum)
        proc.wait(timeout=60)
        deadline = time.monotonic() + 5
        while worker is not None:
            try:
                os.kill(worker, 0)
            except ProcessLookupError:
                worker = None
            else:
                assert time.monotonic() < deadline, "the worker outlived its parent"
                time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if worker is not None:
            os.kill(worker, signal.SIGKILL)
    return proc.returncode, (tmp_path / "stderr.txt").read_text(encoding="utf-8")


def finite_difference(f, params: dict[str, np.ndarray], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of scalar f() w.r.t. every tensor entry."""
    grads = {}
    for name, tensor in params.items():
        g = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * step)
        grads[name] = g
    return grads


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def svm_primal_objective(
    vectors: list[np.ndarray], ys: np.ndarray, w: np.ndarray, C: float
) -> float:
    """0.5 ||w||^2 + C sum hinge; the quantity dual coordinate descent minimizes."""
    total = 0.5 * float(w @ w)
    for vec, y in zip(vectors, ys):
        margin = y * (w[-1] + (float(w[vec].sum()) if vec.size else 0.0))
        total += C * max(0.0, 1.0 - margin)
    return total


# The string-indexed n-gram space: each call sorts the given tweets'
# language-tagged n-gram strings into a fresh index and looks every
# tweet's strings up in it. The interned path must give the same columns.
def _keys(tweet: TokenizedTweet) -> list[str]:
    """The tweet's distinct n-grams, each prefixed by its language."""
    prefix = tweet.lang + NGRAM_JOINER
    return [prefix + ng for ng in ngrams_of(tweet.tokens)]


def _ids(keys: list[str], index: dict[str, int]) -> np.ndarray:
    """Column ids of the keys the index knows, strictly increasing."""
    return np.array(sorted(index[k] for k in keys if k in index), dtype=np.int64)


def oracle_feature_space(tweets: list[TokenizedTweet]) -> tuple[dict[str, int], list[np.ndarray]]:
    """One column per distinct language-tagged n-gram, and each tweet's column ids.

    Column ids are assigned lexicographically so the space is independent
    of corpus order; on a one-language corpus that is the order of the
    plain n-grams. The vectors equal oracle_vectorize(tweet, index) per tweet.
    """
    keys = [_keys(tw) for tw in tweets]
    index = {k: i for i, k in enumerate(sorted(set().union(*keys)))}
    return index, [_ids(ks, index) for ks in keys]


def oracle_vectorize(tweet: TokenizedTweet, index: dict[str, int]) -> np.ndarray:
    """Active column ids for a tweet, strictly increasing; unknown n-grams drop."""
    return _ids(_keys(tweet), index)


@pytest.fixture
def table_hashes(monkeypatch) -> Counter:
    """Counts the content hashes embedding tables take, by language.

    A table's hash starts from "LANG\x1fDIM", so its first bytes name the table.
    """
    hashed: Counter = Counter()

    def sha256(head: bytes):
        hashed[head.decode().partition("\x1f")[0]] += 1
        return hashlib.sha256(head)

    monkeypatch.setattr(embeddings, "hashlib", SimpleNamespace(sha256=sha256))
    return hashed
