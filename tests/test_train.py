"""End-to-end behavior of the mini-batch training loop."""

import csv
import hashlib
import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisent.align import TranslationMatrix
from multisent.corpus import Polarity
from multisent.embeddings import save_embedding_table
from multisent.errors import ArgumentError, ConfigurationError, MultisentError, ParseError
from multisent.nn import (
    TrainConfig,
    argmax_label,
    load_checkpoint,
    predict_batch,
    predict_proba_batch,
    save_checkpoint,
    save_training_log,
    train,
)
from multisent.nn.train import (
    NumberedTokens,
    _accuracy,
    number_tokens,
    scatter_embedding_grad,
)
from multisent.nn.workspace import Workspace
from multisent.pipeline import EmbeddingContext
from multisent.preprocess import TokenizedTweet
from multisent.rng import SplitMix64, derive_stream

from conftest import marker_tweets, seeded_table, toy_context


def quick_config(**over) -> TrainConfig:
    base = dict(batch_size=8, dropout_rate=0.0, max_epochs=12, patience=12, seed=0)
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def toy():
    tweets = marker_tweets(30)
    ctx = toy_context(tweets, dim=6)
    return tweets[:24], tweets[24:], ctx


class TestLoop:
    def test_cnn_learns_marker_corpus(self, toy):
        tr, dev, ctx = toy
        cfg = quick_config(window_sizes=(2, 3), filters_per_window=4)
        trained = train("cnn", tr, dev, ctx, cfg)
        first_loss = trained.history[0][1]
        last_loss = trained.history[-1][1]
        assert last_loss < first_loss
        assert trained.best_dev_accuracy >= 0.5

    def test_lstm_runs_and_tracks_best(self, toy):
        tr, dev, ctx = toy
        cfg = quick_config(hidden_dim=6, max_epochs=6)
        trained = train("lstm", tr, dev, ctx, cfg)
        accs = [acc for _, _, acc in trained.history]
        assert trained.best_dev_accuracy == max(accs)
        # Strict improvement keeps the earliest epoch among equals.
        assert trained.best_epoch == 1 + accs.index(max(accs))

    def test_patience_zero_stops_after_one_epoch(self, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(patience=0, max_epochs=50))
        assert len(trained.history) == 1

    def test_patience_counts_epochs_without_improvement(self, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(patience=2, max_epochs=50))
        accs = [acc for _, _, acc in trained.history]
        if len(accs) < 50:
            # Stopped early: the final two epochs failed to beat the best.
            best = max(accs[:-2])
            assert accs[-1] <= best and accs[-2] <= best

    def test_retrain_is_bit_identical(self, toy):
        tr, dev, ctx = toy
        cfg = quick_config(dropout_rate=0.5, max_epochs=4)
        a = train("cnn", tr, dev, ctx, cfg)
        b = train("cnn", tr, dev, ctx, cfg)
        for name, ta in a.model.params.tensors().items():
            assert np.array_equal(ta, b.model.params.tensors()[name]), name
        assert a.history == b.history

    def test_seed_changes_the_run(self, toy):
        tr, dev, ctx = toy
        a = train("cnn", tr, dev, ctx, quick_config(max_epochs=3, seed=0))
        b = train("cnn", tr, dev, ctx, quick_config(max_epochs=3, seed=1))
        assert any(
            not np.array_equal(ta, b.model.params.tensors()[n])
            for n, ta in a.model.params.tensors().items()
        )

    def test_validation(self, toy):
        tr, dev, ctx = toy
        with pytest.raises(ArgumentError):
            train("cnn", [], dev, ctx, quick_config())
        with pytest.raises(ArgumentError):
            train("cnn", tr, [], ctx, quick_config())
        with pytest.raises(ArgumentError):
            train("gru", tr, dev, ctx, quick_config())


class TestFineTuning:
    def test_embeddings_move_and_are_kept(self, toy):
        tr, dev, ctx = toy
        cfg = quick_config(fine_tune_embeddings=True, max_epochs=4)
        before = {
            (lang, tok): ctx.tables[lang].entries[tok].copy()
            for lang in ctx.tables
            for tok in ctx.tables[lang].entries
        }
        trained = train("cnn", tr, dev, ctx, cfg)
        assert trained.fine_tuned is not None
        moved = sum(
            1
            for (lang, tok), row in trained.fine_tuned.index.items()
            if not np.array_equal(trained.fine_tuned.E[row], before[(lang, tok)])
        )
        assert moved > 0
        # The shared table itself must stay frozen.
        for (lang, tok), orig in before.items():
            assert np.array_equal(ctx.tables[lang].entries[tok], orig)

    def test_prediction_uses_tuned_rows(self, toy):
        tr, dev, ctx = toy
        cfg = quick_config(fine_tune_embeddings=True, max_epochs=4)
        trained = train("cnn", tr, dev, ctx, cfg)
        [(label, probs)] = predict_batch(trained, [tr[0]], ctx)
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert int(label) in (0, 1, 2)


def _first_seen_reference(tweets, context, index, rows):
    """Number each (lang, token) in first-seen order, one context.vectors call per new key.

    index and rows grow in place; rows[index[key]] is the key's vector.
    """
    for tw in tweets:
        for tok in tw.tokens:
            if (tw.lang, tok) not in index:
                index[(tw.lang, tok)] = len(rows)
                rows.append(context.vectors([(tw.lang, tok)])[0])


class TestSharedNumbering:
    """Tables gathered from one numbering of every tweet, as `evaluate` builds
    them, equal a reference that numbers and looks up token by token."""

    DIM = 5

    @pytest.fixture(scope="class")
    def split(self):
        # "cat" is a word of both tables; "oov*" are in neither, and oov1
        # occurs in both languages, so it is two keys with two OOV vectors.
        def tw(i, lang, toks):
            return TokenizedTweet(id=f"n{i}", lang=lang, label=Polarity(i % 3), tokens=toks)

        train_tweets = [tw(0, "en", ["cat", "dog", "oov1"]), tw(1, "ja", ["neko", "cat"]),
                        tw(2, "en", ["sun", "cat", "cat"]), tw(3, "ja", ["inu", "oov1"]),
                        tw(4, "en", ["dog", "sun"]), tw(5, "ja", ["cat", "neko", "inu"])]
        dev_tweets = [tw(6, "en", ["dog", "oov2"]), tw(7, "ja", ["oov3", "cat"])]
        test_tweets = [tw(8, "ja", ["oov4", "neko"]), tw(9, "en", ["oov5", "cat", "oov2"]),
                       tw(10, "ja", ["oov1", "oov4"])]
        return train_tweets, dev_tweets, test_tweets

    @pytest.fixture(scope="class", params=["global", "per_fold"])
    def contexts(self, request):
        """(context the numbering is taken under, context the fold trains with)."""
        rng = SplitMix64(derive_stream(11, "numbering-map"))
        W = rng.uniform_array(self.DIM * self.DIM, -1.0, 1.0).reshape(self.DIM, self.DIM)
        base = EmbeddingContext(
            tables={"en": seeded_table("en", ["cat", "dog", "sun"], self.DIM, seed=1),
                    "ja": seeded_table("ja", ["cat", "inu", "neko"], self.DIM, seed=2)},
            oov_seed=4, max_len=3,
        )
        maps = {"ja": TranslationMatrix(src_lang="ja", tgt_lang="en", W=W)}
        if request.param == "global":
            ctx = replace(base, translations=maps)
            return ctx, ctx
        return base, replace(base, translations=maps)

    def numbered(self, split, under):
        """Every tweet numbered once, in an order unlike the one train and
        predict take them in, as train-then-dev and test views."""
        train_tweets, dev_tweets, test_tweets = split
        everything = dev_tweets + test_tweets[::-1] + train_tweets[::-1]
        whole = NumberedTokens.of(everything, under)
        ids = {tw.id: row for tw, row in zip(everything, whole.ids)}
        return tuple(replace(whole, ids=[ids[tw.id] for tw in tweets])
                     for tweets in (train_tweets + dev_tweets, test_tweets))

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_tables_equal_the_first_seen_reference(self, split, contexts, monkeypatch,
                                                   fine_tune):
        train_tweets, dev_tweets, test_tweets = split
        under, ctx = contexts
        train_module = importlib.import_module("multisent.nn.train")
        tables = []     # each table as gathered, before training updates it
        real_table = NumberedTokens.table

        def table(self, keys, context):
            out = real_table(self, keys, context)
            tables.append(out.copy())
            return out

        monkeypatch.setattr(NumberedTokens, "table", table)
        predicted = []
        real_predict = train_module._predict_in_length_order
        monkeypatch.setattr(train_module, "_predict_in_length_order",
                            lambda model, table, ids, *a: predicted.append((table, ids))
                            or real_predict(model, table, ids, *a))
        for_train, for_test = self.numbered(split, under)
        cfg = quick_config(batch_size=2, max_epochs=2, window_sizes=(2,),
                           filters_per_window=2, fine_tune_embeddings=fine_tune)
        trained = train("cnn", train_tweets, dev_tweets, ctx, cfg, numbered=for_train)

        index, rows = {}, []
        _first_seen_reference(train_tweets, ctx, index, rows)
        vocab = dict(index)
        _first_seen_reference(dev_tweets, ctx, index, rows)
        assert tables[0].tobytes() == np.stack(rows).tobytes()
        if fine_tune:
            assert list(trained.fine_tuned.index.items()) == list(vocab.items())
            assert tables[0][:len(vocab)].tobytes() == np.stack(rows[:len(vocab)]).tobytes()

        predicted.clear()
        out = predict_batch(trained, test_tweets, ctx, numbered=for_test)
        [(table, ids)] = predicted[-1:]
        if fine_tune:
            index, rows = dict(trained.fine_tuned.index), list(trained.fine_tuned.E)
        else:
            index, rows = {}, []
        _first_seen_reference(test_tweets, ctx, index, rows)
        assert table.tobytes() == np.stack(rows).tobytes()
        assert [row.tolist() for row in ids] == [
            [index[(tw.lang, tok)] for tok in tw.tokens] for tw in test_tweets]
        alone = predict_batch(trained, test_tweets, ctx)
        assert [(int(a), p.tobytes()) for a, p in out] == [(int(a), p.tobytes()) for a, p in alone]

    def test_checkpoint_bytes_ignore_who_numbered(self, split, contexts, tmp_path):
        train_tweets, dev_tweets, _ = split
        under, ctx = contexts
        cfg = quick_config(batch_size=2, max_epochs=2, window_sizes=(2,),
                           filters_per_window=2, fine_tune_embeddings=True)
        shared = train("cnn", train_tweets, dev_tweets, ctx, cfg,
                       numbered=self.numbered(split, under)[0])
        own = train("cnn", train_tweets, dev_tweets, ctx, cfg)
        save_checkpoint(shared, tmp_path / "shared.ckpt")
        save_checkpoint(own, tmp_path / "own.ckpt")
        assert (tmp_path / "shared.ckpt").read_bytes() == (tmp_path / "own.ckpt").read_bytes()

    def test_numbering_of_other_tweets_or_tables_is_rejected(self, split, contexts):
        train_tweets, dev_tweets, test_tweets = split
        under, ctx = contexts
        for_train, for_test = self.numbered(split, under)
        with pytest.raises(ArgumentError, match="numbered holds 3 tweets"):
            train("cnn", train_tweets, dev_tweets, ctx, quick_config(), numbered=for_test)
        other = replace(ctx, tables=dict(ctx.tables))
        with pytest.raises(ArgumentError, match="numbered under another context"):
            for_train.table(np.arange(2), other)

    def test_numbering_that_lacks_a_key_is_rejected(self, split, contexts):
        train_tweets, dev_tweets, test_tweets = split
        under, ctx = contexts
        cfg = quick_config(max_epochs=1, window_sizes=(2,), filters_per_window=2)
        trained = train("cnn", train_tweets, dev_tweets, ctx, cfg)
        # the first test tweet's oov4 is in no train or dev tweet
        seen = NumberedTokens.of(train_tweets + dev_tweets, under)
        with pytest.raises(ArgumentError, match=r"numbered lacks the key \('ja', 'oov4'\)"):
            predict_batch(trained, test_tweets, ctx, numbered=seen)

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_predict_numbers_keys_after_the_fine_tuned_rows(self, split, contexts, monkeypatch,
                                                            fine_tune):
        train_tweets, dev_tweets, test_tweets = split
        _, ctx = contexts
        cfg = quick_config(max_epochs=1, window_sizes=(2,), filters_per_window=2,
                           fine_tune_embeddings=fine_tune)
        trained = train("cnn", train_tweets, dev_tweets, ctx, cfg)
        ft = trained.fine_tuned
        held = {} if ft is None else dict(ft.index)
        train_module = importlib.import_module("multisent.nn.train")
        predicted = []
        real_predict = train_module._predict_in_length_order
        monkeypatch.setattr(train_module, "_predict_in_length_order",
                            lambda model, table, ids, *a: predicted.append((table, ids))
                            or real_predict(model, table, ids, *a))
        predict_batch(trained, test_tweets, ctx)
        assert held == ({} if ft is None else ft.index)     # the model's index does not grow
        # the fine-tuned rows keep their numbers; the other keys follow E in first-seen order
        start = 0 if ft is None else len(ft.E)
        want_ids, want_added = _number_one_by_one(test_tweets, dict(held), start)
        [(table, ids)] = predicted
        assert [row.tolist() for row in ids] == want_ids
        assert table[start:].tobytes() == ctx.vectors(want_added).tobytes()


def _number_one_by_one(tweets, index, start):
    """number_tokens' reference: one index lookup per token."""
    encoded, added = [], []
    for tw in tweets:
        ids = []
        for tok in tw.tokens:
            if (tw.lang, tok) not in index:
                index[(tw.lang, tok)] = start + len(added)
                added.append((tw.lang, tok))
            ids.append(index[(tw.lang, tok)])
        encoded.append(ids)
    return encoded, added


_LANG = st.sampled_from(["en", "ja", "zh"])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(_LANG, st.lists(st.sampled_from("abcd"), min_size=1, max_size=5)),
                max_size=8),
       st.dictionaries(st.tuples(_LANG, st.sampled_from("abcd")), st.integers(0, 9)),
       st.integers(0, 9))
def test_number_tokens_equals_one_lookup_per_token(tweets, index, start):
    tweets = [TokenizedTweet(id="t", lang=lang, label=Polarity.NEUTRAL, tokens=toks)
              for lang, toks in tweets]
    want_index = dict(index)
    want = _number_one_by_one(tweets, want_index, start)
    ids, added = number_tokens(tweets, index, start)
    assert ([row.tolist() for row in ids], added) == want
    assert all(row.dtype == np.intp for row in ids)
    assert list(index.items()) == list(want_index.items())


class TestOneVectorPerToken:
    """A mapped token has one vector, whichever tweet holds it and wherever it is read."""

    DIM = 50
    WORDS = [f"w{i}" for i in range(40)]

    @pytest.fixture(scope="class")
    def mapped(self):
        rng = SplitMix64(derive_stream(7, "random-map"))
        W = rng.uniform_array(self.DIM * self.DIM, -1.0, 1.0).reshape(self.DIM, self.DIM)
        ctx = EmbeddingContext(
            tables={"ja": seeded_table("ja", self.WORDS, self.DIM)},
            translations={"ja": TranslationMatrix(src_lang="ja", tgt_lang="en", W=W)},
            max_len=len(self.WORDS),
        )
        # Every tweet starts with w0; lengths run from 2 to 40 tokens.
        tweets = [TokenizedTweet(id=f"t{n}", lang="ja", label=Polarity(n % 3),
                                 tokens=self.WORDS[:n])
                  for n in range(2, len(self.WORDS) + 1)]
        alone = ctx.embed(TokenizedTweet(id="t1", lang="ja", label=Polarity.NEUTRAL,
                                         tokens=["w0"]))[0]
        return ctx, tweets, alone

    def test_rows_match_across_tweet_lengths(self, mapped):
        ctx, tweets, alone = mapped
        for tw in tweets:
            assert ctx.embed(tw)[0].tobytes() == alone.tobytes(), tw.length

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_rows_match_in_training_and_prediction(self, mapped, monkeypatch, fine_tune):
        ctx, tweets, alone = mapped
        train_module = importlib.import_module("multisent.nn.train")
        seen = {"train": [], "predict": []}
        real_loss, real_predict = train_module.loss_and_gradients, train_module.predict_proba_batch

        def spy_loss(model, batch, *args, **kwargs):
            seen["train"].append([x[0].copy() for x, _ in batch])
            return real_loss(model, batch, *args, **kwargs)

        def spy_predict(model, examples, *args):
            seen["predict"].append([x[0].copy() for x in examples])
            return real_predict(model, examples, *args)

        monkeypatch.setattr(train_module, "loss_and_gradients", spy_loss)
        monkeypatch.setattr(train_module, "predict_proba_batch", spy_predict)
        cfg = quick_config(window_sizes=(2,), filters_per_window=2, max_epochs=1,
                           fine_tune_embeddings=fine_tune)
        trained = train("cnn", tweets[:30], tweets[30:], ctx, cfg)
        # Before the first update every training row of w0 is its context vector.
        assert all(row.tobytes() == alone.tobytes() for row in seen["train"][0])
        seen["predict"].clear()
        predict_batch(trained, tweets, ctx)
        want = alone
        if fine_tune:
            want = trained.fine_tuned.E[trained.fine_tuned.index[("ja", "w0")]]
            assert want.tobytes() != alone.tobytes()
        rows = [row for chunk in seen["predict"] for row in chunk]
        assert len(rows) == len(tweets)
        assert all(row.tobytes() == want.tobytes() for row in rows)


class TestEmbeddingGradScatter:
    def reference(self, shape, batch_ids, dX):
        gE = np.zeros(shape)
        for bpos, ids in enumerate(batch_ids):
            for t, row in enumerate(ids):
                gE[row] += dX[bpos, t]
        return gE

    def test_repeated_tokens_accumulate(self):
        # Tweet 0 uses row 2 twice; tweets 0 and 1 share row 4; tweet 1
        # is shorter, so its padding rows of dX must be ignored.
        batch_ids = [np.array([2, 4, 2, 0]), np.array([4, 1])]
        rng = SplitMix64(derive_stream(3, "scatter"))
        dX = rng.uniform_array(2 * 5 * 3, -1.0, 1.0).reshape(2, 5, 3)
        gE = scatter_embedding_grad((6, 3), batch_ids, dX, Workspace())
        assert np.array_equal(gE, self.reference((6, 3), batch_ids, dX))
        # Row 2 and row 4 each get two additions; plain fancy-index `+=`
        # would keep only one of them.
        buffered = np.zeros((6, 3))
        buffered[np.concatenate(batch_ids)] += np.concatenate([dX[0, :4], dX[1, :2]])
        assert not np.array_equal(gE[[2, 4]], buffered[[2, 4]])
        assert np.all(gE[[3, 5]] == 0.0)


class TestFiniteLossGuard:
    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_nan_embedding_component_names_epoch_and_batch(self, fine_tune):
        tweets = marker_tweets(30)
        ctx = toy_context(tweets, dim=6)
        ctx.tables["en"].entries["mark1"][2] = float("nan")
        cfg = quick_config(fine_tune_embeddings=fine_tune, max_epochs=2)
        with pytest.raises(MultisentError) as err:
            train("cnn", tweets[:24], tweets[24:], ctx, cfg)
        assert "loss is nan in epoch 1, batch 1" in str(err.value)


class TestCheckpointAndLog:
    def test_round_trip_cnn(self, tmp_path, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=3))
        path = tmp_path / "model.txt"
        save_checkpoint(trained, path)
        back = load_checkpoint(path)
        assert back.model.kind == trained.model.kind
        assert back.model.max_len == trained.model.max_len
        assert back.history == trained.history
        assert back.fingerprints == trained.fingerprints
        for name, t in trained.model.params.tensors().items():
            assert np.array_equal(t, back.model.params.tensors()[name]), name
        a = predict_batch(trained, dev, ctx)
        b = predict_batch(back, dev, ctx)
        assert [int(x) for x, _ in a] == [int(x) for x, _ in b]
        for (_, pa), (_, pb) in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_round_trip_lstm_with_fine_tuning(self, tmp_path, toy):
        tr, dev, ctx = toy
        cfg = quick_config(hidden_dim=5, fine_tune_embeddings=True, max_epochs=2)
        trained = train("lstm", tr, dev, ctx, cfg)
        path = tmp_path / "model.txt"
        save_checkpoint(trained, path)
        back = load_checkpoint(path)
        assert back.fine_tuned is not None
        assert back.fine_tuned.index == trained.fine_tuned.index
        assert np.array_equal(back.fine_tuned.E, trained.fine_tuned.E)
        a = predict_batch(trained, dev, ctx)
        b = predict_batch(back, dev, ctx)
        for (_, pa), (_, pb) in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_source_lines_record_each_vec_file(self, tmp_path, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=1))
        save_checkpoint(trained, tmp_path / "built.txt")
        assert trained.sources == {}
        assert "\nsource " not in (tmp_path / "built.txt").read_text()

        tweets = [TokenizedTweet(tw.id, lang, tw.label, tw.tokens)
                  for lang in ("zh", "en") for tw in tr + dev]
        for lang in ("zh", "en"):
            save_embedding_table(seeded_table(lang, sorted(ctx.tables["en"].entries), 6),
                                 tmp_path / f"{lang}.vec")
        files = EmbeddingContext.from_paths(
            {lang: str(tmp_path / f"{lang}.vec") for lang in ("zh", "en")}, {},
            oov_seed=0, oov_scale=None, max_len=ctx.max_len, rules_version="-")
        trained = train("cnn", tweets[:48], tweets[48:], files, quick_config(max_epochs=1))
        path = tmp_path / "files.txt"
        save_checkpoint(trained, path)
        lines = path.read_text().splitlines()
        digests = {lang: hashlib.sha256((tmp_path / f"{lang}.vec").read_bytes()).hexdigest()
                   for lang in ("en", "zh")}
        last_fingerprint = max(i for i, ln in enumerate(lines) if ln.startswith("fingerprint "))
        assert lines[last_fingerprint + 1:last_fingerprint + 3] == [
            f"source en {digests['en']}", f"source zh {digests['zh']}"]
        assert load_checkpoint(path).sources == digests
        del lines[next(i for i, ln in enumerate(lines) if ln.startswith("fingerprint embeddings:zh"))]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="source line for 'zh' has no embeddings:zh"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_truncated_tensor_block_rejected(self, tmp_path, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=1))
        path = tmp_path / "model.txt"
        save_checkpoint(trained, path)
        lines = path.read_text().splitlines()
        header = lines.index(next(ln for ln in lines if ln.startswith("tensor V ")))
        path.write_text("\n".join(lines[:header + 2]) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == header + 2
        assert "tensor V is truncated" in str(err.value)
        # A block cut short in the middle of the file runs into the next line.
        del lines[header + 1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert "tensor V is truncated" in str(err.value)

    def test_vocab_row_outside_embeddings_rejected(self, tmp_path, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=1,
                                                         fine_tune_embeddings=True))
        path = tmp_path / "model.txt"
        save_checkpoint(trained, path)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("vocab "))
        rows = trained.fine_tuned.E.shape[0]
        lines[at] = " ".join(lines[at].split(" ")[:3] + [str(rows)])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == at + 1
        assert f"outside the {rows} __embeddings__ rows" in str(err.value)

    @pytest.mark.parametrize("edit, message", [
        ("repeated-key", "is listed twice"),
        ("missing-row", "has no vocab line"),
    ])
    def test_vocab_rows_must_number_each_embedding_row_once(self, tmp_path, toy, edit,
                                                            message):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=1,
                                                         fine_tune_embeddings=True))
        path = tmp_path / "model.txt"
        save_checkpoint(trained, path)
        lines = path.read_text().splitlines()
        vocab = [i for i, ln in enumerate(lines) if ln.startswith("vocab ")]
        first, second, last = vocab[0], vocab[1], vocab[-1]
        assert [int(lines[i].split(" ")[3]) for i in vocab] == list(range(len(vocab)))
        if edit == "repeated-key":    # row 1's line names row 0's key
            lines[second] = " ".join(lines[first].split(" ")[:3] + ["1"])
            at = second + 1
        else:   # the last row left without a key (two keys on one row: test_cli.py)
            del lines[last]
            at = next(i for i, ln in enumerate(lines)
                      if ln.startswith("tensor __embeddings__ ")) + 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == at
        assert message in str(err.value)

    @pytest.mark.parametrize("bad", ["nan", "-inf", "1e999"])
    def test_non_finite_tensor_value_rejected(self, tmp_path, toy, bad):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=1))
        path = tmp_path / "model.txt"
        save_checkpoint(trained, path)
        lines = path.read_text().splitlines()
        at = lines.index(next(ln for ln in lines if ln.startswith("tensor V "))) + 1
        lines[at] = " ".join([bad] + lines[at].split(" ")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == at + 1
        assert "tensor V has a non-finite value" in str(err.value)

    @pytest.mark.parametrize("kind,over", [
        ("cnn", dict(window_sizes=(2, 3), filters_per_window=3, fine_tune_embeddings=True)),
        ("lstm", dict(hidden_dim=4)),
    ])
    def test_reloaded_checkpoint_saves_the_same_bytes(self, tmp_path, toy, kind, over):
        tr, dev, ctx = toy
        trained = train(kind, tr, dev, ctx, quick_config(max_epochs=2, seed=5, **over))
        save_checkpoint(trained, tmp_path / "a.txt")
        save_checkpoint(load_checkpoint(tmp_path / "a.txt"), tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_tensor_lines_are_the_per_value_format(self, tmp_path, toy):
        tr, dev, ctx = toy
        cfg = quick_config(window_sizes=(2, 3), filters_per_window=3, fine_tune_embeddings=True,
                           max_epochs=1)
        trained = train("cnn", tr, dev, ctx, cfg)
        tensors = trained.model.params.tensors()
        tensors["__embeddings__"] = trained.fine_tuned.E
        special = [-0.0, 0.0, 5e-324, 2.2250738585072e-310, 1e22, -1e22, 0.1, -1 / 3, 1e-300]
        rng = SplitMix64(derive_stream(3, "ckpt-format"))
        for t in tensors.values():
            flat = rng.uniform_array(t.size, -2.0, 2.0)
            flat[:len(special)] = special[:t.size]
            t[...] = flat.reshape(t.shape)
        assert any(t.size % 8 for t in tensors.values())
        path = tmp_path / "model.txt"
        save_checkpoint(trained, path)
        lines = path.read_text().splitlines()
        back = load_checkpoint(path)
        back_tensors = back.model.params.tensors()
        back_tensors["__embeddings__"] = back.fine_tuned.E
        for name, t in tensors.items():
            at = lines.index(f"tensor {name} {' '.join(str(s) for s in t.shape)}") + 1
            flat = t.ravel()
            expected = [" ".join(f"{v:.17g}" for v in flat[i:i + 8]) for i in range(0, flat.size, 8)]
            assert lines[at:at + len(expected)] == expected, name
            assert back_tensors[name].tobytes() == t.tobytes(), name

    @staticmethod
    def loaded_or_error(path, line_loop=False):
        """What load_checkpoint(path) gives: each tensor's name, dtype, shape and
        bytes with the other fields, or its ParseError's text and line. With
        line_loop, every tensor block is parsed line by line."""
        with pytest.MonkeyPatch.context() as patch:
            if line_loop:
                patch.setattr(importlib.import_module("multisent.nn.train"), "_block_values",
                              lambda block, count: None)
            try:
                back = load_checkpoint(path)
            except ParseError as err:
                return str(err), err.line
        tensors = back.model.params.tensors()
        if back.fine_tuned is not None:
            tensors["__embeddings__"] = back.fine_tuned.E
        return ([(name, t.dtype.str, t.shape, t.tobytes()) for name, t in tensors.items()],
                back.fine_tuned and back.fine_tuned.index, back.model.kind, back.model.max_len,
                back.history, back.fingerprints, back.best_epoch, back.best_dev_accuracy)

    @pytest.mark.parametrize("kind,over", [
        ("cnn", dict(window_sizes=(2, 3), filters_per_window=3, fine_tune_embeddings=True)),
        ("lstm", dict(hidden_dim=5)),
    ])
    def test_tensor_blocks_parse_in_one_pass_to_the_line_loop_bits(
        self, tmp_path, toy, monkeypatch, kind, over
    ):
        tr, dev, ctx = toy
        path = tmp_path / "model.txt"
        save_checkpoint(train(kind, tr, dev, ctx, quick_config(max_epochs=2, **over)), path)
        train_module = importlib.import_module("multisent.nn.train")
        real, bulk = train_module._block_values, []
        monkeypatch.setattr(train_module, "_block_values",
                            lambda block, count: bulk.append(real(block, count)) or bulk[-1])
        loaded = self.loaded_or_error(path)
        n_tensors = path.read_text().count("\ntensor ")
        assert len(bulk) == n_tensors and all(flat is not None for flat in bulk)
        assert loaded == self.loaded_or_error(path, line_loop=True)

    @pytest.mark.parametrize("edit,outcome", [
        (lambda b: [b[0] + " " + b[1], *b[2:]], None),                # all 16 values on one line
        (lambda b: [b[0], "", *b[1:]], None),                         # an empty line inside
        # 9 values on the first line, then 7
        (lambda b: [b[0] + " " + b[1].split(" ", 1)[0], b[1].split(" ", 1)[1], *b[2:]], None),
        (lambda b: [" ".join(["1_0", *b[0].split(" ")[1:]]), *b[1:]], None),  # float() reads 10
        (lambda b: [*b[:2], "0.5 0.25", *b[2:]], None),               # a stray line after it
        (lambda b: [b[0], b[1] + " 0.5", *b[2:]], "tensor U_i has 17 values, shape needs 16"),
        (lambda b: [b[0], *b[2:]], "tensor U_i is truncated: 'tensor b_i 4' is not a row"),
    ], ids=["one-line", "empty-line", "nine-then-seven", "underscore", "stray-line",
            "extra-value", "short-block"])
    def test_hand_edited_tensor_block_loads_as_the_line_loop_does(
        self, tmp_path, toy, edit, outcome
    ):
        tr, dev, ctx = toy
        path = tmp_path / "model.txt"
        save_checkpoint(train("lstm", tr, dev, ctx, quick_config(hidden_dim=4, max_epochs=1)), path)
        lines = path.read_text().splitlines()
        at = lines.index("tensor U_i 4 4") + 1      # 16 values, on two lines of 8
        lines[at:] = edit(lines[at:])
        path.write_text("\n".join(lines) + "\n")
        loaded = self.loaded_or_error(path)
        assert loaded == self.loaded_or_error(path, line_loop=True)
        if outcome is None:
            assert isinstance(loaded[0], list)
        else:
            assert outcome in loaded[0]

    @pytest.mark.parametrize("prefix,edit,message", [
        ("history ", lambda ln: "history 1 x1.49 0.5", "non-numeric history value"),
        ("history ", lambda ln: "history 1 0.5", "history line needs 4"),
        ("dropout_rate ", lambda ln: None, "checkpoint lacks the 'dropout_rate' header field"),
        ("dropout_rate ", lambda ln: "dropout_rate nan", "non-finite dropout_rate"),
        ("max_len ", lambda ln: "max_len nine", "non-numeric max_len"),
        ("window_sizes ", lambda ln: "window_sizes 2,7", "checkpoint lacks tensor 'filters_7'"),
        ("window_sizes ", lambda ln: "window_sizes 2,", "non-numeric window_sizes"),
        ("fingerprint ", lambda ln: "fingerprint rules", "fingerprint line needs 3"),
        ("vocab ", lambda ln: ln.rsplit(" ", 1)[0], "vocab line needs 4"),
        ("vocab ", lambda ln: ln.rsplit(" ", 1)[0] + " 1.5", "non-numeric vocab row"),
        ("tensor V ", lambda ln: "tensor", "tensor line lacks a name"),
        ("tensor V ", lambda ln: "tensor V 3 x", "non-numeric tensor V shape"),
        ("tensor V ", lambda ln: "tensor V -3 -4", "impossible shape"),
        ("tensor __embeddings__ ", lambda ln: ln.rsplit(" ", 1)[0], "impossible shape"),
        ("tensor b_y ", lambda ln: "tensor c_y 3", "checkpoint lacks tensor 'b_y'"),
        ("tensor V ", lambda ln: "tensor V 6 3", "tensor V has shape (6, 3), the model needs (3, 6)"),
        ("tensor filters_3 ", lambda ln: "tensor filters_3 3 6 3",
         "tensor filters_3 has shape (3, 6, 3), the model needs (3, 3, 6)"),
        ("tensor bias_2 ", lambda ln: "tensor bias_2 1 3", "tensor bias_2 has shape (1, 3)"),
        ("kind ", lambda ln: "kind gru", "unknown model kind 'gru'"),
    ])
    def test_malformed_line_raises_parse_error(self, tmp_path, toy, prefix, edit, message):
        tr, dev, ctx = toy
        cfg = quick_config(max_epochs=1, window_sizes=(2, 3), filters_per_window=3,
                           fine_tune_embeddings=True)
        path = tmp_path / "model.txt"
        save_checkpoint(train("cnn", tr, dev, ctx, cfg), path)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        changed = edit(lines[at])
        if changed is None:
            del lines[at]
        else:
            lines[at] = changed
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert message in str(err.value)
        assert err.value.line == (len(lines) if message.startswith("checkpoint lacks") else at + 1)

    def test_lstm_tensor_shapes_must_fit_each_other(self, tmp_path, toy):
        tr, dev, ctx = toy
        path = tmp_path / "model.txt"
        save_checkpoint(train("lstm", tr, dev, ctx, quick_config(hidden_dim=4, max_epochs=1)), path)
        lines = path.read_text().splitlines()
        at = lines.index("tensor W_f 4 6")
        lines[at] = "tensor W_f 6 4"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == at + 1
        assert "tensor W_f has shape (6, 4), the model needs (4, 6)" in str(err.value)

    def test_invalid_utf8_names_its_line(self, tmp_path, toy):
        tr, dev, ctx = toy
        path = tmp_path / "model.txt"
        save_checkpoint(train("cnn", tr, dev, ctx, quick_config(max_epochs=1)), path)
        data = path.read_bytes().split(b"\n")
        data[4] = b"activation t\xe9nh"
        path.write_bytes(b"\n".join(data))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert err.value.line == 5
        assert "invalid UTF-8 byte 0xe9" in str(err.value)

    def test_training_log_csv(self, tmp_path, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=3))
        path = tmp_path / "log.csv"
        save_training_log(trained, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "dev_accuracy"]
        assert len(rows) == 1 + len(trained.history)
        for row, (epoch, loss, acc) in zip(rows[1:], trained.history):
            assert int(row[0]) == epoch
            assert float(row[1]) == loss
            assert float(row[2]) == acc


class TestLengthOrder:
    """Batches are cut in length order; every output still belongs to its input."""

    WORDS = [f"w{i}" for i in range(40)]

    @pytest.fixture(scope="class")
    def mixed(self):
        ctx = EmbeddingContext(tables={"en": seeded_table("en", self.WORDS, 6)},
                               max_len=len(self.WORDS))
        rng = SplitMix64(derive_stream(5, "mixed-lengths"))
        tweets = []
        for i in range(300):
            n = 1 + rng.next_below(len(self.WORDS))
            toks = [self.WORDS[rng.next_below(len(self.WORDS))] for _ in range(n)]
            tweets.append(TokenizedTweet(id=f"t{i}", lang="en", label=Polarity(i % 3),
                                         tokens=toks))
        return ctx, tweets

    @pytest.fixture(scope="class", params=["cnn", "lstm"])
    def trained(self, request, mixed):
        ctx, tweets = mixed
        cfg = quick_config(window_sizes=(2, 3), filters_per_window=3, hidden_dim=4,
                           max_epochs=1)
        return train(request.param, tweets[:60], tweets[60:90], ctx, cfg)

    def test_rows_follow_input_order(self, mixed, trained):
        ctx, tweets = mixed
        descending = sorted(tweets, key=lambda tw: -tw.length)
        assert descending[0].length > descending[-1].length
        out = predict_batch(trained, descending, ctx)
        assert len(out) == len(descending)
        for tw, (label, probs) in zip(descending, out):
            [(alone_label, alone_probs)] = predict_batch(trained, [tw], ctx)
            assert label == alone_label, tw.id
            np.testing.assert_allclose(probs, alone_probs, rtol=0.0, atol=1e-12)

    def test_accuracy_matches_unsorted_loop(self, mixed, trained):
        ctx, tweets = mixed
        ids, keys = number_tokens(tweets, {})
        table = ctx.vectors(keys)
        y = [int(tw.label) for tw in tweets]
        correct = 0
        for start in range(0, len(ids), 7):
            probs = predict_proba_batch(trained.model, [table[r] for r in ids[start:start + 7]])
            correct += sum(argmax_label(row) == label
                           for row, label in zip(probs, y[start:start + 7]))
        assert 0 < correct < len(ids)
        assert _accuracy(trained.model, table, ids, y, 7, Workspace()) == correct / len(ids)


class TestPredictGuards:
    def test_context_fingerprint_mismatch(self, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=2))
        other = toy_context(tr + dev, dim=6, seed=1)
        other = EmbeddingContext(tables=other.tables, translations={},
                                 max_len=ctx.max_len)
        with pytest.raises(ConfigurationError) as err:
            predict_batch(trained, dev, other)
        assert "differs" in str(err.value)

    def test_same_context_accepted(self, toy):
        tr, dev, ctx = toy
        trained = train("cnn", tr, dev, ctx, quick_config(max_epochs=2))
        out = predict_batch(trained, dev[:2], ctx)
        assert len(out) == 2
