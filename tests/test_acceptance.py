"""Acceptance gate: ten end-to-end guarantees, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch every verdict
line print as it completes. Each criterion states its tolerance and
wall-clock budget inline; a FAIL line is followed by the assertion that
raised it.
"""

import math
import time

import numpy as np

import multisent.experiment as experiment
from multisent.align import alignment_report, fit_translation_matrix, resolve_pairs
from multisent.baselines import (
    nb_posterior,
    train_binary_svm,
    train_nb,
)
from multisent.corpus import Polarity, make_folds
from multisent.errors import LeakageError
from multisent.experiment import ExperimentConfig, run_experiment
from multisent.nn import (
    AdadeltaState,
    CnnParams,
    LstmParams,
    NeuralModel,
    TrainConfig,
    adadelta_step,
    cnn_forward_batch,
    init_cnn_params,
    init_lstm_params,
    loss_and_gradients,
    lstm_forward_batch,
    predict_batch,
    softmax,
    train,
)
from multisent.pipeline import EmbeddingContext, corpus_max_len
from multisent.preprocess import default_rules, preprocess_corpus
from multisent.rng import SplitMix64, derive_stream
from multisent.synth import SynthSpec, generate_fixture

from conftest import (
    finite_difference,
    marker_tweets,
    rel_err,
    svm_primal_objective,
    toy_context,
)


def conclude(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {title} ({detail})"
    print(line, flush=True)
    assert ok, line


def random_rotation(dim: int, seed: int) -> np.ndarray:
    rng = SplitMix64(derive_stream(seed, "acc", "rot"))
    G = rng.float_array(dim * dim).reshape(dim, dim) - 0.5
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def test_criterion_01_exact_rotation_recovery():
    t0 = time.perf_counter()
    dim, n = 10, 200
    R = random_rotation(dim, 1)
    rng = SplitMix64(derive_stream(1, "acc", "pairs"))
    X = rng.uniform_array(n * dim, -1.0, 1.0).reshape(n, dim)
    Z = X @ R
    tm = fit_translation_matrix(X, Z, src_lang="a", tgt_lang="b")
    err = float(np.max(np.abs(tm.W - R)))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-8 and tm.fit_residual <= 1e-12 and elapsed < 1.0
    conclude(1, "exact rotation recovered from 200 pairs at dim 10", ok,
             f"max |W - R| = {err:.2e}, residual = {tm.fit_residual:.2e}, "
             f"{elapsed:.2f}s")


def test_criterion_02_noisy_map_helps_held_out_pairs():
    t0 = time.perf_counter()
    dim, n, sigma = 10, 200, 0.05
    worst_eu = worst_cos = -float("inf")
    ok = True
    for seed in range(10):
        R = random_rotation(dim, 100 + seed)
        rng = SplitMix64(derive_stream(seed, "acc", "noisy"))
        X = rng.uniform_array(n * dim, -1.0, 1.0).reshape(n, dim)
        noise = sigma * (rng.float_array(n * dim).reshape(n, dim) * 2.0 - 1.0)
        Z = X @ R + noise
        order = list(range(n))
        SplitMix64(derive_stream(seed, "acc", "split")).shuffle(order)
        held = order[: n // 5]
        fit = order[n // 5:]
        tm = fit_translation_matrix(X[fit], Z[fit], src_lang="a", tgt_lang="b")
        rep = alignment_report(X[held], Z[held], tm)
        eu_gain = rep.euclidean_sum_before - rep.euclidean_sum_after
        cos_gain = rep.cosine_sum_before - rep.cosine_sum_after
        ok = ok and eu_gain > 0 and cos_gain > 0
        worst_eu = max(worst_eu, rep.euclidean_sum_after / rep.euclidean_sum_before)
        worst_cos = max(worst_cos, rep.cosine_sum_after / rep.cosine_sum_before)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    conclude(2, "noisy-pair map still improves held-out distances, 10 seeds", ok,
             f"worst after/before: euclidean {worst_eu:.3f}, cosine {worst_cos:.3f}, "
             f"{elapsed:.2f}s")


def _grad_batch(seed: int, lens: list[int], dim: int):
    out = []
    for j, n in enumerate(lens):
        rng = SplitMix64(derive_stream(seed, "acc-grad", j))
        out.append((rng.uniform_array(n * dim, -1.0, 1.0).reshape(n, dim), j % 3))
    return out


def test_criterion_03_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        batch = _grad_batch(seed, [6, 3, 5], 4)
        for mode in ("tanh", "sigmoid"):
            params = init_lstm_params(input_dim=4, hidden_dim=4, seed=seed)
            model = NeuralModel(kind="lstm", params=params, max_len=6,
                                candidate_activation=mode, dropout_rate=0.0)
            _, grads, _ = loss_and_gradients(model, batch)
            numeric = finite_difference(
                lambda: loss_and_gradients(model, batch)[0], model.params.tensors())
            worst = max(worst, max(rel_err(g, numeric[k]) for k, g in grads.items()))
        # CNN pass exercises max-pool routing and the dropout mask treated
        # as a constant of the fixed seed.
        params = init_cnn_params(input_dim=4, seed=seed, window_sizes=(2, 3),
                                 filters_per_window=2)
        model = NeuralModel(kind="cnn", params=params, max_len=6, dropout_rate=0.5)
        dseed = seed + 100
        _, grads, _ = loss_and_gradients(model, batch, dropout_seed=dseed)
        numeric = finite_difference(
            lambda: loss_and_gradients(model, batch, dropout_seed=dseed)[0],
            model.params.tensors())
        worst = max(worst, max(rel_err(g, numeric[k]) for k, g in grads.items()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    conclude(3, "analytic gradients within 1e-4 of finite differences, 10 seeds",
             ok, f"worst rel err = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_forward_hand_oracles():
    tol = 1e-12
    one = np.ones((1, 1))
    zero = np.zeros(1)
    params = LstmParams(
        W_i=one.copy(), U_i=one.copy(), b_i=zero.copy(),
        W_f=one.copy(), U_f=one.copy(), b_f=zero.copy(),
        W_o=one.copy(), U_o=one.copy(), b_o=zero.copy(),
        W_c=one.copy(), U_c=one.copy(), b_c=zero.copy(),
        V=np.ones((3, 1)), b_y=np.zeros(3),
    )
    sig1 = 1.0 / (1.0 + math.exp(-1.0))
    errs = []
    _, cache = lstm_forward_batch(np.ones((1, 1, 1)), np.array([1]), params, "tanh")
    c, h = cache.c[0], cache.h_last[0]
    c_exp = sig1 * math.tanh(1.0)
    errs.append(abs(c[0] - c_exp))
    errs.append(abs(h[0] - sig1 * math.tanh(c_exp)))
    _, cache = lstm_forward_batch(np.ones((1, 1, 1)), np.array([1]), params, "sigmoid")
    c, h = cache.c[0], cache.h_last[0]
    c_exp = sig1 * sig1
    errs.append(abs(c[0] - c_exp))
    errs.append(abs(h[0] - sig1 * math.tanh(c_exp)))

    cnn = CnnParams(
        window_sizes=(2,),
        filters={2: np.array([[[0.2, -0.3], [0.4, 0.1]]])},
        biases={2: np.array([0.05])},
        V=np.array([[1.0], [0.0], [0.0]]),
        b_y=np.zeros(3),
    )
    X = np.array([[1.0, -1.0], [0.5, 2.0], [-1.5, 0.25]])
    logits, _ = cnn_forward_batch(X[None, :, :], cnn, "tanh")
    logits = logits[0]
    # windows score 0.95 and -1.025; max pooling keeps tanh(0.95)
    errs.append(abs(logits[0] - math.tanh(0.95)))
    errs.append(abs(logits[1]) + abs(logits[2]))
    worst = max(errs)
    conclude(4, "scalar recurrence and 3x2 convolution match hand arithmetic",
             worst <= tol, f"worst abs err = {worst:.2e}, tol 1e-12")


def test_criterion_05_optimizer_oracle():
    tol = 1e-12
    tensors = {"w": np.array([1.0])}
    state = AdadeltaState.for_tensors(tensors)
    adadelta_step(tensors, {"w": np.array([1.0])}, state)
    d1 = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
    err1 = abs(tensors["w"][0] - (1.0 + d1))
    Eg = 0.95 * 0.05 + 0.05 * 0.25
    d2 = -math.sqrt(0.05 * d1 * d1 + 1e-6) / math.sqrt(Eg + 1e-6) * (-0.5)
    adadelta_step(tensors, {"w": np.array([-0.5])}, state)
    err2 = abs(tensors["w"][0] - (1.0 + d1 + d2))
    frozen = {"w": np.array([2.5])}
    fstate = AdadeltaState.for_tensors(frozen)
    for _ in range(3):
        adadelta_step(frozen, {"w": np.zeros(1)}, fstate)
    fixed = frozen["w"][0] == 2.5
    worst = max(err1, err2)
    conclude(5, "two optimizer steps match the recurrence; zero grad is a fixed point",
             worst <= tol and fixed, f"worst abs err = {worst:.2e}, fixed point {fixed}")


def test_criterion_06_models_memorize_marker_corpus():
    tweets = marker_tweets(30)
    ctx = toy_context(tweets, dim=6)
    details = []
    ok = True
    for kind, bar, extra in (
        ("cnn", 0.99, dict(window_sizes=(2, 3), filters_per_window=4)),
        ("lstm", 0.95, dict(hidden_dim=6)),
    ):
        t0 = time.perf_counter()
        cfg = TrainConfig(batch_size=8, dropout_rate=0.0, max_epochs=200,
                          patience=200, seed=0, **extra)
        trained = train(kind, tweets, tweets, ctx, cfg)
        preds = predict_batch(trained, tweets, ctx)
        acc = sum(int(p) == int(tw.label) for tw, (p, _) in zip(tweets, preds)) / 30
        elapsed = time.perf_counter() - t0
        ok = ok and acc >= bar and len(trained.history) <= 200 and elapsed < 60.0
        details.append(f"{kind} {acc:.3f} (bar {bar}, {elapsed:.1f}s)")
    conclude(6, "both architectures fit the 30-example marker corpus", ok,
             "; ".join(details))


def test_criterion_07_alignment_beats_raw_embeddings():
    t0 = time.perf_counter()
    fixture = generate_fixture(SynthSpec(seed=0))
    rules = default_rules()
    tweets, _ = preprocess_corpus(fixture.records, rules, "whitespace")
    translations = {}
    for lang, mapping in fixture.dictionaries.items():
        X, Z = resolve_pairs(sorted(mapping.items()), fixture.tables[lang],
                             fixture.tables[fixture.spec.target])
        translations[lang] = fit_translation_matrix(
            X, Z, src_lang=lang, tgt_lang=fixture.spec.target)
    common = dict(tables=fixture.tables, max_len=corpus_max_len(tweets),
                  rules_version=rules.fingerprint())
    contexts = {
        "raw": EmbeddingContext(translations={}, **common),
        "aligned": EmbeddingContext(translations=translations, **common),
    }
    overrides = dict(max_epochs=120, patience=120, batch_size=16,
                     filters_per_window=8, dropout_rate=0.2)
    gaps = []
    for seed in range(5):
        accs = {}
        for arm, ctx in contexts.items():
            cfg = ExperimentConfig(
                name=arm, corpus="", languages=fixture.spec.languages,
                kind="cnn", folds=5, seed=seed, window_sizes=(2, 3),
                train_overrides=overrides,
            )
            accs[arm] = run_experiment(cfg, records=fixture.records,
                                       context=ctx).mean_accuracy
        gaps.append(accs["aligned"] - accs["raw"])
    elapsed = time.perf_counter() - t0
    ok = min(gaps) >= 0.05 and elapsed < 300.0
    conclude(7, "aligned embeddings beat raw by >= 0.05 on every seed", ok,
             f"gaps {', '.join(f'{g:+.3f}' for g in gaps)}, {elapsed:.1f}s")


def _brute_force_primal(vectors, ys, dim, C):
    center = np.zeros(dim + 1)
    best_w = center.copy()
    best_f = svm_primal_objective(vectors, ys, best_w, C)
    width = 3.0
    for _ in range(6):
        axes = [np.linspace(c - width, c + width, 13) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        for w in np.stack([m.ravel() for m in mesh], axis=1):
            f = svm_primal_objective(vectors, ys, w, C)
            if f < best_f:
                best_f, best_w = f, w.copy()
        center = best_w
        width = width / 6.0 * 1.5
    return best_w, best_f


def test_criterion_08_baseline_oracles():
    vectors = [np.array([0]), np.array([0, 1]), np.array([1]), np.array([1])]
    nb = train_nb(vectors, [0, 0, 2, 2], alpha=1.0, dimension=2)
    post = nb_posterior(nb, np.array([0]))
    nb_err = abs(post[0] - 12.0 / 17.0)

    svecs = [np.array([0]), np.array([0, 1]), np.array([0]),
             np.array([1]), np.array([], dtype=np.int64), np.array([1])]
    ys = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    m = train_binary_svm(svecs, ys, dimension=2, pos_code=0, neg_code=2,
                         C=1.0, tol=1e-10)
    oracle_w, oracle_f = _brute_force_primal(svecs, ys, 2, 1.0)
    svm_err = float(np.max(np.abs(m.w - oracle_w)))
    hist = m.dual_objective_history
    monotone = all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
    ok = nb_err <= 1e-12 and svm_err <= 1e-3 and monotone
    conclude(8, "closed-form posterior and primal-optimal margin recovered", ok,
             f"posterior err {nb_err:.2e}, |w - w*| {svm_err:.2e}, "
             f"dual monotone {monotone}")


def test_criterion_09_evaluation_hygiene(monkeypatch):
    from multisent.corpus import TweetRecord

    records = [
        TweetRecord(id=tw.id, lang=tw.lang, text=" ".join(tw.tokens), label=tw.label)
        for tw in marker_tweets(30)
    ]

    fold_ok = True
    for n, k in ((30, 5), (31, 4), (45, 9)):
        tweets = marker_tweets(n)
        plan = make_folds(tweets, k, seed=3)
        sizes = [len(plan.fold_ids(f)) for f in range(k)]
        fold_ok = fold_ok and max(sizes) - min(sizes) <= 1
        seen = [rid for f in range(k) for rid in plan.fold_ids(f)]
        fold_ok = fold_ok and sorted(seen) == sorted(tw.id for tw in tweets)
        for f in range(k):
            labels = [int(tw.label) for tw in tweets if plan.assignments[tw.id] == f]
            counts = [labels.count(c) for c in (0, 1, 2)]
            fold_ok = fold_ok and max(counts) - min(counts) <= 1

    cfg = dict(name="hyg", corpus="", languages=("en",), folds=3, seed=0)
    nb_a = run_experiment(ExperimentConfig(kind="nb", **cfg), records=records)
    nb_b = run_experiment(ExperimentConfig(kind="nb", **cfg), records=records)
    tweets30 = marker_tweets(30)
    ctx = toy_context(tweets30, dim=6)
    over = dict(batch_size=8, max_epochs=6, patience=6, filters_per_window=4,
                dropout_rate=0.2)
    cnn_cfg = ExperimentConfig(kind="cnn", window_sizes=(2, 3),
                               train_overrides=over, **cfg)
    cnn_a = run_experiment(cnn_cfg, records=records, context=ctx)
    cnn_b = run_experiment(cnn_cfg, records=records, context=ctx)
    identical = (nb_a.canonical_json() == nb_b.canonical_json()
                 and cnn_a.canonical_json() == cnn_b.canonical_json())

    def dishonest(config, fold, train_ids, test_ids, by_id, context,
                  dictionaries, ngrams, audit, *_):
        audit.touch(test_ids)
        return {rid: Polarity.NEUTRAL for rid in test_ids}

    monkeypatch.setattr(experiment, "_run_fold", dishonest)
    caught = False
    try:
        run_experiment(ExperimentConfig(kind="nb", **cfg), records=records)
    except LeakageError:
        caught = True
    monkeypatch.undo()

    ok = fold_ok and identical and caught
    conclude(9, "folds partition cleanly, reruns are byte-identical, leaks are fatal",
             ok, f"folds {fold_ok}, byte-identical {identical}, leak caught {caught}")


def test_criterion_10_probability_invariants():
    rng = SplitMix64(derive_stream(0, "acc", "softmax"))
    worst_sum = 0.0
    for _ in range(1000):
        scale = 1.0 + rng.next_float() * 99.0
        logits = (rng.float_array(3) * 2.0 - 1.0) * scale
        p = softmax(logits[None, :])[0]
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))

    worst_h = 0.0
    cases = 0
    for pseed in range(10):
        params = init_lstm_params(input_dim=5, hidden_dim=7, seed=pseed)
        for j in range(100):
            srng = SplitMix64(derive_stream(pseed, "acc", "hbound", j))
            n = 1 + srng.next_below(8)
            scale = 1.0 + srng.next_float() * 7.0
            X = (srng.uniform_array(n * 5, -1.0, 1.0).reshape(n, 5)) * scale
            _, cache = lstm_forward_batch(X[None, :, :], np.array([n]), params)
            # every intermediate state appears as the next cell's h_prev
            states = [cache.h_prev, cache.h_last]
            worst_h = max(worst_h, float(max(np.max(np.abs(h)) for h in states)))
            cases += 1
    ok = worst_sum <= 1e-9 and worst_h < 1.0 and cases == 1000
    conclude(10, "probabilities sum to one and hidden states stay inside (-1, 1)",
             ok, f"worst |sum - 1| = {worst_sum:.2e}, max |h| = {worst_h:.4f}")
