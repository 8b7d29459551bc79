"""In-memory spans around calls into each layer's public functions.

`install()` swaps each hooked function (or method) for a wrapper
everywhere the package binds it, so calls made inside the package are
seen too. A span records its name, start, end, the span that was open
when it began, and optional counts taken from the call's arguments and
result. `layer_metrics()` turns the spans of one operation into the
per-layer metrics; a layer's self time is its spans' time minus the time
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _svm_counts(args, kwargs, model):
    machines = list(model.machines.values())
    return {
        "sweeps": sum(m.sweeps for m in machines),
        "machines": len(machines),
        "converged": sum(1 for m in machines if m.converged),
    }


# (span name, module, attribute, counts taken from (args, kwargs, result))
HOOKS = (
    ("corpus.load", "multisent.corpus", "load_corpus", None),
    ("preprocess", "multisent.preprocess", "preprocess_corpus",
     lambda a, k, r: {"records": len(_arg(a, k, 0, "records")), "dropped": len(r[1])}),
    ("embeddings.load", "multisent.embeddings", "load_embedding_table",
     lambda a, k, r: {"rows": len(r.entries)}),
    ("embeddings.fingerprint", "multisent.embeddings", "EmbeddingTable.fingerprint", None),
    ("pipeline.embed", "multisent.pipeline", "EmbeddingContext.embed", None),
    ("pipeline.context_fingerprint", "multisent.pipeline", "EmbeddingContext.fingerprint", None),
    ("align.fit", "multisent.align", "fit_translation_matrix", None),
    ("cnn.forward", "multisent.nn.cnn", "cnn_forward_batch", None),
    ("cnn.backward", "multisent.nn.cnn", "cnn_backward_batch", None),
    ("lstm.forward", "multisent.nn.lstm", "lstm_forward_batch", None),
    ("lstm.backward", "multisent.nn.lstm", "lstm_backward_batch", None),
    ("model.loss_grad", "multisent.nn.model", "loss_and_gradients", None),
    ("adadelta.step", "multisent.nn.adadelta", "adadelta_step",
     lambda a, k, r: {"elements": sum(t.size for t in _arg(a, k, 0, "tensors").values())}),
    ("train", "multisent.nn.train", "train",
     lambda a, k, r: {"epochs": len(r.history),
                      "example_epochs": len(_arg(a, k, 1, "train_tweets")) * len(r.history)}),
    ("train.predict", "multisent.nn.train", "predict_batch", None),
    ("train.checkpoint_load", "multisent.nn.train", "load_checkpoint", None),
    ("baselines.features", "multisent.baselines", "build_feature_space", None),
    ("baselines.features", "multisent.baselines", "vectorize", None),
    ("baselines.nb_train", "multisent.baselines", "train_nb", None),
    ("baselines.svm_train", "multisent.baselines", "train_svm_ovo", _svm_counts),
    ("baselines.predict", "multisent.baselines", "predict_nb", None),
    ("baselines.predict", "multisent.baselines", "predict_svm", None),
    ("experiment", "multisent.experiment", "run_experiment",
     lambda a, k, r: {"folds": len(r.fold_accuracies)}),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, counts]
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hook wherever a `multisent` module binds it."""
        importlib.import_module("multisent.cli")  # loads every module
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "multisent" or n.startswith("multisent."))]
        for name, module, attr, counts in HOOKS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counts))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        for name, start, end, parent, extra in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - dur
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        t = lambda n: total.get(n, 0.0)
        c = lambda n: calls.get(n, 0)
        machines = counts.get("baselines.svm_train.machines", 0)
        return {
            "preprocess.busy_s": t("preprocess"),
            "preprocess.records": counts.get("preprocess.records", 0),
            "preprocess.dropped": counts.get("preprocess.dropped", 0),
            "embeddings.load_s": t("embeddings.load"),
            "embeddings.rows": counts.get("embeddings.load.rows", 0),
            "embeddings.fingerprint_s": t("embeddings.fingerprint"),
            "embeddings.fingerprint_calls": c("embeddings.fingerprint"),
            "pipeline.embed_s": t("pipeline.embed"),
            "pipeline.embed_calls": c("pipeline.embed"),
            "pipeline.context_fingerprint_s": t("pipeline.context_fingerprint"),
            "align.fit_s": t("align.fit"),
            "align.fits": c("align.fit"),
            "cnn.forward_s": t("cnn.forward"),
            "cnn.forward_calls": c("cnn.forward"),
            "cnn.backward_s": t("cnn.backward"),
            "cnn.backward_calls": c("cnn.backward"),
            "lstm.forward_s": t("lstm.forward"),
            "lstm.backward_s": t("lstm.backward"),
            "lstm.batches": c("lstm.forward"),
            "model.loss_grad_self_s": self_time.get("model.loss_grad", 0.0),
            "model.batches": c("model.loss_grad"),
            "adadelta.step_s": t("adadelta.step"),
            "adadelta.steps": c("adadelta.step"),
            "adadelta.elements": counts.get("adadelta.step.elements", 0),
            "train.self_s": self_time.get("train", 0.0),
            "train.epochs": counts.get("train.epochs", 0),
            "train.example_epochs": counts.get("train.example_epochs", 0),
            "train.predict_s": t("train.predict"),
            "train.checkpoint_load_s": t("train.checkpoint_load"),
            "baselines.features_s": t("baselines.features"),
            "baselines.nb_train_s": t("baselines.nb_train"),
            "baselines.svm_train_s": t("baselines.svm_train"),
            "baselines.svm_sweeps": counts.get("baselines.svm_train.sweeps", 0),
            "baselines.svm_converged_ratio":
                counts.get("baselines.svm_train.converged", 0) / machines if machines else 0.0,
            "baselines.predict_s": t("baselines.predict"),
            "experiment.self_s": self_time.get("experiment", 0.0),
            "experiment.folds": counts.get("experiment.folds", 0),
            "corpus.load_s": t("corpus.load"),
            "trace.spans": len(self.spans),
        }
