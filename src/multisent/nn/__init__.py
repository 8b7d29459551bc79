"""Neural classifiers with manual gradients: recurrent and convolutional."""

from .adadelta import DEFAULT_EPS, DEFAULT_RHO, AdadeltaState, adadelta_step
from .cnn import cnn_forward_batch
from .lstm import lstm_forward_batch
from .model import (
    NeuralModel,
    argmax_label,
    cross_entropy,
    loss_and_gradients,
    predict_proba_batch,
    softmax,
)
from .params import (
    CnnParams,
    LstmParams,
    init_cnn_params,
    init_lstm_params,
)
from .train import (
    TrainConfig,
    TrainedModel,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    save_training_log,
    train,
)

__all__ = [
    "AdadeltaState", "adadelta_step", "DEFAULT_RHO", "DEFAULT_EPS",
    "cnn_forward_batch", "lstm_forward_batch",
    "NeuralModel", "softmax", "cross_entropy", "loss_and_gradients",
    "predict_proba_batch", "argmax_label",
    "LstmParams", "CnnParams", "init_lstm_params", "init_cnn_params",
    "TrainConfig", "TrainedModel", "train", "predict_batch",
    "save_checkpoint", "load_checkpoint", "save_training_log",
]
