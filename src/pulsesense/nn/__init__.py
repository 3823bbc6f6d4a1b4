from .adam import AdamState, adam_step, adam_update
from .losses import bce_loss, mse_loss
from .model import (
    InferencePlan,
    ModelConfig,
    ModelParams,
    backward,
    backward_batch,
    count_parameters,
    forward,
    forward_batch,
    init_params,
    predict_batch,
)
from .serialize import load_model, save_model

__all__ = [
    "AdamState", "InferencePlan", "ModelConfig", "ModelParams", "adam_step",
    "adam_update", "backward", "backward_batch", "bce_loss", "count_parameters", "forward",
    "forward_batch", "init_params", "load_model", "mse_loss",
    "predict_batch", "save_model",
]
