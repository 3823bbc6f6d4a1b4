from .adam import AdamState, adam_step, adam_update
from .losses import bce_loss, mse_loss
from .model import (
    InferencePlan,
    ModelConfig,
    ModelParams,
    backward_batch,
    count_parameters,
    forward,
    forward_batch,
    init_params,
)
from .serialize import load_model, save_model

__all__ = [
    "AdamState", "InferencePlan", "ModelConfig", "ModelParams", "adam_step",
    "adam_update", "backward_batch", "bce_loss", "count_parameters", "forward",
    "forward_batch", "init_params", "load_model", "mse_loss", "save_model",
]
