"""ADAM optimizer with bias correction, applied element-wise per tensor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .model import ModelParams

# the moment decay rates and the denominator's offset of the fixed recipe
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    step: int
    m: List[np.ndarray]
    v: List[np.ndarray]
    learning_rate: float

    @classmethod
    def init(cls, params: Union[ModelParams, Sequence[np.ndarray]],
             learning_rate: float = 1e-3) -> "AdamState":
        tensors = params.tensors() if isinstance(params, ModelParams) else params
        return cls(0,
                   [np.zeros_like(np.asarray(t, dtype=np.float64)) for t in tensors],
                   [np.zeros_like(np.asarray(t, dtype=np.float64)) for t in tensors],
                   learning_rate)

    def with_learning_rate(self, learning_rate: float) -> "AdamState":
        return AdamState(self.step, self.m, self.v, learning_rate)


def adam_update(state: AdamState, tensors: Sequence[np.ndarray],
                grads: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], AdamState]:
    """One update over parallel tensor lists: moment tracking, bias
    correction, then the scaled step."""
    t = state.step + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    new_m, new_v, new_t = [], [], []
    for p, g, m, v in zip(tensors, grads, state.m, state.v):
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        new_t.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS))
        new_m.append(m)
        new_v.append(v)
    return new_t, AdamState(t, new_m, new_v, state.learning_rate)


def adam_step(state: AdamState, params: ModelParams,
              grads: ModelParams) -> Tuple[ModelParams, AdamState]:
    new_tensors, new_state = adam_update(state, params.tensors(), grads.tensors())
    return ModelParams.from_tensors(params.config, new_tensors), new_state
