"""From-scratch sequence-to-one network: two stacked LSTM layers, a ReLU
dense layer, and a one-unit head (affine for rate regression, sigmoid for
apnea probability).

Gate tensors are packed in the fixed order (input, forget, candidate,
output) along the 4H axis; the serialized container relies on this order.
Training math is float64 throughout. Dropout is inverted (masks scaled by
1/(1-p)), applied to the first LSTM's output sequence and to the second
LSTM's final hidden state, and disabled at inference.

The sigmoid is computed as 0.5 * (1 + tanh(z / 2)), so each timestep applies
one ufunc chain to the whole packed gate row (no per-sign masks) and no z
overflows, since tanh saturates where exp would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import CacheMismatch, ShapeMismatch

HEADS = ("regression", "binary")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    lstm1_units: int = 64
    lstm2_units: int = 32
    dense_units: int = 16
    head: str = "regression"
    dropout_rate: float = 0.2

    def __post_init__(self):
        if min(self.input_dim, self.lstm1_units, self.lstm2_units,
               self.dense_units) < 1:
            raise ValueError("input_dim and the unit counts must be >= 1")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


# serialization and optimizer-state order for the parameter tensors
TENSOR_NAMES = ("w1", "u1", "b1", "w2", "u2", "b2",
                "dense_w", "dense_b", "head_w", "head_b")


@dataclass
class ModelParams:
    """All trainable weights. Kernel shapes: W (4H, D), U (4H, H), b (4H,)."""

    config: ModelConfig
    w1: np.ndarray
    u1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    u2: np.ndarray
    b2: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray

    def tensors(self) -> List[np.ndarray]:
        return [getattr(self, name) for name in TENSOR_NAMES]

    @classmethod
    def from_tensors(cls, config: ModelConfig, tensors) -> "ModelParams":
        return cls(config, *[np.asarray(t, dtype=np.float64) for t in tensors])

    def copy(self) -> "ModelParams":
        return ModelParams.from_tensors(self.config, [t.copy() for t in self.tensors()])

    def zeros_like(self) -> "ModelParams":
        return ModelParams.from_tensors(self.config,
                                        [np.zeros_like(t) for t in self.tensors()])


def expected_shapes(config: ModelConfig) -> List[Tuple[int, ...]]:
    d, h1, h2, nd = (config.input_dim, config.lstm1_units,
                     config.lstm2_units, config.dense_units)
    return [(4 * h1, d), (4 * h1, h1), (4 * h1,),
            (4 * h2, h1), (4 * h2, h2), (4 * h2,),
            (nd, h2), (nd,), (1, nd), (1,)]


def count_parameters(config: ModelConfig) -> int:
    """Analytic trainable-parameter count of the stack."""
    return sum(int(np.prod(s)) for s in expected_shapes(config))


def _glorot_uniform(rng, shape):
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng, shape):
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform input kernels, orthogonal recurrent kernels, zero biases
    except the forget-gate slice which starts at 1. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    h1, h2 = config.lstm1_units, config.lstm2_units

    def lstm_layer(in_dim, units):
        w = _glorot_uniform(rng, (4 * units, in_dim))
        u = _orthogonal(rng, (4 * units, units))
        b = np.zeros(4 * units)
        b[units:2 * units] = 1.0  # forget gate
        return w, u, b

    w1, u1, b1 = lstm_layer(config.input_dim, h1)
    w2, u2, b2 = lstm_layer(h1, h2)
    dense_w = _glorot_uniform(rng, (config.dense_units, h2))
    dense_b = np.zeros(config.dense_units)
    head_w = _glorot_uniform(rng, (1, config.dense_units))
    head_b = np.zeros(1)
    return ModelParams(config, w1, u1, b1, w2, u2, b2,
                       dense_w, dense_b, head_w, head_b)


def _sigmoid(z, out=None):
    """Logistic function as 0.5 * (1 + tanh(z / 2)), in place when ``out`` is
    ``z``."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@dataclass
class _LayerCache:
    x: np.ndarray        # (B, T, D) layer input sequence
    gates: np.ndarray    # (B, T, 4H) post-activation, order i|f|g|o
    c: np.ndarray        # (B, T, H)
    h: np.ndarray        # (B, T, H)


@dataclass
class ForwardCache:
    """Everything backward() needs; produced by the matching forward call."""

    config: ModelConfig
    layer1: _LayerCache
    layer2: _LayerCache
    mask1: Optional[np.ndarray]   # (B, T, H1) inverted-dropout mask or None
    mask2: Optional[np.ndarray]   # (B, H2)
    dense_pre: np.ndarray         # (B, dense_units)
    dense_act: np.ndarray
    head_pre: np.ndarray          # (B,)
    prediction: np.ndarray        # (B,)


def _lstm_forward(w, u, b, x) -> _LayerCache:
    batch, t_len, _ = x.shape
    units = u.shape[1]
    # input projection plus bias for all timesteps, written into the gates
    gates = np.matmul(x.reshape(batch * t_len, -1), w.T,
                      out=np.empty((batch * t_len, 4 * units)))
    gates += b
    gates = gates.reshape(batch, t_len, 4 * units)
    c_seq = np.empty((batch, t_len, units))
    h_seq = np.empty((batch, t_len, units))
    u_t = u.T
    rec = np.empty((batch, 4 * units))
    h = c = np.zeros((batch, units))
    for t in range(t_len):
        z = gates[:, t, :]
        np.matmul(h, u_t, out=rec)
        z += rec
        g_pre = z[:, 2 * units:3 * units]
        np.tanh(g_pre, out=rec[:, :units])
        _sigmoid(z, out=z)
        g_pre[...] = rec[:, :units]
        i, f, g, o = (z[:, :units], z[:, units:2 * units], g_pre,
                      z[:, 3 * units:])
        c_new, h_new = c_seq[:, t, :], h_seq[:, t, :]
        np.multiply(f, c, out=c_new)
        c_new += i * g
        np.tanh(c_new, out=h_new)
        h_new *= o
        h, c = h_new, c_new
    return _LayerCache(x, gates, c_seq, h_seq)


def _lstm_backward(w, u, cache: _LayerCache, dh_seq):
    """Exact BPTT over the full sequence. Returns (dW, dU, db, dx_seq)."""
    x, gates, c_seq, h_seq = cache.x, cache.gates, cache.c, cache.h
    batch, t_len, units = h_seq.shape
    dz_seq = np.empty((batch, t_len, 4 * units))
    dh_carry = np.zeros((batch, units))
    dc_next = np.zeros((batch, units))
    c0 = np.zeros((batch, units))
    for t in range(t_len - 1, -1, -1):
        s = gates[:, t, :]
        i = s[:, :units]
        f = s[:, units:2 * units]
        g = s[:, 2 * units:3 * units]
        o = s[:, 3 * units:]
        c_prev = c_seq[:, t - 1, :] if t > 0 else c0
        tc = np.tanh(c_seq[:, t, :])
        dh = dh_seq[:, t, :] + dh_carry
        dc = dh * o * (1.0 - tc * tc) + dc_next
        # sigmoid derivative s * (1 - s) for the packed row, then each slice
        # times its upstream factor; the candidate slice is tanh, not sigmoid
        dz = dz_seq[:, t, :]
        np.multiply(s, 1.0 - s, out=dz)
        dz[:, :units] *= dc * g
        dz[:, units:2 * units] *= dc * c_prev
        np.multiply(dc * i, 1.0 - g * g, out=dz[:, 2 * units:3 * units])
        dz[:, 3 * units:] *= dh * tc
        dh_carry = dz @ u
        dc_next = dc * f
    flat_dz = dz_seq.reshape(batch * t_len, 4 * units)
    dw = flat_dz.T @ x.reshape(batch * t_len, -1)
    h_prev = np.concatenate(
        [np.zeros((batch, 1, units)), h_seq[:, :-1, :]], axis=1)
    du = flat_dz.T @ h_prev.reshape(batch * t_len, units)
    db = flat_dz.sum(axis=0)
    dx = (flat_dz @ w).reshape(x.shape)
    return dw, du, db, dx


def forward_batch(params: ModelParams, x: np.ndarray, training: bool = False,
                  rng_seed: Optional[int] = None) -> Tuple[np.ndarray, ForwardCache]:
    """Forward pass over a (B, T, S) batch; returns per-window predictions."""
    cfg = params.config
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != cfg.input_dim:
        raise ShapeMismatch(
            f"expected (B, T, {cfg.input_dim}) input, got {x.shape}")
    batch, t_len, _ = x.shape
    p = cfg.dropout_rate
    use_dropout = training and p > 0.0
    rng = np.random.default_rng(rng_seed) if use_dropout else None

    l1 = _lstm_forward(params.w1, params.u1, params.b1, x)
    if use_dropout:
        mask1 = (rng.random(l1.h.shape) >= p) / (1.0 - p)
        h1_out = l1.h * mask1
    else:
        mask1 = None
        h1_out = l1.h

    l2 = _lstm_forward(params.w2, params.u2, params.b2, h1_out)
    h2_last = l2.h[:, -1, :]
    if use_dropout:
        mask2 = (rng.random(h2_last.shape) >= p) / (1.0 - p)
        h2_last = h2_last * mask2
    else:
        mask2 = None

    dense_pre = h2_last @ params.dense_w.T + params.dense_b
    dense_act = np.maximum(dense_pre, 0.0)
    head_pre = (dense_act @ params.head_w.T + params.head_b)[:, 0]
    prediction = _sigmoid(head_pre) if cfg.head == "binary" else head_pre

    cache = ForwardCache(cfg, l1, l2, mask1, mask2, dense_pre, dense_act,
                         head_pre, prediction)
    return prediction, cache


def forward(params: ModelParams, segment: np.ndarray, training: bool = False,
            rng_seed: Optional[int] = None) -> Tuple[float, ForwardCache]:
    """Single-window forward pass; ``segment`` is a (W, S) matrix."""
    segment = np.asarray(segment, dtype=np.float64)
    if segment.ndim != 2:
        raise ShapeMismatch(f"expected a (W, S) matrix, got shape {segment.shape}")
    preds, cache = forward_batch(params, segment[None, :, :], training, rng_seed)
    return float(preds[0]), cache


def backward_batch(params: ModelParams, cache: ForwardCache,
                   dpred: np.ndarray) -> ModelParams:
    """Gradients of sum_b dpred[b] * prediction[b] w.r.t. every parameter."""
    cfg = params.config
    if cache.config != cfg:
        raise CacheMismatch("cache was produced for a different model config")
    dpred = np.asarray(dpred, dtype=np.float64)
    if dpred.shape != cache.prediction.shape:
        raise CacheMismatch(
            f"upstream gradient shape {dpred.shape} != {cache.prediction.shape}")

    if cfg.head == "binary":
        prob = cache.prediction
        dhead_pre = dpred * prob * (1.0 - prob)
    else:
        dhead_pre = dpred

    dense_act = cache.dense_act
    dhead_w = dhead_pre[None, :] @ dense_act
    dhead_b = np.array([dhead_pre.sum()])
    ddense_act = dhead_pre[:, None] @ params.head_w
    ddense_pre = ddense_act * (cache.dense_pre > 0.0)
    h2_last_dropped = (cache.layer2.h[:, -1, :] if cache.mask2 is None
                       else cache.layer2.h[:, -1, :] * cache.mask2)
    ddense_w = ddense_pre.T @ h2_last_dropped
    ddense_b = ddense_pre.sum(axis=0)
    dh2_last = ddense_pre @ params.dense_w
    if cache.mask2 is not None:
        dh2_last = dh2_last * cache.mask2

    batch, t_len, h2_units = cache.layer2.h.shape
    dh2_seq = np.zeros((batch, t_len, h2_units))
    dh2_seq[:, -1, :] = dh2_last
    dw2, du2, db2, dx2 = _lstm_backward(params.w2, params.u2, cache.layer2, dh2_seq)

    dh1_seq = dx2 if cache.mask1 is None else dx2 * cache.mask1
    dw1, du1, db1, _ = _lstm_backward(params.w1, params.u1, cache.layer1, dh1_seq)

    return ModelParams.from_tensors(cfg, [dw1, du1, db1, dw2, du2, db2,
                                          ddense_w, ddense_b, dhead_w, dhead_b])


def backward(params: ModelParams, cache: ForwardCache, dpred: float) -> ModelParams:
    """Single-window BPTT matching a forward() call."""
    return backward_batch(params, cache, np.array([float(dpred)]))
