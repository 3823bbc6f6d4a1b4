"""From-scratch sequence-to-one network: two stacked LSTM layers, a ReLU
dense layer, and a one-unit head (affine for rate regression, sigmoid for
apnea probability).

Gate tensors are packed in the fixed order (input, forget, candidate,
output) along the 4H axis; the serialized container relies on this order.
Training math is float64 throughout. Dropout is inverted (kept values
scaled by 1/(1-p)), applied to the first LSTM's output sequence and to the
second LSTM's final hidden state, and disabled at inference. A mask is kept
as its boolean keep-array and applied as a multiply by it, then an in-place
multiply by 1/(1-p): a kept value times 1.0 is itself and a dropped one the
signed zero of v * 0.0, so these are the bits of v * (keep / (1-p)) with no
float mask built.

The sigmoid is 0.5 * (1 + tanh(z / 2)), so no z overflows: tanh saturates
where exp would not. The LSTM kernels fold the halving into the weights:
a layer's set-up halves the i, f and o rows of W, U and b, so one tanh
over the whole packed gate row yields tanh(g) and tanh(z / 2) together,
and a per-column scale and offset (0.5 and 0.5 on i, f, o; 1.0 and -0.0
on g) finish the sigmoids. Halving is exact, since 0.5 is a power of two
and every product and sum of halved terms is the half of the unhalved
one, unless a halved term is subnormal. Halving then adding 0.5 equals
adding 1 then halving, so the results are bit for bit those of the
textbook form.

The kernels compute in the serialized i|f|g|o column order and make the
BLAS calls of a plain batch-major implementation, on the same shapes and
row orders. OpenBLAS rounds the columns on a tile's ragged edge (when 4H
is not a multiple of 8) differently from the rest, and where those edges
fall depends on the call's shape and thread count; so reordering gate
columns, or splitting the input projection per window, changes last bits
for odd unit counts. The gates therefore stay batch-major, (B, T, 4H),
with the input projection one GEMM over all B*T rows. Each timestep reads
its strided gate row once into a contiguous work row and writes the
activated row back once. The cell and hidden states are time-major,
(T, B, H), so every other access of a step is contiguous; the cache's
``h`` is a (B, T, H) view of that storage.

A step is about ten small numpy calls, so at small B their dispatch, not
their arithmetic, sets the cost. The step loop therefore calls pre-bound
ufuncs with a positional ``out`` and walks a per-step list of gate rows and
state buffers built before it. At B=1 the element-wise calls take 1-D
rows, which dispatch faster than (1, n) ones and compute the same bits;
the recurrent GEMM stays (1, H) @ (H, 4H), so BLAS gets the same call.
A layer's ``keep`` says whether a cache is built: without it no gate row
is written back and one cell state, updated in place and zeroed at each
recurrence, replaces the (T, B, H) cell sequence.

Inference splits into a plan and its runs. An InferencePlan, built once
for fixed params and a fixed (B, T), holds two layers without ``keep``:
the halved kernels, the scale/offset rows, the gate, state and work
buffers and the per-step lists. A run writes each layer's input
projection into its gate buffer, adds the bias, zeroes the cell state and
walks the step loop, so per call only the arithmetic and the dispatch of
the steps remain. Streaming holds one B=1 plan per predictor, predict and
the validation loss one plan for their full chunks, and the throughput
bench one; predict_batch is a one-shot plan. forward_batch builds layers
with ``keep`` per call, since their buffers become the cache.

Backward consumes its cache: BPTT writes each step's dz over the gate row
it has just read and the shifted hidden states over the spent cell states,
then drops ``gates`` and ``c``. A second backward on that cache raises
CacheMismatch; layer 1's ``x``, both ``h``, the masks and the head values
stay readable. Under dropout the cache holds no layer-2 input (its ``x`` is
None): backward rebuilds it from layer 1's ``h`` and the mask for layer 2's
BPTT, forms dW2 from it and writes layer 2's dx over it. Without dropout,
layer 2's ``x`` is a view of layer 1's ``h``.
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


def _halve_sigmoid_rows(a, units):
    """W, U or b with the sigmoid rows i, f and o halved."""
    out = a * 0.5
    out[2 * units:3 * units] = a[2 * units:3 * units]
    return out


def _gate_affine(units):
    """Per-column (scale, offset) that turn tanh of a halved gate row into
    the sigmoid on i, f and o, 0.5 * t + 0.5, and leave the candidate's tanh
    as it is: times 1.0, plus -0.0."""
    scale = np.full(4 * units, 0.5)
    offset = np.full(4 * units, 0.5)
    scale[2 * units:3 * units] = 1.0
    offset[2 * units:3 * units] = -0.0
    return scale, offset


@dataclass
class _LayerCache:
    x: Optional[np.ndarray]  # (B, T, D) layer input sequence, as the caller
                             # passed it; None for layer 2 under dropout
    gates: Optional[np.ndarray]  # (B, T, 4H) post-activation, order i|f|g|o
    c: Optional[np.ndarray]      # (T, B, H); both None once backward has run,
                                 # or when forward ran without keep
    h: np.ndarray        # (B, T, H) view of time-major (T, B, H) storage


@dataclass
class ForwardCache:
    """Everything backward() needs; produced by the matching forward call.
    Backward consumes it: the layers' ``gates`` and ``c`` become its work
    storage and are then dropped; every other field stays readable."""

    config: ModelConfig
    layer1: _LayerCache
    layer2: _LayerCache
    mask1: Optional[np.ndarray]   # (B, T, H1) boolean keep-mask, None without dropout
    mask2: Optional[np.ndarray]   # (B, H2) boolean keep-mask
    dense_pre: np.ndarray         # (B, dense_units)
    dense_act: np.ndarray
    head_pre: np.ndarray          # (B,)
    prediction: np.ndarray        # (B,)


def _drop(a, keep, p, out=None):
    """Inverted dropout of ``a`` by the boolean ``keep``: a * keep, then
    scaled in place by 1 / (1 - p), into ``out`` or a new C-ordered array."""
    out = np.multiply(a, keep, out=np.empty(a.shape) if out is None else out)
    out *= 1.0 / (1.0 - p)
    return out


class _Layer:
    """One LSTM layer at a fixed (B, T): the halved kernels W^T and U^T
    (transposed views of C-ordered arrays), the halved bias, the gate
    scale/offset rows, the (B*T, 4H) gate buffer, the time-major (T, B, H)
    hidden states, the z, zero and ig rows, the cell state(s) and the
    per-step rows the step loop walks.

    With ``keep``, the activated gate rows go back into the gates and every
    cell state is stored in a (T, B, H) array, as backward needs; without
    it, one cell state is updated in place and zeroed at each recurrence."""

    def __init__(self, w, u, b, batch: int, t_len: int, keep: bool):
        units = u.shape[1]
        self.w_t = _halve_sigmoid_rows(w, units).T
        self.u_t = _halve_sigmoid_rows(u, units).T
        self.b = _halve_sigmoid_rows(b, units)
        self.scale, self.offset = _gate_affine(units)
        self.gates = np.empty((batch * t_len, 4 * units))
        self.h_seq = np.empty((t_len, batch, units))
        self.shape, self.keep = (batch, t_len, units), keep
        self.z = np.empty((batch, 4 * units))
        zero = np.zeros((batch, units))
        # the recurrent GEMM reads each step's previous hidden state as (B, H)
        h_prev = [zero] + list(self.h_seq[:-1])

        def steps(a):
            # per-step rows of a time-major (T, B, n) array, 1-D at B=1
            return list(a[:, 0] if batch == 1 else a)

        self.zr, zero = (self.z[0], zero[0]) if batch == 1 else (self.z, zero)
        rows = steps(self.gates.reshape(batch, t_len, -1).transpose(1, 0, 2))
        if keep:
            self.c_seq = np.empty((t_len, batch, units))
            c_new = steps(self.c_seq)
            c_prev = [zero] + c_new[:-1]
        else:
            self.c_seq = None
            self.cell = np.empty(zero.shape)
            c_prev = c_new = [self.cell] * t_len
        self.ig = np.empty(zero.shape)
        self.step_rows = list(zip(rows, h_prev, c_prev, c_new, steps(self.h_seq)))

    def project(self, x):
        """Write the input projection plus bias of the (B, T, D) ``x`` for
        all timesteps into the gates."""
        np.matmul(x.reshape(len(self.gates), -1), self.w_t, out=self.gates)
        self.gates += self.b

    @property
    def h(self) -> np.ndarray:
        """The (B, T, H) view of the hidden states."""
        return self.h_seq.transpose(1, 0, 2)

    def recur(self, out=None) -> np.ndarray:
        """Walk the step loop over the projected gates from a zero state;
        returns the (B, T, H) hidden states, copied into ``out`` if given."""
        if not self.keep:
            self.cell.fill(0.0)
        units, keep = self.shape[2], self.keep
        z, zr, u_t, scale, offset, ig = (self.z, self.zr, self.u_t, self.scale,
                                         self.offset, self.ig)
        i, f, g, o = (zr[..., :units], zr[..., units:2 * units],
                      zr[..., 2 * units:3 * units], zr[..., 3 * units:])
        matmul, add, multiply, tanh = np.matmul, np.add, np.multiply, np.tanh
        for row, h, c, c_t, h_t in self.step_rows:
            matmul(h, u_t, z)
            add(zr, row, zr)
            # tanh(g) and tanh(z / 2) of the halved sigmoid rows in one pass
            tanh(zr, zr)
            multiply(zr, scale, zr)
            add(zr, offset, zr)
            if keep:
                row[...] = zr
            multiply(f, c, c_t)
            multiply(i, g, ig)
            add(c_t, ig, c_t)
            tanh(c_t, h_t)
            multiply(h_t, o, h_t)
        if out is None:
            return self.h
        np.copyto(out, self.h)
        return out


def _kept_layer(w, u, b, x) -> _LayerCache:
    """One LSTM layer over the (B, T, D) ``x`` with its BPTT cache."""
    batch, t_len, _ = x.shape
    layer = _Layer(w, u, b, batch, t_len, keep=True)
    layer.project(x)
    h = layer.recur()
    return _LayerCache(x, layer.gates.reshape(batch, t_len, -1), layer.c_seq, h)


def _lstm_backward(u, cache: _LayerCache, dh_top, w=None, x=None):
    """Exact BPTT over the full sequence. ``dh_top`` is the upstream gradient
    of every output, (B, T, H), or of the last output only, (B, H). Returns
    (dW, dU, db, dx_seq); dx_seq is computed only when the input kernel ``w``
    is given. Consumes the layer cache: each step's dz goes over its gate row,
    so the gates end as the (B, T, 4H) dz sequence, the spent cell states hold
    the (B, T, H) previous hidden states, and both are then set to None.
    ``x`` is the layer's input when the cache holds none; it is spent too,
    dx_seq being written over it once dW is formed."""
    spare, gates, c_seq = x, cache.gates, cache.c
    x = cache.x if spare is None else spare
    t_len, batch, units = c_seq.shape
    # this step's gate row and dz, each read from or written to the
    # batch-major gates in one pass
    s = np.empty((batch, 4 * units))
    dz = np.empty((batch, 4 * units))
    i, f, g, o = (s[:, :units], s[:, units:2 * units], s[:, 2 * units:3 * units],
                  s[:, 3 * units:])
    zero = np.zeros((batch, units))
    dh_carry = dc_next = zero
    for t in range(t_len - 1, -1, -1):
        s[...] = gates[:, t, :]
        c_prev = c_seq[t - 1] if t > 0 else zero
        tc = np.tanh(c_seq[t])
        if dh_top.ndim == 3:
            top = dh_top[:, t, :]
        else:
            top = dh_top if t == t_len - 1 else zero
        dh = top + dh_carry
        dc = dh * o * (1.0 - tc * tc) + dc_next
        # sigmoid derivative s * (1 - s) for the packed row, then each slice
        # times its upstream factor; the candidate slice is tanh, not sigmoid
        np.multiply(s, 1.0 - s, out=dz)
        dz[:, :units] *= dc * g
        dz[:, units:2 * units] *= dc * c_prev
        np.multiply(dc * i, 1.0 - g * g, out=dz[:, 2 * units:3 * units])
        dz[:, 3 * units:] *= dh * tc
        dh_carry = dz @ u
        dc_next = dc * f
        gates[:, t, :] = dz
    flat_dz = gates.reshape(batch * t_len, 4 * units)
    dw = flat_dz.T @ x.reshape(batch * t_len, -1)
    h_prev = c_seq.reshape(batch, t_len, units)
    h_prev[:, 0, :] = 0.0
    h_prev[:, 1:, :] = cache.h[:, :-1, :]
    du = flat_dz.T @ h_prev.reshape(batch * t_len, units)
    db = flat_dz.sum(axis=0)
    if w is None:
        dx = None
    else:
        out = None if spare is None else spare.reshape(batch * t_len, -1)
        dx = np.matmul(flat_dz, w, out=out).reshape(x.shape)
    cache.gates = cache.c = None
    return dw, du, db, dx


def _check_shape(cfg: ModelConfig, shape: Tuple[int, ...]) -> None:
    """Refuse an input shape unless it is a non-empty (B, T, S) that fits ``cfg``."""
    if len(shape) != 3 or shape[2] != cfg.input_dim:
        raise ShapeMismatch(
            f"expected (B, T, {cfg.input_dim}) input, got {shape}")
    if shape[0] == 0 or shape[1] == 0:
        raise ShapeMismatch(f"empty batch or time axis in input shape {shape}")


def _check_batch(cfg: ModelConfig, x) -> np.ndarray:
    """The (B, T, S) input as float64, refused unless it fits ``cfg``."""
    x = np.asarray(x, dtype=np.float64)
    _check_shape(cfg, x.shape)
    return x


def _dense_head(params: ModelParams, h2_last):
    """(dense_pre, dense_act, head_pre, prediction) of the last hidden state."""
    dense_pre = h2_last @ params.dense_w.T + params.dense_b
    dense_act = np.maximum(dense_pre, 0.0)
    head_pre = (dense_act @ params.head_w.T + params.head_b)[:, 0]
    prediction = _sigmoid(head_pre) if params.config.head == "binary" else head_pre
    return dense_pre, dense_act, head_pre, prediction


def forward_batch(params: ModelParams, x: np.ndarray, training: bool = False,
                  rng_seed: Optional[int] = None) -> Tuple[np.ndarray, ForwardCache]:
    """Forward pass over a (B, T, S) batch; returns per-window predictions
    and the cache that backward_batch takes. For predictions alone, use
    predict_batch, which builds no cache."""
    cfg = params.config
    x = _check_batch(cfg, x)
    p = cfg.dropout_rate
    use_dropout = training and p > 0.0
    rng = np.random.default_rng(rng_seed) if use_dropout else None

    l1 = _kept_layer(params.w1, params.u1, params.b1, x)
    if use_dropout:
        mask1 = rng.random(l1.h.shape) >= p
        l2 = _kept_layer(params.w2, params.u2, params.b2, _drop(l1.h, mask1, p))
        l2.x = None  # backward rebuilds the dropped sequence
    else:
        mask1 = None
        l2 = _kept_layer(params.w2, params.u2, params.b2, l1.h)

    h2_last = l2.h[:, -1, :]
    if use_dropout:
        mask2 = rng.random(h2_last.shape) >= p
        h2_last = _drop(h2_last, mask2, p)
    else:
        mask2 = None

    head = _dense_head(params, h2_last)
    cache = ForwardCache(cfg, l1, l2, mask1, mask2, *head)
    return head[-1], cache


class InferencePlan:
    """Inference set-up for one model at one (B, T, S) input shape, built
    once and run on any number of inputs of that shape.

    The plan copies ``params`` when it is built and makes the halved LSTM
    kernels, the gate, state and work buffers and the per-step rows from
    that copy, so changing ``params`` afterwards does not change what the
    plan predicts. A run writes each layer's input projection into its
    gate buffer, adds the bias, zeroes the cell state and walks the step
    loop, so nothing carries over from one run to the next. Its predictions
    are bit for bit those of predict_batch and of
    forward_batch(training=False). At B > 1 a run copies layer 1's states,
    a transposed view, into one C-ordered buffer of the plan for layer 2's
    projection, which would otherwise copy them; at B = 1 the view is C-ordered.
    """

    def __init__(self, params: ModelParams, shape: Tuple[int, ...]):
        shape = tuple(shape)
        _check_shape(params.config, shape)
        self.params = params.copy()
        self.shape = shape
        p, (batch, t_len, _) = self.params, shape
        self.layers = (_Layer(p.w1, p.u1, p.b1, batch, t_len, keep=False),
                       _Layer(p.w2, p.u2, p.b2, batch, t_len, keep=False))
        self.h1 = np.empty((batch, t_len, p.config.lstm1_units)) if batch > 1 else None

    def run(self, x: np.ndarray) -> np.ndarray:
        """Predictions over ``x``, which must have the plan's shape; widened
        to float64 first."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.shape:
            raise ShapeMismatch(f"a plan for {self.shape} input got {x.shape}")
        for layer, out in zip(self.layers, (self.h1, None)):
            layer.project(x)
            x = layer.recur(out)
        return _dense_head(self.params, x[:, -1, :])[-1]


def predict_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Inference-mode predictions over a (B, T, S) batch, bit for bit those
    of forward_batch(training=False), without building the BPTT cache: no
    gate row is written back and one cell state is kept per layer. A one-shot
    InferencePlan; a caller that predicts at one shape many times keeps one."""
    x = _check_batch(params.config, x)
    return InferencePlan(params, x.shape).run(x)


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
    if cache.layer1.gates is None or cache.layer2.gates is None:
        raise CacheMismatch("cache was consumed by an earlier backward")

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
    p = cfg.dropout_rate
    dropout = cache.mask1 is not None
    h2_last = cache.layer2.h[:, -1, :]
    ddense_w = ddense_pre.T @ (_drop(h2_last, cache.mask2, p) if dropout else h2_last)
    ddense_b = ddense_pre.sum(axis=0)
    dh2_last = ddense_pre @ params.dense_w
    if dropout:
        _drop(dh2_last, cache.mask2, p, out=dh2_last)

    x2 = _drop(cache.layer1.h, cache.mask1, p) if dropout else None
    dw2, du2, db2, dx2 = _lstm_backward(params.u2, cache.layer2, dh2_last,
                                        w=params.w2, x=x2)
    if dropout:
        _drop(dx2, cache.mask1, p, out=dx2)
    dw1, du1, db1, _ = _lstm_backward(params.u1, cache.layer1, dx2)

    return ModelParams.from_tensors(cfg, [dw1, du1, db1, dw2, du2, db2,
                                          ddense_w, ddense_b, dhead_w, dhead_b])


def backward(params: ModelParams, cache: ForwardCache, dpred: float) -> ModelParams:
    """Single-window BPTT matching a forward() call."""
    return backward_batch(params, cache, np.array([float(dpred)]))
