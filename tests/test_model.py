"""Network forward/backward correctness: finite-difference gradients, the
consumed-cache contract, dropout semantics, parameter accounting, the fused
gate kernels against a per-gate reference, and the time-major kernels bit
for bit against the batch-major ones they replaced."""

import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import pulsesense
from pulsesense.errors import CacheMismatch, ShapeMismatch
from pulsesense.nn import (
    InferencePlan,
    ModelConfig,
    ModelParams,
    backward_batch,
    bce_loss,
    count_parameters,
    forward,
    forward_batch,
    init_params,
    mse_loss,
)
from pulsesense.nn import model
from pulsesense.nn.model import _sigmoid

SMALL = dict(input_dim=3, lstm1_units=4, lstm2_units=3, dense_units=5)


def small_config(head="regression", dropout=0.0):
    return ModelConfig(head=head, dropout_rate=dropout, **SMALL)


def one_shot(params, x):
    """Predictions of a plan built for ``x`` alone."""
    return InferencePlan(params, x.shape).run(x)


def finite_difference_check(head, dropout=0.0, seed=3, rng_seed=99,
                            w_len=12, eps=1e-5):
    """Max relative error between BPTT and central differences over every
    parameter."""
    cfg = small_config(head, dropout)
    params = init_params(cfg, seed)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((w_len, cfg.input_dim))
    target = 0.7 if head == "binary" else 1.3
    loss_fn = bce_loss if head == "binary" else mse_loss
    training = dropout > 0

    def loss_of():
        pred, _ = forward(params, x, training=training, rng_seed=rng_seed)
        loss, _ = loss_fn(pred, target)
        return float(loss)

    pred, cache = forward(params, x, training=training, rng_seed=rng_seed)
    _, up = loss_fn(pred, target)
    grads = backward_batch(params, cache, np.array([float(up)]))

    worst = 0.0
    for tensor, grad in zip(params.tensors(), grads.tensors()):
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            lp = loss_of()
            tensor[idx] = orig - eps
            lm = loss_of()
            tensor[idx] = orig
            fd = (lp - lm) / (2.0 * eps)
            a, b = float(grad[idx]), fd
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-6))
    return worst


class TestForward:
    def test_zero_network_outputs_zero(self):
        cfg = small_config()
        params = init_params(cfg, 0)
        params = ModelParams.from_tensors(
            cfg, [np.zeros_like(t) for t in params.tensors()])
        pred, _ = forward(params, np.random.default_rng(0).standard_normal((8, 3)))
        assert pred == 0.0

    def test_inference_deterministic(self):
        params = init_params(small_config(dropout=0.2), 1)
        x = np.random.default_rng(2).standard_normal((10, 3))
        a, _ = forward(params, x, training=False)
        b, _ = forward(params, x, training=False)
        assert a == b

    def test_binary_head_in_unit_interval(self):
        """1000 random (params, input) draws all land strictly inside (0,1)."""
        rng = np.random.default_rng(3)
        params_pool = [init_params(small_config("binary"), s) for s in range(20)]
        for trial in range(1000):
            x = rng.standard_normal((6, 3)) * 3
            pred, _ = forward(params_pool[trial % 20], x)
            assert 0.0 < pred < 1.0

    def test_shape_mismatch(self):
        params = init_params(small_config(), 0)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((10, 4)))

    @pytest.mark.parametrize("shape", [(2, 0, 3), (0, 5, 3)])
    def test_empty_axis_refused(self, shape):
        params = init_params(small_config(), 0)
        with pytest.raises(ShapeMismatch, match="empty"):
            forward_batch(params, np.zeros(shape))

    def test_empty_window_refused(self):
        params = init_params(small_config(), 0)
        with pytest.raises(ShapeMismatch, match="empty"):
            forward(params, np.zeros((0, 3)))

    def test_training_false_ignores_dropout_seed(self):
        params = init_params(small_config(dropout=0.5), 1)
        x = np.random.default_rng(4).standard_normal((10, 3))
        a, _ = forward(params, x, training=False, rng_seed=1)
        b, _ = forward(params, x, training=False, rng_seed=2)
        assert a == b

    def test_regression_head_is_affine_on_dense_features(self):
        params = init_params(small_config(), 8)
        x = np.random.default_rng(8).standard_normal((9, 3))
        pred, cache = forward(params, x, training=False)
        manual = float((cache.dense_act @ params.head_w.T + params.head_b)[0, 0])
        assert pred == manual


class TestBackward:
    def test_gradcheck_regression(self):
        assert finite_difference_check("regression") < 1e-4

    def test_gradcheck_binary(self):
        assert finite_difference_check("binary") < 1e-4

    def test_gradcheck_with_dropout_masks_reused(self):
        """Backward reuses the forward call's masks; finite differences with
        the same rng seed see the identical subnetwork."""
        assert finite_difference_check("regression", dropout=0.25) < 1e-4

    def test_zero_upstream_zero_gradients(self):
        params = init_params(small_config(), 5)
        x = np.random.default_rng(5).standard_normal((7, 3))
        _, cache = forward(params, x)
        grads = backward_batch(params, cache, np.array([0.0]))
        for g in grads.tensors():
            assert np.all(g == 0.0)

    def test_dead_relu_kills_head_gradient(self):
        """A head weight feeding a ReLU-dead dense unit gets zero gradient."""
        params = init_params(small_config(), 6)
        params.dense_b[2] = -100.0  # unit 2 always negative pre-activation
        x = np.random.default_rng(6).standard_normal((7, 3))
        pred, cache = forward(params, x)
        assert cache.dense_act[0, 2] == 0.0
        grads = backward_batch(params, cache, np.array([1.0]))
        assert grads.head_w[0, 2] == 0.0

    def test_cache_mismatch(self):
        params_a = init_params(small_config(), 1)
        params_b = init_params(ModelConfig(input_dim=2), 1)
        x = np.random.default_rng(1).standard_normal((5, 3))
        _, cache = forward(params_a, x)
        with pytest.raises(CacheMismatch):
            backward_batch(params_b, cache, np.array([1.0]))

    def test_consumed_cache_refused(self):
        params = init_params(small_config(dropout=0.25), 2)
        x = np.random.default_rng(2).standard_normal((2, 6, 3))
        _, cache = forward_batch(params, x, training=True, rng_seed=4)
        backward_batch(params, cache, np.ones(2))
        with pytest.raises(CacheMismatch, match="consumed"):
            backward_batch(params, cache, np.ones(2))
        _, single = forward(params, x[0])
        backward_batch(params, single, np.array([1.0]))
        with pytest.raises(CacheMismatch, match="consumed"):
            backward_batch(params, single, np.array([1.0]))

    def test_backward_keeps_outputs_masks_and_input(self):
        """Backward writes only the gates and cell states it consumes: the
        hidden states, prediction, masks and the caller's input, which the
        cache holds as layer 1's x, are byte-identical after it."""
        params = init_params(small_config(dropout=0.25), 3)
        x = np.random.default_rng(3).standard_normal((3, 8, 3))
        x_before = x.copy()
        _, cache = forward_batch(params, x, training=True, rng_seed=5)
        assert cache.layer1.x is x
        kept = [cache.layer1.h, cache.layer2.h, cache.prediction, cache.mask1,
                cache.mask2]
        before = [a.tobytes() for a in kept]
        backward_batch(params, cache, np.ones(3))
        assert [a.tobytes() for a in kept] == before
        assert x.tobytes() == x_before.tobytes()

    def test_backward_allocates_less_than_one_gate_tensor(self):
        """BPTT builds dz and the previous hidden states in the spent cache,
        so its traced peak stays below layer 1's (B, T, 4H) gate tensor."""
        cfg = ModelConfig(input_dim=64, dropout_rate=0.2)
        params = init_params(cfg, 0)
        x = np.random.default_rng(0).standard_normal((8, 200, 64))
        _, cache = forward_batch(params, x, training=True, rng_seed=1)
        gate_bytes = cache.layer1.gates.nbytes
        tracemalloc.start()
        try:
            backward_batch(params, cache, np.ones(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gate_bytes

    def test_dropout_cache_holds_no_float_mask_or_layer_2_input(self):
        """Under dropout the cache keeps mask1 as booleans and no layer-2
        input: its only float (B, T, H1) arrays are layer 1's h and c, and
        forward holds no buffer besides the arrays the cache names."""
        cfg = ModelConfig(input_dim=64, dropout_rate=0.2)
        params = init_params(cfg, 0)
        x = np.random.default_rng(0).standard_normal((8, 200, 64))
        tracemalloc.start()
        try:
            _, cache = forward_batch(params, x, training=True, rng_seed=1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        named = {}
        for prefix, owner in (("", cache), ("layer1.", cache.layer1),
                              ("layer2.", cache.layer2)):
            for field in dataclasses.fields(owner):
                value = getattr(owner, field.name)
                if isinstance(value, np.ndarray) and value is not x:
                    named[prefix + field.name] = value
        h1_size = 8 * 200 * cfg.lstm1_units
        big_floats = sorted(name for name, a in named.items()
                            if a.dtype.kind == "f" and a.size == h1_size)
        assert big_floats == ["layer1.c", "layer1.h"]
        assert cache.mask1.dtype == bool and cache.layer2.x is None
        assert held < sum(a.nbytes for a in named.values()) + h1_size * 8 // 2

    def test_batch_gradient_is_sum_of_singles(self):
        """backward_batch over B windows equals the sum of per-window runs."""
        from pulsesense.nn import backward_batch
        params = init_params(small_config(), 7)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((3, 9, 3))
        ups = np.array([0.5, -1.0, 2.0])
        preds, cache = forward_batch(params, xs)
        batch_grads = backward_batch(params, cache, ups)
        singles = [backward_batch(params, forward(params, xs[i])[1], np.array([float(ups[i])]))
                   for i in range(3)]
        for name_idx, g in enumerate(batch_grads.tensors()):
            total = sum(s.tensors()[name_idx] for s in singles)
            np.testing.assert_allclose(g, total, rtol=1e-12, atol=1e-12)



class TestHelperThread:
    """backward_batch forms each layer's dW on a helper thread that it
    starts and joins itself; the bit-for-bit oracle is
    TestTimeMajorKernels."""

    @staticmethod
    def cache_and_upstream(dropout=0.25, batch=4):
        params = init_params(small_config(dropout=dropout), 8)
        x = np.random.default_rng(8).standard_normal((batch, 10, 3))
        _, cache = forward_batch(params, x, training=dropout > 0, rng_seed=3)
        return params, cache, np.ones(batch)

    def test_no_thread_outlives_a_call(self):
        params, cache, up = self.cache_and_upstream()
        before = threading.active_count()
        backward_batch(params, cache, up)
        assert threading.active_count() == before

    @pytest.mark.parametrize("raiser", ["_input_kernel_gradient", "_recurrent_gradients"],
                             ids=["helper", "caller"])
    def test_an_exception_is_raised_after_the_join(self, monkeypatch, raiser):
        """A MemoryError from the helper's GEMM comes out of backward_batch,
        and so does one from this thread's part while the helper runs; no
        thread is left either way."""
        params, cache, up = self.cache_and_upstream()

        def fail(*args):
            raise MemoryError("no room for the gradient")

        monkeypatch.setattr(model, raiser, fail)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room for the gradient"):
            backward_batch(params, cache, up)
        assert threading.active_count() == before

    def test_concurrent_callers_get_the_serial_bits(self):
        """Three callers at once, with their helpers more threads than cores,
        under a short switch interval: each gets the gradients of the frozen
        serial kernels, bit for bit."""
        params = init_params(ModelConfig(dropout_rate=0.2, **ODD_STACKS[1]), 12)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 17, 30, params.config.input_dim))
        dpred = rng.standard_normal((3, 17))
        got = [None] * 3

        def call(k):
            _, cache = forward_batch(params, x[k], training=True, rng_seed=[k, 7])
            got[k] = backward_batch(params, cache, dpred[k]).tensors()

        threads = [threading.Thread(target=call, args=(k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(3):
            want = batch_major_stack(params, x[k], [k, 7], dpred[k])[3]
            assert got[k] is not None
            assert all(np.array_equal(a, b) for a, b in zip(got[k], want))

    def test_helper_runs_under_the_callers_error_state(self):
        """With a zero W1 and an input of 1e308 (and a bias that makes layer
        1's states non-zero), the only overflow of the backward pass is
        dW1 = dz1^T x, which the helper forms: the caller's
        errstate(over="raise") makes it a FloatingPointError, and under
        errstate(over="ignore", invalid="ignore") no warning is issued, even
        one turned into an error. (BLAS may add an infinite partial sum to one
        of the other sign, an invalid operation.)"""
        params, _, _ = self.cache_and_upstream(dropout=0.0)
        params.w1[...] = 0.0
        params.b1[...] = 0.5
        up = np.full(4, 100.0)
        x = np.full((4, 10, 3), 1e308)
        with np.errstate(over="ignore"):
            _, cache = forward_batch(params, x)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            grads = backward_batch(params, cache, up)
        assert not np.isfinite(grads.w1).all()
        assert all(np.isfinite(g).all() for g in grads.tensors()[1:])
        _, cache = forward_batch(params, x)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            backward_batch(params, cache, up)


def reference_logistic(z):
    """1 / (1 + exp(-z)), each sign evaluated on its non-overflowing side."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(params, x):
    """The stack evaluated one gate at a time, with separate i, f, g, o
    slices and the textbook LSTM cell update."""
    def lstm(w, u, b, seq):
        units = u.shape[1]
        h = np.zeros((seq.shape[0], units))
        c = np.zeros((seq.shape[0], units))
        hs = []
        for t in range(seq.shape[1]):
            z = seq[:, t, :] @ w.T + h @ u.T + b
            i = reference_logistic(z[:, :units])
            f = reference_logistic(z[:, units:2 * units])
            g = np.tanh(z[:, 2 * units:3 * units])
            o = reference_logistic(z[:, 3 * units:])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs.append(h)
        return np.stack(hs, axis=1)

    h1 = lstm(params.w1, params.u1, params.b1, x)
    h2 = lstm(params.w2, params.u2, params.b2, h1)
    dense = np.maximum(h2[:, -1, :] @ params.dense_w.T + params.dense_b, 0.0)
    head = (dense @ params.head_w.T + params.head_b)[:, 0]
    if params.config.head == "binary":
        head = reference_logistic(head)
    return head, h1, h2


class TestGateKernels:
    def test_sigmoid_against_logistic_on_wide_grid(self):
        """The reference runs in extended precision: evaluated in float64,
        1 / (1 + exp(-z)) is itself up to 1.6e-16 off on this grid, and
        differs from the tanh form by 2.2e-16 (two ulps below 1) at some
        points where the tanh form is the closer one."""
        z = np.linspace(-800.0, 800.0, 200_001)
        s = _sigmoid(z)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(np.diff(s) >= 0.0)
        exact = reference_logistic(z.astype(np.longdouble))
        assert np.max(np.abs(s - exact)) <= 2e-16

    @pytest.mark.parametrize("head", ["regression", "binary"])
    def test_no_floating_point_errors_at_large_inputs(self, head):
        """Inputs scaled by 1e3 saturate every gate; no step overflows."""
        params = init_params(small_config(head), 4)
        x = np.random.default_rng(4).standard_normal((3, 10, 3)) * 1e3
        with np.errstate(all="raise"):
            preds, cache = forward_batch(params, x)
            grads = backward_batch(params, cache, np.array([1.0, -0.5, 2.0]))
        assert np.all(np.isfinite(preds))
        assert all(np.all(np.isfinite(g)) for g in grads.tensors())

    @pytest.mark.parametrize("head", ["regression", "binary"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_forward_matches_per_gate_reference(self, head, batch):
        params = init_params(small_config(head), 11)
        x = np.random.default_rng(batch).standard_normal((batch, 15, 3)) * 2
        preds, cache = forward_batch(params, x)
        ref_preds, ref_h1, ref_h2 = reference_forward(params, x)
        np.testing.assert_allclose(preds, ref_preds, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.layer1.h, ref_h1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.layer2.h, ref_h2, rtol=0, atol=1e-12)


def batch_major_lstm_forward(w, u, b, x):
    """The batch-major kernel in serialized i|f|g|o order that the time-major
    one replaced, frozen as the bit-for-bit reference. Returns (gates, c, h),
    each (B, T, .)."""
    batch, t_len, _ = x.shape
    units = u.shape[1]
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
    return gates, c_seq, h_seq


def batch_major_lstm_backward(w, u, x, gates, c_seq, h_seq, dh_seq):
    """BPTT of the frozen batch-major kernel; returns (dW, dU, db, dx)."""
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


def batch_major_stack(params, x, rng_seed, dpred):
    """forward_batch then backward_batch on the frozen kernels, with the same
    dropout draws; returns (predictions, h1, h2, gradient tensors)."""
    p = params.config.dropout_rate
    rng = np.random.default_rng(rng_seed) if p > 0 else None
    g1, c1, h1 = batch_major_lstm_forward(params.w1, params.u1, params.b1, x)
    mask1 = None if rng is None else (rng.random(h1.shape) >= p) / (1.0 - p)
    x2 = h1 if mask1 is None else h1 * mask1
    g2, c2, h2 = batch_major_lstm_forward(params.w2, params.u2, params.b2, x2)
    mask2 = None if rng is None else (rng.random(h2[:, -1, :].shape) >= p) / (1.0 - p)
    last = h2[:, -1, :] if mask2 is None else h2[:, -1, :] * mask2
    dense_pre = last @ params.dense_w.T + params.dense_b
    dense_act = np.maximum(dense_pre, 0.0)
    pred = (dense_act @ params.head_w.T + params.head_b)[:, 0]
    dhead = dpred
    if params.config.head == "binary":
        pred = _sigmoid(pred)
        dhead = dpred * pred * (1.0 - pred)
    ddense_pre = (dhead[:, None] @ params.head_w) * (dense_pre > 0.0)
    dlast = ddense_pre @ params.dense_w
    if mask2 is not None:
        dlast = dlast * mask2
    dh2_seq = np.zeros(h2.shape)
    dh2_seq[:, -1, :] = dlast
    dw2, du2, db2, dx2 = batch_major_lstm_backward(params.w2, params.u2, x2, g2, c2,
                                                   h2, dh2_seq)
    dh1_seq = dx2 if mask1 is None else dx2 * mask1
    dw1, du1, db1, _ = batch_major_lstm_backward(params.w1, params.u1, x, g1, c1,
                                                 h1, dh1_seq)
    grads = [dw1, du1, db1, dw2, du2, db2, ddense_pre.T @ last, ddense_pre.sum(axis=0),
             dhead[None, :] @ dense_act, np.array([dhead.sum()])]
    return pred, h1, h2, grads


PAPER_STACK = dict(input_dim=64)
# odd unit counts put gate columns on the ragged edge of BLAS tiles, where
# a reordered or split GEMM rounds differently
ODD_STACKS = [dict(input_dim=234, lstm1_units=13, lstm2_units=9, dense_units=3),
              dict(input_dim=64, lstm1_units=63, lstm2_units=31, dense_units=5)]


class TestTimeMajorKernels:
    """The kernels with time-major cell and hidden states and halved sigmoid
    rows compute what the batch-major ones did, bit for bit: halving is
    exact, and every BLAS call keeps its shape, row order and column order.
    So does an InferencePlan, which runs the same kernels without their cache;
    at B=1 their element-wise calls take 1-D rows."""

    @pytest.mark.parametrize("head", ["regression", "binary"])
    # 1/(1-p) is dyadic at p=0.2 and not at p=0.4
    @pytest.mark.parametrize("dropout", [0.0, 0.2, 0.4])
    @pytest.mark.parametrize("stack,t_len,batch",
                             [(PAPER_STACK, 400, b) for b in (1, 3, 64)]
                             + [(stack, 50, 17) for stack in ODD_STACKS]
                             + [(stack, 50, b) for b in (1, 3, 64)
                                for stack in ODD_STACKS],
                             ids=["paper-B1", "paper-B3", "paper-B64", "odd-wide",
                                  "odd-63", "odd-wide-B1", "odd-63-B1",
                                  "odd-wide-B3", "odd-63-B3", "odd-wide-B64",
                                  "odd-63-B64"])
    def test_bit_identical_to_batch_major(self, stack, t_len, batch, head, dropout):
        cfg = ModelConfig(head=head, dropout_rate=dropout, **stack)
        params = init_params(cfg, 12)
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, t_len, cfg.input_dim))
        dpred = rng.standard_normal(batch)
        seed = [batch, 7]
        preds, cache = forward_batch(params, x, training=dropout > 0, rng_seed=seed)
        grads = backward_batch(params, cache, dpred)
        ref_preds, ref_h1, ref_h2, ref_grads = batch_major_stack(params, x, seed, dpred)
        assert np.array_equal(preds, ref_preds)
        assert np.array_equal(cache.layer1.h, ref_h1)
        assert np.array_equal(cache.layer2.h, ref_h2)
        for got, want in zip(grads.tensors(), ref_grads):
            assert got.shape == want.shape and np.array_equal(got, want)
        if dropout == 0.0:  # preds come from forward_batch(training=False)
            assert one_shot(params, x).tobytes() == preds.tobytes()


PLAN_CASES = ([(PAPER_STACK, 200, b) for b in (1, 3, 17, 64)]
              + [(stack, 50, b) for stack in ODD_STACKS for b in (1, 3, 17, 64)])


class TestInferencePlan:
    """A plan built once for (params, B, T) predicts what a one-shot plan and
    forward_batch(training=False) do, bit for bit, on every run."""

    @pytest.mark.parametrize("head", ["regression", "binary"])
    @pytest.mark.parametrize("stack,t_len,batch", PLAN_CASES,
                             ids=[f"{name}-B{b}" for name in ("paper", "odd-wide", "odd-63")
                                  for b in (1, 3, 17, 64)])
    def test_plan_equals_predict_batch_and_forward(self, stack, t_len, batch, head):
        cfg = ModelConfig(head=head, **stack)
        params = init_params(cfg, 5)
        x = np.random.default_rng(batch).standard_normal((batch, t_len, cfg.input_dim))
        want = forward_batch(params, x)[0].tobytes()
        assert one_shot(params, x).tobytes() == want
        plan = InferencePlan(params, x.shape)
        assert plan.run(x).tobytes() == want
        assert plan.run(x).tobytes() == want

    def test_plan_equals_predict_batch_and_forward_at_one_blas_thread(self):
        """The test above in a child process at one OpenBLAS thread, since
        OpenBLAS reads its thread count once, when numpy loads; this process
        runs at the default count."""
        src = os.path.dirname(os.path.dirname(pulsesense.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        test = f"{__file__}::TestInferencePlan::test_plan_equals_predict_batch_and_forward"
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stdout[-3000:]
        assert f"{2 * len(PLAN_CASES)} passed" in child.stdout

    @pytest.mark.parametrize("batch", [1, 3])
    def test_nothing_carries_over_between_runs(self, batch):
        """Three inputs, one with a NaN, through one plan in turn, then the
        first again: each run gives its own one-shot bits."""
        params = init_params(small_config(), 2)
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((2, batch, 30, 3))
        nan = b.copy()
        nan[0, 4, 1] = np.nan
        plan = InferencePlan(params, a.shape)
        inputs = (a, nan, b, a)
        got = [plan.run(v) for v in inputs]
        for v, preds in zip(inputs, got):
            assert preds.tobytes() == one_shot(params, v).tobytes()
        assert np.isnan(got[1][0]) and np.isfinite(got[1][1:]).all()
        assert np.isfinite(got[2]).all() and got[3].tobytes() == got[0].tobytes()

    def test_plan_copies_params_when_built(self):
        params = init_params(small_config(), 3)
        x = np.random.default_rng(3).standard_normal((2, 12, 3))
        plan = InferencePlan(params, x.shape)
        before = plan.run(x).tobytes()
        for tensor in params.tensors():
            tensor *= 2.0
        assert plan.run(x).tobytes() == before
        assert one_shot(params, x).tobytes() != before

    def test_plan_refuses_other_shapes(self):
        params = init_params(small_config(), 0)
        plan = InferencePlan(params, (2, 9, 3))
        for shape in [(3, 9, 3), (2, 8, 3), (2, 9, 4), (9, 3)]:
            with pytest.raises(ShapeMismatch):
                plan.run(np.zeros(shape))
        for shape in [(0, 9, 3), (2, 0, 3), (2, 9, 4), (9, 3)]:
            with pytest.raises(ShapeMismatch):
                InferencePlan(params, shape)

    @pytest.mark.parametrize("values", [np.full((1, 5, 3), 1 + 2j),
                                        np.array([[["1", "2", "1"]] * 5]),
                                        np.ones((1, 5, 3), dtype=bool)],
                             ids=["complex", "string", "bool"])
    def test_non_real_input_refused(self, values):
        """Only integer and floating-point input is widened to float64: a
        cast would drop an imaginary part or parse text. The plan run,
        forward_batch and forward all refuse the rest by one check."""
        params = init_params(small_config(), 0)
        plan = InferencePlan(params, values.shape)
        for call in (plan.run, lambda v: forward_batch(params, v),
                     lambda v: forward(params, v[0])):
            with pytest.raises(ShapeMismatch, match="floating-point"):
                call(values)

    def test_warm_run_allocates_no_copy_of_layer_one_states(self):
        """At B > 1 layer 2 reads layer 1's states from a buffer the plan
        made: a warm run at (8, 200, 64) on the paper stack peaks below one
        (B*T, H1) array."""
        params = init_params(ModelConfig(input_dim=64), 0)
        x = np.random.default_rng(1).standard_normal((8, 200, 64))
        plan = InferencePlan(params, x.shape)
        plan.run(x)
        tracemalloc.start()
        try:
            plan.run(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 200 * params.config.lstm1_units * 8


def record_layer_inputs(monkeypatch):
    """The input sequence of every LSTM layer call forward makes, in order."""
    seen = []
    kept_layer = model._kept_layer

    def recording(w, u, b, x):
        seen.append(x)
        return kept_layer(w, u, b, x)

    monkeypatch.setattr(model, "_kept_layer", recording)
    return seen


class TestDropout:
    def test_inverted_masks_preserve_expectation(self, monkeypatch):
        """Monte-Carlo over 10k masks: the mean of layer 2's input, the
        dropped layer-1 output, equals the undropped activations within a 3
        sigma band (exact at the mask application site because inverted
        dropout rescales by 1/(1-p))."""
        cfg = ModelConfig(input_dim=2, lstm1_units=2, lstm2_units=2,
                          dense_units=2, dropout_rate=0.2)
        params = init_params(cfg, 0)
        x = np.random.default_rng(1).standard_normal((4, 2))
        base, base_cache = forward(params, x, training=False)
        h_clean = base_cache.layer1.h[0]  # (T, H) no-dropout activations

        seen = record_layer_inputs(monkeypatch)
        n = 10_000
        acc = np.zeros_like(h_clean)
        for s in range(n):
            seen.clear()
            forward(params, x, training=True, rng_seed=s)
            acc += seen[1][0]  # the dropped layer-1 sequence
        mean = acc / n
        p = cfg.dropout_rate
        sigma = np.abs(h_clean) * np.sqrt(p / (1 - p)) / np.sqrt(n)
        assert np.all(np.abs(mean - h_clean) <= 3.0 * sigma + 1e-12)

    def test_mask_scaling_values(self, monkeypatch):
        """Masks are boolean keep-arrays. Layer 2's input and the dense
        layer's input are the undropped values times 1/(1-p) where kept and
        zero where dropped, bit for bit."""
        p = 0.4
        cfg = small_config(dropout=p)
        params = init_params(cfg, 0)
        x = np.random.default_rng(2).standard_normal((6, 3))
        seen = record_layer_inputs(monkeypatch)
        _, cache = forward(params, x, training=True, rng_seed=0)
        for mask in (cache.mask1, cache.mask2):
            assert mask.dtype == bool
        mask1, h1 = cache.mask1, cache.layer1.h
        assert mask1.any() and not mask1.all()
        assert np.array_equal(seen[1][mask1], h1[mask1] * (1 / (1 - p)))
        assert np.all(seen[1][~mask1] == 0.0)
        last = np.where(cache.mask2, cache.layer2.h[:, -1, :] * (1 / (1 - p)), 0.0)
        dense_pre = last @ params.dense_w.T + params.dense_b
        assert dense_pre.tobytes() == cache.dense_pre.tobytes()


class TestParameterCount:
    def test_paper_stack_at_input_64(self):
        assert count_parameters(ModelConfig(input_dim=64)) == 45_985

    def test_paper_stack_at_input_1(self):
        assert count_parameters(ModelConfig(input_dim=1)) == 29_857

    def test_doubling_dense_units_adds_544(self):
        base = count_parameters(ModelConfig(input_dim=64, dense_units=16))
        doubled = count_parameters(ModelConfig(input_dim=64, dense_units=32))
        assert doubled - base == 32 * 16 + 16 + 16

    def test_count_matches_actual_tensors(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cfg = ModelConfig(input_dim=int(rng.integers(1, 60)),
                              lstm1_units=int(rng.integers(1, 40)),
                              lstm2_units=int(rng.integers(1, 40)),
                              dense_units=int(rng.integers(1, 20)))
            params = init_params(cfg, 0)
            assert count_parameters(cfg) == sum(t.size for t in params.tensors())


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig(input_dim=5)
        a = init_params(cfg, 42)
        b = init_params(cfg, 42)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_forget_gate_bias_is_one(self):
        cfg = ModelConfig(input_dim=5, lstm1_units=7, lstm2_units=4)
        params = init_params(cfg, 0)
        assert np.all(params.b1[7:14] == 1.0)
        assert np.all(params.b1[:7] == 0.0)
        assert np.all(params.b2[4:8] == 1.0)

    def test_recurrent_kernels_orthogonal(self):
        params = init_params(ModelConfig(input_dim=5), 3)
        for u in (params.u1, params.u2):
            gram = u.T @ u
            np.testing.assert_allclose(gram, np.eye(u.shape[1]), atol=1e-10)


class TestLosses:
    def test_mse_examples(self):
        loss, grad = mse_loss(1.0, 3.0)
        assert loss == 4.0 and grad == -4.0
        loss, grad = mse_loss(2.0, 2.0)
        assert loss == 0.0 and grad == 0.0
        losses, _ = mse_loss(np.array([1.0, 3.0]), np.array([1.0, 2.0]))
        assert losses.mean() == 0.5

    def test_bce_examples(self):
        loss, _ = bce_loss(0.5, 1.0)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        loss, _ = bce_loss(1.0 - 1e-7, 1.0)
        assert loss == pytest.approx(1e-7, abs=1e-9)
        loss, _ = bce_loss(0.9, 0.0)
        assert loss == pytest.approx(-np.log(0.1), abs=1e-12)

    def test_bce_clamp_prevents_infinity(self):
        loss, grad = bce_loss(0.0, 1.0)
        assert np.isfinite(loss) and np.isfinite(grad)
        loss, grad = bce_loss(1.0, 0.0)
        assert np.isfinite(loss) and np.isfinite(grad)
