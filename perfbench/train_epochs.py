"""train_epochs: the ``train`` command at the paper recipe.

training.train runs on about 200 heart windows (5 s at 80 Hz, 64
subcarriers) of the stepped_esp32 scenario (66 -> 90 BPM), with B=64 and
ADAM at 1e-3, for a fixed number of epochs per call; patience is longer than
a call, so no early stop or learning-rate halving fires. Runs repeat
while the next one fits in the measured time. The windows are made at
set-up, so ingest and DSP do no work in the timed region.

A train() call is one opaque call of many seconds, so the timed loop runs
train()'s computation rebuilt from the public calls it makes, timed per
training step and validation pass, and every run checks it bit-identical to
a train() call on the same inputs. End-to-end times are calibrated against
the B=64 LSTM-like reference (see common.Reference).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import List, Tuple

import numpy as np

from common import (
    LSTM_B64_REFERENCE,
    CallTimes,
    Result,
    Spans,
    derive_seeds,
    lstm_stack_backward_flops,
    lstm_stack_flops,
    median,
    no_span,
    peak_rss_mb,
)
from pulsesense import dsp, ingest, synth, training
from pulsesense.nn import (
    AdamState,
    ModelConfig,
    ModelParams,
    adam_step,
    backward_batch,
    forward_batch,
    init_params,
    mse_loss,
)

EPOCHS = 8
STRIDE = 46          # 9600 packets -> 201 windows of 400 packets
TINY_STRIDE = 400    # 24 windows
SETUP_REPEATS = 51
MODEL = ModelConfig(input_dim=64)  # the paper stack: 64/32/16, dropout 0.2


def make_inputs(seed: int, tiny: bool) -> Tuple[np.ndarray, np.ndarray, training.TrainingConfig]:
    scenario_seed, train_seed = derive_seeds(seed, 2)
    sc = dataclasses.replace(synth.scenario_by_name("stepped_esp32"), seed=scenario_seed)
    rec = synth.generate(sc)
    segments = dsp.run_pipeline(ingest.align(rec.stream, rec.heart), "heart", 5.0,
                                TINY_STRIDE if tiny else STRIDE)
    x = np.stack([seg.values for seg in segments])
    y = np.asarray([seg.label for seg in segments])
    cfg = training.TrainingConfig(
        learning_rate=1e-3, batch_size=64, max_epochs=EPOCHS,
        early_stop_patience=EPOCHS + 1, lr_plateau_patience=EPOCHS + 1,
        seed=train_seed)
    return x, y, cfg


def recomposed_train(x: np.ndarray, y: np.ndarray, cfg: training.TrainingConfig,
                     step_span, span) -> Tuple[ModelParams, List[float], List[float]]:
    """training.train rebuilt from the public nn calls.

    Follows train()'s steps for a run in which neither patience fires:
    seeded validation carve-out, target z-scoring folded into the head at
    the end, seeded batch order and dropout, and best-epoch weights. The
    checks require the result to be bit-identical to train(). ``step_span``
    wraps each training step and validation pass, ``span`` each call inside.
    """
    n = x.shape[0]
    n_val = max(1, int(math.floor(cfg.val_fraction_of_train * n + 0.5)))
    perm = np.random.default_rng([cfg.seed, 0xC0DE]).permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    offset = float(y_train.mean())
    std = float(y_train.std())
    scale = std if std > 1e-9 else 1.0
    yt = (y_train - offset) / scale
    yv = (y_val - offset) / scale
    loss_unit = scale * scale

    params = init_params(MODEL, cfg.seed)
    state = AdamState.init(params, cfg.learning_rate)
    best_val, best_params = math.inf, params.copy()
    train_losses, val_losses = [], []
    n_train = x_train.shape[0]
    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(n_train)
        loss_sum = 0.0
        for b_idx, lo in enumerate(range(0, n_train, cfg.batch_size)):
            sel = order[lo:lo + cfg.batch_size]
            with step_span("training.step", sel.size):
                with span("nn.forward_batch", sel.size):
                    preds, cache = forward_batch(params, x_train[sel], training=True,
                                                 rng_seed=[cfg.seed, 2, epoch, b_idx])
                with span("training.loss"):
                    losses, grads = mse_loss(preds, yt[sel])
                    loss_sum += float(losses.sum())
                with span("nn.backward_batch", sel.size):
                    grad_params = backward_batch(params, cache, grads / sel.size)
                with span("nn.adam_step"):
                    params, state = adam_step(state, params, grad_params)
        train_losses.append(loss_sum / n_train * loss_unit)
        with step_span("training.val"):
            total = 0.0
            for lo in range(0, x_val.shape[0], 64):
                with span("nn.forward_batch", min(64, x_val.shape[0] - lo)):
                    preds, _ = forward_batch(params, x_val[lo:lo + 64], training=False)
                with span("training.loss"):
                    losses, _ = mse_loss(preds, yv[lo:lo + 64])
                    total += float(losses.sum())
            val_loss = total / x_val.shape[0] * loss_unit
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val, best_params = val_loss, params.copy()
    best_params.head_w *= scale
    best_params.head_b = best_params.head_b * scale + offset
    return best_params, train_losses, val_losses


def finite_difference_check(seed: int, res: Result) -> None:
    """backward_batch on a tiny model against central differences."""
    cfg = ModelConfig(input_dim=3, lstm1_units=4, lstm2_units=3, dense_units=2,
                      dropout_rate=0.0)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    x = rng.standard_normal((2, 6, 3))
    dpred = rng.standard_normal(2)
    _, cache = forward_batch(params, x)
    grads = backward_batch(params, cache, dpred)
    eps = 1e-6
    worst = 0.0
    for t_idx, tensor in enumerate(params.tensors()):
        for flat in rng.choice(tensor.size, size=min(2, tensor.size), replace=False):
            values = []
            for sign in (1.0, -1.0):
                probe = params.copy()
                probe.tensors()[t_idx].flat[flat] += sign * eps
                values.append(float(forward_batch(probe, x)[0] @ dpred))
            numeric = (values[0] - values[1]) / (2 * eps)
            analytic = float(grads.tensors()[t_idx].flat[flat])
            worst = max(worst, abs(numeric - analytic) / (1e-6 + abs(analytic)))
    res.check("backward_batch_vs_finite_differences", worst < 1e-4,
              f"worst relative error {worst:.2e}")


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    res = Result()
    x, y, cfg = make_inputs(seed, tiny)
    n_windows, w, s = x.shape

    def setup_once() -> float:
        t0 = time.perf_counter()
        init_params(MODEL, cfg.seed)
        return time.perf_counter() - t0

    setup_s = LSTM_B64_REFERENCE.calibrated_median(setup_once, SETUP_REPEATS)

    spans, calls = Spans(), CallTimes(LSTM_B64_REFERENCE)
    times, outputs = [], []
    while not times or sum(times) + times[-1] <= seconds:
        t0 = time.perf_counter()
        if trace:
            with spans("training.train"):
                outputs.append(res.attempt(recomposed_train, x, y, cfg, spans, spans))
        else:
            outputs.append(res.attempt(recomposed_train, x, y, cfg, calls, no_span))
        times.append(time.perf_counter() - t0)
    rss = peak_rss_mb()

    t0 = time.perf_counter()
    trained = res.attempt(training.train, (x, y), MODEL, cfg)
    train_wall = time.perf_counter() - t0
    if trained is None:
        res.check("train_completed", False)
    else:
        params, history = trained
        losses = history.train_loss + history.val_loss
        res.check("losses_finite", all(math.isfinite(v) for v in losses))
        res.check("train_loss_decreases", history.train_loss[-1] < history.train_loss[0],
                  f"epoch 1 {history.train_loss[0]:.4f}, "
                  f"epoch {len(history.train_loss)} {history.train_loss[-1]:.4f}")
        same = all(out is not None
                   and all(np.array_equal(a, b)
                           for a, b in zip(out[0].tensors(), params.tensors()))
                   and out[1] == history.train_loss and out[2] == history.val_loss
                   for out in outputs)
        res.check("recomposed_equals_train", same, f"{len(outputs)} runs")
    finite_difference_check(seed, res)

    n = len(times)
    if not trace:
        epochs = len(calls.samples[("training.val", None)])
        epoch_s = calls.calibrated("training.val") + sum(
            len(samples) / epochs * calls.calibrated(name, tag)
            for (name, tag), samples in calls.samples.items() if name == "training.step")
        res.put("csi_msamples_per_s", n_windows * w * s / epoch_s / 1e6, "MS/s", epochs)
        res.put("result_latency_ms_p50", 1e3 * epoch_s, "ms", epochs)
        res.put("setup_s", setup_s, "s", SETUP_REPEATS)
        res.put("peak_rss_mb", rss, "MB", 1)
        res.lines.append(
            f"train_windows_per_s {n_windows / epoch_s:.4f} windows/s n={epochs} "
            f"(calibrated; wall {n_windows * epochs / sum(times):.4f}; "
            f"{n_windows} windows, {EPOCHS} epochs per run; train() took "
            f"{train_wall:.3f} s)")
        return res

    # full batches: B=64, or the whole training split when it is smaller
    batch = max(rec[4] for rec in spans.records if rec[0] == "nn.backward_batch")
    fwd = spans.durations("nn.forward_batch", parent="training.step", tag=batch)
    bwd = spans.durations("nn.backward_batch", tag=batch)
    adam = spans.durations("nn.adam_step")
    steps = spans.durations("training.step")
    res.put("nn.forward_batch_ms_p50", 1e3 * median(fwd), "ms", len(fwd))
    res.put("nn.backward_batch_ms_p50", 1e3 * median(bwd), "ms", len(bwd))
    res.put("nn.adam_step_ms_p50", 1e3 * median(adam), "ms", len(adam))
    dims = (w, s, MODEL.lstm1_units, MODEL.lstm2_units, MODEL.dense_units)
    res.put("nn.forward_gflops", lstm_stack_flops(batch, *dims) / median(fwd) / 1e9,
            "GFLOP/s", len(fwd))
    res.put("nn.backward_gflops",
            lstm_stack_backward_flops(batch, *dims) / median(bwd) / 1e9,
            "GFLOP/s", len(bwd))
    res.put("training.step_ms_p50", 1e3 * median(steps), "ms", len(steps))
    res.put("training.val_s", median(spans.durations("training.val")), "s",
            len(spans.durations("training.val")))
    res.put("training.steps", len(steps), "count", len(steps))
    layer_time = [sum(v for k, v in sums.items() if k != "training.train")
                  for sums in spans.self_times_by_root()]
    res.put("training.unattributed_s", train_wall - median(layer_time), "s", n)
    res.put("trace.overhead_frac", spans.overhead_seconds() / sum(times), "ratio",
            len(spans.records))
    res.note("the traced calls rebuild train() from forward_batch, mse_loss, "
             "backward_batch and adam_step, checked bit-identical to train(); "
             "nn.*_ms_p50 are at B=%d; GFLOP/s use the analytic LSTM operation "
             "count (computed, not measured)" % batch)
    return res
