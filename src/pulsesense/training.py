"""Dataset splitting, the training loop, repeat runs, and k-fold CV.

The loop follows the fixed recipe: ADAM, per-epoch validation, halve the
learning rate after `lr_plateau_patience` epochs without strict validation
improvement, stop after `early_stop_patience` epochs without improvement,
and return the parameters from the best epoch. Both patience counters reset
on improvement and run concurrently; a plateau trigger does not reset the
early-stop counter.

Regression targets are z-scored on the training set by default (the network
starts near zero output, and at the fixed 0.001 learning rate it cannot
traverse a 70-BPM offset in any reasonable number of steps). The fitted
scale/offset are folded into the affine head of the returned parameters, so
predictions come out in label units and no side-car state is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigInvalidValue,
    DivergedLoss,
    EmptyTrainSet,
    TooFewSegments,
)
from .metrics import MetricsReport, classification_metrics, regression_metrics
from .nn import (
    AdamState,
    InferencePlan,
    ModelConfig,
    ModelParams,
    adam_step,
    backward_batch,
    bce_loss,
    forward_batch,
    init_params,
    mse_loss,
    predict_batch,
)

Arrays = Tuple[np.ndarray, np.ndarray]  # (x, y): (N, W, S) windows, N labels

# windows per inference call in predict and in the validation loss
PREDICT_CHUNK = 64


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    batch_size: int = 64
    max_epochs: int = 200
    early_stop_patience: int = 10
    lr_plateau_patience: int = 5
    lr_factor: float = 0.5
    val_fraction_of_train: float = 0.2
    seed: int = 0
    standardize_targets: bool = True

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:  # NaN too
            raise ConfigInvalidValue(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.lr_factor <= 1.0:
            raise ConfigInvalidValue(f"lr_factor must be in (0, 1], got {self.lr_factor}")
        if self.early_stop_patience < 1 or self.lr_plateau_patience < 1:
            raise ConfigInvalidValue("patiences must be >= 1")
        if not 0.0 < self.val_fraction_of_train < 1.0:
            raise ConfigInvalidValue("val_fraction_of_train must be in (0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigInvalidValue("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigInvalidValue("seed must be non-negative")


@dataclass
class SplitIndices:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class TrainHistory:
    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    learning_rate: List[float] = field(default_factory=list)
    lr_reductions: List[int] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,lr"]
        for e, (tl, vl, lr) in enumerate(
                zip(self.train_loss, self.val_loss, self.learning_rate), start=1):
            lines.append(f"{e},{tl!r},{vl!r},{lr!r}")
        return "\n".join(lines) + "\n"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _no_training_window(f: float, n: int) -> ConfigInvalidValue:
    """A fraction too large for ``n`` windows: a smaller one fixes it."""
    return ConfigInvalidValue(
        f"training.val_fraction_of_train of {f} leaves no training window of {n}")


def _float_labels(data: Arrays) -> Arrays:
    """``(x, y)`` with ``y`` widened to float64. ``x`` stays as given:
    forward_batch and predict_batch widen each batch exactly, so a float32
    ``x`` trains and scores as its float64 copy would."""
    x, y = data
    return np.asarray(x), np.asarray(y, dtype=np.float64)


def split_segments(n: int, config: TrainingConfig,
                   recording_ids: Optional[Sequence] = None) -> SplitIndices:
    """Seeded shuffle of whole recordings, then a cut of the ``n`` segment
    indices on recording boundaries, so no recording straddles two splits:
    20% for test, and ``val_fraction_of_train`` of the other 80% for
    validation (64/16/20 at the default 0.2).

    ``recording_ids`` holds one id per segment; without it every segment is
    its own recording, and the cut falls on a shuffle of the segments.
    """
    if n < 5:
        raise TooFewSegments(f"need at least 5 segments, got {n}")
    if recording_ids is None:
        recording_ids = range(n)
    elif len(recording_ids) != n:
        raise ConfigInvalidValue(
            f"need one recording id per segment: {len(recording_ids)} ids, {n} segments")
    rng = np.random.default_rng(config.seed)
    f = config.val_fraction_of_train
    n_train = _round_half_up((1.0 - f) * 0.8 * n)
    if n_train < 1:
        raise _no_training_window(f, n)
    n_val = _round_half_up(f * 0.8 * n)
    rec_ids = list(dict.fromkeys(recording_ids))  # first-appearance order
    order = rng.permutation(len(rec_ids))
    by_rec = {rid: [] for rid in rec_ids}
    for idx, rid in enumerate(recording_ids):
        by_rec[rid].append(idx)
    train, val, test = [], [], []
    for pos in order:
        chunk = by_rec[rec_ids[pos]]
        if len(train) < n_train:
            train.extend(chunk)
        elif len(train) + len(val) < n_train + n_val:
            val.extend(chunk)
        else:
            test.extend(chunk)
    return SplitIndices(np.asarray(train, dtype=np.intp),
                        np.asarray(val, dtype=np.intp),
                        np.asarray(test, dtype=np.intp))


def _chunk_predictions(params, x):
    """Yield (lo, predictions) for each PREDICT_CHUNK-window chunk of ``x``
    in turn: one InferencePlan runs every full chunk, and predict_batch the
    ragged last one."""
    plan = None
    for lo in range(0, x.shape[0], PREDICT_CHUNK):
        chunk = x[lo:lo + PREDICT_CHUNK]
        if len(chunk) < PREDICT_CHUNK:
            yield lo, predict_batch(params, chunk)
        else:
            if plan is None:
                plan = InferencePlan(params, chunk.shape)
            yield lo, plan.run(chunk)


def _batch_losses(params, x, y, head):
    """Mean loss over a dataset, evaluated in chunks at inference settings."""
    total = 0.0
    for lo, preds in _chunk_predictions(params, x):
        if head == "binary":
            losses, _ = bce_loss(preds, y[lo:lo + PREDICT_CHUNK])
        else:
            losses, _ = mse_loss(preds, y[lo:lo + PREDICT_CHUNK])
        total += float(losses.sum())
    return total / x.shape[0]


def _fold_target_scaler(params: ModelParams, offset: float, scale: float) -> ModelParams:
    """Fold prediction = scale * net + offset into the affine head weights."""
    out = params.copy()
    out.head_w *= scale
    out.head_b = out.head_b * scale + offset
    return out


def train(segments: Arrays, model_config: ModelConfig,
          config: TrainingConfig, *,
          val_segments: Optional[Arrays] = None,
          val_loss_fn: Optional[Callable[[int, ModelParams], float]] = None,
          ) -> Tuple[ModelParams, TrainHistory]:
    """Train on the ``(x, y)`` pair ``segments``; the test split must already
    be held out.

    If ``val_segments`` is missing, ``val_fraction_of_train`` of the segments
    is carved off (seeded) for validation. ``val_loss_fn(epoch, params)`` is
    a test hook that replaces the validation-loss computation.
    """
    x_all, y_all = _float_labels(segments)
    if x_all.shape[0] == 0:
        raise EmptyTrainSet("no training segments")

    if val_segments is not None:
        x_train, y_train = x_all, y_all
        x_val, y_val = _float_labels(val_segments)
    else:
        n = x_all.shape[0]
        n_val = max(1, _round_half_up(config.val_fraction_of_train * n))
        if n_val >= n:  # no fraction splits a single window: a runtime error
            if n >= 2:
                raise _no_training_window(config.val_fraction_of_train, n)
            raise EmptyTrainSet("validation carve-out leaves no training data")
        perm = np.random.default_rng([config.seed, 0xC0DE]).permutation(n)
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        x_train, y_train = x_all[train_idx], y_all[train_idx]
        x_val, y_val = x_all[val_idx], y_all[val_idx]

    head = model_config.head
    offset, scale = 0.0, 1.0
    if head == "regression" and config.standardize_targets:
        offset = float(y_train.mean())
        std = float(y_train.std())
        scale = std if std > 1e-9 else 1.0
    yt = (y_train - offset) / scale
    yv = (y_val - offset) / scale if y_val.size else y_val
    loss_unit = scale * scale if head == "regression" else 1.0

    params = init_params(model_config, config.seed)
    state = AdamState.init(params, config.learning_rate)
    history = TrainHistory()

    best_val = math.inf
    best_params = params.copy()
    best_epoch = 0
    plateau_counter = 0
    stop_counter = 0
    n_train = x_train.shape[0]

    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(n_train)
        loss_sum = 0.0
        for b_idx, lo in enumerate(range(0, n_train, config.batch_size)):
            sel = order[lo:lo + config.batch_size]
            xb, yb = x_train[sel], yt[sel]
            preds, cache = forward_batch(params, xb, training=True,
                                         rng_seed=[config.seed, 2, epoch, b_idx])
            if head == "binary":
                losses, grads = bce_loss(preds, yb)
            else:
                losses, grads = mse_loss(preds, yb)
            loss_sum += float(losses.sum())
            dpred = grads / sel.size
            grad_params = backward_batch(params, cache, dpred)
            # backward_batch has consumed the cache's gates and cell states;
            # this frees the rest (both layers' hidden states and the boolean
            # masks, 20.3 MiB at the paper stack, B=64; the 12.5 MiB batch
            # goes when xb is rebound) before the next forward_batch
            del preds, cache
            params, state = adam_step(state, params, grad_params)
        train_loss = loss_sum / n_train * loss_unit

        if val_loss_fn is not None:
            val_loss = float(val_loss_fn(epoch, params))
        elif x_val.shape[0]:
            val_loss = _batch_losses(params, x_val, yv, head) * loss_unit
        else:
            val_loss = train_loss

        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        history.learning_rate.append(state.learning_rate)
        history.stopped_epoch = epoch

        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            history.best_epoch = best_epoch
            raise DivergedLoss(f"non-finite loss at epoch {epoch}", history)

        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
            plateau_counter = 0
            stop_counter = 0
        else:
            plateau_counter += 1
            stop_counter += 1
            if plateau_counter >= config.lr_plateau_patience:
                state = state.with_learning_rate(state.learning_rate * config.lr_factor)
                history.lr_reductions.append(epoch)
                plateau_counter = 0
            if stop_counter >= config.early_stop_patience:
                break

    history.best_epoch = best_epoch
    if head == "regression" and (offset != 0.0 or scale != 1.0):
        best_params = _fold_target_scaler(best_params, offset, scale)
    return best_params, history


def predict(params: ModelParams, segments: Arrays) -> np.ndarray:
    """Inference over an ``(x, y)`` pair; predictions come out in label units.

    ``x`` is not widened as a whole: each chunk is widened to float64 as it
    is run, so a float32 dump view predicts as its float64 copy would."""
    x = np.asarray(segments[0])
    preds = np.empty(x.shape[0])
    for lo, chunk_preds in _chunk_predictions(params, x):
        preds[lo:lo + PREDICT_CHUNK] = chunk_preds
    return preds


def evaluate(params: ModelParams, segments: Arrays, *,
             threshold: Optional[float] = 1.5,
             decision_threshold: float = 0.5) -> MetricsReport:
    """Predict then score with the metric set matching the head type."""
    y = np.asarray(segments[1], dtype=np.float64)
    preds = predict(params, segments)
    if params.config.head == "binary":
        return classification_metrics(preds, y, decision_threshold)
    return regression_metrics(y, preds, threshold)


@dataclass
class AggregateReport:
    """Element-wise mean and sample std of every metric across runs/folds."""

    runs: List[MetricsReport]
    means: dict
    stds: dict

    def to_json_dict(self) -> dict:
        return {
            "n_runs": len(self.runs),
            "means": self.means,
            "stds": self.stds,
            "runs": [r.to_json_dict() for r in self.runs],
        }


def aggregate_reports(reports: Sequence[MetricsReport]) -> AggregateReport:
    means, stds = {}, {}
    for name in MetricsReport.NUMERIC_FIELDS:
        vals = [getattr(r, name) for r in reports if getattr(r, name) is not None]
        if not vals:
            continue
        arr = np.asarray(vals, dtype=np.float64)
        means[name] = float(arr.mean())
        stds[name] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return AggregateReport(list(reports), means, stds)


def repeat_runs(segments: Arrays, model_config: ModelConfig,
                config: TrainingConfig, n: int = 3, *,
                threshold: Optional[float] = 1.5) -> AggregateReport:
    """n independent seeded runs (seed, seed+1, ...) with fresh shuffles."""
    x, y = _float_labels(segments)
    reports = []
    for run in range(n):
        cfg = replace(config, seed=config.seed + run)
        idx = split_segments(x.shape[0], cfg)
        params, _ = train((x[idx.train], y[idx.train]), model_config, cfg,
                          val_segments=(x[idx.val], y[idx.val]))
        reports.append(evaluate(params, (x[idx.test], y[idx.test]),
                                threshold=threshold))
    return aggregate_reports(reports)


def kfold_cv(segments: Arrays, model_config: ModelConfig,
             config: TrainingConfig, k: int = 10, *,
             threshold: Optional[float] = 1.5) -> Tuple[List[MetricsReport], AggregateReport]:
    """Seeded shuffle, k contiguous folds, each fold once as the test set."""
    if k < 2:
        raise ConfigInvalidValue(f"k-fold CV needs k >= 2 folds, got {k}")
    x, y = _float_labels(segments)
    n = x.shape[0]
    if n < k:
        raise TooFewSegments(f"{n} segments cannot form {k} folds")
    perm = np.random.default_rng(config.seed).permutation(n)
    base, extra = divmod(n, k)
    reports = []
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        test_idx = perm[start:start + size]
        rest = np.concatenate([perm[:start], perm[start + size:]])
        start += size
        params, _ = train((x[rest], y[rest]), model_config, config)
        reports.append(evaluate(params, (x[test_idx], y[test_idx]),
                                threshold=threshold))
    return reports, aggregate_reports(reports)
