"""Split protocol, training-control semantics, repeats, and k-fold CV."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pulsesense.dsp import WindowSegment, read_segment_dump, write_segment_dump
from pulsesense.errors import (
    ConfigInvalidValue,
    DivergedLoss,
    EmptyTrainSet,
    TooFewSegments,
)
from pulsesense import training
from pulsesense.nn import InferencePlan, ModelConfig, init_params, mse_loss
from pulsesense.training import (
    PREDICT_CHUNK,
    TrainingConfig,
    aggregate_reports,
    evaluate,
    kfold_cv,
    predict,
    split_segments,
    train,
)
from pulsesense.metrics import MetricsReport

TINY_MODEL = ModelConfig(input_dim=2, lstm1_units=4, lstm2_units=3,
                         dense_units=4, dropout_rate=0.0)


def tiny_dataset(n=40, w=10, seed=0, binary=False):
    """Windows whose label is a simple function of the embedded signal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, w, 2))
    if binary:
        y = (x[:, :, 0].mean(axis=1) > 0).astype(float)
    else:
        y = 70.0 + 5.0 * np.tanh(x[:, :, 0].mean(axis=1))
    return x, y


class TestSplit:
    def test_100_segments_give_64_16_20(self):
        idx = split_segments(100, TrainingConfig(seed=0))
        assert (len(idx.train), len(idx.val), len(idx.test)) == (64, 16, 20)

    def test_val_fraction_of_train_cuts_the_non_test_80_percent(self):
        idx = split_segments(100, TrainingConfig(val_fraction_of_train=0.5))
        assert (len(idx.train), len(idx.val), len(idx.test)) == (40, 40, 20)

    def test_partition_is_exact(self):
        idx = split_segments(137, TrainingConfig(seed=3))
        union = np.sort(np.concatenate([idx.train, idx.val, idx.test]))
        assert np.array_equal(union, np.arange(137))

    def test_same_seed_same_split(self):
        a = split_segments(50, TrainingConfig(seed=9))
        b = split_segments(50, TrainingConfig(seed=9))
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)

    def test_different_seed_different_shuffle(self):
        a = split_segments(50, TrainingConfig(seed=1))
        b = split_segments(50, TrainingConfig(seed=2))
        assert not np.array_equal(a.train, b.train)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_recording_per_segment_is_a_window_shuffle(self, seed):
        """Without recording ids every segment is its own recording, and the
        split is a seeded permutation of the segments cut 64/16/20."""
        for n in range(5, 400):
            idx = split_segments(n, TrainingConfig(seed=seed))
            perm = np.random.default_rng(seed).permutation(n)
            n_train, n_val = int(0.64 * n + 0.5), int(0.16 * n + 0.5)
            for got, want in ((idx.train, perm[:n_train]),
                              (idx.val, perm[n_train:n_train + n_val]),
                              (idx.test, perm[n_train + n_val:])):
                assert np.array_equal(got, want)

    def test_recording_level_no_straddling(self):
        cfg = TrainingConfig(seed=4)
        rec_ids = [i // 10 for i in range(100)]  # 10 recordings x 10 windows
        idx = split_segments(100, cfg, recording_ids=rec_ids)
        for rid in range(10):
            members = set(range(rid * 10, rid * 10 + 10))
            hits = [bool(members & set(part.tolist()))
                    for part in (idx.train, idx.val, idx.test)]
            assert sum(hits) == 1
        union = np.sort(np.concatenate([idx.train, idx.val, idx.test]))
        assert np.array_equal(union, np.arange(100))

    def test_recording_level_needs_ids(self):
        """Recording ids, when given, number one per segment."""
        for ids in ([0] * 9, [0] * 11):
            with pytest.raises(ConfigInvalidValue, match="one recording id per segment"):
                split_segments(10, TrainingConfig(), recording_ids=ids)

    def test_too_few(self):
        with pytest.raises(TooFewSegments):
            split_segments(4, TrainingConfig())

    def test_fraction_leaving_no_training_window_is_a_config_error(self):
        """At f = 0.95, 5 windows would split 0/4/1: a config value that does
        not fit the data, named with its value and the window count."""
        with pytest.raises(ConfigInvalidValue, match=(
                r"training\.val_fraction_of_train of 0\.95 leaves no training "
                r"window of 5$")):
            split_segments(5, TrainingConfig(val_fraction_of_train=0.95))

    def test_carve_out_leaving_no_training_window_is_a_config_error(self):
        """train's own carve-out: round(0.9 * 3) takes all 3 windows, a config
        error; a single window cannot be split by any fraction, a runtime one."""
        x, y = tiny_dataset(n=3)
        with pytest.raises(ConfigInvalidValue, match="0.9 leaves no training window of 3$"):
            train((x, y), TINY_MODEL, TrainingConfig(val_fraction_of_train=0.9))
        with pytest.raises(EmptyTrainSet, match="carve-out"):
            train((x[:1], y[:1]), TINY_MODEL, TrainingConfig(val_fraction_of_train=0.1))


@pytest.mark.parametrize("overrides", [
    {"learning_rate": float("nan")}, {"learning_rate": 0.0}, {"learning_rate": -1.0},
    {"learning_rate": float("inf")}, {"lr_factor": 0.0}, {"lr_factor": 2.0},
    {"lr_factor": float("nan")}, {"lr_factor": -0.5},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_learning_rate_and_factor_ranges(overrides):
    with pytest.raises(ConfigInvalidValue):
        TrainingConfig(**overrides)


def test_lr_factor_one_accepted():
    assert TrainingConfig(lr_factor=1.0).lr_factor == 1.0


class TestControlSemantics:
    def test_frozen_val_loss_schedule(self):
        """Frozen validation loss: LR halves at epochs 6 and 11, training
        stops at epoch 11, and the epoch-1 weights come back."""
        x, y = tiny_dataset(20)
        cfg = TrainingConfig(seed=0, batch_size=8, max_epochs=50,
                             standardize_targets=False)
        snapshots = {}

        def frozen(epoch, params):
            snapshots[epoch] = params.copy()
            return 1.0

        params, hist = train((x, y), TINY_MODEL, cfg, val_loss_fn=frozen)
        assert hist.stopped_epoch == 11
        assert hist.best_epoch == 1
        assert hist.lr_reductions == [6, 11]
        assert hist.learning_rate[:6] == [0.001] * 6
        assert hist.learning_rate[6:11] == [0.0005] * 5
        for a, b in zip(params.tensors(), snapshots[1].tensors()):
            assert np.array_equal(a, b)

    def test_always_improving_runs_to_max_epochs(self):
        x, y = tiny_dataset(20)
        cfg = TrainingConfig(seed=0, batch_size=8, max_epochs=7,
                             standardize_targets=False)
        counter = iter(range(100, 0, -1))

        def improving(epoch, params):
            return float(next(counter))

        params, hist = train((x, y), TINY_MODEL, cfg, val_loss_fn=improving)
        assert hist.stopped_epoch == 7
        assert hist.best_epoch == 7
        assert hist.lr_reductions == []
        assert len(set(hist.learning_rate)) == 1

    def test_lr_sequence_is_halvings_of_base(self):
        x, y = tiny_dataset(20)
        cfg = TrainingConfig(seed=0, batch_size=8, max_epochs=30)
        vals = iter([5.0] + [9.0] * 40)  # improve once, then plateau forever

        def controlled(epoch, params):
            return float(next(vals))

        _, hist = train((x, y), TINY_MODEL, cfg, val_loss_fn=controlled)
        for lr in hist.learning_rate:
            ratio = 0.001 / lr
            assert abs(np.log2(ratio) - round(np.log2(ratio))) < 1e-12

    def test_determinism_bit_identical(self):
        x, y = tiny_dataset(30)
        cfg = TrainingConfig(seed=5, batch_size=8, max_epochs=4)
        p1, h1 = train((x, y), TINY_MODEL, cfg)
        p2, h2 = train((x, y), TINY_MODEL, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a, b)

    def test_restore_best_weights_reproduce_best_val_loss(self):
        from pulsesense.nn import mse_loss
        x, y = tiny_dataset(40)
        cfg = TrainingConfig(seed=1, batch_size=8, max_epochs=6)
        n_val = 8
        params, hist = train((x[n_val:], y[n_val:]), TINY_MODEL, cfg,
                             val_segments=(x[:n_val], y[:n_val]))
        preds = predict(params, (x[:n_val], y[:n_val]))
        losses, _ = mse_loss(preds, y[:n_val])
        assert float(losses.mean()) == pytest.approx(min(hist.val_loss), abs=1e-9)

    def test_diverged_loss_carries_history(self):
        x, y = tiny_dataset(20)
        cfg = TrainingConfig(seed=0, batch_size=8, max_epochs=10,
                             standardize_targets=False)

        def exploding(epoch, params):
            return float("nan")

        with pytest.raises(DivergedLoss) as err:
            train((x, y), TINY_MODEL, cfg, val_loss_fn=exploding)
        assert err.value.history is not None
        assert err.value.history.stopped_epoch == 1

    def test_test_segments_never_visited(self):
        """Poisoned (NaN) test segments would diverge the loss if touched."""
        x, y = tiny_dataset(50)
        cfg = TrainingConfig(seed=2, batch_size=8, max_epochs=3)
        idx = split_segments(50, cfg)
        x = x.copy()
        x[idx.test] = np.nan
        params, hist = train((x[idx.train], y[idx.train]), TINY_MODEL, cfg,
                             val_segments=(x[idx.val], y[idx.val]))
        assert np.isfinite(hist.train_loss).all()
        assert np.isfinite(hist.val_loss).all()

    def test_learns_the_tiny_task(self):
        x, y = tiny_dataset(120, seed=3)
        cfg = TrainingConfig(seed=3, batch_size=16, max_epochs=40)
        params, hist = train((x[:100], y[:100]), TINY_MODEL, cfg)
        report = evaluate(params, (x[100:], y[100:]), threshold=1.5)
        assert report.mae < 3.0  # labels span ~70 +- 5


class TestAggregateReports:
    def test_aggregate_example(self):
        reports = [MetricsReport(n=1, mae=v, mape_percent=1.0,
                                 mape_complement=99.0, threshold=1.5,
                                 frac_within_threshold=1.0)
                   for v in (0.4, 0.5, 0.6)]
        agg = aggregate_reports(reports)
        assert agg.means["mae"] == pytest.approx(0.5)
        assert agg.stds["mae"] == pytest.approx(0.1)

    def test_identical_metrics_give_zero_std(self):
        """So does a single report, whose std no spread defines."""
        for n in (3, 1):
            reports = [MetricsReport(n=1, mae=0.5, mape_percent=1.0,
                                     mape_complement=99.0, threshold=1.5,
                                     frac_within_threshold=1.0)] * n
            agg = aggregate_reports(reports)
            assert agg.stds and all(v == 0.0 for v in agg.stds.values())
            assert agg.means["mae"] == 0.5


class TestKFold:
    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_refused(self, k):
        x, y = np.zeros((6, 10, 2)), np.full(6, 70.0)
        with pytest.raises(ConfigInvalidValue, match=f"needs k >= 2 folds, got {k}"):
            kfold_cv((x, y), TINY_MODEL, TrainingConfig(), k=k)

    def test_every_segment_tested_exactly_once(self):
        x, y = tiny_dataset(55, seed=2)
        cfg = TrainingConfig(seed=4, batch_size=8, max_epochs=1)
        reports, agg = kfold_cv((x, y), TINY_MODEL, cfg, k=10)
        assert len(reports) == 10
        assert sum(r.n for r in reports) == 55
        assert agg.means["mae"] == pytest.approx(np.mean([r.mae for r in reports]))

    def test_fold_sizes_balanced(self):
        x, y = tiny_dataset(100, seed=4)
        cfg = TrainingConfig(seed=4, batch_size=16, max_epochs=1)
        reports, _ = kfold_cv((x, y), TINY_MODEL, cfg, k=10)
        assert all(r.n == 10 for r in reports)


@pytest.mark.parametrize("head", ["regression", "binary"])
def test_float32_dump_view_scores_as_its_float64_widening(head):
    """predict and evaluate widen each chunk of 64 windows, not the whole x:
    a read-only float32 dump view gives the predictions and report of its
    float64 copy, bit for bit."""
    x, y = tiny_dataset(n=150, binary=head == "binary")
    view, labels = read_segment_dump(write_segment_dump(
        [WindowSegment(x[i], float(y[i]), i, 1.0) for i in range(len(y))]))
    assert view.dtype == np.float32 and not view.flags.writeable
    wide = view.astype(np.float64)
    params = init_params(replace(TINY_MODEL, head=head), 3)
    assert (predict(params, (view, labels)).tobytes()
            == predict(params, (wide, labels)).tobytes())
    assert (evaluate(params, (view, labels)).to_json()
            == evaluate(params, (wide, labels)).to_json())


@pytest.mark.parametrize("head", ["regression", "binary"])
def test_float32_x_trains_as_its_float64_widening(head):
    """train and kfold_cv widen only y; forward_batch and InferencePlan.run widen
    each batch of x, so a float32 x gives the params, history and reports of
    its float64 copy, bit for bit."""
    x, y = tiny_dataset(n=30, binary=head == "binary")
    narrow = x.astype(np.float32)
    wide = narrow.astype(np.float64)
    model = replace(TINY_MODEL, head=head)
    cfg = TrainingConfig(seed=2, batch_size=8, max_epochs=3)
    (p32, h32), (p64, h64) = (train((xs, y), model, cfg) for xs in (narrow, wide))
    assert [t.tobytes() for t in p32.tensors()] == [t.tobytes() for t in p64.tensors()]
    assert h32.to_csv() == h64.to_csv()
    cv32, cv64 = (kfold_cv((xs, y), model, replace(cfg, max_epochs=1), k=3)[1]
                  for xs in (narrow, wide))
    assert cv32.to_json_dict() == cv64.to_json_dict()


def test_predict_holds_no_cache_between_chunks():
    """predict builds no BPTT cache, so nothing of one chunk of 64 windows
    is alive while the next runs: its traced peak over 3 chunks stays within
    10% of its peak over 1."""
    params = init_params(ModelConfig(input_dim=8, dropout_rate=0.0), 0)
    x = np.random.default_rng(0).standard_normal((192, 50, 8))

    def peak(n):
        tracemalloc.start()
        try:
            predict(params, (x[:n], np.zeros(n)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(192) <= 1.1 * peak(64)


def test_predict_and_validation_build_one_plan_per_chunk_shape(monkeypatch):
    """predict and the validation loss run one InferencePlan over every full
    chunk and one more over the ragged last one, with the predictions of a
    one-shot plan on each chunk."""
    shapes = []
    init = InferencePlan.__init__

    def recording(plan, params, shape):
        shapes.append(tuple(shape))
        init(plan, params, shape)

    monkeypatch.setattr(InferencePlan, "__init__", recording)
    params = init_params(TINY_MODEL, 1)
    n = 3 * PREDICT_CHUNK + 5
    x, y = tiny_dataset(n=n)
    chunks = [x[lo:lo + PREDICT_CHUNK] for lo in range(0, n, PREDICT_CHUNK)]
    want = [InferencePlan(params, chunk.shape).run(chunk) for chunk in chunks]
    chunk_shapes = [(PREDICT_CHUNK, 10, 2), (5, 10, 2)]
    assert shapes == [(PREDICT_CHUNK, 10, 2)] * 3 + [(5, 10, 2)]
    shapes.clear()
    assert predict(params, (x, y)).tobytes() == np.concatenate(want).tobytes()
    assert shapes == chunk_shapes
    shapes.clear()
    loss = training._batch_losses(params, x, y, "regression")
    assert shapes == chunk_shapes
    assert loss == sum(float(mse_loss(p, y[lo:lo + PREDICT_CHUNK])[0].sum())
                       for p, lo in zip(want, range(0, n, PREDICT_CHUNK))) / n
