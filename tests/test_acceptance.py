"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -v -s``.

The end-to-end criteria train real models on the synthetic oracle suite and
take a few minutes combined; everything is seeded and deterministic.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pulsesense.bench import CSV_HEADER, bench_inference
from pulsesense.dsp import (
    FilterSpec,
    PipelineConfig,
    design_bandpass,
    frequency_response,
    run_pipeline_config,
    savgol_kernel,
    segments_to_arrays,
    smooth_values,
)
from pulsesense.ingest import CsiStream, align
from pulsesense.metrics import classification_metrics, regression_metrics
from pulsesense.nn import (
    AdamState,
    ModelConfig,
    adam_update,
    backward,
    bce_loss,
    count_parameters,
    forward,
    init_params,
    mse_loss,
)
from pulsesense.streaming import StreamingPredictor, streaming_column_means
from pulsesense.synth import generate, scenario_by_name
from pulsesense.training import (
    TrainingConfig,
    evaluate,
    kfold_cv,
    repeat_runs,
    split_segments,
    train,
)


@contextmanager
def criterion(number, slug):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} {slug}: FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} {slug}: PASS")


@pytest.fixture(scope="module")
def scenario_a():
    rec = generate(scenario_by_name("fixed_easy_esp32"))
    return rec


def _time_split_segments(segments, w, fs, cut_s):
    """Windows fully before the cut train; fully after it test; straddlers
    dropped (single filter pass, no second transient, no window overlap)."""
    train_part = [s for s in segments if (s.start_index + w) / fs <= cut_s]
    test_part = [s for s in segments if s.start_index / fs >= cut_s]
    return train_part, test_part


def test_criterion_1_filter_correctness():
    with criterion(1, "filter-correctness"):
        t0 = time.perf_counter()
        cascade = design_bandpass(FilterSpec(0.8, 2.17, 3, 80.0))
        h = frequency_response(cascade, [0.8, 2.17, 0.0, 10.0], 80.0)
        edge_db = 20.0 * np.log10(np.abs(h[:2]))
        assert abs(edge_db[0] - (-3.0103)) <= 1e-4
        assert abs(edge_db[1] - (-3.0103)) <= 1e-4
        assert abs(h[2]) == 0.0
        assert 20.0 * np.log10(abs(h[3])) <= -30.0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_savitzky_golay():
    with criterion(2, "savitzky-golay"):
        kernel = savgol_kernel(15, 3)
        # independent oracle: exact-rational normal equations
        m = 7
        size = 4
        v = [[Fraction(z) ** j for j in range(size)] for z in range(-m, m + 1)]
        a = [[sum(v[i][r] * v[i][c] for i in range(15)) for c in range(size)]
             for r in range(size)]
        rhs = [[v[i][r] for i in range(15)] for r in range(size)]
        for col in range(size):
            piv = next(r for r in range(col, size) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            for r in range(size):
                if r != col and a[r][col] != 0:
                    f = a[r][col] / a[col][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    rhs[r] = [x - f * y for x, y in zip(rhs[r], rhs[col])]
        exact = [rhs[0][i] / a[0][0] for i in range(15)]
        assert exact[m] == Fraction(167, 1105)
        for got, want in zip(kernel.coefficients, exact):
            assert abs(got - float(want)) < 1e-12

        t = np.linspace(-1, 1, 300)
        cubic = 1.7 * t ** 3 - 0.4 * t ** 2 + 2.0 * t + 1.0
        out = smooth_values(kernel, cubic[:, None])[:, 0]
        assert np.max(np.abs(out[m:-m] - cubic[m:-m])) < 1e-9


def test_criterion_3_gradient_check():
    with criterion(3, "gradient-check"):
        t0 = time.perf_counter()
        for head in ("regression", "binary"):
            cfg = ModelConfig(input_dim=3, lstm1_units=4, lstm2_units=3,
                              dense_units=5, head=head, dropout_rate=0.0)
            params = init_params(cfg, 3)
            x = np.random.default_rng(0).standard_normal((12, 3))
            target = 0.7 if head == "binary" else 1.3
            loss_fn = bce_loss if head == "binary" else mse_loss

            pred, cache = forward(params, x)
            _, up = loss_fn(pred, target)
            grads = backward(params, cache, float(up))

            eps = 1e-5
            worst = 0.0
            for tensor, grad in zip(params.tensors(), grads.tensors()):
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + eps
                    lp, _ = loss_fn(forward(params, x)[0], target)
                    tensor[idx] = orig - eps
                    lm, _ = loss_fn(forward(params, x)[0], target)
                    tensor[idx] = orig
                    fd = (float(lp) - float(lm)) / (2 * eps)
                    a, b = float(grad[idx]), fd
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-6))
            assert worst < 1e-4, f"{head}: max rel err {worst}"
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_adam():
    with criterion(4, "adam-optimizer"):
        theta = [np.array([1.0])]
        state = AdamState.init(theta, learning_rate=0.001)
        new, _ = adam_update(state, theta, [np.array([2.0])])
        closed_form = 1.0 - 0.001 * 2.0 / (abs(2.0) + 1e-8)
        assert abs(new[0][0] - closed_form) < 1e-12

        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        ref_t, ref_m, ref_v = 0.5, 0.0, 0.0
        ref = []
        for t in range(1, 101):
            g = 2.0 * (ref_t - 3.0)
            ref_m = b1 * ref_m + (1 - b1) * g
            ref_v = b2 * ref_v + (1 - b2) * g * g
            ref_t -= lr * (ref_m / (1 - b1 ** t)) / ((ref_v / (1 - b2 ** t)) ** 0.5 + eps)
            ref.append(ref_t)
        theta = [np.array([0.5])]
        state = AdamState.init(theta, learning_rate=lr)
        got = []
        for _ in range(100):
            theta, state = adam_update(state, theta, [2.0 * (theta[0] - 3.0)])
            got.append(float(theta[0][0]))
        np.testing.assert_allclose(got, ref, atol=1e-10, rtol=0)


def test_criterion_5_parameter_accounting():
    with criterion(5, "parameter-count"):
        assert count_parameters(ModelConfig(input_dim=64)) == 45_985
        assert count_parameters(ModelConfig(input_dim=1)) == 29_857
        # the published figure of 46,113 exceeds the stack's count by exactly
        # 128; documented as a known discrepancy
        assert 46_113 - count_parameters(ModelConfig(input_dim=64)) == 128


def test_criterion_6_heart_rate_end_to_end(scenario_a):
    with criterion(6, "heart-rate-e2e"):
        t0 = time.perf_counter()
        recording = align(scenario_a.stream, scenario_a.heart)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=16)
        segments = run_pipeline_config(recording, cfg)
        w = segments[0].values.shape[0]
        assert w == 400
        train_part, test_part = _time_split_segments(segments, w, 80.0, 120.0)
        assert len(test_part) > 100

        model_cfg = ModelConfig(input_dim=64)
        train_cfg = TrainingConfig(seed=1, batch_size=32, max_epochs=10)
        params, history = train(segments_to_arrays(train_part), model_cfg,
                                train_cfg)
        report = evaluate(params, segments_to_arrays(test_part), threshold=1.5)
        elapsed = time.perf_counter() - t0
        print(f"    heart e2e: MAE {report.mae:.4f} BPM, "
              f"{100 * report.frac_within_threshold:.1f}% within 1.5, "
              f"{history.stopped_epoch} epochs, {elapsed:.0f} s")
        assert report.mae < 2.0
        assert report.frac_within_threshold >= 0.90
        assert elapsed < 600.0


def test_criterion_7_breathing_rate_end_to_end():
    with criterion(7, "breathing-rate-e2e"):
        rec = generate(scenario_by_name("fixed_easy_pi"))
        recording = align(rec.stream, rec.breath)
        cfg = PipelineConfig(mode="breath", window_s=20.0, stride=7)
        segments = run_pipeline_config(recording, cfg)
        w = segments[0].values.shape[0]
        fs = 7.4
        train_part, test_part = _time_split_segments(segments, w, fs, 320.0)
        model_cfg = ModelConfig(input_dim=234)
        train_cfg = TrainingConfig(seed=2, batch_size=32, max_epochs=8)
        params, _ = train(segments_to_arrays(train_part), model_cfg, train_cfg)
        report = evaluate(params, segments_to_arrays(test_part), threshold=0.75)
        print(f"    breathing e2e: MAE {report.mae:.4f} brpm, "
              f"{100 * report.frac_within_threshold:.1f}% within 0.75")
        assert report.mae < 1.0
        assert report.frac_within_threshold >= 0.90


def test_criterion_8_apnea_end_to_end():
    with criterion(8, "apnea-e2e"):
        rec = generate(scenario_by_name("alternate_breathing_pi"))
        recording = align(rec.stream, rec.apnea)
        cfg = PipelineConfig(mode="apnea", window_s=10.0, stride=7)
        segments = run_pipeline_config(recording, cfg)
        x, y = segments_to_arrays(segments)
        assert 0.2 < y.mean() < 0.5  # both classes well represented
        model_cfg = ModelConfig(input_dim=234, head="binary")
        train_cfg = TrainingConfig(seed=3, batch_size=32, max_epochs=25)
        idx = split_segments(len(segments), train_cfg)
        params, _ = train((x[idx.train], y[idx.train]), model_cfg, train_cfg,
                          val_segments=(x[idx.val], y[idx.val]))
        report = evaluate(params, (x[idx.test], y[idx.test]))
        print(f"    apnea e2e: accuracy {report.accuracy:.3f}, "
              f"kappa {report.kappa:.3f}, sensitivity {report.sensitivity:.3f}, "
              f"specificity {report.specificity:.3f}")
        assert report.accuracy >= 0.95
        assert report.kappa >= 0.85


def test_criterion_9_training_control_semantics():
    with criterion(9, "training-control"):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((24, 8, 2))
        y = 70.0 + rng.normal(0, 2, 24)
        model_cfg = ModelConfig(input_dim=2, lstm1_units=3, lstm2_units=2,
                                dense_units=3, dropout_rate=0.0)
        train_cfg = TrainingConfig(seed=0, batch_size=8, max_epochs=50,
                                   standardize_targets=False)
        snapshots = {}

        def frozen(epoch, params):
            snapshots[epoch] = params.copy()
            return 1.0

        params, history = train((x, y), model_cfg, train_cfg,
                                val_loss_fn=frozen)
        assert history.lr_reductions == [6, 11]
        assert history.stopped_epoch == 11
        assert history.best_epoch == 1
        assert history.learning_rate == [0.001] * 6 + [0.0005] * 5
        for a, b in zip(params.tensors(), snapshots[1].tensors()):
            assert np.array_equal(a, b)


def test_criterion_10_protocol_plumbing(scenario_a):
    with criterion(10, "protocol-plumbing"):
        # 64/16/20 split within rounding
        idx = split_segments(100, TrainingConfig(seed=0))
        assert (len(idx.train), len(idx.val), len(idx.test)) == (64, 16, 20)
        idx = split_segments(97, TrainingConfig(seed=0))
        assert abs(len(idx.train) - 0.64 * 97) <= 1
        assert abs(len(idx.val) - 0.16 * 97) <= 1

        # repeat runs and k-fold on a small learnable set
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 10, 2))
        y = 70.0 + 5.0 * np.tanh(x[:, :, 0].mean(axis=1))
        model_cfg = ModelConfig(input_dim=2, lstm1_units=4, lstm2_units=3,
                                dense_units=4, dropout_rate=0.0)
        train_cfg = TrainingConfig(seed=5, batch_size=16, max_epochs=2)
        agg = repeat_runs((x, y), model_cfg, train_cfg, n=3)
        assert len(agg.runs) == 3
        assert "mae" in agg.means and "mae" in agg.stds
        maes = [r.mae for r in agg.runs]
        assert agg.means["mae"] == pytest.approx(float(np.mean(maes)))
        assert agg.stds["mae"] == pytest.approx(float(np.std(maes, ddof=1)))

        reports, _ = kfold_cv((x, y), model_cfg, train_cfg, k=10)
        assert len(reports) == 10
        assert sum(r.n for r in reports) == 60

        # streaming inference == batch inference, bit for bit, on scenario (a)
        stream = scenario_a.stream
        first_40s = int(np.searchsorted(stream.timestamps, 40.0))  # frames with t < 40 s
        sliced = CsiStream(stream.timestamps[:first_40s], stream.values[:first_40s],
                           stream.sample_rate_hz)
        recording = align(sliced, scenario_a.heart)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=40)
        params = init_params(ModelConfig(input_dim=64), seed=4)
        segments = run_pipeline_config(recording, cfg)
        w = segments[0].values.shape[0]
        batch_out = []
        for seg in segments:
            pred, _ = forward(params, seg.values)
            batch_out.append((float(sliced.timestamps[seg.start_index + w - 1]),
                              pred))
        mu, _ = streaming_column_means(iter(sliced.values))
        predictor = StreamingPredictor(params, cfg, 80.0, mu)
        stream_out = []
        for t, row in zip(sliced.timestamps, sliced.values):
            stream_out.extend(predictor.push(float(t), row))
        stream_out.extend(predictor.finish())
        assert len(stream_out) == len(batch_out) > 0
        for (bt, bp), (st, sp) in zip(batch_out, stream_out):
            assert bt == st and bp == sp


def test_criterion_11_metrics():
    with criterion(11, "metrics"):
        probs = np.concatenate([np.full(40, 0.9), np.full(5, 0.1),
                                np.full(5, 0.9), np.full(50, 0.1)])
        labels = np.concatenate([np.ones(45), np.zeros(55)])
        rep = classification_metrics(probs, labels)
        assert (rep.tp, rep.fn, rep.fp, rep.tn) == (40, 5, 5, 50)
        assert abs(rep.kappa - 0.7980) <= 1e-4
        assert rep.sensitivity == pytest.approx(0.8889, abs=1e-4)
        assert rep.specificity == pytest.approx(0.9091, abs=1e-4)

        # regression metric worked examples
        r = regression_metrics([100.0], [99.0], threshold=1.5)
        assert r.mae == 1.0 and r.mape_percent == pytest.approx(1.0)
        assert r.frac_within_threshold == 1.0
        r = regression_metrics([10.0, 10.0], [9.0, 8.0], threshold=1.5)
        assert r.frac_within_threshold == 0.5
        r = regression_metrics([72.0, 80.0], [72.0, 80.0], threshold=1.5)
        assert r.mae == 0.0 and r.mape_percent == 0.0
        assert r.frac_within_threshold == 1.0


def test_criterion_12_bench_report():
    with criterion(12, "bench-report"):
        params = init_params(ModelConfig(input_dim=64), seed=0)
        rep = bench_inference(params, seq_len=80, batch_size=16,
                              n_preds_target=64, model_name="hr-1s")
        header = CSV_HEADER.split(",")
        row = rep.csv_row().split(",")
        assert header == ["model", "seq_len", "batch", "cold_start_s",
                          "total_s", "n_preds", "preds_per_s", "batch_mean_ms"]
        assert len(row) == len(header)
        assert rep.throughput_preds_per_s == rep.n_preds / rep.total_time_s
        assert rep.batch_mean_ms == 1000.0 * rep.batch_size / rep.throughput_preds_per_s
        print(f"    bench: {rep.throughput_preds_per_s:.0f} preds/s at "
              f"seq 80 batch 16 (recorded, not asserted)")
