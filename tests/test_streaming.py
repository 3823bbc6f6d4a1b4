"""Streaming inference must reproduce the batch pipeline bit for bit."""

import numpy as np
import pytest

from pulsesense.dsp import (
    MODES,
    PipelineConfig,
    Savgol,
    amplitude,
    remove_dc,
    run_pipeline_config,
)
from pulsesense.dsp.pipeline import column_means
from pulsesense.errors import NonFiniteSample
from pulsesense.ingest import AlignedRecording, CsiStream, LabelSeries, align
from pulsesense.nn import ModelConfig, forward, init_params
from pulsesense.streaming import StreamingPredictor, streaming_column_means
from pulsesense.synth import Scenario, Schedule, generate


def small_recording(duration_s=30.0, fs=20.0, n_sub=3, seed=5):
    sc = Scenario(name="stream-unit", duration_s=duration_s, sample_rate_hz=fs,
                  subcarriers=n_sub, hr_bpm=Schedule.constant(72.0),
                  br_brpm=Schedule.constant(15.0), noise_std=0.05, seed=seed)
    return generate(sc)


def batch_predictions(params, recording, cfg, fs):
    segments = run_pipeline_config(recording, cfg)
    out = []
    w = segments[0].values.shape[0]
    for seg in segments:
        pred, _ = forward(params, seg.values, training=False)
        t_end = float(recording.stream.timestamps[seg.start_index + w - 1])
        out.append((t_end, pred))
    return out


def stream_predictions(params, rec, cfg, fs):
    mu, _ = streaming_column_means(iter(rec.stream.values), cfg.subcarriers)
    predictor = StreamingPredictor(params, cfg, fs, mu)
    out = []
    for t, row in zip(rec.stream.timestamps, rec.stream.values):
        out.extend(predictor.push(float(t), row))
    out.extend(predictor.finish())
    return out


class TestBitEquality:
    @pytest.mark.parametrize("mode,window_s,stride", [
        ("heart", 5.0, 7),
        ("breath", 10.0, 20),
        ("apnea", 10.0, 13),
    ])
    def test_streaming_equals_batch(self, mode, window_s, stride):
        fs = 20.0
        rec = small_recording(duration_s=40.0, fs=fs)
        labels = rec.labels_for_mode(mode)
        recording = align(rec.stream, labels)
        cfg = PipelineConfig(mode=mode, window_s=window_s, stride=stride)
        params = init_params(ModelConfig(input_dim=3, head=MODES[mode].head), seed=1)
        batch = batch_predictions(params, recording, cfg, fs)
        stream = stream_predictions(params, rec, cfg, fs)
        assert len(batch) == len(stream) and len(batch) > 0
        for (bt, bp), (st, sp) in zip(batch, stream):
            assert bt == st
            assert bp == sp  # bit-identical, no tolerance

    def test_subcarrier_subset(self):
        fs = 20.0
        rec = small_recording(duration_s=30.0, fs=fs, n_sub=4)
        recording = align(rec.stream, rec.heart)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=11,
                             subcarriers=[0, 2])
        params = init_params(ModelConfig(input_dim=2), seed=2)
        batch = batch_predictions(params, recording, cfg, fs)
        stream = stream_predictions(params, rec, cfg, fs)
        assert batch == stream

    def test_column_means_match_batch_dc_removal(self):
        rec = small_recording()
        mu_stream, count = streaming_column_means(iter(rec.stream.values))
        mu_batch, _ = column_means(lambda: amplitude(rec.stream).values)
        assert count == rec.stream.frame_count
        assert np.array_equal(mu_stream, mu_batch)


class TestBoundedMemory:
    def test_buffers_do_not_grow_with_stream_length(self):
        fs = 20.0
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=50)
        params = init_params(ModelConfig(input_dim=3), seed=0)
        rec = small_recording(duration_s=60.0, fs=fs)
        mu, _ = streaming_column_means(iter(rec.stream.values))
        predictor = StreamingPredictor(params, cfg, fs, mu)
        w = predictor.w
        for t, row in zip(rec.stream.timestamps, rec.stream.values):
            predictor.push(float(t), row)
            assert predictor.ring.shape == (2 * w, 3)  # each row held twice
            assert len(predictor.filt) <= 2 * predictor.m + 1
            assert len(predictor.times) <= w + predictor.m


# (mode, savgol window, order, window_s, stride, T, subcarriers) at 20 Hz
SWEEP = [
    ("heart", 1, 0, 1.0, 3, 40, None),        # m = 0: no look-ahead
    ("heart", 3, 1, 1.0, 1, 40, None),
    ("breath", 15, 3, 5.0, 7, 200, None),     # the default kernel
    ("apnea", 31, 3, 5.0, 9, 200, None),
    ("heart", 31, 3, 0.5, 4, 120, None),      # W = 10 < 2m+1 = 31
    ("heart", 15, 3, 2.0, 5, 60, None),       # W = 40 > 2m+1 = 15
    ("heart", 15, 3, 0.5, 1, 15, None),       # T equal to the kernel window
    ("breath", 31, 2, 1.0, 2, 31, None),      # T = 2m+1 with W < 2m+1
    ("heart", 15, 3, 2.0, 3, 40, None),       # T equal to W
    ("heart", 3, 1, 1.0, 100, 60, None),      # stride beyond the window count
    ("heart", 15, 3, 1.0, 6, 80, [3, 0]),     # subcarrier subset, reordered
    ("apnea", 31, 4, 1.5, 2, 90, [1]),        # one subcarrier
]


class TestSweep:
    @pytest.mark.parametrize("mode,sg_window,sg_order,window_s,stride,t_len,subs", SWEEP)
    def test_streaming_equals_batch_with_emission_timing(
            self, mode, sg_window, sg_order, window_s, stride, t_len, subs):
        """Each prediction equals run_pipeline_config + forward bit for bit,
        and comes from the push of packet end + m, or from finish when the
        stream ends sooner."""
        fs, m = 20.0, sg_window // 2
        rng = np.random.default_rng(t_len * 100 + sg_window)
        values = 3 + rng.standard_normal((t_len, 4)) + 1j * rng.standard_normal((t_len, 4))
        stream = CsiStream(np.arange(t_len) / fs, values, fs)
        labels = LabelSeries("heart_rate_bpm", np.array([0.0]), np.array([72.0]))
        cfg = PipelineConfig(mode=mode, window_s=window_s, stride=stride,
                             savgol=Savgol(sg_window, sg_order),
                             subcarriers=subs)
        params = init_params(ModelConfig(input_dim=4 if subs is None else len(subs),
                                         lstm1_units=4, lstm2_units=3, dense_units=2,
                                         head=MODES[mode].head), seed=3)

        segments = run_pipeline_config(
            AlignedRecording(stream, labels, np.zeros(t_len)), cfg)
        w = segments[0].values.shape[0]
        expected = []
        for seg in segments:
            end = seg.start_index + w - 1
            pred, _ = forward(params, seg.values, training=False)
            expected.append((min(end + m, t_len), float(stream.timestamps[end]), pred))

        mu, _ = streaming_column_means(values, subs)
        predictor = StreamingPredictor(params, cfg, fs, mu)
        got = []
        for k in range(t_len):
            got.extend((k, t, p) for t, p in predictor.push(stream.timestamps[k], values[k]))
            assert len(predictor.filt) <= 2 * m + 1 and len(predictor.times) <= m + 1
        got.extend((t_len, t, p) for t, p in predictor.finish())
        assert len(expected) >= 1 and got == expected


class TestNonFinite:
    def test_pass_one_names_the_packet_batch_names(self):
        rec = small_recording(duration_s=20.0)
        values = rec.stream.values.copy()
        values[123, 1] = complex(np.inf, 0.0)
        values[150, 0] = np.nan
        with pytest.raises(NonFiniteSample, match="packet 123 "):
            streaming_column_means(values)
        series = amplitude(CsiStream(rec.stream.timestamps, values, 20.0))
        with pytest.raises(NonFiniteSample, match="packet 123 "):
            remove_dc(series)
        # a one-shot iterator cannot be read again: refused, without a name
        with pytest.raises(NonFiniteSample, match="could not be read again"):
            streaming_column_means(iter(values))

    def test_overflowing_sums_are_refused(self):
        """Finite packets whose amplitude sums overflow: refused as remove_dc
        refuses them, by a re-read that finds no non-finite packet."""
        values = np.full((4, 2), 1e308 + 0j)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteSample, match="overflow"):
            streaming_column_means(values)

    def test_subset_without_the_bad_subcarrier_still_matches_batch(self):
        fs = 20.0
        rec = small_recording(duration_s=30.0, fs=fs, n_sub=4)
        rec.stream.values[40, 1] = np.nan
        recording = align(rec.stream, rec.heart)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=11,
                             subcarriers=[0, 2])
        params = init_params(ModelConfig(input_dim=2), seed=2)
        batch = batch_predictions(params, recording, cfg, fs)
        assert batch == stream_predictions(params, rec, cfg, fs)
