"""Streaming inference must reproduce the batch pipeline bit for bit."""

import dataclasses
import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from pulsesense.dsp import (
    MODES,
    AmplitudeSeries,
    PipelineConfig,
    Savgol,
    amplitude,
    filter_values,
    remove_dc,
    run_pipeline_config,
    savgol_kernel,
    segment,
    smooth_values,
    standardize,
)
from pulsesense.dsp import pipeline
from pulsesense.dsp.pipeline import FrontEnd, column_means
from pulsesense import streaming
from pulsesense.errors import (
    NonFiniteSample,
    NonMonotonicTimestamp,
    SchemaMismatch,
    SeriesTooShort,
    ShapeMismatch,
    StreamFinished,
    ValueOutOfRange,
)
from pulsesense.ingest import AlignedRecording, CsiStream, align
from pulsesense.nn import ModelConfig, forward, init_params
from pulsesense.streaming import (
    PACKET_BLOCK,
    StreamingPredictor,
    streaming_column_means,
)
from pulsesense.synth import Scenario, Schedule, generate, scenario_by_name


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


class OneShot:
    """The packets of ``values``, which may be iterated once: a second
    iteration fails the test."""

    def __init__(self, values):
        self.values = values
        self.read = False

    def __iter__(self):
        assert not self.read, "the packets were read a second time"
        self.read = True
        return iter(self.values)


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
        mu_batch, _ = column_means([amplitude(rec.stream).values])
        assert count == rec.stream.frame_count
        assert np.array_equal(mu_stream, mu_batch)


class TestPacketDtypes:
    @pytest.mark.parametrize("dtype", [np.complex64, np.float32, np.int16,
                                       np.complex128])
    def test_packets_of_any_dtype_stream_as_batch_on_the_same_values(self, dtype):
        """Packets of each dtype, against batch on the complex128 copy of the
        same values: push takes amplitudes in complex128 as batch does."""
        fs = 20.0
        rec = small_recording(duration_s=30.0, fs=fs)
        values = rec.stream.values
        if dtype is np.int16:
            typed = np.round(values.real * 1000).astype(dtype)
        elif np.dtype(dtype).kind == "f":
            typed = values.real.astype(dtype)
        else:
            typed = values.astype(dtype)
        stream = dataclasses.replace(rec.stream, values=typed)  # widened to complex128
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=7)
        params = init_params(ModelConfig(input_dim=3), seed=1)
        batch = batch_predictions(params, align(stream, rec.heart), cfg, fs)
        mu, _ = streaming_column_means(iter(typed))
        predictor = StreamingPredictor(params, cfg, fs, mu)
        got = []
        for t, row in zip(stream.timestamps, typed):
            got.extend(predictor.push(float(t), row))
        got.extend(predictor.finish())
        assert len(batch) > 0 and got == batch


class TestInferencePlan:
    def test_predictor_builds_its_plan_once(self, monkeypatch):
        built = []

        class Counting(streaming.InferencePlan):
            def __init__(self, params, shape):
                built.append(tuple(shape))
                super().__init__(params, shape)

        monkeypatch.setattr(streaming, "InferencePlan", Counting)
        fs = 20.0
        rec = small_recording(duration_s=30.0, fs=fs)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=7)
        params = init_params(ModelConfig(input_dim=3), seed=1)
        got = stream_predictions(params, rec, cfg, fs)
        assert len(got) > 2 and built == [(1, 100, 3)]

    def test_emitting_push_allocates_no_gate_array(self):
        """After the first emission built the plan, an emitting push runs it
        in its own buffers: its traced peak stays below layer 2's (T, 4H)
        gate array, the smaller of the two."""
        fs = 20.0
        rec = small_recording(duration_s=30.0, fs=fs)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=7)
        model_cfg = ModelConfig(input_dim=3)
        params = init_params(model_cfg, seed=1)
        mu, _ = streaming_column_means(iter(rec.stream.values))
        predictor = StreamingPredictor(params, cfg, fs, mu)
        peaks = []
        for t, row in zip(rec.stream.timestamps, rec.stream.values):
            if predictor.plan is None:
                predictor.push(float(t), row)
                continue
            tracemalloc.start()
            try:
                out = predictor.push(float(t), row)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if out:
                peaks.append(peak)
        gate_bytes = predictor.w * 4 * model_cfg.lstm2_units * 8
        assert len(peaks) > 2 and max(peaks) < gate_bytes


class TestBoundedMemory:
    def test_buffers_do_not_grow_with_stream_length(self):
        fs = 20.0
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=50)
        params = init_params(ModelConfig(input_dim=3), seed=0)
        rec = small_recording(duration_s=60.0, fs=fs)
        mu, _ = streaming_column_means(iter(rec.stream.values))
        predictor = StreamingPredictor(params, cfg, fs, mu)
        front = predictor.front
        w, m = predictor.w, predictor.m
        padded, smoothed = front.padded, front.smoothed
        # O(W + stride + m) rows: W + stride + 3m padded, 2W + stride + m smoothed
        assert len(front.padded) + len(front.smoothed) == 3 * w + 2 * cfg.stride + 4 * m
        for t, row in zip(rec.stream.timestamps, rec.stream.values):
            predictor.push(float(t), row)
            assert front.padded is padded and front.smoothed is smoothed
            assert len(predictor.times) <= m + 1

    def test_one_block_of_a_whole_recording_takes_no_larger_buffers(self):
        """run_pipeline_config's single feed is taken in pieces of the free
        padded rows: the buffers stay the size they were built at."""
        rec = small_recording(duration_s=60.0)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=3)
        amp = amplitude(rec.stream).values
        front = FrontEnd(cfg, 20.0, column_means([amp])[0])
        padded, smoothed = front.padded, front.smoothed
        shapes = padded.shape, smoothed.shape
        windows = front.feed(amp) + front.finish()
        assert len(windows) == (len(amp) - front.w) // 3 + 1
        assert front.padded is padded and front.smoothed is smoothed
        assert (padded.shape, smoothed.shape) == shapes
        assert len(padded) + len(smoothed) < len(amp) // 2


class TestBlockFiltering:
    def test_cascade_runs_when_a_window_is_due_and_once_in_finish(self, monkeypatch):
        """A push stores its DC-removed row; the waiting rows are band-passed
        in one FilterState.process call when a window is due (a stream fed
        one packet at a time never fills the padded buffer), and finish
        band-passes the rest in one more, each packet exactly once. Each
        window's new rows are smoothed in one smooth_padded call."""
        fs = 20.0
        rec = small_recording(duration_s=30.0, fs=fs)
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=7)
        params = init_params(ModelConfig(input_dim=3), seed=1)
        mu, _ = streaming_column_means(rec.stream.values)
        predictor = StreamingPredictor(params, cfg, fs, mu)
        blocks, batches = [], []
        state = predictor.front.filter_state
        process, smooth = state.process, pipeline.smooth_padded
        monkeypatch.setattr(state, "process", lambda x: blocks.append(len(x)) or process(x))
        monkeypatch.setattr(pipeline, "smooth_padded",
                            lambda kernel, padded: batches.append(len(padded))
                            or smooth(kernel, padded))
        emitted = 0
        for t, row in zip(rec.stream.timestamps, rec.stream.values):
            emitted += len(predictor.push(float(t), row))
        assert len(blocks) == len(batches) == emitted > 0
        assert len(blocks) < rec.stream.frame_count // 4
        pushed_blocks = len(blocks)
        assert predictor.finish()
        assert len(blocks) == pushed_blocks + 1 and len(batches) == emitted + 1
        assert sum(blocks) == rec.stream.frame_count


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
    # W = 10 < stride: windows apart, rows between them never smoothed
    ("heart", 3, 1, 0.5, 45, 120, None),
]


def sweep_recording(mode, sg_window, sg_order, window_s, stride, t_len, subs):
    """A SWEEP case at 20 Hz: its aligned recording and pipeline config."""
    fs = 20.0
    rng = np.random.default_rng(t_len * 100 + sg_window)
    values = 3 + rng.standard_normal((t_len, 4)) + 1j * rng.standard_normal((t_len, 4))
    stream = CsiStream(np.arange(t_len) / fs, values, fs)
    cfg = PipelineConfig(mode=mode, window_s=window_s, stride=stride,
                         savgol=Savgol(sg_window, sg_order), subcarriers=subs)
    return AlignedRecording(stream, np.zeros(t_len)), cfg


def check_emissions_against_batch(mode, sg_window, sg_order, window_s, stride,
                                  t_len, subs):
    """Each prediction equals run_pipeline_config + forward bit for bit,
    and comes from the push of packet end + m, or from finish when the
    stream ends sooner."""
    fs, m = 20.0, sg_window // 2
    recording, cfg = sweep_recording(mode, sg_window, sg_order, window_s, stride,
                                     t_len, subs)
    stream = recording.stream
    values = stream.values
    params = init_params(ModelConfig(input_dim=4 if subs is None else len(subs),
                                     lstm1_units=4, lstm2_units=3, dense_units=2,
                                     head=MODES[mode].head), seed=3)

    segments = run_pipeline_config(recording, cfg)
    w = segments[0].values.shape[0]
    expected = []
    for seg in segments:
        end = seg.start_index + w - 1
        pred, _ = forward(params, seg.values, training=False)
        expected.append((min(end + m, t_len), float(stream.timestamps[end]), pred))

    mu, _ = streaming_column_means(values, subs)
    predictor = StreamingPredictor(params, cfg, fs, mu)
    front = predictor.front
    padded, smoothed = front.padded, front.smoothed
    got = []
    for k in range(t_len):
        got.extend((k, t, p) for t, p in predictor.push(stream.timestamps[k], values[k]))
        assert front.padded is padded and front.smoothed is smoothed
        assert len(predictor.times) <= m + 1
    got.extend((t_len, t, p) for t, p in predictor.finish())
    assert len(expected) >= 1 and got == expected


class TestSweep:
    @pytest.mark.parametrize("mode,sg_window,sg_order,window_s,stride,t_len,subs", SWEEP)
    def test_streaming_equals_batch_with_emission_timing(
            self, mode, sg_window, sg_order, window_s, stride, t_len, subs):
        check_emissions_against_batch(mode, sg_window, sg_order, window_s, stride,
                                      t_len, subs)

    @pytest.mark.parametrize("mode,sg_window,sg_order,window_s,stride,t_first", [
        # W = 10 < 2m+1 = 15; up to T = 16 no row is smoothed before finish,
        # which band-passes every row in one block, near-edge mirror included
        ("heart", 15, 3, 0.5, 45, 15),
        ("heart", 15, 3, 0.5, 45, 100),  # the same later in the stream
        ("heart", 15, 3, 0.5, 1, 15),    # a window ends on every ready row
        ("breath", 15, 3, 2.0, 5, 40),   # W = 40 > 2m+1
        ("apnea", 3, 1, 1.0, 3, 20),     # m = 1
    ])
    def test_stop_at_every_offset_within_one_compaction_span(
            self, mode, sg_window, sg_order, window_s, stride, t_first):
        """Streams of each length from t_first to t_first plus one padded
        buffer, the longest span between two moves of its live rows to the
        front, so finish meets every count of rows still waiting to be
        band-passed and smoothed, at every position of those rows."""
        cfg = PipelineConfig(mode=mode, window_s=window_s, stride=stride,
                             savgol=Savgol(sg_window, sg_order))
        span = len(FrontEnd(cfg, 20.0, np.zeros(4)).padded)
        for t_len in range(t_first, t_first + span + 1):
            check_emissions_against_batch(mode, sg_window, sg_order, window_s,
                                          stride, t_len, None)


def composed_windows(recording, cfg):
    """The reference chain: the stage functions over whole arrays."""
    fs = recording.stream.sample_rate_hz
    cascade, _ = cfg.stages(fs)
    kernel = savgol_kernel(cfg.savgol.window, cfg.savgol.order)
    series = amplitude(recording.stream)
    if cfg.subcarriers is not None:
        series = AmplitudeSeries(series.values[:, cfg.subcarriers], fs)
    series = remove_dc(series)
    smoothed = smooth_values(kernel, filter_values(cascade, series.values))
    return [standardize(raw) for raw in
            segment(AmplitudeSeries(smoothed, fs), cfg.window_s, cfg.stride)]


class TestFrontEnd:
    @pytest.mark.parametrize("case", SWEEP)
    def test_run_pipeline_config_equals_the_stage_functions(self, case):
        """The oracle the front end answers to: the stage functions composed
        over whole arrays, window for window and bit for bit."""
        recording, cfg = sweep_recording(*case)
        expected = composed_windows(recording, cfg)
        segments = run_pipeline_config(recording, cfg)
        assert len(segments) == len(expected) >= 1
        for k, (seg, window) in enumerate(zip(segments, expected)):
            assert seg.start_index == k * cfg.stride
            assert seg.values.tobytes() == window.tobytes()

    @pytest.mark.parametrize("case", SWEEP)
    def test_any_block_split_gives_the_same_windows(self, case):
        """Blocks of 1, 2, 7, 33 and T rows, with an empty block among them,
        give the windows of the stage functions in the same order."""
        recording, cfg = sweep_recording(*case)
        expected = composed_windows(recording, cfg)
        amp = amplitude(recording.stream).values
        if cfg.subcarriers is not None:
            amp = amp[:, cfg.subcarriers]
        mu, t_len = column_means([amp])
        for size in (1, 2, 7, 33, t_len):
            front = FrontEnd(cfg, 20.0, mu)
            got = front.feed(amp[:0])
            for lo in range(0, t_len, size):
                got += front.feed(amp[lo:lo + size])
                if lo == 0:
                    got += front.feed(amp[:0])
            got += front.finish()
            assert [start for start, _ in got] == [
                k * cfg.stride for k in range(len(expected))]
            assert [window.tobytes() for _, window in got] == [
                window.tobytes() for window in expected]


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
        # read once, the packets still name the bad one
        with pytest.raises(NonFiniteSample, match="packet 123 "):
            streaming_column_means(OneShot(values))

    def test_overflowing_sums_are_refused(self):
        """Finite packets whose amplitude sums overflow: refused as remove_dc
        refuses them, after the last block, since no packet is non-finite."""
        values = np.full((4, 2), 1e308 + 0j)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteSample, match="overflow"):
            streaming_column_means(values)

    def test_non_finite_packet_after_overflowing_sums_is_named(self):
        """Sums that overflow in block 0 do not hide the NaN packet of block
        2: it is named, not refused as an overflow."""
        values = np.ones((3 * PACKET_BLOCK, 2), dtype=complex)
        values[:PACKET_BLOCK] = 1e308
        bad = 2 * PACKET_BLOCK + 9
        values[bad, 1] = np.nan
        series = amplitude(CsiStream(np.arange(len(values)) / 20.0, values, 20.0))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteSample, match=f"packet {bad} "):
                streaming_column_means(values)
            with pytest.raises(NonFiniteSample, match=f"packet {bad} "):
                remove_dc(series)

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


def row_by_row_means(values, subcarriers=None):
    """Reference pass one: each packet's amplitudes, added to the sum one row
    at a time."""
    acc = None
    for packet in values:
        amp = np.abs(packet)
        if subcarriers is not None:
            amp = amp[subcarriers]
        if acc is None:
            acc = np.zeros(amp.shape)
        acc += amp
    return acc / len(values)


def complex_packets(t_len, n_sub, seed):
    rng = np.random.default_rng(seed)
    return 3 + rng.standard_normal((t_len, n_sub)) + 1j * rng.standard_normal((t_len, n_sub))


class TestPassOneBlocks:
    def test_stream_of_blocks_and_a_partial_block_equals_row_by_row(self):
        values = complex_packets(2 * PACKET_BLOCK + 37, 5, seed=21)
        for subs in (None, [4, 1]):
            mu, count = streaming_column_means(iter(values), subs)
            assert count == len(values)
            assert mu.tobytes() == row_by_row_means(values, subs).tobytes()

    def test_one_subcarrier_equals_row_by_row(self):
        """At S=1 numpy's reduce sums pairwise; the mean must not."""
        values = complex_packets(PACKET_BLOCK + 3, 1, seed=22)
        expected = row_by_row_means(values).tobytes()
        assert streaming_column_means(values)[0].tobytes() == expected
        amp = amplitude(CsiStream(np.arange(len(values)) / 20.0, values, 20.0)).values
        assert column_means([amp])[0].tobytes() == expected

    def test_any_split_into_blocks_gives_the_same_bits(self):
        rng = np.random.default_rng(23)
        for n_sub in (2, 3, 64, 234):
            re, im = rng.standard_normal((2, 300, n_sub))
            amp = np.abs(re + 1j * im) * 1e3
            expected = row_by_row_means(amp.astype(complex)).tobytes()
            for sizes in ([300], [1] * 300, [7, 0, 93, 200], [299, 1]):
                edges = np.cumsum([0] + sizes)
                blocks = [amp[a:b] for a, b in zip(edges, edges[1:])]
                # a subset taken by fancy indexing can come out F-ordered
                for order in (blocks, [np.asfortranarray(b) for b in blocks]):
                    mu, count = column_means(order)
                    assert count == 300 and mu.tobytes() == expected

    def test_packets_read_once_give_the_same_bits(self):
        values = complex_packets(2 * PACKET_BLOCK + 37, 5, seed=27)
        for subs in (None, [4, 1]):
            mu, count = streaming_column_means(OneShot(values), subs)
            assert count == len(values)
            assert mu.tobytes() == row_by_row_means(values, subs).tobytes()

    @pytest.mark.parametrize("shape", [(1,), (2,), (4,), (), (1, 3)])
    @pytest.mark.parametrize("bad", [7, PACKET_BLOCK + 7])
    def test_packet_of_another_shape_is_named(self, shape, bad):
        """A packet that is not a row of the first packet's width is refused
        by its index, in the first block or a later one; a 1-wide packet is
        not spread over every subcarrier."""
        packets = list(complex_packets(2 * PACKET_BLOCK, 3, seed=26))
        packets[bad] = np.ones(shape, dtype=complex)
        for subs in (None, [2, 0]):
            name = f"packet {bad} of shape {re.escape(str(shape))} "
            with pytest.raises(ShapeMismatch, match=name):
                streaming_column_means(OneShot(packets), subs)

    @pytest.mark.parametrize("packet", [np.array(["1", "2", "3"]), [None, None, None],
                                        [1 + 1j, "x", "y"]], ids=["text", "none", "mixed"])
    @pytest.mark.parametrize("bad", [0, 7, PACKET_BLOCK + 7])
    def test_packet_that_is_not_numbers_is_refused_as_push_refuses_it(self, packet, bad):
        """Text and objects are not parsed into numbers ('1' as 1+0j), taken
        for a non-finite sample (None) or left to a bare ValueError: the
        packet is a ShapeMismatch by its index, in block 0 or a later one, in
        the words push refuses it with."""
        packets = list(complex_packets(2 * PACKET_BLOCK, 3, seed=28))
        packets[bad] = packet
        for subs in (None, [2, 0]):
            rec, params, cfg, mu = predictor_for(subcarriers=subs)
            with pytest.raises(ShapeMismatch) as pushed:
                StreamingPredictor(params, cfg, 20.0, mu).push(0.0, packet)
            words = str(pushed.value).removeprefix("packet 0 ")
            with pytest.raises(ShapeMismatch) as caught:
                streaming_column_means(OneShot(packets), subs)
            assert str(caught.value) == f"packet {bad} {words}"

    def test_first_packet_must_be_a_row(self):
        for first in (np.ones((2, 3), dtype=complex), np.complex128(1.0)):
            with pytest.raises(ShapeMismatch, match="packet 0 "):
                streaming_column_means([first, np.ones(3, dtype=complex)])

    def test_non_finite_packet_in_a_later_block_is_named_by_its_global_index(self):
        values = complex_packets(3 * PACKET_BLOCK, 4, seed=24)
        bad = PACKET_BLOCK + 5
        values[bad, 2] = complex(np.nan, 1.0)
        values[bad + PACKET_BLOCK, 0] = complex(0.0, -np.inf)
        with pytest.raises(NonFiniteSample, match=f"packet {bad} "):
            streaming_column_means(values)
        series = amplitude(CsiStream(np.arange(len(values)) / 20.0, values, 20.0))
        with pytest.raises(NonFiniteSample, match=f"packet {bad} "):
            remove_dc(series)
        with pytest.raises(NonFiniteSample, match=f"packet {bad} "):
            streaming_column_means(OneShot(values))


def predictor_for(n_sub=3, subcarriers=None, seed=25):
    rec = small_recording(duration_s=20.0, n_sub=n_sub, seed=seed)
    cfg = PipelineConfig(mode="heart", window_s=2.0, stride=5, subcarriers=subcarriers)
    params = init_params(ModelConfig(input_dim=n_sub if subcarriers is None
                                     else len(subcarriers)), seed=4)
    mu, _ = streaming_column_means(rec.stream.values, subcarriers)
    return rec, params, cfg, mu


class TestRefusals:
    def test_means_that_do_not_fit_the_model_are_refused(self):
        rec, params, cfg, mu = predictor_for()
        for bad in (np.append(mu, 1.0), mu[:2], mu[None], np.float64(mu[0])):
            with pytest.raises(ShapeMismatch, match="column means"):
                StreamingPredictor(params, cfg, 20.0, bad)

    def test_non_finite_means_are_refused(self):
        rec, params, cfg, mu = predictor_for()
        for value in (np.nan, np.inf, -np.inf):
            bad = mu.copy()
            bad[1] = value
            with pytest.raises(NonFiniteSample, match="column means"):
                StreamingPredictor(params, cfg, 20.0, bad)

    @pytest.mark.parametrize("subs", [[-1], [0, 0], [2, -1], [1, 2, 1],
                                      [2 ** 70], [0, 2 ** 63], [1.5], [True],
                                      [0, np.float64(2.0)]])
    def test_negative_or_repeated_subcarriers_are_refused(self, subs):
        """In subcarrier_index's words, as run_pipeline_config and pass one
        refuse them, whether the width is not yet known (the predictor) or
        known (pass one); so are entries that are not integers, which numpy
        would truncate, and entries past the intp range. An entry past a
        packet's width refuses that packet."""
        rec, _, cfg, mu = predictor_for()
        cfg = dataclasses.replace(cfg, subcarriers=subs)
        params = init_params(ModelConfig(input_dim=len(subs)), seed=4)
        words = re.escape(f"pipeline.subcarriers {subs} must name distinct columns ")
        with pytest.raises(SchemaMismatch, match=words):
            StreamingPredictor(params, cfg, 20.0, mu[:len(subs)])
        with pytest.raises(SchemaMismatch, match=words):
            streaming_column_means(rec.stream.values, subs)

    @pytest.mark.parametrize("subs", [None, [2, 0]])
    def test_refused_packets_leave_the_stream_as_it_was(self, subs):
        """Packets of the wrong width or not numbers, packets with a
        non-finite selected sample and timestamps that are not a finite
        number after the previous one are refused with typed errors naming
        the 0-based packet index, and so is a finish too short for the
        windows; the stream then goes on as if they never came. After
        finish, a push and a second finish are refused alike."""
        rec, params, cfg, mu = predictor_for(subcarriers=subs)
        expected = stream_predictions(params, rec, cfg, 20.0)
        values, times = rec.stream.values, rec.stream.timestamps
        wrong_width = [values[0, :2], values[:2], values[0, 0]]
        if subs is None:  # a subset only needs its columns to be there
            wrong_width += [values[0, :1], np.append(values[0], 1.0)]
        non_finite = []
        for sub, value in ((subs or [0])[0], np.nan), ((subs or [1])[-1], np.inf):
            packet = values[0].copy()
            packet[sub] = complex(value, 0.0)
            non_finite.append(packet)
        huge = values[0].copy()
        huge[(subs or [2])[0]] = complex(1.5e308, 1.5e308)  # finite, |.| overflows
        non_finite.append(huge)
        not_numbers = [values[0].astype(str), "abc", [None] * values.shape[1],
                       [values[0, :2], values[0, :1]]]
        bad_times = [np.nan, np.inf, -np.inf, "abc", "1e9", None, [1.0, 2.0]]
        predictor = StreamingPredictor(params, cfg, 20.0, mu)

        def refused(error, match, call, *args):
            state = state_of(predictor)
            with np.errstate(over="ignore"), pytest.raises(error, match=match):
                call(*args)
            assert state_of(predictor) == state

        refused(SeriesTooShort, "stream of 0 packets", predictor.finish)
        got = []
        for k, (t, row) in enumerate(zip(times, values)):
            if k in (0, 57, len(values) - 1):
                for packet in wrong_width + not_numbers:
                    refused(ShapeMismatch, f"packet {k} ", predictor.push, float(t), packet)
                for packet in non_finite:
                    refused(NonFiniteSample, f"packet {k} has a non-finite",
                            predictor.push, float(t), packet)
                # the previous packet's time and one before it are not after it
                stale = [float(times[k - 1]), float(times[k - 1]) - 1.0] if k else []
                for bad in bad_times + stale:
                    refused(NonMonotonicTimestamp, f"packet {k}: timestamp ",
                            predictor.push, bad, row)
            got.extend(predictor.push(float(t), row))
        got.extend(predictor.finish())
        assert len(expected) > 0 and got == expected
        refused(StreamFinished, "push after finish", predictor.push,
                float(times[-1]) + 1.0, values[0])
        refused(StreamFinished, "finish after finish", predictor.finish)


# packets outside the one packet rule, refused by push and pass one alike
REFUSED_PACKETS = {
    "boolean": np.array([True, False, True]),
    "ragged": [np.ones(2, dtype=complex), np.ones(1, dtype=complex)],
    "text": np.array(["1", "2", "3"]),
    "none": None,
    "0-d": np.complex128(1.0),
    "2-d": np.ones((1, 3), dtype=complex),
    "narrower": np.ones(2, dtype=complex),
    "wider": np.ones(4, dtype=complex),
}
# packets of other numeric dtypes among complex128 ones, taken as their copy
TAKEN_PACKETS = {
    "int16": np.array([30, -20, 50], dtype=np.int16),
    "complex64": np.array([1.1 + 2.2j, -3.3 + 0.1j, 5.5 - 4.4j], dtype=np.complex64),
}


class TestOnePacketRule:
    @pytest.mark.parametrize("subs", [None, [2, 0]])
    @pytest.mark.parametrize("case, bad", [
        (case, bad) for case in [*REFUSED_PACKETS, *TAKEN_PACKETS]
        for bad in (0, 7, PACKET_BLOCK + 7)
        # packet 0 sets the width the others are held to
        if bad or case not in ("narrower", "wider")])
    def test_push_and_pass_one_take_and_refuse_the_same_packets(self, case, bad, subs):
        """Pass one meets the packet as packet ``bad`` of its stream, push
        after ``bad`` good packets: each refuses it as a ShapeMismatch naming
        ``bad``, in the same words wherever pass one knows packet 0's width,
        or each takes it as its complex128 copy, bit for bit."""
        packet = {**REFUSED_PACKETS, **TAKEN_PACKETS}[case]
        packets = list(complex_packets(2 * PACKET_BLOCK, 3, seed=29))
        packets[bad] = packet
        rec, params, cfg, mu = predictor_for(subcarriers=subs)
        times, values = rec.stream.timestamps, rec.stream.values

        def pushed(predictor, packet):
            for t, row in zip(times[:bad], values):
                predictor.push(float(t), row)
            return predictor.push(float(times[bad]), packet)

        if case in TAKEN_PACKETS:
            copy = [np.asarray(p, dtype=np.complex128) for p in packets]
            mu_copy, count = streaming_column_means(copy, subs)
            assert count == len(packets)
            assert streaming_column_means(OneShot(packets), subs)[0].tobytes() \
                == mu_copy.tobytes()
            predictors = [StreamingPredictor(params, cfg, 20.0, mu) for _ in range(2)]
            got = [pushed(pred, p) for pred, p in zip(predictors, (packet, copy[bad]))]
            for pred, out in zip(predictors, got):
                for t, row in zip(times[bad + 1:], values[bad + 1:]):
                    out.extend(pred.push(float(t), row))
                out.extend(pred.finish())
            assert len(got[0]) > 0 and got[0] == got[1]
            return
        with pytest.raises(ShapeMismatch) as caught:
            streaming_column_means(OneShot(packets), subs)
        with pytest.raises(ShapeMismatch) as refused:
            pushed(StreamingPredictor(params, cfg, 20.0, mu), packet)
        for error in (caught, refused):
            assert str(error.value).startswith(f"packet {bad} ")
        if bad or case in ("boolean", "text"):  # packet 0 is a row
            assert str(caught.value) == str(refused.value)


def scaled_esp32_capture(scale):
    """The first 20 s of fixed_easy_esp32 (1600 packets x 64 at 80 Hz) with
    its CSI multiplied by ``scale``."""
    scenario = dataclasses.replace(scenario_by_name("fixed_easy_esp32"), duration_s=20.0)
    rec = generate(scenario)
    stream = CsiStream(rec.stream.timestamps, rec.stream.values * scale,
                       rec.stream.sample_rate_hz)
    return dataclasses.replace(rec, stream=stream)


class TestTooLargeToStandardize:
    """A window whose squared deviations overflow is a ValueOutOfRange in
    push and finish, as in batch, with no warning on the way."""

    cfg = PipelineConfig(mode="heart", window_s=5.0, stride=16)  # W = 400, m = 7

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_push_refuses_the_first_window(self, scale):
        rec = scaled_esp32_capture(scale)
        values, times = rec.stream.values, rec.stream.timestamps
        params = init_params(ModelConfig(input_dim=64), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, _ = streaming_column_means(values)
            predictor = StreamingPredictor(params, self.cfg, 80.0, mu)
            for t, row in zip(times[:406], values[:406]):
                assert predictor.push(float(t), row) == []
            # packet 406 completes the window ending on packet 399
            with pytest.raises(ValueOutOfRange, match="too large to standardize"):
                predictor.push(float(times[406]), values[406])

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_finish_refuses_the_last_windows(self, scale):
        values = scaled_esp32_capture(scale).stream.values[:403]
        params = init_params(ModelConfig(input_dim=64), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predictor = StreamingPredictor(params, self.cfg, 80.0,
                                           streaming_column_means(values)[0])
            for k, row in enumerate(values):
                assert predictor.push(k / 80.0, row) == []
            with pytest.raises(ValueOutOfRange, match="too large to standardize"):
                predictor.finish()

    def test_a_capture_scaled_by_1e150_still_streams_as_batch(self):
        rec = scaled_esp32_capture(1e150)
        params = init_params(ModelConfig(input_dim=64), seed=3)
        batch = batch_predictions(params, align(rec.stream, rec.heart), self.cfg, 80.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = stream_predictions(params, rec, self.cfg, 80.0)
        assert len(batch) == 76 and stream == batch


def state_of(predictor):
    """Everything of a predictor and its front end that a push or finish
    changes, comparable."""
    def fields(obj, skip):
        return {name: value.tobytes() if isinstance(value, np.ndarray)
                else tuple(value) if isinstance(value, deque) else value
                for name, value in vars(obj).items() if name != skip}
    front = predictor.front
    return (fields(predictor, "front"), fields(front, "filter_state"),
            front.filter_state._pipe.tobytes(), front.filter_state._phase)
