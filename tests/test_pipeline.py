"""Pipeline stages and the assembled five-stage chain."""

import dataclasses
import math
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pulsesense.dsp import (
    AmplitudeSeries,
    PipelineConfig,
    WindowSegment,
    amplitude,
    read_segment_dump,
    remove_dc,
    run_pipeline,
    run_pipeline_config,
    segment,
    standardize,
    write_segment_dump,
)
from pulsesense.dsp import pipeline
from pulsesense.dsp.pipeline import FrontEnd, Savgol, front_end_rows, magnitude
from pulsesense.errors import (
    BadMagic,
    EmptyStream,
    MalformedLine,
    NonFiniteSample,
    ValueOutOfRange,
    WindowLongerThanSeries,
)
from pulsesense.ingest import CsiStream, align
from pulsesense.synth import Scenario, Schedule, generate, scenario_by_name


def make_stream(values, fs=80.0):
    t = np.arange(values.shape[0]) / fs
    return CsiStream(t, values, fs)


class TestAmplitude:
    def test_pythagorean(self):
        stream = make_stream(np.array([[3 + 4j]]))
        assert amplitude(stream).values[0, 0] == 5.0

    def test_zero(self):
        stream = make_stream(np.array([[0 + 0j]]))
        assert amplitude(stream).values[0, 0] == 0.0

    def test_matches_hypot_oracle(self):
        """1000 random complex samples against element-wise sqrt(re^2+im^2)."""
        rng = np.random.default_rng(8)
        re = rng.uniform(-50, 50, (1000, 1))
        im = rng.uniform(-50, 50, (1000, 1))
        stream = make_stream(re + 1j * im)
        got = amplitude(stream).values
        expected = np.sqrt(re ** 2 + im ** 2)
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_empty_stream(self):
        stream = CsiStream(np.empty(0), np.empty((0, 4), dtype=complex), 80.0)
        with pytest.raises(EmptyStream):
            amplitude(stream)

    @staticmethod
    def block(seed=30, shape=(97, 233)):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-6, 6, shape)
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def test_row_alone_gives_its_bits_inside_the_block(self):
        values = self.block()
        whole = magnitude(values)
        for i, row in enumerate(values):
            assert magnitude(row).tobytes() == whole[i].tobytes()

    def test_column_subset_strided_view_and_fortran_order_give_the_block_bits(self):
        values = self.block()
        whole = magnitude(values)
        # a subset taken by fancy indexing can come out F-ordered
        picked = [200, 3, 17, 100, 4]
        assert magnitude(values[:, picked]).tobytes() == whole[:, picked].tobytes()
        assert magnitude(values[::3, 1::2]).tobytes() == whole[::3, 1::2].tobytes()
        assert magnitude(np.asfortranarray(values)).tobytes() == whole.tobytes()

    def test_every_width_gives_the_block_bits(self):
        """Widths 1..S cover every tail a vector loop leaves."""
        values = self.block()
        whole = magnitude(values)
        for width in range(1, values.shape[1] + 1):
            assert magnitude(values[:, :width]).tobytes() == whole[:, :width].tobytes()
            assert magnitude(values[5, :width]).tobytes() == whole[5, :width].tobytes()

    @pytest.mark.parametrize("dtype", [np.complex64, np.float32, np.int16])
    def test_narrow_dtypes_give_the_bits_of_their_complex128_copy(self, dtype):
        values = self.block(shape=(40, 37)) * 1e-3
        if np.dtype(dtype).kind == "c":
            narrow = values.astype(dtype)
        else:
            narrow = np.clip(values.real * 1e4, -3e4, 3e4).astype(dtype)
        wide = narrow.astype(np.complex128)
        assert magnitude(narrow).tobytes() == magnitude(wide).tobytes()

    def test_within_two_ulp_of_the_exact_modulus(self):
        """|z| exactly from fractions: sqrt(re^2 + im^2) to 120 bits."""
        rng = np.random.default_rng(31)
        n = 2000
        modulus = 10.0 ** rng.uniform(-300, 300, n)
        angle = rng.uniform(0, 2 * np.pi, n)
        values = modulus * (np.cos(angle) + 1j * np.sin(angle) * 10.0 ** rng.uniform(-20, 0, n))
        for z, got in zip(values, magnitude(values)):
            square = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
            p, q = square.numerator, square.denominator
            k = 120 - (p.bit_length() - q.bit_length()) // 2
            exact = (Fraction(math.isqrt((p << 2 * k) // q), 1 << k) if k >= 0
                     else Fraction(math.isqrt(p // (q << -2 * k)) << -k))
            assert abs(Fraction(float(got)) - exact) <= 2 * Fraction(math.ulp(float(exact))), z

    @pytest.mark.parametrize("z, expected", [
        (complex(np.inf, np.nan), np.inf), (complex(np.nan, -np.inf), np.inf),
        (complex(-np.inf, 0.0), np.inf), (complex(0.0, np.inf), np.inf),
        (complex(np.nan, 0.0), np.nan), (complex(1.0, np.nan), np.nan),
        (complex(np.nan, np.nan), np.nan),
        (complex(0.0, 0.0), 0.0), (complex(-0.0, -0.0), 0.0), (complex(-0.0, 0.0), 0.0),
        (complex(1e308, 1e308), 1.4142135623730951e308),
        (complex(-1e308, 1e308), 1.4142135623730951e308),
        (complex(3e-320, 4e-320), 5e-320), (complex(5e-324, 5e-324), 5e-324),
        (complex(2.2e-308, 0.0), 2.2e-308), (complex(0.0, -5e-324), 5e-324),
    ])
    def test_c99_special_values(self, z, expected):
        """inf beats NaN, NaN stays NaN, zeros give +0, no overflow while
        |z| is finite, subnormals kept: amplitudes are >= 0 or NaN."""
        # alone and as one lane of a vector with finite neighbours
        values = np.full(10, 1 + 2j)
        values[5] = z
        for got in (magnitude(np.array([z]))[0], magnitude(values)[5]):
            if 0 < expected < np.inf:
                # finite moduli hold to the kernel's 2 ulp, not to its last bit
                assert abs(got - expected) <= 2 * math.ulp(expected)
            else:
                np.testing.assert_array_equal(got, expected)
            assert not np.signbit(got)


class TestRemoveDc:
    def test_simple_column(self):
        series = AmplitudeSeries(np.array([[1.0], [2.0], [3.0]]), 80.0)
        np.testing.assert_allclose(remove_dc(series).values[:, 0], [-1, 0, 1],
                                   atol=1e-15)

    def test_constant_column_zeroed(self):
        series = AmplitudeSeries(np.full((3, 1), 5.0), 80.0)
        np.testing.assert_allclose(remove_dc(series).values, 0.0, atol=1e-15)

    def test_random_matrix_column_means_vanish(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(0, 100, (400, 64))
        out = remove_dc(AmplitudeSeries(values, 80.0)).values
        scale = np.abs(values).max()
        assert np.abs(out.mean(axis=0)).max() < 1e-12 * scale

    def test_single_sample_column(self):
        series = AmplitudeSeries(np.array([[4.2, 7.0]]), 80.0)
        np.testing.assert_allclose(remove_dc(series).values, 0.0, atol=1e-15)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                     complex(-np.inf, 2.0)])
    def test_non_finite_sample_names_first_packet(self, bad):
        values = np.ones((30, 3), dtype=complex)
        values[17, 1] = bad
        values[25, 0] = np.nan
        series = amplitude(make_stream(values))
        with pytest.raises(NonFiniteSample, match="packet 17 "):
            remove_dc(series)

    def test_overflowing_sums_are_refused(self):
        series = AmplitudeSeries(np.full((4, 2), 1e308), 80.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteSample, match="overflow"):
            remove_dc(series)

    def test_process_stops_before_any_window(self):
        recording, _ = heart_recording(duration_s=20.0)
        recording.stream.values[200, 2] = complex(np.nan, 0.0)
        with pytest.raises(NonFiniteSample, match="packet 200 "):
            run_pipeline(recording, "heart", 5.0, 200)
        # a subset without the bad subcarrier never reads it
        assert run_pipeline_config(recording, PipelineConfig(
            mode="heart", window_s=5.0, stride=200, subcarriers=[0, 1]))


class TestSegment:
    def test_window_of_5s_at_80hz_is_400_packets(self):
        series = AmplitudeSeries(np.zeros((450, 2)), 80.0)
        windows = segment(series, 5.0)
        assert windows[0].shape == (400, 2)

    def test_spec_example_two_windows(self):
        series = AmplitudeSeries(np.zeros((101, 1)), 20.0)
        windows = segment(series, 5.0, 1)  # W = 100
        assert len(windows) == 2

    def test_exact_fit_single_window(self):
        series = AmplitudeSeries(np.zeros((80, 1)), 80.0)
        assert len(segment(series, 1.0)) == 1

    def test_stride(self):
        series = AmplitudeSeries(np.zeros((100, 1)), 10.0)
        assert len(segment(series, 1.0, 10)) == 10

    def test_window_longer_than_series(self):
        series = AmplitudeSeries(np.zeros((10, 1)), 80.0)
        with pytest.raises(WindowLongerThanSeries):
            segment(series, 1.0)


class TestStandardize:
    def test_two_sample_column(self):
        out = standardize(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0], atol=1e-12)

    def test_constant_column_zeros(self):
        out = standardize(np.full((10, 2), 3.3))
        assert np.all(out == 0.0)

    def test_random_window_moments(self):
        rng = np.random.default_rng(3)
        out = standardize(rng.standard_normal((400, 64)) * 7 + 3)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        win = rng.standard_normal((50, 4))
        once = standardize(win)
        twice = standardize(once)
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_segment_then_standardize_preserves_shape_and_count(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t_len = int(rng.integers(30, 300))
            fs = float(rng.uniform(5, 100))
            w = int(rng.integers(5, t_len + 1))
            stride = int(rng.integers(1, 20))
            series = AmplitudeSeries(rng.standard_normal((t_len, 3)), fs)
            windows = segment(series, w / fs, stride)
            assert len(windows) == (t_len - len(windows[0])) // stride + 1
            for win in windows:
                out = standardize(win)
                assert out.shape == win.shape

    def test_equals_numpy_formula_bitwise(self):
        """(x - mean) / std per column, bit for bit; columns with std below
        1e-12 (a constant column among them) come out as +0.0."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            w, s = int(rng.integers(2, 500)), int(rng.integers(1, 70))
            x = rng.standard_normal((w, s)) * rng.uniform(1e-3, 1e3) + rng.uniform(-50, 50)
            x[:, int(rng.integers(s))] = rng.uniform(-5, 5)
            sd = x.std(0)
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = (x - x.mean(0)) / sd
            expected[:, sd < 1e-12] = 0.0
            assert standardize(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_window_whose_squares_overflow_is_refused_without_warnings(self, scale):
        """Divided by an infinite std every value would come out zero."""
        window = np.random.default_rng(9).standard_normal((400, 4))
        one_column = window.copy()
        one_column[:, 2] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (window * scale, one_column):
                with pytest.raises(ValueOutOfRange, match="too large to standardize"):
                    standardize(bad)
            out = standardize(window * 1e150)
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9


def heart_recording(duration_s=60.0, fs=80.0, n_sub=4, seed=0):
    scenario = Scenario(name="unit", duration_s=duration_s, sample_rate_hz=fs,
                        subcarriers=n_sub, hr_bpm=Schedule.constant(72.0),
                        br_brpm=Schedule.constant(15.0), noise_std=0.05,
                        seed=seed)
    rec = generate(scenario)
    return align(rec.stream, rec.heart), rec


def scaled_esp32_capture(scale):
    """The first 20 s of fixed_easy_esp32 (1600 packets x 64 at 80 Hz) with
    its CSI multiplied by ``scale``, aligned to its heart labels."""
    scenario = dataclasses.replace(scenario_by_name("fixed_easy_esp32"), duration_s=20.0)
    rec = generate(scenario)
    stream = CsiStream(rec.stream.timestamps, rec.stream.values * scale,
                       rec.stream.sample_rate_hz)
    return align(stream, rec.heart)


class TestRunPipeline:
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_capture_too_large_to_standardize_is_refused(self, scale):
        """Scaled by 1e200 its 76 windows used to come out all zeros, with
        only a RuntimeWarning; scaled by 1e150 it still runs."""
        cfg = PipelineConfig(mode="heart", window_s=5.0, stride=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueOutOfRange, match="too large to standardize"):
                run_pipeline_config(scaled_esp32_capture(scale), cfg)
            segments = run_pipeline_config(scaled_esp32_capture(1e150), cfg)
        assert len(segments) == 76
        assert all(np.abs(seg.values.std(axis=0) - 1.0).max() < 1e-9 for seg in segments)

    def test_segment_count_60s(self):
        recording, _ = heart_recording()
        segments = run_pipeline(recording, "heart", 5.0, 1)
        assert len(segments) == 4401
        assert segments[0].values.shape == (400, 4)

    def test_segments_standardized(self):
        recording, _ = heart_recording()
        segments = run_pipeline(recording, "heart", 5.0, 200)
        for seg in segments:
            assert np.abs(seg.values.mean(axis=0)).max() < 1e-9
            std = seg.values.std(axis=0)
            live = std > 0
            assert np.abs(std[live] - 1.0).max() < 1e-9

    def test_determinism(self):
        recording, _ = heart_recording(duration_s=20.0)
        a = run_pipeline(recording, "heart", 5.0, 100)
        b = run_pipeline(recording, "heart", 5.0, 100)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.values, sb.values)
            assert sa.label == sb.label

    def test_rate_label_is_window_mean(self):
        recording, _ = heart_recording(duration_s=20.0)
        segments = run_pipeline(recording, "heart", 5.0, 100)
        for seg in segments:
            assert seg.label == pytest.approx(72.0)

    def test_apnea_majority_label(self):
        scenario = Scenario(name="apnea-unit", duration_s=60.0,
                            sample_rate_hz=20.0, subcarriers=2,
                            hr_bpm=Schedule.constant(72.0),
                            br_brpm=Schedule.constant(15.0),
                            apnea_intervals=((20.0, 40.0),),
                            noise_std=0.01, seed=1)
        rec = generate(scenario)
        recording = align(rec.stream, rec.apnea)
        segments = run_pipeline(recording, "apnea", 10.0, 40)
        w = segments[0].values.shape[0]
        fs = 20.0
        for seg in segments:
            t0 = seg.start_index / fs
            t1 = (seg.start_index + w - 1) / fs
            inside = max(0.0, min(t1, 40.0) - max(t0, 20.0))
            expected = 1.0 if inside / (t1 - t0) >= 0.5 else 0.0
            assert seg.label == expected, (t0, t1)

    def test_heart_band_rejects_low_frequencies(self):
        """Mean PSD below 0.4 Hz sits >= 25 dB under the passband (Hann
        periodogram oracle on synthetic input; Hann controls leakage from the
        strong cardiac line)."""
        scenario = Scenario(name="psd-unit", duration_s=120.0,
                            sample_rate_hz=80.0, subcarriers=3,
                            hr_bpm=Schedule.constant(72.0),
                            br_brpm=Schedule.constant(6.0),
                            noise_std=0.05, seed=7)
        rec = generate(scenario)
        recording = align(rec.stream, rec.heart)
        segments = run_pipeline(recording, "heart", 30.0, 400)
        psd_lo, psd_pass = [], []
        fs = 80.0
        w = segments[0].values.shape[0]
        taper = np.hanning(w)[:, None]
        for seg in segments:
            spec = np.abs(np.fft.rfft(seg.values * taper, axis=0)) ** 2
            freqs = np.fft.rfftfreq(w, 1 / fs)
            lo = (freqs > 0) & (freqs < 0.4)
            band = (freqs >= 0.8) & (freqs <= 2.17)
            psd_lo.append(spec[lo].mean())
            psd_pass.append(spec[band].mean())
        ratio_db = 10 * np.log10(np.mean(psd_lo) / np.mean(psd_pass))
        assert ratio_db <= -25.0


class TestPipelineConfig:
    def test_explicit_band_overrides_mode_default(self):
        from pulsesense.config import read_pipeline
        from pulsesense.dsp import MODES
        cfg = read_pipeline({"mode": "heart", "band": {"low_hz": 0.5, "high_hz": 3.0}})
        assert cfg.effective_band() == (0.5, 3.0)
        cfg = read_pipeline({"mode": "breath"})
        assert cfg.effective_band() == MODES["breath"].band

    @pytest.mark.parametrize("window_s, stride, sg_window", [
        (0.05, 1, 3), (1.0, 7, 5), (2.0, 40, 15), (5.0, 16, 31)])
    def test_stages_checks_the_rows_the_front_end_allocates(
            self, monkeypatch, window_s, stride, sg_window):
        """The size check guards FrontEnd's two buffers, W + stride + 3m
        padded and 2W + stride + m smoothed rows, and nothing else."""
        checked = []
        monkeypatch.setattr(pipeline, "fits_one_array",
                            lambda count, itemsize: checked.append((count, itemsize)) or True)
        cfg = PipelineConfig(window_s=window_s, stride=stride, savgol=Savgol(sg_window, 2))
        front = FrontEnd(cfg, 20.0, np.zeros(3))
        w, m = round(window_s * 20.0), sg_window // 2
        rows = (len(front.padded), len(front.smoothed))
        assert rows == front_end_rows(w, stride, m) == (w + stride + 3 * m, 2 * w + stride + m)
        assert front.padded.shape[1] == front.smoothed.shape[1] == 3
        assert checked == [(max(rows) * 3, 8)]


class TestSegmentDump:
    def test_round_trip(self):
        recording, _ = heart_recording(duration_s=20.0)
        segments = run_pipeline(recording, "heart", 5.0, 100)
        data = write_segment_dump(segments)
        assert data[:6] == b"PSSEG1"
        values, labels = read_segment_dump(data)
        assert values.shape == (len(segments), 400, 4)
        for i, seg in enumerate(segments):
            np.testing.assert_array_equal(
                values[i], seg.values.astype(np.float32).astype(np.float64))
            assert labels[i] == np.float32(seg.label)

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_segment_dump(b"NOTSEG" + b"\x00" * 20)

    @pytest.mark.parametrize("length", [3, 10, 17])
    def test_truncated_header(self, length):
        recording, _ = heart_recording(duration_s=20.0)
        data = write_segment_dump(run_pipeline(recording, "heart", 5.0, 100))
        with pytest.raises(MalformedLine):
            read_segment_dump(data[:length])

    @pytest.mark.parametrize("field", ["count", "W", "S"])
    def test_zero_header_dimension(self, field):
        dims = {"count": 2, "W": 3, "S": 4}
        dims[field] = 0
        data = b"PSSEG1" + struct.pack("<III", dims["count"], dims["W"], dims["S"])
        data += b"\x00" * (dims["count"] * (dims["W"] * dims["S"] + 1) * 4)
        with pytest.raises(MalformedLine, match="zero dimension"):
            read_segment_dump(data)


def reference_read_segment_dump(data):
    """The per-record struct reader: one frombuffer and one unpack per record."""
    count, w, s = struct.unpack_from("<III", data, 6)
    values = np.empty((count, w, s), dtype=np.float64)
    labels = np.empty(count, dtype=np.float64)
    off = 18
    for i in range(count):
        arr = np.frombuffer(data, dtype="<f4", count=w * s, offset=off)
        values[i] = arr.reshape(w, s)
        off += w * s * 4
        labels[i] = struct.unpack_from("<f", data, off)[0]
        off += 4
    return values, labels


class TestSegmentDumpOracle:
    @pytest.mark.parametrize("count,w,s", [(1, 1, 1), (1, 6, 3), (4, 5, 1),
                                           (7, 1, 9), (30, 40, 4)])
    def test_equals_per_record_reader_bitwise(self, count, w, s):
        """Non-finite records are refused, naming the first; with them made
        finite, the rest reads back bit for bit."""
        rng = np.random.default_rng(count * 1000 + w * 10 + s)
        values = rng.standard_normal((count, w, s)) * 10.0 ** rng.integers(-30, 30)
        flat = values.reshape(-1)
        specials = [-0.0, np.inf, -np.inf, np.nan, 1e-42, 3.4e38]
        flat[rng.integers(0, flat.size, len(specials))] = specials
        labels = rng.uniform(-200.0, 200.0, count)
        labels[0] = -0.0

        def dump():
            return write_segment_dump([WindowSegment(values[i], float(labels[i]), i, 1.0)
                                       for i in range(count)])

        data = dump()
        ref_values, ref_labels = reference_read_segment_dump(data)
        bad = np.flatnonzero(~np.isfinite(ref_values).all(axis=(1, 2)) | ~np.isfinite(ref_labels))
        if bad.size:
            with pytest.raises(NonFiniteSample, match=f"record {bad[0]} "):
                read_segment_dump(data)
            flat[~np.isfinite(flat)] = 1.0
            data = dump()
        got_values, got_labels = read_segment_dump(data)
        want_values, want_labels = reference_read_segment_dump(data)
        assert got_values.dtype == np.float32 and want_values.dtype == np.float64
        assert got_values.shape == want_values.shape == (count, w, s)
        assert got_values.astype(np.float64).tobytes() == want_values.tobytes()
        assert got_labels.shape == want_labels.shape == (count,)
        assert got_labels.tobytes() == want_labels.tobytes()


def reference_write_segment_dump(segments):
    """The writer before it wrote in place: a float32 copy of each window
    and a packed label per record in a list, then one join."""
    w, s = segments[0].values.shape
    parts = [b"PSSEG1", struct.pack("<III", len(segments), w, s)]
    for seg in segments:
        parts.append(np.asarray(seg.values, dtype="<f4").tobytes(order="C"))
        parts.append(struct.pack("<f", seg.label))
    return b"".join(parts)


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


class TestSegmentDumpWriter:
    @pytest.mark.parametrize("count,w,s", [(1, 1, 1), (1, 6, 3), (4, 5, 1),
                                           (7, 1, 9), (30, 40, 4)])
    def test_bytes_equal_the_joined_records(self, count, w, s):
        """Signed zeros, infinities, NaN payloads, subnormals and values past
        the float32 range are cast as the per-record copies cast them."""
        rng = np.random.default_rng(count * 1000 + w * 10 + s + 7)
        values = rng.standard_normal((count, w, s)) * 10.0 ** rng.integers(-40, 40)
        flat = values.reshape(-1)
        specials = [-0.0, np.inf, -np.inf, np.nan, _nan(0x7FF8000000000123),
                    _nan(0xFFF4000020000000), 1e-42, -1e-310, 3.4e38, 1e39]
        flat[rng.integers(0, flat.size, len(specials))] = specials
        labels = rng.uniform(-200.0, 200.0, count)
        labels[rng.integers(0, count, 3)] = [-0.0, np.nan, _nan(0x7FF8000040000001)]
        segments = [WindowSegment(values[i], float(labels[i]), i, 1.0)
                    for i in range(count)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = write_segment_dump(segments)
            want = reference_write_segment_dump(segments)
        assert isinstance(got, bytearray)
        assert bytes(got) == want

    def test_label_past_float32_range_raises(self):
        segments = [WindowSegment(np.zeros((2, 2)), 1e39, 0, 1.0)]
        with pytest.raises(OverflowError):
            reference_write_segment_dump(segments)
        with pytest.raises(OverflowError):
            write_segment_dump(segments)


class TestSegmentDumpMemory:
    # 6.4 MB of payload: 1% of it covers the constant 32 KB buffer that the
    # reader's min/max reduction takes
    COUNT, W, S = 500, 200, 16

    @pytest.fixture(scope="class")
    def segments(self):
        rng = np.random.default_rng(3)
        return [WindowSegment(rng.standard_normal((self.W, self.S)), 70.0 + i, i, 1.0)
                for i in range(self.COUNT)]

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_writer_allocates_the_dump_once(self, segments):
        data, peak = self.traced_peak(write_segment_dump, segments)
        assert peak < 1.05 * len(data)

    def test_reader_returns_a_view(self, segments):
        """The values stay in the dump's bytes (read-only, even in a
        bytearray); only the labels are widened."""
        data = write_segment_dump(segments)
        (values, labels), peak = self.traced_peak(read_segment_dump, data)
        assert peak < 0.01 * (len(data) - 18) + labels.nbytes
        assert values.dtype == np.float32 and not values.flags.writeable
        assert labels.dtype == np.float64
        assert np.shares_memory(values, np.frombuffer(data, dtype=np.uint8))
