"""Parsing, canonical round trips, and label alignment."""

import json

import numpy as np
import pytest

from pulsesense.errors import (
    InconsistentSubcarrierCount,
    InsufficientFrames,
    InsufficientOverlap,
    MalformedLine,
    NonMonotonicTimestamp,
    SchemaMismatch,
    ValueOutOfRange,
)
from pulsesense.ingest import (
    CsiStream,
    LabelSeries,
    align,
    parse_canonical,
    parse_esp32_csv,
    parse_labels,
    write_canonical,
)


def random_stream(rng, n_frames, n_sub, fs=80.0):
    t = np.cumsum(rng.uniform(0.5, 1.5, n_frames)) / fs
    values = rng.standard_normal((n_frames, n_sub)) + 1j * rng.standard_normal((n_frames, n_sub))
    return CsiStream(t, values, fs)


class TestEsp32Csv:
    def test_field_mapping(self):
        """Values alternate imaginary,real per subcarrier."""
        stream = parse_esp32_csv(b"0.0125,0,3,0,4\n1.0,1,0,2,0\n")
        assert stream.subcarrier_count == 2
        assert stream.values[0, 0] == complex(3, 0)
        assert stream.values[0, 1] == complex(4, 0)
        assert stream.values[1, 0] == complex(0, 1)
        assert stream.timestamps[0] == 0.0125

    def test_sample_rate_from_400_packets_over_5s(self):
        """401 frames spanning exactly 5 s estimate to 80 Hz."""
        lines = "\n".join(f"{i * 5.0 / 400},1,2" for i in range(401))
        stream = parse_esp32_csv(lines.encode())
        assert stream.sample_rate_hz == pytest.approx(80.0, abs=1e-9)

    def test_header_line_skipped(self):
        stream = parse_esp32_csv(b"time,data\n0.0,0,1\n0.5,0,2\n")
        assert stream.frame_count == 2

    def test_odd_value_count_rejected(self):
        with pytest.raises(InconsistentSubcarrierCount):
            parse_esp32_csv(b"0.0,1,2,3\n")

    def test_subcarrier_count_change_rejected(self):
        with pytest.raises(InconsistentSubcarrierCount) as err:
            parse_esp32_csv(b"0.0,1,2\n1.0,1,2,3,4\n")
        assert err.value.line_no == 2

    def test_non_monotonic_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            parse_esp32_csv(b"1.0,1,2\n1.0,3,4\n")

    def test_single_frame_needs_rate_override(self):
        with pytest.raises(InsufficientFrames):
            parse_esp32_csv(b"0.0,1,2\n")
        stream = parse_esp32_csv(b"0.0,1,2\n", sample_rate_hz=80.0)
        assert stream.sample_rate_hz == 80.0

    def test_garbage_line_reports_number(self):
        with pytest.raises(MalformedLine) as err:
            parse_esp32_csv(b"0.0,1,2\n0.5,x,2\n")
        assert err.value.line_no == 2


class TestCanonical:
    def test_single_zero_frame(self):
        zeros = "[" + ",".join(["0.0"] * 64) + "]"
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":64}\n'
                f'{{"t":0.0,"re":{zeros},"im":{zeros}}}\n')
        stream = parse_canonical(text)
        assert stream.frame_count == 1
        assert stream.subcarrier_count == 64
        assert np.all(stream.values == 0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            stream = random_stream(rng, int(rng.integers(1, 50)),
                                   int(rng.integers(1, 8)))
            back = parse_canonical(write_canonical(stream))
            assert np.array_equal(back.timestamps, stream.timestamps)
            assert np.array_equal(back.values, stream.values)
            assert back.sample_rate_hz == stream.sample_rate_hz

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            parse_canonical('{"schema":"someone/else/v9","sample_rate_hz":1,"subcarriers":1}\n')

    @pytest.mark.parametrize("key", ["t", "re", "im"])
    def test_missing_key_names_line(self, key):
        frame = {"t": 0.0, "re": [1.0, 2.0], "im": [3.0, 4.0]}
        bad = {k: v for k, v in frame.items() if k != key}
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":2}\n'
                + json.dumps(frame) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(MalformedLine) as err:
            parse_canonical(text)
        assert err.value.line_no == 3

    def test_wrong_width_line(self):
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":64}\n'
                '{"t":0.0,"re":' + str([0.0] * 63) + ',"im":' + str([0.0] * 64) + '}\n')
        with pytest.raises(MalformedLine):
            parse_canonical(text)


class TestLabels:
    def test_heart_rate_labels(self):
        series = parse_labels(b"0.0,72\n1.0,73\n", "heart_rate_bpm")
        assert len(series) == 2
        assert series.values[1] == 73

    def test_out_of_range(self):
        with pytest.raises(ValueOutOfRange):
            parse_labels(b"0.0,500\n", "heart_rate_bpm")

    def test_apnea_binary(self):
        series = parse_labels(b"0.0,1\n20.0,0\n", "apnea_flag")
        assert list(series.values) == [1.0, 0.0]
        with pytest.raises(ValueOutOfRange):
            parse_labels(b"0.0,0.5\n", "apnea_flag")

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicTimestamp):
            parse_labels(b"1.0,72\n0.5,73\n", "heart_rate_bpm")


class TestAlign:
    def _stream_at(self, times, fs=80.0):
        t = np.asarray(times, dtype=float)
        values = np.ones((len(t), 1), dtype=complex)
        return CsiStream(t, values, fs)

    def test_nearest(self):
        stream = self._stream_at([0.4])
        labels = LabelSeries("heart_rate_bpm", [0.0, 1.0], [72.0, 80.0])
        rec = align(stream, labels)
        assert rec.alignment[0] == 72.0

    def test_tie_goes_to_earlier(self):
        stream = self._stream_at([0.5])
        labels = LabelSeries("heart_rate_bpm", [0.0, 1.0], [72.0, 80.0])
        assert align(stream, labels).alignment[0] == 72.0

    def test_outside_span_takes_endpoint(self):
        stream = self._stream_at([0.0, 0.5, 3.0, 9.0])
        labels = LabelSeries("heart_rate_bpm", [1.0, 8.0], [60.0, 90.0])
        rec = align(stream, labels)
        assert rec.alignment[0] == 60.0
        assert rec.alignment[-1] == 90.0

    def test_insufficient_overlap(self):
        stream = self._stream_at([0.0, 1.0])
        labels = LabelSeries("heart_rate_bpm", [10.0, 20.0], [60.0, 61.0])
        with pytest.raises(InsufficientOverlap):
            align(stream, labels)

    def test_alignment_length_matches_frames(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            stream = random_stream(rng, n, 2)
            t_end = stream.timestamps[-1]
            lt = np.linspace(0, max(t_end, 1e-3), 5)
            labels = LabelSeries("heart_rate_bpm", lt, rng.uniform(60, 90, 5))
            assert align(stream, labels).alignment.shape == (n,)


class TestStreamInvariants:
    def test_non_monotonic_stream_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            CsiStream([0.0, 0.0], np.ones((2, 1), dtype=complex), 80.0)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            CsiStream([0.0], np.ones((2, 1), dtype=complex), 80.0)
