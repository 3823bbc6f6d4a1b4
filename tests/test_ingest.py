"""Parsing, canonical round trips, and label alignment."""

import io
import json

import numpy as np
import pytest

from pulsesense.errors import (
    EmptyStream,
    InconsistentSubcarrierCount,
    InsufficientFrames,
    InsufficientOverlap,
    MalformedLine,
    NonMonotonicTimestamp,
    SchemaMismatch,
    ValueOutOfRange,
)
from pulsesense import ingest
from pulsesense.ingest import (
    CsiStream,
    LabelSeries,
    align,
    iter_canonical,
    parse_canonical,
    parse_esp32_csv,
    parse_labels,
    utf8_lines,
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

    @pytest.mark.parametrize("stamp", ["nan", "NaN", "inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("rate", [None, 80.0])
    def test_non_finite_timestamp_names_line(self, stamp, rate):
        text = f"t,a,b\n0.0,1,2\n\n0.5,1,2\n{stamp},1,2\n2.0,1,2\n"
        with pytest.raises(MalformedLine) as err:
            parse_esp32_csv(text, sample_rate_hz=rate)
        assert err.value.line_no == 5
        assert "non-finite timestamp" in str(err.value)

    def test_non_finite_first_timestamp_names_line(self):
        with pytest.raises(MalformedLine) as err:
            parse_esp32_csv(b"-inf,1,2\n0.5,1,2\n")
        assert err.value.line_no == 1


def reference_esp32(text):
    """A line-by-line reader with one float() per field and one complex()
    per subcarrier."""
    timestamps, rows = [], []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            t = float(fields[0])
        except ValueError:
            assert line_no == 1
            continue
        ints = [float(v) for v in fields[1:]]
        timestamps.append(t)
        rows.append([complex(r, i) for r, i in zip(ints[1::2], ints[0::2])])
    return np.array(timestamps), np.array(rows, dtype=np.complex128)


def random_field(rng):
    x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
    kind = int(rng.integers(8))
    if kind == 0:
        return str(int(rng.integers(-128, 128)))
    if kind == 1:
        return repr(x)
    if kind == 2:
        return f"{x:.17g}"
    if kind == 3:
        return f"{x:.5e}"
    if kind == 4:
        return f"{x:.16E}"
    if kind == 5:
        return ["-0.0", "-0", "0.0", "+0", "-0e5"][int(rng.integers(5))]
    if kind == 6:
        return f" +{abs(x)!r}\t"
    return str(float(rng.standard_normal()) * 1e-310)  # subnormal


def random_capture(rng):
    n_sub = int(rng.integers(1, 6))
    t = 0.0
    lines = ["timestamp,data"] if rng.integers(2) else []
    for _ in range(int(rng.integers(1, 40))):
        t += float(rng.uniform(1e-3, 1.0))
        stamp = f"{t:.17g}" if rng.integers(2) else f"{t:.17e}"
        lines.append(",".join([stamp] + [random_field(rng) for _ in range(2 * n_sub)]))
        if rng.integers(8) == 0:
            lines.append("  ")
    return "\n".join(lines) + ("\n" if rng.integers(2) else "")


class TestEsp32Oracle:
    def test_equals_float_per_field_reference_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            text = random_capture(rng)
            t_ref, v_ref = reference_esp32(text)
            stream = parse_esp32_csv(text, sample_rate_hz=80.0)
            assert stream.timestamps.tobytes() == t_ref.tobytes()
            assert stream.values.tobytes() == v_ref.tobytes()

    def test_negative_zero_kept(self):
        stream = parse_esp32_csv(b"0.0,-0.0,-0,0,0\n1.0,1,2,3,4\n")
        v = stream.values[0]
        assert np.signbit(v.imag[0]) and np.signbit(v.real[0])
        assert not np.signbit(v.imag[1]) and not np.signbit(v.real[1])

    @pytest.mark.parametrize("token", ["x", "1_0", "", " ", "1.2.3", "0x10", "--1"])
    @pytest.mark.parametrize("column", [0, 1, 4])
    @pytest.mark.parametrize("line_no", [2, 4, 7])
    def test_bad_value_names_its_line(self, token, column, line_no):
        """Line 1 is a header and line 3 is blank; float() accepts "1_0" but
        the capture grammar does not."""
        lines = ["timestamp,im0,re0,im1,re1"]
        for k in range(2, 8):
            lines.append("" if k == 3 else f"{k * 0.1!r},1,2,3,4")
        fields = lines[line_no - 1].split(",")
        fields[column] = token
        lines[line_no - 1] = ",".join(fields)
        with pytest.raises(MalformedLine) as err:
            parse_esp32_csv("\n".join(lines) + "\n")
        assert err.value.line_no == line_no
        what = "timestamp" if column == 0 else f"column {column + 1}"
        assert what in str(err.value)

    def test_first_bad_line_wins(self):
        """Errors are reported for the first bad line, whatever comes later."""
        with pytest.raises(MalformedLine) as err:
            parse_esp32_csv(b"0.0,1,2\n0.1,1,2\n0.2,x,2\n0.3,1,2\n0.4,1,2,3,4\n")
        assert err.value.line_no == 3
        assert not isinstance(err.value, InconsistentSubcarrierCount)
        with pytest.raises(NonMonotonicTimestamp, match="line 2:"):
            parse_esp32_csv(b"0.5,1,2\n0.1,1,2\n0.2,1,2\n0.3,x,2\n")
        with pytest.raises(MalformedLine, match="non-numeric timestamp 'y'") as err:
            parse_esp32_csv(b"0.0,1,2\n0.1,1,2\ny,1,2,3\n")
        assert err.value.line_no == 3
        with pytest.raises(InconsistentSubcarrierCount) as err:
            parse_esp32_csv(b"0.0,1,2\n0.1,1,2\n0.0,1,2,3\n")
        assert err.value.line_no == 3


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

    @pytest.mark.parametrize("bad", ["x", None, [1.0], True, False],
                             ids=["string", "null", "nested", "true", "false"])
    @pytest.mark.parametrize("key", ["re", "im"])
    def test_non_number_value_names_line(self, bad, key):
        frame = {"t": 0.0, "re": [1.0, 2.0], "im": [3.0, 4.0]}
        broken = {"t": 1.0, "re": [1.0, 2.0], "im": [3.0, 4.0]}
        broken[key] = [0.5, bad]
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":2}\n'
                + json.dumps(frame) + "\n" + json.dumps(broken) + "\n")
        with pytest.raises(MalformedLine) as err:
            parse_canonical(text)
        assert err.value.line_no == 3

    def test_all_boolean_values_rejected(self):
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":2}\n'
                '{"t":0.0,"re":[true,false],"im":[1,2]}\n')
        with pytest.raises(MalformedLine):
            parse_canonical(text)

    def test_boolean_text_elsewhere_does_not_reject(self):
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":2}\n'
                '{"t":0.0,"re":[1,2],"im":[3,4],"note":"true full"}\n')
        assert parse_canonical(text).values.tolist() == [[1 + 3j, 2 + 4j]]

    @pytest.mark.parametrize("stamp", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_names_line(self, stamp):
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":1}\n'
                '{"t":0.0,"re":[1.0],"im":[2.0]}\n'
                + json.dumps({"t": stamp, "re": [1.0], "im": [2.0]}) + "\n")
        with pytest.raises(MalformedLine, match="non-finite timestamp") as err:
            parse_canonical(text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("stamp", [False, True, "0.5", 10 ** 400],
                             ids=["false", "true", "string", "huge-int"])
    def test_non_number_timestamp_names_line(self, stamp):
        text = ('{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":1}\n'
                + json.dumps({"t": stamp, "re": [1.0], "im": [2.0]}) + "\n"
                '{"t":2.0,"re":[1.0],"im":[2.0]}\n')
        with pytest.raises(MalformedLine, match="t must be a JSON number|too large") as err:
            parse_canonical(text)
        assert err.value.line_no == 2

    def test_signed_zeros_and_infinities_kept_bitwise(self):
        re = np.array([[-0.0, 0.0, 1.5, np.inf], [2.0, -np.inf, -0.0, 3.0]])
        im = np.array([[0.0, -0.0, np.inf, -0.0], [-np.inf, 0.0, 1.0, -0.0]])
        values = np.empty(re.shape, dtype=np.complex128)
        values.real, values.imag = re, im
        stream = CsiStream([0.0, 0.0125], values, 80.0)
        with np.errstate(all="raise"):
            back = parse_canonical(write_canonical(stream))
        assert back.values.tobytes() == values.tobytes()

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


class TestLabelGrammar:
    """Label files follow the ESP32 capture grammar."""

    def test_header_blank_and_whitespace_lines_skipped(self):
        series = parse_labels(b"time,bpm\n0.0,72\n\n \t\n1.0,73\r\n", "heart_rate_bpm")
        assert series.timestamps.tolist() == [0.0, 1.0]
        assert series.values.tolist() == [72.0, 73.0]

    def test_equals_float_per_field(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 30))
            t = np.cumsum(rng.uniform(1e-3, 2.0, n))
            v = rng.uniform(30.0, 220.0, n)
            lines = [f"{a!r},{b:.9g}" for a, b in zip(t.tolist(), v.tolist())]
            series = parse_labels("\n".join(lines), "heart_rate_bpm")
            assert series.timestamps.tolist() == [float(x.split(",")[0]) for x in lines]
            assert series.values.tolist() == [float(x.split(",")[1]) for x in lines]

    @pytest.mark.parametrize("token,column", [("1_0", 2), ("x", 2), ("", 2), ("1_0", 1)])
    def test_non_number_names_line_and_column(self, token, column):
        fields = ["1.0", "73"]
        fields[column - 1] = token
        text = "0.0,72\n" + ",".join(fields) + "\n2.0,74\n"
        what = "timestamp" if column == 1 else "value in column 2"
        with pytest.raises(MalformedLine, match=f"line 2: non-numeric {what}"):
            parse_labels(text, "heart_rate_bpm")

    def test_field_count_names_line(self):
        with pytest.raises(MalformedLine, match="line 3: expected 2 fields, got 3"):
            parse_labels(b"0.0,72\n1.0,73\n2.0,74,1\n", "heart_rate_bpm")

    def test_non_increasing_timestamp_names_line(self):
        with pytest.raises(NonMonotonicTimestamp, match="line 4: timestamp 1.0 not after 1.0"):
            parse_labels(b"0.0,72\n1.0,73\n\n1.0,74\n", "heart_rate_bpm")

    @pytest.mark.parametrize("line", ["nan,72", "3.0,inf", "3.0,-inf"])
    def test_non_finite_names_line(self, line):
        with pytest.raises(MalformedLine, match="line 3: non-finite"):
            parse_labels(f"0.0,72\n1.0,73\n{line}\n", "heart_rate_bpm")

    @pytest.mark.parametrize("text", [b"", b"\n\n", b"  \n", b"time,bpm\n"])
    def test_no_data_lines(self, text):
        with pytest.raises(MalformedLine, match="no data lines"):
            parse_labels(text, "heart_rate_bpm")


class TestBulkPath:
    def test_blank_and_whitespace_lines_convert_in_one_call(self, monkeypatch):
        calls = []
        convert = ingest._read_numbers
        monkeypatch.setattr(ingest, "_read_numbers",
                            lambda lines: calls.append(len(lines)) or convert(lines))
        text = "t,a,b\n0.0,1,2\n\n   \n0.5,3,4\n\t\n1.0,5,6\n \r\n"
        stream = parse_esp32_csv(text)
        assert calls == [3]
        assert stream.values.tolist() == [[2 + 1j], [4 + 3j], [6 + 5j]]


CANONICAL_HEADER = '{"schema":"pulse-sense/csi/v1","sample_rate_hz":80.0,"subcarriers":1}'


class TestUtf8:
    @pytest.mark.parametrize("reader,csv", [
        (parse_esp32_csv, True),
        (lambda data: parse_labels(data, "heart_rate_bpm"), True),
        (parse_canonical, False),
        (lambda data: list(iter_canonical(utf8_lines(io.BytesIO(data)))[2]), False),
    ], ids=["esp32", "labels", "canonical", "streamed"])
    def test_invalid_byte_names_its_line(self, reader, csv):
        if csv:
            lines = [b"0.0,72", b"1.0,73", b"2.0,74", b"3.0,75"]
        else:
            lines = [CANONICAL_HEADER.encode()] + [
                json.dumps({"t": k, "re": [1.0], "im": [2.0]}).encode() for k in range(3)]
        lines[2] = lines[2][:4] + b"\xff" + lines[2][4:]
        with pytest.raises(MalformedLine, match="line 3: not UTF-8") as err:
            reader(b"\n".join(lines) + b"\n")
        assert err.value.line_no == 3


class TestCanonicalHeader:
    @pytest.mark.parametrize("field,value", [
        ("sample_rate_hz", '"80"'), ("sample_rate_hz", "true"), ("sample_rate_hz", "null"),
        ("subcarriers", "1.9"), ("subcarriers", "1.0"), ("subcarriers", "true"),
        ("subcarriers", '"1"'),
    ])
    def test_header_types(self, field, value):
        header = json.loads(CANONICAL_HEADER)
        header[field] = json.loads(value)
        text = json.dumps(header) + '\n{"t":0.0,"re":[1.0],"im":[2.0]}\n'
        with pytest.raises(SchemaMismatch, match="must be a JSON number"):
            parse_canonical(text)
        with pytest.raises(SchemaMismatch, match="must be a JSON number"):
            iter_canonical(text.split("\n"))

    def test_huge_integer_rate_refused(self):
        text = CANONICAL_HEADER.replace("80.0", "1" + "0" * 400) + "\n"
        with pytest.raises(SchemaMismatch, match="positive and finite"):
            parse_canonical(text)

    @pytest.mark.parametrize("count", [2**59 + 1, 2**62, 2**63, 2**70])
    def test_subcarrier_count_past_the_largest_row_refused(self, count):
        """A header-only stream too: its (0, S) complex128 array cannot be made."""
        text = CANONICAL_HEADER.replace('"subcarriers":1', f'"subcarriers":{count}') + "\n"
        with pytest.raises(SchemaMismatch, match="an array numpy can index"):
            parse_canonical(text)

    def test_integer_rate_accepted(self):
        stream = parse_canonical(CANONICAL_HEADER.replace("80.0", "80")
                                 + '\n{"t":0.0,"re":[1.0],"im":[2.0]}\n')
        assert stream.sample_rate_hz == 80.0


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

    def test_stream_without_frames_is_empty(self):
        stream = self._stream_at([])
        labels = LabelSeries("heart_rate_bpm", [0.0, 1.0], [60.0, 61.0])
        with pytest.raises(EmptyStream, match="stream has no frames"):
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
