"""Parsing and alignment of CSI recordings and ground-truth label series.

Two on-disk recording formats are read:

* ESP32 CSV: one frame per line, ``timestamp,<2S ints>`` where the integers
  alternate imaginary,real per subcarrier (toolchain convention).
* Canonical JSONL: a header object followed by one frame object per line.
  This is the lossless interchange format written by the toolkit itself.

Both formats require finite, strictly increasing timestamps. Label files
are ``timestamp,value`` CSV, read by the same CSV reader as ESP32 captures.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .errors import (
    EmptyStream,
    InconsistentSubcarrierCount,
    InsufficientFrames,
    InsufficientOverlap,
    MalformedLine,
    NonMonotonicTimestamp,
    SchemaMismatch,
    ValueOutOfRange,
)

CANONICAL_SCHEMA = "pulse-sense/csi/v1"

LABEL_KINDS = ("heart_rate_bpm", "breathing_rate_brpm", "apnea_flag")

# Plausibility ranges enforced on parse; apnea labels must be exactly 0/1.
_LABEL_RANGES = {
    "heart_rate_bpm": (30.0, 220.0),
    "breathing_rate_brpm": (4.0, 40.0),
    "apnea_flag": (0.0, 1.0),
}

TextSource = Union[bytes, str, IO[bytes], IO[str]]
Frame = Tuple[float, np.ndarray, np.ndarray]  # one canonical line: t, re, im


@dataclass
class CsiStream:
    """A CSI recording: per-packet complex channel values at a nominal rate.

    ``values`` has shape (T, S); ``timestamps`` is strictly increasing and
    expressed in seconds since recording start.
    """

    timestamps: np.ndarray
    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("values must be a (T, S) matrix")
        if self.values.shape[0] != self.timestamps.shape[0]:
            raise ValueError("timestamps and values disagree on frame count")
        if self.values.shape[1] < 1:
            raise ValueError("subcarrier count must be positive")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.timestamps.size > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise NonMonotonicTimestamp("timestamps must be strictly increasing")

    @property
    def subcarrier_count(self) -> int:
        return self.values.shape[1]

    @property
    def frame_count(self) -> int:
        return self.values.shape[0]


@dataclass
class LabelSeries:
    """Ground-truth samples of one kind, strictly increasing in time."""

    kind: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"unknown label kind {self.kind!r}")
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.timestamps.shape != self.values.shape or self.timestamps.ndim != 1:
            raise ValueError("timestamps/values must be equal-length vectors")
        if self.timestamps.size > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise NonMonotonicTimestamp(f"{self.kind}: timestamps must be strictly increasing")
        lo, hi = _LABEL_RANGES[self.kind]
        bad = np.flatnonzero(~((self.values >= lo) & (self.values <= hi)))  # NaN too
        if self.kind == "apnea_flag":
            bad = np.flatnonzero((self.values != 0.0) & (self.values != 1.0))
        if bad.size:
            t = self.timestamps[bad[0]]
            raise ValueOutOfRange(
                f"{self.kind}: value {self.values[bad[0]]} at t={t} outside allowed range")

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass
class AlignedRecording:
    """A stream plus a per-frame label value (nearest-label association)."""

    stream: CsiStream
    labels: LabelSeries
    alignment: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.alignment = np.asarray(self.alignment, dtype=np.float64)
        if self.alignment.shape[0] != self.stream.frame_count:
            raise ValueError("alignment length must equal frame count")


def _utf8_error(line_no: int, exc: UnicodeDecodeError) -> MalformedLine:
    return MalformedLine(line_no, f"not UTF-8: {exc.reason}")


def utf8_lines(lines: Iterable[bytes]) -> Iterator[str]:
    """Decode each of ``lines``; an undecodable one is a MalformedLine."""
    for line_no, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _utf8_error(line_no, exc) from None


def _iter_text_lines(source: TextSource) -> List[str]:
    """The text's lines, split at LF only (as io.StringIO would split them)."""
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _utf8_error(data.count(b"\n", 0, exc.start) + 1, exc) from None
    return data.split("\n")


def complex_values(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array whose parts are exactly ``re`` and ``im``.

    Assigning the parts keeps signed zeros and infinities, which arithmetic
    such as ``re + 1j * im`` does not.
    """
    values = np.empty(np.shape(re), dtype=np.complex128)
    values.real = re
    values.imag = im
    return values


def _read_numbers(lines: List[str]) -> np.ndarray:
    """The number converter: comma-separated fields, one row per line."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _is_header(line: str) -> bool:
    """Whether float() cannot read the first field (a header, on line 1)."""
    try:
        float(line.strip().partition(",")[0])
    except ValueError:
        return True
    return False


def _read_csv(source: TextSource,
              width_error: Callable[[int, int], Optional[MalformedLine]],
              finite: int) -> np.ndarray:
    """The (N, fields) table of a CSV file in the grammar both CSV formats share.

    Blank lines and a line-1 header are skipped. Every line has the first
    line's field count, for which ``width_error(line_no, count)`` returns no
    error. Fields are numbers in numpy's grammar, the first ``finite``
    columns finite, and the timestamps in column 0 strictly increasing.

    All lines are converted in one call and checked at once. Only if that
    fails are they read again one at a time, to raise for the first bad line.
    """
    lines = _iter_text_lines(source)
    body = list(filter(str.strip, lines[1:] if _is_header(lines[0]) else lines))
    try:
        table = _read_numbers(body) if body else None
    except ValueError:
        table = None
    if (table is not None and width_error(0, table.shape[1]) is None
            and np.isfinite(table[:, :finite]).all()
            and (np.diff(table[:, 0]) > 0).all()):
        return table
    rows = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or (line_no == 1 and _is_header(line)):
            continue
        fields = line.split(",")
        _check_number(line_no, fields, 0)
        error = width_error(line_no, len(fields))
        if error is None and rows and len(fields) != rows[0].size:
            error = InconsistentSubcarrierCount(
                line_no, f"{len(fields)} fields where earlier lines have {rows[0].size}")
        if error is not None:
            raise error
        try:
            row = _read_numbers([line])[0]
        except ValueError:
            for col in range(1, len(fields)):
                _check_number(line_no, fields, col)
            raise MalformedLine(line_no, "unreadable values") from None
        for col in range(finite):
            if not math.isfinite(row[col]):
                raise MalformedLine(line_no, f"non-finite {_column(col)} {row[col]}")
        if rows and not row[0] > rows[-1][0]:
            raise NonMonotonicTimestamp(
                f"line {line_no}: timestamp {row[0]} not after {rows[-1][0]}")
        rows.append(row)
    if not rows:
        raise MalformedLine(0, "no data lines")
    return np.stack(rows)


def _column(col: int) -> str:
    return "timestamp" if col == 0 else f"value in column {col + 1}"


def _check_number(line_no: int, fields: List[str], col: int) -> None:
    """Raise MalformedLine unless ``fields[col]`` is a number."""
    try:
        if not fields[col].strip():  # the converter would skip it as an empty line
            raise ValueError
        _read_numbers([fields[col]])
    except ValueError:
        raise MalformedLine(line_no, f"non-numeric {_column(col)} {fields[col]!r}") from None


def _esp32_width(line_no: int, count: int) -> Optional[MalformedLine]:
    if count == 1:
        return MalformedLine(line_no, "no subcarrier values")
    if count % 2 == 0:
        return InconsistentSubcarrierCount(
            line_no, f"odd value count {count - 1} (expected 2 per subcarrier)")
    return None


def parse_esp32_csv(source: TextSource,
                    sample_rate_hz: Optional[float] = None) -> CsiStream:
    """Parse an ESP32-convention CSV capture into a CsiStream.

    Each data line is ``timestamp`` followed by 2S integers alternating
    imaginary,real per subcarrier. Unless ``sample_rate_hz`` is supplied, the
    rate is estimated as (N-1)/(t_last - t_first).
    """
    table = _read_csv(source, _esp32_width, finite=1)
    ts = table[:, 0].copy()
    if sample_rate_hz is None:
        if len(ts) < 2:
            raise InsufficientFrames(
                "cannot estimate sample rate from a single frame; pass sample_rate_hz")
        sample_rate_hz = (len(ts) - 1) / (ts[-1] - ts[0])
    values = complex_values(table[:, 2::2], table[:, 1::2])
    return CsiStream(ts, values, float(sample_rate_hz))


def iter_canonical(lines: Iterable[str]) -> Tuple[float, int, Iterator[Frame]]:
    """Read the canonical JSONL header from ``lines``.

    Returns ``(sample_rate_hz, subcarriers, frames)``. ``frames`` lazily
    yields ``(t, re, im)`` per data line, ``re`` and ``im`` as float64 arrays,
    after checking that the line is a JSON object with a numeric ``t``, ``re``
    and ``im`` lists of JSON numbers of the header's width, and a finite
    timestamp after the previous one. Frame errors name the 1-based line
    number.
    """
    numbered = enumerate(lines, start=1)
    header_raw = None
    for line_no, raw in numbered:
        if raw.strip():
            header_raw = raw
            break
    if header_raw is None:
        raise SchemaMismatch("empty input, expected header object")
    try:
        header = json.loads(header_raw)
    except json.JSONDecodeError as exc:
        raise MalformedLine(line_no, f"invalid header JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != CANONICAL_SCHEMA:
        raise SchemaMismatch(f"expected schema {CANONICAL_SCHEMA!r}")
    fs = header.get("sample_rate_hz")
    n_sub = header.get("subcarriers")
    if type(fs) not in (int, float) or type(n_sub) is not int:  # bool is no number
        raise SchemaMismatch(f"header sample_rate_hz {fs!r} must be a JSON number "
                             f"and subcarriers {n_sub!r} a JSON integer")
    if not (0 < fs <= sys.float_info.max and n_sub >= 1):  # NaN, inf, huge ints too
        raise SchemaMismatch(f"header sample_rate_hz {fs} must be positive and "
                             f"finite, subcarriers {n_sub} at least 1")
    fs = float(fs)

    def numbers(line_no: int, key: str, items) -> np.ndarray:
        try:
            arr = np.asarray(items)
        except ValueError as exc:  # ragged nesting
            raise MalformedLine(line_no, f"bad frame: {key}: {exc}") from None
        if arr.shape != (n_sub,):
            raise MalformedLine(
                line_no, f"{key} has shape {arr.shape}, header says {n_sub} values")
        if arr.dtype.kind not in "fi":
            raise MalformedLine(line_no, f"{key} must hold JSON numbers only")
        return arr.astype(np.float64, copy=False)

    def frames() -> Iterator[Frame]:
        t_prev = None
        for line_no, raw in numbered:
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                t = obj["t"]
                re_items = obj["re"]
                im_items = obj["im"]
                if type(t) not in (int, float):  # bool is not a JSON number
                    raise TypeError(f"t must be a JSON number, got {t!r}")
                t = float(t)  # OverflowError past the float range
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError) as exc:
                raise MalformedLine(line_no, f"bad frame: {exc!r}") from None
            re = numbers(line_no, "re", re_items)
            im = numbers(line_no, "im", im_items)
            # booleans mixed with numbers come out as numbers above; a JSON
            # true or false holds a "u" or an "l", which no number and none
            # of the keys t, re and im do, so most lines skip the exact check
            if ("u" in line or "l" in line) and any(
                    type(v) is bool for v in re_items + im_items):
                raise MalformedLine(line_no, "re/im must hold JSON numbers only")
            if not math.isfinite(t):
                raise MalformedLine(line_no, f"non-finite timestamp {t}")
            if t_prev is not None and t <= t_prev:
                raise NonMonotonicTimestamp(
                    f"line {line_no}: timestamp {t} not after {t_prev}")
            t_prev = t
            yield t, re, im

    return fs, n_sub, frames()


def parse_canonical(source: TextSource) -> CsiStream:
    """Parse the canonical JSONL format (lossless round trip)."""
    fs, n_sub, frames = iter_canonical(_iter_text_lines(source))
    timestamps = []
    re_rows = []
    im_rows = []
    for t, re, im in frames:
        timestamps.append(t)
        re_rows.append(re)
        im_rows.append(im)
    if re_rows:
        values = complex_values(np.array(re_rows), np.array(im_rows))
    else:
        values = np.empty((0, n_sub), dtype=np.complex128)
    return CsiStream(np.asarray(timestamps), values, fs)


def write_canonical(stream: CsiStream) -> bytes:
    """Serialize to canonical JSONL. parse_canonical(write_canonical(x)) == x."""
    out = io.StringIO()
    header = {
        "schema": CANONICAL_SCHEMA,
        "sample_rate_hz": stream.sample_rate_hz,
        "subcarriers": stream.subcarrier_count,
    }
    out.write(json.dumps(header) + "\n")
    for t, row in zip(stream.timestamps, stream.values):
        rec = {
            "t": float(t),
            "re": [float(v) for v in row.real],
            "im": [float(v) for v in row.imag],
        }
        out.write(json.dumps(rec) + "\n")
    return out.getvalue().encode("utf-8")


def _label_width(line_no: int, count: int) -> Optional[MalformedLine]:
    return None if count == 2 else MalformedLine(line_no, f"expected 2 fields, got {count}")


def parse_labels(source: TextSource, kind: str) -> LabelSeries:
    """Parse a ``timestamp,value`` CSV into a validated LabelSeries."""
    table = _read_csv(source, _label_width, finite=2)
    return LabelSeries(kind, table[:, 0].copy(), table[:, 1].copy())


def align(stream: CsiStream, labels: LabelSeries) -> AlignedRecording:
    """Assign each frame the nearest label value (ties go to the earlier label).

    The label span must overlap at least half of the stream span; frames
    outside the label span take the nearest endpoint value.
    """
    if stream.frame_count == 0:
        raise EmptyStream("stream has no frames")
    if len(labels) == 0:
        raise InsufficientOverlap("label series is empty")
    t0, t1 = float(stream.timestamps[0]), float(stream.timestamps[-1])
    l0, l1 = float(labels.timestamps[0]), float(labels.timestamps[-1])
    span = t1 - t0
    overlap = min(t1, l1) - max(t0, l0)
    if span <= 0:
        ok = l0 <= t0 <= l1
    else:
        ok = overlap / span >= 0.5
    if not ok:
        raise InsufficientOverlap(
            f"label span [{l0}, {l1}] covers too little of stream span [{t0}, {t1}]")

    lt = labels.timestamps
    # index of the first label strictly after each frame time
    right = np.searchsorted(lt, stream.timestamps, side="right")
    left = np.clip(right - 1, 0, len(lt) - 1)
    right = np.clip(right, 0, len(lt) - 1)
    d_left = np.abs(stream.timestamps - lt[left])
    d_right = np.abs(lt[right] - stream.timestamps)
    # tie -> earlier label
    pick = np.where(d_right < d_left, right, left)
    alignment = labels.values[pick]
    return AlignedRecording(stream, labels, alignment)
