"""The five-stage processing chain: amplitude, DC removal, band extraction,
shaping, segmentation/normalization.

Stage order is fixed: amplitude -> remove_dc -> bandpass -> savgol ->
segment -> standardize. All stages are pure; identical inputs give
bit-identical segment matrices.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    ConfigInvalidValue,
    EmptyStream,
    NonFiniteSample,
    SchemaMismatch,
    WindowLongerThanSeries,
)
from ..ingest import AlignedRecording, CsiStream
from .filters import BiquadCascade, FilterSpec, design_bandpass, filter_values
from .savgol import SavGolKernel, savgol_kernel, smooth_values


class Mode(NamedTuple):
    """What a task fixes: its default band, the label kind it learns from,
    its model head, and the regression tolerance it is scored at (in label
    units; None for the binary head, which a decision threshold scores)."""

    band: Tuple[float, float]
    label_kind: str
    head: str
    threshold: Optional[float]


MODES = {
    "heart": Mode((0.8, 2.17), "heart_rate_bpm", "regression", 1.5),
    "breath": Mode((0.1, 0.5), "breathing_rate_brpm", "regression", 0.75),
    # zero low edge: low-pass over the breathing band
    "apnea": Mode((0.0, 0.5), "apnea_flag", "binary", None),
}

BANDPASS_ORDER = 3

SEGMENT_DUMP_MAGIC = b"PSSEG1"


@dataclass
class AmplitudeSeries:
    """Time x subcarrier real matrix at a known sampling rate."""

    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError("values must be a non-empty (T, S) matrix")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")


@dataclass(frozen=True)
class WindowSegment:
    """One standardized window plus its ground-truth label."""

    values: np.ndarray
    label: float
    start_index: int
    duration_s: float


def amplitude(stream: CsiStream) -> AmplitudeSeries:
    """|CSI| per packet and subcarrier: sqrt(re^2 + im^2)."""
    if stream.frame_count == 0:
        raise EmptyStream("cannot take amplitude of an empty stream")
    values = np.hypot(stream.values.real, stream.values.imag)
    return AmplitudeSeries(values, stream.sample_rate_hz)


def column_means(blocks: Iterable[np.ndarray]) -> Tuple[np.ndarray, int]:
    """Per-subcarrier means of the (n, S) amplitude blocks in ``blocks``, and
    their row count: the DC-removal mean of both remove_dc and streaming pass
    one. ``blocks`` is read once.

    The sum adds one row at a time in packet order (not np.mean), so any
    split of the rows into blocks gives the same bits. For S >= 2 that is an
    axis-0 reduce over the running sum stacked on the block in C order; numpy
    reduces pairwise along a contiguous axis, as over an F-ordered stack or a
    single column, so at S = 1 a Python loop adds the rows. A block is
    checked before it is added: the first non-finite sample raises
    NonFiniteSample, naming its packet by its index in the whole stream. Sums
    that overflow while every sample is finite are refused after the last
    block.
    """
    acc = None
    count = 0
    for block in blocks:
        # amplitudes are >= 0 or NaN, so the maximum is finite only if all are
        if block.size and not block.max() < np.inf:
            finite = np.isfinite(block).all(axis=1)
            raise NonFiniteSample(
                f"packet {count + int(np.argmin(finite))} has a non-finite CSI sample")
        if acc is None:
            acc = np.zeros(block.shape[1:], dtype=np.float64)
        if acc.size > 1:
            # concatenate would keep an F-ordered block's order
            stacked = np.concatenate([acc[None], block],
                                     out=np.empty((len(block) + 1, acc.size)))
            acc = np.add.reduce(stacked, axis=0)
        else:
            for row in block:
                acc += row
        count += len(block)
    if not count:
        raise EmptyStream("empty stream")
    mu = acc / count
    if not np.isfinite(mu).all():
        raise NonFiniteSample("column means are not finite: the amplitude sums overflow")
    return mu, count


def remove_dc(series: AmplitudeSeries) -> AmplitudeSeries:
    """Subtract each subcarrier's mean over all T samples."""
    mu, _ = column_means([series.values])
    return AmplitudeSeries(series.values - mu, series.sample_rate_hz)


def mode_spec(mode: str) -> Mode:
    """The ``MODES`` entry of ``mode``; any other name is a config error."""
    try:
        return MODES[mode]
    except KeyError:
        raise ConfigInvalidValue(
            f"mode must be one of {sorted(MODES)}, got {mode!r}") from None


def window_length(window_s: float, sample_rate_hz: float) -> int:
    return int(round(window_s * sample_rate_hz))


def subcarrier_index(subcarriers: Optional[Sequence[int]], width: Optional[int]):
    """The index picking ``subcarriers`` from rows of ``width`` values: a slice
    for None (all, no copy), else distinct in-range integer columns or
    SchemaMismatch. A width of None (a stream not yet seen) bounds the columns
    only by what an index can address."""
    if subcarriers is None:
        return slice(None)
    top = math.inf if width is None else width
    # numpy would truncate 1.5 and True to column 1, and cannot convert an
    # entry past the intp range
    if (not subcarriers or len(set(subcarriers)) != len(subcarriers)
            or not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                       and 0 <= i < min(top, np.iinfo(np.intp).max)
                       for i in subcarriers)):
        raise SchemaMismatch(f"pipeline.subcarriers {list(subcarriers)} must name "
                             f"distinct columns 0..{top - 1} of the stream")
    return np.asarray(subcarriers, dtype=np.intp)


def segment(series: AmplitudeSeries, window_s: float,
            stride_packets: int = 1) -> List[np.ndarray]:
    """Overlapping raw windows starting at 0, stride, 2*stride, ..."""
    t_len = series.values.shape[0]
    w = window_length(window_s, series.sample_rate_hz)
    if w < 1:
        raise WindowLongerThanSeries(f"window of {window_s}s is empty at this rate")
    if w > t_len:
        raise WindowLongerThanSeries(
            f"window of {w} packets exceeds series length {t_len}")
    if stride_packets < 1:
        raise ConfigInvalidValue("stride must be a positive packet count")
    count = (t_len - w) // stride_packets + 1
    return [series.values[i * stride_packets:i * stride_packets + w] for i in range(count)]


def standardize(window: np.ndarray) -> np.ndarray:
    """Column z-score with the window's own mean and population std.

    Columns whose std is below 1e-12 come out identically zero.
    """
    window = np.asarray(window, dtype=np.float64)
    out = window - window.mean(axis=0)
    # np.std's own steps on the array centred once: mean of squares, sqrt
    sigma = np.sqrt(np.add.reduce(out * out, axis=0) / window.shape[0])
    degenerate = sigma < 1e-12
    sigma_safe = np.where(degenerate, 1.0, sigma)
    out /= sigma_safe
    if degenerate.any():
        out[:, degenerate] = 0.0
    return out


def window_label(aligned: np.ndarray, start: int, w: int, mode: str) -> float:
    """Rate labels average over the window; a binary mode's label is the
    50% majority of its flags."""
    mean = float(np.mean(aligned[start:start + w]))
    if mode_spec(mode).head == "binary":
        return 1.0 if mean >= 0.5 else 0.0
    return mean


@dataclass(frozen=True)
class Band:
    """Pass-band edges in Hz; a zero low edge makes the filter a low-pass."""

    low_hz: float
    high_hz: float


@dataclass(frozen=True)
class Savgol:
    """Savitzky-Golay smoothing: odd window length in packets, polynomial order."""

    window: int = 15
    order: int = 3


@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline block of the run configuration: its fields are the
    block's JSON keys, in the order ``to_dict`` writes them. A ``band`` of
    None is the mode's default band; ``subcarriers`` of None keeps all."""

    mode: str = "heart"
    window_s: float = 5.0
    stride: int = 1
    savgol: Savgol = Savgol()
    band: Optional[Band] = None
    subcarriers: Optional[List[int]] = None

    def __post_init__(self):
        mode_spec(self.mode)

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}

    # the benchmark reads the smoothing parameters under these names
    @property
    def savgol_window(self) -> int:
        return self.savgol.window

    @property
    def savgol_order(self) -> int:
        return self.savgol.order

    def effective_band(self) -> Tuple[float, float]:
        if self.band is None:
            return mode_spec(self.mode).band
        return self.band.low_hz, self.band.high_hz

    def stages(self, sample_rate_hz: float) -> Tuple[BiquadCascade, SavGolKernel, int]:
        """(band-pass cascade, smoothing kernel, window length in packets) at
        ``sample_rate_hz``: the one place batch, streaming and infer take their
        stage parameters from. Values that cannot run at this rate raise."""
        low, high = self.effective_band()
        cascade = design_bandpass(FilterSpec(low, high, BANDPASS_ORDER, sample_rate_hz))
        kernel = savgol_kernel(self.savgol.window, self.savgol.order)
        finite = math.isfinite(self.window_s * sample_rate_hz)
        w = window_length(self.window_s, sample_rate_hz) if finite else 0
        if w < 1:
            raise ConfigInvalidValue(
                f"pipeline.window_s must span at least one packet; "
                f"{self.window_s} s at {sample_rate_hz} Hz does not")
        if self.stride < 1:
            raise ConfigInvalidValue("pipeline.stride must be a positive packet count")
        return cascade, kernel, w


def run_pipeline(recording: AlignedRecording, mode: str, window_s: float,
                 stride: int = 1) -> List[WindowSegment]:
    """run_pipeline_config with the mode's default band and smoothing."""
    return run_pipeline_config(recording, PipelineConfig(mode, window_s, stride))


def run_pipeline_config(recording: AlignedRecording,
                        cfg: PipelineConfig) -> List[WindowSegment]:
    """Run all five stages over an aligned recording in the fixed order."""
    fs = recording.stream.sample_rate_hz
    cascade, kernel, w = cfg.stages(fs)
    index = subcarrier_index(cfg.subcarriers, recording.stream.subcarrier_count)
    series = amplitude(recording.stream)
    series = remove_dc(AmplitudeSeries(series.values[:, index], fs))
    filtered = filter_values(cascade, series.values)
    series = AmplitudeSeries(smooth_values(kernel, filtered), fs)
    raw_windows = segment(series, cfg.window_s, cfg.stride)
    segments = []
    for i, win in enumerate(raw_windows):
        start = i * cfg.stride
        segments.append(WindowSegment(
            values=standardize(win),
            label=window_label(recording.alignment, start, w, cfg.mode),
            start_index=start,
            duration_s=w / series.sample_rate_hz,
        ))
    return segments


def segments_to_arrays(segments: Sequence[WindowSegment]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack a segment list into (x, y): (N, W, S) windows and N labels."""
    x = np.stack([seg.values for seg in segments])
    y = np.asarray([seg.label for seg in segments], dtype=np.float64)
    return x, y


def _dump_record(w: int, s: int) -> np.dtype:
    """One dump record: W*S row-major float32 values, then a float32 label."""
    return np.dtype([("values", "<f4", (w, s)), ("label", "<f4")])


def write_segment_dump(segments: Sequence[WindowSegment]) -> bytearray:
    """Binary dump: magic, u32 count/W/S, then float32 records (values+label).

    The dump is allocated once and each window is cast into its record in
    place: no per-window float32 copy and no join of the copies.
    """
    if not segments:
        raise EmptyStream("no segments to dump")
    w, s = segments[0].values.shape
    record = _dump_record(w, s)
    out = bytearray(18 + len(segments) * record.itemsize)
    out[:6] = SEGMENT_DUMP_MAGIC
    struct.pack_into("<III", out, 6, len(segments), w, s)
    values = np.frombuffer(out, dtype=record, offset=18)["values"]
    label_at = 18 + record.fields["label"][1]
    for i, seg in enumerate(segments):
        if seg.values.shape != (w, s):
            raise ValueError("segments disagree on shape")
        values[i] = seg.values
        # struct, not a float32 cast: a label past the float32 range raises
        # OverflowError rather than becoming inf
        struct.pack_into("<f", out, label_at + i * record.itemsize, seg.label)
    return out


def read_segment_dump(data: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of write_segment_dump: (count, W, S) float32 values, a
    read-only view into ``data``, plus the labels widened to float64.

    A non-finite value or label is refused (NonFiniteSample), as the
    pipeline refuses non-finite samples.
    """
    from ..errors import BadMagic, MalformedLine
    if len(data) < 18:
        raise MalformedLine(
            0, f"dump of {len(data)} bytes is shorter than its 18-byte header")
    if data[:6] != SEGMENT_DUMP_MAGIC:
        raise BadMagic("not a segment dump")
    count, w, s = struct.unpack_from("<III", data, 6)
    if not (count and w and s):
        raise MalformedLine(
            0, f"dump header count={count} W={w} S={s} has a zero dimension")
    expected = 6 + 12 + count * (w * s + 1) * 4
    if len(data) != expected:
        raise MalformedLine(0, f"dump length {len(data)} != expected {expected}")
    flat = np.frombuffer(data, dtype="<f4", offset=18)
    # min and max are NaN if any value is and infinite if any is, and unlike
    # an isfinite mask they need no dump-sized temporary
    if not np.isfinite([flat.min(), flat.max()]).all():
        i, k = divmod(int(np.argmin(np.isfinite(flat))), w * s + 1)
        raise NonFiniteSample(
            f"dump record {i} (counted from 0) holds a non-finite "
            + ("label" if k == w * s else "value"))
    records = np.frombuffer(data, dtype=_dump_record(w, s), offset=18)
    records.flags.writeable = False
    return records["values"], records["label"].astype(np.float64)
