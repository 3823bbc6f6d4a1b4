"""The five-stage processing chain: amplitude, DC removal, band extraction,
shaping, segmentation/normalization, in that fixed order.

FrontEnd drives stages 2-5 for batch and streaming alike, fed amplitude
rows in blocks of any size: run_pipeline_config feeds it a whole recording
in one block and labels the windows, the streaming predictor one packet per
push. The stage functions remove_dc, filter_values, smooth_values and
segment compose the same chain over whole arrays: the reference that tests
and the benchmark hold the front end to, bit for bit.
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
    SeriesTooShort,
    ValueOutOfRange,
    WindowLongerThanSeries,
    fits_one_array,
)
from ..ingest import AlignedRecording, CsiStream
from .filters import BiquadCascade, FilterSpec, FilterState, design_bandpass
from .savgol import kernel_spec, savgol_kernel, smooth_padded


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


def magnitude(values) -> np.ndarray:
    """|values| as float64, np.abs of their complex128 cast: the one input
    conversion of batch, streaming pass one and every push.

    numpy's vectorized complex absolute is within 2 ulp of the exactly
    rounded |z| and about ten times faster than np.hypot's scalar libm call
    per element. Each element's bits depend only on that element, however
    many rows one call takes and whatever their memory order. It keeps C99
    hypot's special values: an infinite part gives inf even beside a NaN,
    any other NaN gives NaN, so an amplitude is >= 0 or NaN; it does not
    overflow while |z| is finite and keeps subnormals.
    """
    return np.abs(np.asarray(values, dtype=np.complex128))


def amplitude(stream: CsiStream) -> AmplitudeSeries:
    """|CSI| per packet and subcarrier: numpy's complex absolute |re + i im|."""
    if stream.frame_count == 0:
        raise EmptyStream("cannot take amplitude of an empty stream")
    return AmplitudeSeries(magnitude(stream.values), stream.sample_rate_hz)


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


def selected_width(subcarriers: Optional[Sequence[int]], width: int) -> int:
    """How many columns ``subcarriers`` picks from rows of ``width`` values,
    checked as subcarrier_index checks them."""
    return width if subcarriers is None else len(subcarrier_index(subcarriers, width))


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

    Columns whose std is below 1e-12 come out identically zero. A window
    whose std is not finite, its squared deviations overflowing float64
    (deviations of about 1e154 / sqrt(W) and up), is a ValueOutOfRange:
    divided by an infinite std every value would come out zero.
    """
    window = np.asarray(window, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        out = window - window.mean(axis=0)
        # np.std's own steps on the array centred once: mean of squares, sqrt
        sigma = np.sqrt(np.add.reduce(out * out, axis=0) / window.shape[0])
    # sigma is >= 0 or NaN, so its maximum is finite only if all are
    if not sigma.max() < np.inf:
        raise ValueOutOfRange("window values too large to standardize: "
                              "their squared deviations overflow float64")
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

    def stages(self, sample_rate_hz: float,
               width: int = 1) -> Tuple[BiquadCascade, int]:
        """(band-pass cascade, window length in packets) at ``sample_rate_hz``:
        the one place batch, streaming and infer take their stage parameters
        from. Values that cannot run at this rate raise. The smoothing window
        is checked (kernel_spec) but its kernel not designed, since the design
        grows with the window: FrontEnd designs it, and its callers first
        measure the stream against the window (check_smoothable). A window or
        stride whose FrontEnd buffers, rows of ``width`` float64 values, would
        be past the largest array numpy can index is a ConfigInvalidValue."""
        low, high = self.effective_band()
        cascade = design_bandpass(FilterSpec(low, high, BANDPASS_ORDER, sample_rate_hz))
        m = kernel_spec(self.savgol.window, self.savgol.order)[0] // 2
        finite = math.isfinite(self.window_s * sample_rate_hz)
        w = window_length(self.window_s, sample_rate_hz) if finite else 0
        if w < 1:
            raise ConfigInvalidValue(
                f"pipeline.window_s must span at least one packet; "
                f"{self.window_s} s at {sample_rate_hz} Hz does not")
        if self.stride < 1:
            raise ConfigInvalidValue("pipeline.stride must be a positive packet count")
        rows = max(front_end_rows(w, self.stride, m))
        if not fits_one_array(rows * width, 8):
            raise ConfigInvalidValue(
                f"pipeline.window_s of {self.window_s} s and pipeline.stride of "
                f"{self.stride} need {rows}-row buffers of {width} values at "
                f"{sample_rate_hz} Hz, past the largest array numpy can index")
        return cascade, w


def front_end_rows(w: int, stride: int, m: int) -> Tuple[int, int]:
    """The rows of FrontEnd's padded and smoothed buffers at windows of ``w``
    packets, ``stride`` and smoothing half width ``m``: what stages checks."""
    return w + stride + 3 * m, 2 * w + stride + m


def check_smoothable(n_packets: int, window: int) -> None:
    """SeriesTooShort when a stream of ``n_packets`` is shorter than the
    smoothing ``window``."""
    if n_packets < window:
        raise SeriesTooShort(
            f"stream of {n_packets} packets shorter than the smoothing window")


class FrontEnd:
    """Stages 2-5 of one recording, fed its selected amplitude rows in blocks
    of any size: DC subtraction against ``mu``, the band-pass, the near- and
    far-edge mirrors, smoothing, windowing by stride and standardize.

    feed returns each (start row, window) pair it completes: a window ending
    on row e once row e + m is in, m being the smoothing half width. finish
    mirrors the far edge and returns the rest. For any split into blocks the
    windows are those of the stage functions, bit for bit, as FilterState and
    smooth_padded give each row the same bits however many one call takes.

    Two linear buffers hold the padded rows (packet j is padded row j + m)
    and the smoothed rows still needed. A block is taken in pieces that fit
    the free padded rows, so neither buffer grows: O(W + stride + m) rows.
    Rows are band-passed when a window is due or the padded buffer is full,
    and smoothed when a window is due; the rows still needed then move to
    the front of their buffer (smoothed rows only when new ones do not fit).
    """

    def __init__(self, cfg: PipelineConfig, sample_rate_hz: float, mu: np.ndarray):
        cascade, self.w = cfg.stages(sample_rate_hz, len(mu))
        self.kernel = savgol_kernel(cfg.savgol.window, cfg.savgol.order)
        # a (1, S) row: one packet's row subtracts it without broadcasting
        self.m, self.stride, self.mu = self.kernel.half_width, cfg.stride, mu[None]
        self.filter_state = FilterState(cascade, len(mu))
        self.padded, self.smoothed = (np.empty((rows, len(mu))) for rows in
                                      front_end_rows(self.w, self.stride, self.m))
        # padded row p is padded[p - p0]; rows up to p_end are stored, and
        # those from n_filtered on are DC-removed but not yet band-passed
        self.p0, self.p_end, self.n_filtered = 0, self.m, self.m
        # smoothed row n is smoothed[n - s0]; rows below s_end are smoothed
        # or lie before a window
        self.s0 = self.s_end = 0
        self.start = 0  # the next window's first row

    def feed(self, rows: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        """Take a (n, S) block of amplitude rows; returns the (start row,
        standardized window) pairs it completed, in order."""
        out = []
        while len(rows) > len(self.padded) - (self.p_end - self.p0):  # feed what fits first
            self._compact()
            n = len(self.padded) - (self.p_end - self.p0)
            out += self.feed(rows[:n])
            rows = rows[n:]
        a = self.p_end - self.p0
        np.subtract(rows, self.mu, out=self.padded[a:a + len(rows)])
        self.p_end += len(rows)
        ready = self.p_end - 2 * self.m  # rows whose look-ahead is in
        if self.start + self.w <= ready:
            out += self._windows(ready)
        return out

    def finish(self) -> List[Tuple[int, np.ndarray]]:
        """Mirror the far edge and return the windows still due. A stream
        shorter than the smoothing window (SeriesTooShort), then than a window
        (WindowLongerThanSeries), is refused first, changing nothing."""
        t_len = self.p_end - self.m
        check_smoothable(t_len, self.kernel.window)
        if t_len < self.w:
            raise WindowLongerThanSeries(
                f"window of {self.w} packets exceeds stream length {t_len}")
        if self.start + self.w > t_len:
            return []
        self._compact()
        # the far-edge mirror: row T-1-i again as padded row T-1+m+i
        e, m = self.p_end - self.p0 - 1, self.m
        self.padded[e + 1:e + 1 + m] = self.padded[e - m:e][::-1]
        self.p_end = self.n_filtered = self.p_end + m
        return self._windows(t_len)

    def _compact(self) -> None:
        """Band-pass the rows stored since the last call in one call (the
        first also mirrors packets m .. 1 as padded rows 0 .. m-1), then move
        the padded rows still needed to the front."""
        a, b = self.n_filtered - self.p0, self.p_end - self.p0
        if a < b:
            self.padded[a:b] = self.filter_state.process(self.padded[a:b])
            if self.n_filtered == self.m:
                self.padded[:self.m] = self.padded[self.m + 1:2 * self.m + 1][::-1]
            self.n_filtered = self.p_end
        keep = min(max(self.s_end, self.start), self.p_end)
        self.padded[:self.p_end - keep] = self.padded[keep - self.p0:self.p_end - self.p0]
        self.p0 = keep

    def _windows(self, ready: int) -> List[Tuple[int, np.ndarray]]:
        """Smooth the rows of every window within the first ``ready`` rows
        in one smooth_padded call and return them standardized."""
        self._compact()  # padded row lo is now padded[0]
        w = self.w
        last = self.start + (ready - w - self.start) // self.stride * self.stride
        lo, hi = max(self.s_end, self.start), last + w
        if hi - self.s0 > len(self.smoothed):  # keep the next window's rows
            self.smoothed[:lo - self.start] = self.smoothed[self.start - self.s0:lo - self.s0]
            self.s0 = self.start
        self.smoothed[lo - self.s0:hi - self.s0] = smooth_padded(
            self.kernel, self.padded[:hi - lo + 2 * self.m])
        out = [(start, standardize(self.smoothed[start - self.s0:start - self.s0 + w]))
               for start in range(self.start, last + 1, self.stride)]
        self.start, self.s_end = last + self.stride, hi
        return out


def run_pipeline(recording: AlignedRecording, mode: str, window_s: float,
                 stride: int = 1) -> List[WindowSegment]:
    """run_pipeline_config with the mode's default band and smoothing."""
    return run_pipeline_config(recording, PipelineConfig(mode, window_s, stride))


def run_pipeline_config(recording: AlignedRecording,
                        cfg: PipelineConfig) -> List[WindowSegment]:
    """Run all five stages over an aligned recording: its selected
    amplitudes, fed to a FrontEnd in one block, each window labelled. The
    stage parameters are checked, then the stream against the smoothing
    window, before the FrontEnd designs the kernel."""
    stream = recording.stream
    index = subcarrier_index(cfg.subcarriers, stream.subcarrier_count)
    values = amplitude(stream).values[:, index]
    mu, _ = column_means([values])
    cfg.stages(stream.sample_rate_hz, values.shape[1])
    check_smoothable(len(values), cfg.savgol.window)
    front = FrontEnd(cfg, stream.sample_rate_hz, mu)
    windows = front.feed(values) + front.finish()
    return [WindowSegment(window, window_label(recording.alignment, start, front.w, cfg.mode),
                          start, front.w / stream.sample_rate_hz)
            for start, window in windows]


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
