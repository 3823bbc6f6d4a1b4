"""Streaming inference with bounded memory.

The batch pipeline subtracts the whole-recording per-subcarrier mean, so a
single pass cannot reproduce it; streaming therefore runs two passes over
the source: pass one accumulates the per-subcarrier amplitude sums (O(S)
memory), pass two pushes packets through the causal chain. State is one
biquad cascade, a Savitzky-Golay lookahead of m packets, and a ring of
exactly W smoothed packets, so memory is independent of stream length.

Every arithmetic step mirrors the batch pipeline's element-wise operation
order, which makes streaming predictions bit-identical to processing the
same recording offline in causal mode.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dsp.filters import FilterSpec, FilterState, design_bandpass
from .dsp.pipeline import BANDPASS_ORDER, PipelineConfig, standardize, window_length
from .dsp.savgol import savgol_kernel, smooth_sample
from .errors import ConfigInvalidValue, SeriesTooShort, WindowLongerThanSeries
from .nn.model import ModelParams, forward


class StreamingPredictor:
    """Per-packet pipeline + model evaluation over one recording.

    ``column_means`` must hold the recording's per-subcarrier amplitude means
    (after any subcarrier subsetting), exactly as sequential_column_mean
    computes them.
    """

    def __init__(self, params: ModelParams, cfg: PipelineConfig,
                 sample_rate_hz: float, column_means: np.ndarray):
        if cfg.zero_phase:
            raise ConfigInvalidValue(
                "streaming inference is causal; zero_phase must be false")
        self.params = params
        self.cfg = cfg
        self.mu = np.asarray(column_means, dtype=np.float64)
        n_channels = self.mu.shape[0]
        low, high = cfg.effective_band()
        cascade = design_bandpass(
            FilterSpec(low, high, BANDPASS_ORDER, sample_rate_hz))
        self.filter_state = FilterState(cascade, n_channels)
        self.kernel = savgol_kernel(cfg.savgol_window, cfg.savgol_order)
        self.m = self.kernel.half_width
        self.w = window_length(cfg.window_s, sample_rate_hz)
        self.stride = cfg.stride
        # filtered-row lookahead (2m+1 rows) and smoothed-row ring (W rows)
        self.filt = deque(maxlen=2 * self.m + 1)
        self.ring = deque(maxlen=self.w)
        self.times = deque(maxlen=self.w + self.m)
        self.n_in = 0        # packets pushed
        self.n_smoothed = 0  # smoothed rows produced

    def _smoothed_row(self, i: int) -> np.ndarray:
        """Smoothed value at absolute index i from the lookahead buffer,
        mirrored at the series start and at the newest packet."""
        first = self.n_in - len(self.filt)  # absolute index of filt[0]
        last = self.n_in - 1
        rows = np.empty((self.kernel.window, self.mu.shape[0]))
        for k in range(self.kernel.window):
            idx = abs(i - self.m + k)
            if idx > last:
                idx = 2 * last - idx
            rows[k] = self.filt[idx - first]
        return smooth_sample(self.kernel, rows)

    def _emit_ready(self) -> List[Tuple[float, float]]:
        out = []
        i = self.n_smoothed - 1  # newest smoothed index
        if i >= self.w - 1 and (i - self.w + 1) % self.stride == 0:
            window = np.stack(self.ring)
            pred, _ = forward(self.params, standardize(window), training=False)
            out.append((self._time_of(i), pred))
        return out

    def _time_of(self, smoothed_index: int) -> float:
        # times holds the last len(times) packet timestamps; smoothed_index
        # lags n_in by at least 0 and at most m + w
        first = self.n_in - len(self.times)
        return float(self.times[smoothed_index - first])

    def push(self, timestamp: float, packet: np.ndarray) -> List[Tuple[float, float]]:
        """Feed one packet; returns any (t_end, prediction) pairs now ready."""
        row = _amplitude_row(packet, self.cfg.subcarriers) - self.mu
        self.filt.append(self.filter_state.process(row))
        self.times.append(float(timestamp))
        self.n_in += 1
        out = []
        p = self.n_in - 1
        i = p - self.m
        if i >= 0:
            self.ring.append(self._smoothed_row(i))
            self.n_smoothed += 1
            out.extend(self._emit_ready())
        return out

    def finish(self) -> List[Tuple[float, float]]:
        """Flush the tail once the stream ends (mirror-pads the far edge)."""
        t_total = self.n_in
        if t_total < self.kernel.window:
            raise SeriesTooShort(
                f"stream of {t_total} packets shorter than the smoothing window")
        if t_total < self.w:
            raise WindowLongerThanSeries(
                f"window of {self.w} packets exceeds stream length {t_total}")
        out = []
        while self.n_smoothed < t_total:
            self.ring.append(self._smoothed_row(self.n_smoothed))
            self.n_smoothed += 1
            out.extend(self._emit_ready())
        return out


def _amplitude_row(packet: np.ndarray,
                   subcarriers: Optional[Sequence[int]]) -> np.ndarray:
    packet = np.asarray(packet)
    row = np.hypot(packet.real, packet.imag)
    if subcarriers is not None:
        row = row[list(subcarriers)]
    return row


def streaming_column_means(packets: Iterable[np.ndarray],
                           subcarriers: Optional[list] = None) -> Tuple[np.ndarray, int]:
    """Pass-one accumulation: per-subcarrier amplitude means, packet count.

    Accumulates in strict packet order, matching sequential_column_mean.
    """
    acc = None
    count = 0
    for packet in packets:
        row = _amplitude_row(packet, subcarriers)
        if acc is None:
            acc = np.zeros_like(row, dtype=np.float64)
        acc += row
        count += 1
    if acc is None or count == 0:
        raise SeriesTooShort("empty stream")
    return acc / count, count
