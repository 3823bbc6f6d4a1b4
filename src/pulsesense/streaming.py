"""Streaming inference with bounded memory.

The batch pipeline subtracts the whole-recording per-subcarrier mean, so a
single pass cannot reproduce it; streaming therefore runs two passes over
the source. Pass one takes the per-subcarrier amplitude means in O(S) memory
from column_means, the function remove_dc calls too. Pass two pushes
packets through the batch stages on bounded buffers: one biquad cascade,
the 2m+1 mirror-padded filtered rows that smooth_padded turns into the next
smoothed row, and a ring of the newest W smoothed rows for standardize
and the model. The ring is a (2W, S) buffer holding each row twice, at k
and k + W, so the newest W rows are always one contiguous slice. Memory is
independent of stream length, and predictions are bit-identical to
processing the same recording offline.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dsp.filters import FilterState
from .dsp.pipeline import (
    PipelineConfig,
    column_means,
    standardize,
    subcarrier_index,
)
from .dsp.savgol import smooth_padded
from .errors import SeriesTooShort, WindowLongerThanSeries
from .nn.model import ModelParams, predict_batch


class StreamingPredictor:
    """Per-packet pipeline + model evaluation over one recording.

    ``column_means`` must hold the recording's per-subcarrier amplitude means
    (after any subcarrier subsetting), exactly as streaming_column_means
    computes them for ``cfg.subcarriers``; that pass also checks the
    selection against the stream's width.
    """

    def __init__(self, params: ModelParams, cfg: PipelineConfig,
                 sample_rate_hz: float, column_means: np.ndarray):
        self.params = params
        self.mu = np.asarray(column_means, dtype=np.float64)
        cascade, self.kernel, self.w = cfg.stages(sample_rate_hz)
        self.filter_state = FilterState(cascade, self.mu.shape[0])
        self.m = self.kernel.half_width
        self.stride = cfg.stride
        self.index = (slice(None) if cfg.subcarriers is None
                      else np.asarray(cfg.subcarriers, dtype=np.intp))
        # filtered rows around the next row to smooth, the smoothed rows (row
        # n at n % W and n % W + W), and the timestamps of the rows not yet
        # smoothed
        self.filt = deque(maxlen=2 * self.m + 1)
        self.ring = np.empty((2 * self.w, self.mu.shape[0]))
        self.times = deque()
        self.n_smoothed = 0

    def _smooth_next(self) -> List[Tuple[float, float]]:
        """Smooth the centre row of filt into the ring; predict when a window
        ends on it."""
        k = self.n_smoothed % self.w
        self.ring[k] = self.ring[k + self.w] = smooth_padded(
            self.kernel, np.array(self.filt))[0]
        t_end = self.times.popleft()
        self.n_smoothed += 1
        start = self.n_smoothed - self.w
        if start < 0 or start % self.stride:
            return []
        window = standardize(self.ring[k + 1:k + 1 + self.w])
        return [(t_end, float(predict_batch(self.params, window[None])[0]))]

    def push(self, timestamp: float, packet: np.ndarray) -> List[Tuple[float, float]]:
        """Feed one packet; returns any (t_end, prediction) pairs now ready."""
        row = _amplitude_row(packet, self.index) - self.mu
        self.filt.append(self.filter_state.process(row))
        self.times.append(float(timestamp))
        if len(self.times) <= self.m:
            return []
        if len(self.filt) == self.m + 1:  # packet m: mirror rows m..1 before row 0
            self.filt.extendleft(list(self.filt)[1:])
        return self._smooth_next()

    def finish(self) -> List[Tuple[float, float]]:
        """Flush the tail once the stream ends (mirror-pads the far edge)."""
        t_total = self.n_smoothed + len(self.times)
        if t_total < self.kernel.window:
            raise SeriesTooShort(
                f"stream of {t_total} packets shorter than the smoothing window")
        if t_total < self.w:
            raise WindowLongerThanSeries(
                f"window of {self.w} packets exceeds stream length {t_total}")
        out = []
        # rows T-2 down to T-1-m, the far-edge mirror, one per smoothed row
        for row in reversed(list(self.filt)[self.m:-1]):
            self.filt.append(row)
            out.extend(self._smooth_next())
        return out


def _amplitude_row(packet: np.ndarray, index: Union[slice, np.ndarray]) -> np.ndarray:
    packet = np.asarray(packet)
    return np.hypot(packet.real, packet.imag)[index]


def streaming_column_means(packets: Iterable[np.ndarray],
                           subcarriers: Optional[Sequence[int]] = None
                           ) -> Tuple[np.ndarray, int]:
    """Pass one: per-subcarrier amplitude means and the packet count from
    column_means, so they are remove_dc's means bit for bit, refused alike.

    The first packet's width checks ``subcarriers`` (subcarrier_index).
    ``packets`` is iterated again only for non-finite means, to name the
    first non-finite packet, so pass an iterable that restarts (a sequence,
    or a file reader) to get the name.
    """
    def rows():
        index = None
        for packet in packets:
            if index is None:
                index = subcarrier_index(subcarriers, np.shape(packet)[0])
            yield _amplitude_row(packet, index)

    return column_means(rows)
