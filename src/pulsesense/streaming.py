"""Streaming inference with bounded memory.

The batch pipeline subtracts the whole-recording per-subcarrier mean, so a
single pass cannot reproduce it; streaming therefore runs two passes over
the source. Pass one takes the per-subcarrier amplitude means in O(S) memory
from column_means, the function remove_dc calls too. It reads the source
once, into complex blocks of PACKET_BLOCK, checks each block as it reads it
and takes its amplitudes in one call, so its per-packet Python is only the
copy into the block.

Pass two pushes packets through the batch stages on bounded buffers. A push
checks its timestamp (a finite number after the previous one) and its
packet (numbers, width, finite selected samples) before it changes any
state, then stores the DC-removed amplitude row in a ring of the
mirror-padded rows that the rows not yet smoothed need. A row is ready once
its m look-ahead rows have arrived. The ready rows are smoothed together, in
one smooth_padded call, when a window ends on the newest of them or when
SMOOTH_BATCH of them wait, and go into a ring of the newest W smoothed rows
for standardize and the model. Right before that call, and in finish before
the far edge is mirrored, the rows waiting in the padded ring are
band-passed in one FilterState.process call and written back in place, so
the biquad cascade runs once per smoothing batch, not once per packet. Both
rings hold each row twice, at i % n and i % n + n in a ring of n rows, so
the rows a step reads are always one contiguous slice and nothing is copied
to gather them. Memory is independent of stream length, and predictions are
bit-identical to processing the same recording offline: FilterState gives
each sample the same bits however the stream is split into blocks, and
smooth_padded gives each row the same bits however many rows one call
smooths.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dsp.filters import FilterState
from .dsp.pipeline import (
    PipelineConfig,
    column_means,
    standardize,
    subcarrier_index,
)
from .dsp.savgol import smooth_padded
from .errors import (
    NonFiniteSample,
    NonMonotonicTimestamp,
    SeriesTooShort,
    ShapeMismatch,
    StreamFinished,
    WindowLongerThanSeries,
)
from .nn.model import InferencePlan, ModelParams

PACKET_BLOCK = 256  # packets per block of pass one
# rows smoothed in one call when no window ends sooner
SMOOTH_BATCH = 32


def _put(ring: np.ndarray, i: int, rows: np.ndarray) -> None:
    """Store ``rows`` (at most n) as rows i, i + 1, ... of ``ring``, a ring
    of n = len(ring) // 2 rows that holds row i at i % n and i % n + n."""
    n = len(ring) // 2
    k = i % n
    # the first `below` rows land under n and are copied up by n, the rest
    # land from n on and are copied down
    below = min(len(rows), n - k)
    ring[k:k + len(rows)] = rows
    ring[k + n:k + n + below] = rows[:below]
    ring[:len(rows) - below] = rows[below:]


class StreamingPredictor:
    """Per-packet pipeline + model evaluation over one recording.

    ``column_means`` must hold the recording's per-subcarrier amplitude means
    (after any subcarrier subsetting), exactly as streaming_column_means
    computes them for ``cfg.subcarriers``; that pass also checks the
    selection against the stream's width. Means that are not one finite
    value per model input are refused here, as are negative or repeated
    ``cfg.subcarriers`` (subcarrier_index, before the width is known).

    The first emission builds a B=1 InferencePlan for (1, W, S) windows,
    and every emission runs it, so the kernels are halved and the gate,
    state and per-step buffers made once per predictor. The plan copies
    ``params`` when it is built: changing them after the first emission
    does not change the predictions; before it, the predictor holds
    ``params`` by reference.
    """

    def __init__(self, params: ModelParams, cfg: PipelineConfig,
                 sample_rate_hz: float, column_means: np.ndarray):
        self.params = params
        self.mu = np.asarray(column_means, dtype=np.float64)
        width = params.config.input_dim
        if self.mu.shape != (width,):
            raise ShapeMismatch(f"column means of shape {self.mu.shape} do not "
                                f"fit a model of {width} inputs")
        if not np.isfinite(self.mu).all():
            raise NonFiniteSample("column means hold a non-finite value")
        cascade, self.kernel, self.w = cfg.stages(sample_rate_hz)
        self.filter_state = FilterState(cascade, width)
        self.m = self.kernel.half_width
        self.stride = cfg.stride
        self.index = subcarrier_index(cfg.subcarriers, None)
        # the padded rows the rows not yet smoothed need (padded row i at
        # i % span and i % span + span; band-passed up to packet n_filtered,
        # DC-removed only from there on), the smoothed rows (row n at n % W
        # and n % W + W), and the timestamps of the rows whose look-ahead has
        # not arrived
        self.span = SMOOTH_BATCH + 2 * self.m
        self.filt = np.empty((2 * self.span, width))
        self.ring = np.empty((2 * self.w, width))
        self.times = deque()
        self.t_last = -math.inf  # the newest packet's timestamp
        self.n_filtered = 0  # packets band-passed
        self.n_ready = 0  # rows whose 2m+1 padded rows have arrived
        self.n_smoothed = 0  # rows in the ring
        self.finished = False  # finish has run: the stream takes nothing more
        self.plan = None  # the B=1 InferencePlan, built at the first emission

    def _next_ready(self) -> List[Tuple[float, float]]:
        """Row n_ready has its look-ahead: smooth the ready rows if a window
        ends on it or SMOOTH_BATCH are waiting, and predict if one ends."""
        t_end = self.times.popleft()
        self.n_ready += 1
        start = self.n_ready - self.w
        due = start >= 0 and start % self.stride == 0
        if due or self.n_ready - self.n_smoothed == SMOOTH_BATCH:
            self._smooth_ready()
        if not due:
            return []
        k = start % self.w
        window = standardize(self.ring[k:k + self.w])
        if self.plan is None:
            self.plan = InferencePlan(self.params, (1,) + window.shape)
        return [(t_end, float(self.plan.run(window[None])[0]))]

    def _filter_waiting(self) -> None:
        """Band-pass the packets stored since the last call in one
        FilterState.process call and put the filtered rows back in their
        padded rows; the first call also fills the near-edge mirror."""
        a = self.n_filtered
        n = self.n_ready + len(self.times) - a
        if n == 0:
            return
        lo = (a + self.m) % self.span  # packet a is padded row a + m
        rows = self.filter_state.process(self.filt[lo:lo + n])
        _put(self.filt, a + self.m, rows)
        if a == 0:  # the near-edge mirror: rows m .. 1 again as padded rows 0 .. m-1
            _put(self.filt, 0, rows[self.m:0:-1])
        self.n_filtered += n

    def _smooth_ready(self) -> None:
        """Smooth rows n_smoothed .. n_ready-1 in one smooth_padded call and
        put the newest W of them in the ring."""
        self._filter_waiting()
        lo, n = self.n_smoothed % self.span, self.n_ready - self.n_smoothed
        rows = smooth_padded(self.kernel, self.filt[lo:lo + n + 2 * self.m])[-self.w:]
        _put(self.ring, self.n_ready - len(rows), rows)
        self.n_smoothed = self.n_ready

    def push(self, timestamp: float, packet: np.ndarray) -> List[Tuple[float, float]]:
        """Feed one packet; returns any (t_end, prediction) pairs now ready.

        These are refused before any state changes, each naming the 0-based
        packet index: a timestamp that is not a finite number after the
        previous packet's (NonMonotonicTimestamp, as CsiStream refuses it);
        a packet that is not numbers, or whose selected subcarriers do not
        match the means in number (ShapeMismatch); a packet with a
        non-finite selected amplitude (NonFiniteSample). A push after finish
        is a StreamFinished. The selected samples are taken as complex128
        whatever the packet's numeric dtype, so a stream of complex64 or
        integer packets predicts as its complex128 copy does.
        """
        if self.finished:
            raise StreamFinished("push after finish: the stream has ended")
        j = self.n_ready + len(self.times)  # this packet's index
        try:
            t = math.nan if isinstance(timestamp, (str, bytes)) else float(timestamp)
        except (TypeError, ValueError, OverflowError):
            t = math.nan
        if not self.t_last < t < math.inf:
            after = f" after {self.t_last!r}" if j else ""
            raise NonMonotonicTimestamp(
                f"packet {j}: timestamp {timestamp!r} is not a finite number{after}")
        try:
            packet = np.asarray(packet)
            picked = packet[self.index] if packet.dtype.kind in "iufc" else None
        except (IndexError, ValueError):  # too few dimensions or columns; ragged rows
            picked = None
        if picked is None or picked.shape != self.mu.shape:
            what = (f"of shape {packet.shape} and dtype {packet.dtype}"
                    if isinstance(packet, np.ndarray) else "of ragged rows")
            raise ShapeMismatch(
                f"packet {j} {what} does not give the {self.mu.shape[0]} "
                f"numeric selected subcarriers the means have")
        # in complex128 whatever the packet's dtype, as pass one and the
        # batch pipeline take it: a complex64 hypot rounds otherwise
        picked = picked.astype(np.complex128, copy=False)
        amp = np.hypot(picked.real, picked.imag)
        # amplitudes are >= 0 or NaN, so the maximum is finite only if all are
        if not amp.max() < np.inf:
            raise NonFiniteSample(f"packet {j} has a non-finite CSI sample")
        k = (j + self.m) % self.span  # packet j is padded row j + m
        np.subtract(amp, self.mu, out=self.filt[k])
        self.filt[k + self.span] = self.filt[k]
        self.times.append(t)
        self.t_last = t
        if j < self.m:
            return []
        return self._next_ready()

    def finish(self) -> List[Tuple[float, float]]:
        """Flush the tail once the stream ends (mirror-pads the far edge).

        A stream too short for the smoothing window or the model window is
        refused before any state changes and stays open; otherwise the
        stream is closed, and a further push or finish is a StreamFinished.
        """
        if self.finished:
            raise StreamFinished("finish after finish: the stream has ended")
        t_total = self.n_ready + len(self.times)
        if t_total < self.kernel.window:
            raise SeriesTooShort(
                f"stream of {t_total} packets shorter than the smoothing window")
        if t_total < self.w:
            raise WindowLongerThanSeries(
                f"window of {self.w} packets exceeds stream length {t_total}")
        self.finished = True
        self._filter_waiting()
        out = []
        # the far-edge mirror: row T-1-i again as padded row T-1+m+i, each
        # the look-ahead of one more row
        last = t_total - 1 + self.m  # padded index of row T-1
        for i in range(1, self.m + 1):
            _put(self.filt, last + i, self.filt[(last - i) % self.span][None])
            out.extend(self._next_ready())
        return out


def streaming_column_means(packets: Iterable[np.ndarray],
                           subcarriers: Optional[Sequence[int]] = None
                           ) -> Tuple[np.ndarray, int]:
    """Pass one: per-subcarrier amplitude means and the packet count from
    column_means, so they are remove_dc's means bit for bit, refused alike.

    ``packets`` is read once, as complex128 blocks of PACKET_BLOCK. The first
    packet's width checks ``subcarriers`` (subcarrier_index). A packet that is
    not a row of that width is a ShapeMismatch naming its 0-based index.
    """
    def blocks():
        stream, start = iter(packets), 0
        while chunk := list(islice(stream, PACKET_BLOCK)):
            if start == 0:
                shape = np.shape(chunk[0])
                if len(shape) != 1:
                    raise ShapeMismatch(f"packet 0 of shape {shape} is not a row")
                index = subcarrier_index(subcarriers, shape[0])
            try:
                block = np.array(chunk, dtype=np.complex128)
                if block.shape[1:] != shape:  # the whole block shares another
                    raise ValueError
            except ValueError:  # a packet of another shape makes the block ragged
                for k, packet in enumerate(chunk):
                    if np.shape(packet) != shape:
                        raise ShapeMismatch(
                            f"packet {start + k} of shape {np.shape(packet)} is not "
                            f"a row of {shape[0]} values like packet 0") from None
                raise
            start += len(block)
            block = block[:, index]
            yield np.hypot(block.real, block.imag)

    return column_means(blocks())
