"""Streaming inference with bounded memory.

The batch pipeline subtracts the whole-recording per-subcarrier mean, so a
single pass cannot reproduce it; streaming therefore runs two passes over
the source. Pass one takes the per-subcarrier amplitude means in O(S) memory
from column_means, the function remove_dc calls too. It reads the source
once, into complex blocks of PACKET_BLOCK, checks each block as it reads it
and takes its amplitudes in one call, so its per-packet Python is only the
copy into the block.

Pass two pushes one packet at a time. A push checks its timestamp and its
packet before it changes any state, then feeds the amplitude row to the
FrontEnd that run_pipeline_config feeds a whole recording in one block, and
runs the model on each window it returns. So predictions are bit for bit
those of processing the recording offline, and memory is independent of
stream length.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dsp.pipeline import (
    FrontEnd,
    PipelineConfig,
    column_means,
    magnitude,
    subcarrier_index,
)
from .errors import (
    NonFiniteSample,
    NonMonotonicTimestamp,
    ShapeMismatch,
    StreamFinished,
)
from .nn.model import InferencePlan, ModelParams

PACKET_BLOCK = 256  # packets per block of pass one


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
        self.front = FrontEnd(cfg, sample_rate_hz, self.mu)
        self.w, self.m = self.front.w, self.front.m
        self.index = subcarrier_index(cfg.subcarriers, None)
        # the newest m + 1 timestamps: a window ending on packet j is
        # returned by the push of packet j + m or by finish
        self.times = deque(maxlen=self.m + 1)
        self.count = 0  # packets pushed
        self.finished = False  # finish has run: the stream takes nothing more
        self.plan = None  # the B=1 InferencePlan, built at the first emission

    def _predict(self, windows) -> List[Tuple[float, float]]:
        """(t_end, prediction) of each (start, window) pair; t_end is the
        timestamp of the window's last packet, counted from the newest."""
        if windows and self.plan is None:
            self.plan = InferencePlan(self.params, (1,) + windows[0][1].shape)
        return [(self.times[start + self.w - 1 - self.count],
                 float(self.plan.run(window[None])[0])) for start, window in windows]

    def push(self, timestamp: float, packet: np.ndarray) -> List[Tuple[float, float]]:
        """Feed one packet; returns any (t_end, prediction) pairs now ready.

        These are refused before any state changes, each naming the 0-based
        packet index: a timestamp that is not a finite number after the
        previous packet's (NonMonotonicTimestamp, as CsiStream refuses it);
        a packet that is not numbers, or whose selected subcarriers do not
        match the means in number (ShapeMismatch); a packet with a
        non-finite selected amplitude (NonFiniteSample). A push after finish
        is a StreamFinished. The selected samples are taken as complex128
        whatever the packet's numeric dtype (magnitude), so a stream of
        complex64 or integer packets predicts as its complex128 copy does.
        """
        if self.finished:
            raise StreamFinished("push after finish: the stream has ended")
        try:
            t = math.nan if isinstance(timestamp, (str, bytes)) else float(timestamp)
        except (TypeError, ValueError, OverflowError):
            t = math.nan
        t_last = self.times[-1] if self.times else -math.inf
        if not t_last < t < math.inf:
            after = f" after {t_last!r}" if self.count else ""
            raise NonMonotonicTimestamp(
                f"packet {self.count}: timestamp {timestamp!r} is not a finite number{after}")
        try:
            packet = np.asarray(packet)
            picked = packet[self.index] if packet.dtype.kind in "iufc" else None
        except (IndexError, ValueError):  # too few dimensions or columns; ragged rows
            picked = None
        if picked is None or picked.shape != self.mu.shape:
            what = (f"of shape {packet.shape} and dtype {packet.dtype}"
                    if isinstance(packet, np.ndarray) else "of ragged rows")
            raise ShapeMismatch(
                f"packet {self.count} {what} does not give the {self.mu.shape[0]} "
                f"numeric selected subcarriers the means have")
        amp = magnitude(picked)
        # amplitudes are >= 0 or NaN, so the maximum is finite only if all are
        if not np.maximum.reduce(amp) < math.inf:
            raise NonFiniteSample(f"packet {self.count} has a non-finite CSI sample")
        self.times.append(t)
        self.count += 1
        windows = self.front.feed(amp[None])
        return self._predict(windows) if windows else []

    def finish(self) -> List[Tuple[float, float]]:
        """Flush the tail once the stream ends (mirror-pads the far edge).

        A stream too short for the smoothing window or the model window is
        refused before any state changes and stays open; otherwise the
        stream is closed, and a further push or finish is a StreamFinished.
        """
        if self.finished:
            raise StreamFinished("finish after finish: the stream has ended")
        windows = self.front.finish()
        self.finished = True
        return self._predict(windows)


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
            yield magnitude(block[:, index])

    return column_means(blocks())
