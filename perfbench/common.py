"""Pieces shared by the benchmark workloads: results, checks, in-memory
spans, calibration references and summary statistics."""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from pulsesense.errors import PulseSenseError


@dataclass
class Metric:
    value: float
    unit: str
    n: int  # samples behind the value


@dataclass
class Result:
    """What one workload run measured and checked.

    ``attempted`` counts timed operations plus correctness checks; ``failed``
    counts operations that raised a typed pulsesense error plus failed checks.
    """

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    lines: List[str] = field(default_factory=list)  # human-readable report

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, int(n))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.lines.append(f"check {name}: {'ok' if ok else 'FAILED'}"
                          + (f" ({detail})" if detail else ""))

    def attempt(self, fn: Callable, *args):
        """Run one timed operation; a typed error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except PulseSenseError as exc:
            self.failed += 1
            self.lines.append(f"operation failed: {type(exc).__name__}: {exc}")
            return None

    def note(self, text: str) -> None:
        self.lines.append(f"note: {text}")


class Spans:
    """In-memory span log around calls into the program's layers.

    Each record is [name, start, end, parent index, tag]; the tag carries a
    size (such as a batch size) that a metric filters on.
    """

    def __init__(self):
        self.records: list = []
        self._open: List[int] = []

    @contextmanager
    def __call__(self, name: str, tag=None):
        idx = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append([name, 0.0, 0.0, parent, tag])
        self._open.append(idx)
        self.records[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.records[idx][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, parent: Optional[str] = None,
                  tag=None) -> List[float]:
        """Inclusive durations of spans named ``name``, optionally only those
        whose parent span is named ``parent`` or whose tag equals ``tag``."""
        out = []
        for rec_name, start, end, par, rec_tag in self.records:
            if rec_name != name:
                continue
            if parent is not None and (par < 0 or self.records[par][0] != parent):
                continue
            if tag is not None and rec_tag != tag:
                continue
            out.append(end - start)
        return out

    def self_times_by_root(self) -> List[Dict[str, float]]:
        """Per root span, the summed self time of every span name under it.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time = [0.0] * len(self.records)
        root_of = [0] * len(self.records)
        for idx, (_, start, end, par, _) in enumerate(self.records):
            if par >= 0:
                child_time[par] += end - start
                root_of[idx] = root_of[par]
            else:
                root_of[idx] = idx
        roots: Dict[int, Dict[str, float]] = {}
        for idx, (name, start, end, _, _) in enumerate(self.records):
            sums = roots.setdefault(root_of[idx], {})
            sums[name] = sums.get(name, 0.0) + (end - start - child_time[idx])
        return list(roots.values())

    def overhead_seconds(self) -> float:
        """What recording these spans cost: their count times the measured
        cost of recording one span."""
        probe = Spans()
        t0 = time.perf_counter()
        for _ in range(10000):
            with probe("probe"):
                pass
        return len(self.records) * (time.perf_counter() - t0) / 10000


@contextmanager
def no_span(name: str, tag=None):
    yield


# The machines this runs on are shared, and the speed of one core moves by
# up to 1.8x with other tenants' load, often for a whole run. So the
# end-to-end times are calibrated: each measured call is divided by the time
# of a fixed reference computation run right next to it, one whose mix of
# work matches the workload's, and multiplied by that reference's time on an
# idle core of the sizing machine (2-core x86-64, Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31), so calibrated and wall times agree there.


class Reference:
    """A fixed computation, independent of the program, that is timed next
    to the measured calls."""

    def __init__(self, work: Callable[[], None], idle_seconds: float):
        self.work = work
        self.idle_seconds = idle_seconds

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def calibrated_median(self, fn: Callable[[], float], repeats: int) -> float:
        """Median calibrated seconds of ``repeats`` calls of ``fn``, each of
        which returns its own wall time."""
        return self.idle_seconds * median([fn() / self.seconds() for _ in range(repeats)])


_CSV_LINE = ",".join(str(i % 97 - 48) for i in range(128))


def _python_work() -> None:
    """String splitting and float conversion, as the parsers do."""
    acc = 0.0
    for _ in range(80):
        for field in _CSV_LINE.split(","):
            acc += float(field)


def _lstm_like_work(batch: int, steps: int) -> Callable[[], None]:
    """A recurrent loop of a (batch, 64) x (64, 256) product and element-wise
    gates, as the LSTM runs."""
    rng = np.random.default_rng(0)
    h0 = rng.standard_normal((batch, 64))
    w = rng.standard_normal((256, 64)) / 8.0

    def work() -> None:
        h = h0
        for _ in range(steps):
            z = h @ w.T
            gates = 0.5 * (1.0 + np.tanh(0.5 * z))
            h = gates[:, :64] * np.tanh(gates[:, 128:192])
    return work


PYTHON_REFERENCE = Reference(_python_work, idle_seconds=0.00105)
LSTM_B64_REFERENCE = Reference(_lstm_like_work(64, 10), idle_seconds=0.0012)
LSTM_B1_REFERENCE = Reference(_lstm_like_work(1, 120), idle_seconds=0.00095)


class CallTimes:
    """Wall time of each call a loop makes, keyed by (name, tag), with the
    reference time measured right after it.

    Takes the same arguments as Spans, so one loop body serves the untraced
    and the traced run.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.samples: Dict[tuple, List[Tuple[float, float]]] = {}

    @contextmanager
    def __call__(self, name: str, tag=None):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            self.samples.setdefault((name, tag), []).append(
                (seconds, self.reference.seconds()))

    def calibrated(self, name: str, tag=None) -> float:
        """Median calibrated seconds of one call."""
        ratios = [s / r for s, r in self.samples[(name, tag)]]
        return self.reference.idle_seconds * median(ratios)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_seeds(seed: int, count: int) -> List[int]:
    """Independent scenario seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)
            % (2 ** 31)]


def lstm_stack_flops(batch: int, t_len: int, input_dim: int, h1: int, h2: int,
                     dense: int) -> float:
    """Analytic forward operation count of the two-LSTM stack.

    Counts 2 operations per multiply-add of the input and recurrent
    projections and of the dense and head layers; element-wise gate work is
    not counted.
    """
    lstm = batch * t_len * (2 * 4 * h1 * (input_dim + h1)
                            + 2 * 4 * h2 * (h1 + h2))
    head = batch * 2 * (h2 * dense + dense)
    return float(lstm + head)


def lstm_stack_backward_flops(batch: int, t_len: int, input_dim: int, h1: int,
                              h2: int, dense: int) -> float:
    """Analytic BPTT operation count, on the same terms as the forward count.

    Per layer and timestep: the recurrent carry (dz @ U), the kernel
    gradients dW and dU, and the input gradient dz @ W, which the code
    computes for both layers.
    """
    per_layer = (lambda d, h: batch * t_len * (2 * 4 * h * h * 2 + 2 * 4 * h * d * 2))
    head = batch * 2 * 2 * (h2 * dense + dense)
    return float(per_layer(input_dim, h1) + per_layer(h1, h2) + head)
