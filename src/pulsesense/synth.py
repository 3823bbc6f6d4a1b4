"""Synthetic CSI generator with known vital-sign ground truth.

The channel model is multiplicative amplitude modulation of a static
per-subcarrier phasor: breathing and cardiac components ride on a

    base_s * (1 + alpha_s sin(2 pi c_br(t) + phi_s) * gate(t)
                + beta_s sin(2 pi c_hr(t) + psi_s))

magnitude, plus independent Gaussian noise on the real and imaginary parts.
c(t) counts the cycles of a rate schedule up to t (Schedule.cycles_at), so a
rate step keeps the phase continuous. gate(t) is 0 inside apnea intervals
(breathing ceases; the cardiac component persists). Since the processing
chain uses only |CSI|, the static phase carries no information and is drawn
once per subcarrier.

Everything is seed-deterministic: the same Scenario regenerates the same
stream bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .dsp.pipeline import mode_spec
from .errors import InvalidScenario, fits_one_array
from .ingest import CsiStream, LabelSeries

HR_SCHEDULE_RANGE = (48.0, 130.0)
BR_SCHEDULE_RANGE = (6.0, 30.0)

ESP32_PROFILE = ("esp32", 80.0, 64)
PI_PROFILE = ("pi", 7.4, 234)


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant value over time; breakpoints start at t=0."""

    times: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise InvalidScenario("schedule needs matching times and values")
        if self.times[0] != 0.0:
            raise InvalidScenario("schedule must start at t=0")
        if not all(b > a for a, b in zip(self.times, self.times[1:])):  # NaN too
            raise InvalidScenario("schedule breakpoints must increase")

    @classmethod
    def constant(cls, value: float) -> "Schedule":
        return cls((0.0,), (float(value),))

    def _piece(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return np.clip(idx, 0, len(self.values) - 1)

    def value_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.asarray(self.values)[self._piece(t)]

    def cycles_at(self, t) -> np.ndarray:
        """Cycles elapsed by time t >= 0 of a rate in cycles per minute: the
        integral of its frequency, so a breakpoint changes the rate and keeps
        the phase. Piece k adds f_k (t - t_k) to the cycles of the pieces
        before it; with one piece this is f_0 t exactly."""
        t = np.asarray(t, dtype=np.float64)
        starts = np.asarray(self.times)
        f = np.asarray(self.values) / 60.0
        before = np.concatenate(([0.0], np.cumsum(f[:-1] * np.diff(starts))))
        k = self._piece(t)
        return before[k] + f[k] * (t - starts[k])


ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass
class Scenario:
    name: str
    duration_s: float
    sample_rate_hz: float
    subcarriers: int
    hr_bpm: Schedule
    br_brpm: Schedule
    apnea_intervals: Tuple[Tuple[float, float], ...] = ()
    base: ArrayLike = 10.0
    breath_gain: ArrayLike = 0.1
    cardiac_gain: ArrayLike = 0.025
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not (0 < self.duration_s < np.inf and 0 < self.sample_rate_hz < np.inf
                and self.subcarriers >= 1):
            raise InvalidScenario(
                "duration and rate must be positive and finite, subcarriers positive")
        # packets of 16 bytes a subcarrier, refused before any array is made
        try:  # an int past the float range is inf packets, not an OverflowError
            packets = float(self.duration_s) * float(self.sample_rate_hz)
        except OverflowError:
            packets = np.inf
        if not fits_one_array(packets, 16 * self.subcarriers):
            raise InvalidScenario(
                f"{packets:.3g} packets of {self.subcarriers} subcarriers at 16 bytes "
                f"a value exceed the largest array numpy can index")
        for sched, (lo, hi), what in ((self.hr_bpm, HR_SCHEDULE_RANGE, "heart"),
                                      (self.br_brpm, BR_SCHEDULE_RANGE, "breathing")):
            if any(not lo <= v <= hi for v in sched.values):  # NaN too
                raise InvalidScenario(
                    f"{what} schedule must stay within [{lo}, {hi}]")
        prev_end = -1.0
        for start, end in self.apnea_intervals:
            if not 0 <= start < end <= self.duration_s:
                raise InvalidScenario(f"bad apnea interval ({start}, {end})")
            if not start > prev_end:
                raise InvalidScenario("apnea intervals must be disjoint and ordered")
            prev_end = end
        self._per_subcarrier(self.base)
        alpha = self._per_subcarrier(self.breath_gain)
        beta = self._per_subcarrier(self.cardiac_gain)
        if np.any(beta > 0.3 * alpha):
            raise InvalidScenario("cardiac gain must not exceed 0.3x breath gain")
        if not 0 <= self.noise_std < np.inf:
            raise InvalidScenario("noise_std must be >= 0 and finite")
        if self.seed < 0:
            raise InvalidScenario("seed must be non-negative")

    def _per_subcarrier(self, value: ArrayLike) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise InvalidScenario("per-subcarrier values must be finite")
        if arr.ndim == 0:
            return np.full(self.subcarriers, float(arr))
        if arr.shape != (self.subcarriers,):
            raise InvalidScenario(
                f"per-subcarrier value has shape {arr.shape}, expected "
                f"({self.subcarriers},)")
        return arr


@dataclass
class SynthRecording:
    stream: CsiStream
    heart: LabelSeries
    breath: LabelSeries
    apnea: LabelSeries

    def labels_for_mode(self, mode: str) -> LabelSeries:
        kind = mode_spec(mode).label_kind
        return next(s for s in (self.heart, self.breath, self.apnea) if s.kind == kind)


def _gate(t: np.ndarray, intervals) -> np.ndarray:
    gate = np.ones_like(t)
    for start, end in intervals:
        gate[(t >= start) & (t <= end)] = 0.0
    return gate


def generate(scenario: Scenario) -> SynthRecording:
    """Produce the stream plus heart/breath labels and the apnea flag series."""
    sc = scenario
    fs = sc.sample_rate_hz
    n = int(round(sc.duration_s * fs))
    if n < 2:
        raise InvalidScenario("scenario too short to generate")
    t = np.arange(n, dtype=np.float64) / fs

    base = sc._per_subcarrier(sc.base)
    alpha = sc._per_subcarrier(sc.breath_gain)
    beta = sc._per_subcarrier(sc.cardiac_gain)

    phase_rng = np.random.default_rng([sc.seed, 101])
    phi = phase_rng.uniform(0, 2 * np.pi, sc.subcarriers)
    psi = phase_rng.uniform(0, 2 * np.pi, sc.subcarriers)
    theta = phase_rng.uniform(0, 2 * np.pi, sc.subcarriers)

    gate = _gate(t, sc.apnea_intervals)

    breath = np.sin(2 * np.pi * sc.br_brpm.cycles_at(t)[:, None] + phi[None, :])
    cardiac = np.sin(2 * np.pi * sc.hr_bpm.cycles_at(t)[:, None] + psi[None, :])
    magnitude = base[None, :] * (1.0
                                 + alpha[None, :] * breath * gate[:, None]
                                 + beta[None, :] * cardiac)
    phasor = np.exp(1j * theta)[None, :]
    values = magnitude * phasor
    if sc.noise_std > 0:
        noise_rng = np.random.default_rng([sc.seed, 202])
        values = values + (noise_rng.normal(0.0, sc.noise_std, (n, sc.subcarriers))
                           + 1j * noise_rng.normal(0.0, sc.noise_std, (n, sc.subcarriers)))

    stream = CsiStream(t, values, fs)

    t_lab = np.arange(0.0, np.floor(t[-1]) + 1.0)
    hr_vals = sc.hr_bpm.value_at(t_lab)
    br_vals = sc.br_brpm.value_at(t_lab)
    apnea_vals = 1.0 - _gate(t_lab, sc.apnea_intervals)
    return SynthRecording(
        stream,
        LabelSeries("heart_rate_bpm", t_lab, hr_vals),
        LabelSeries("breathing_rate_brpm", t_lab, br_vals),
        LabelSeries("apnea_flag", t_lab, apnea_vals),
    )


def _alternate_breathing(duration_s: float, breathe_s: float = 20.0,
                         hold_s: float = 10.0) -> Tuple[Tuple[float, float], ...]:
    """Hold intervals for the alternate-breathing pattern (breathe, then hold)."""
    out = []
    start = breathe_s
    cycle = breathe_s + hold_s
    while start + hold_s <= duration_s:
        out.append((start, start + hold_s))
        start += cycle
    return tuple(out)


def scenario_suite() -> List[Scenario]:
    """Deterministic named scenarios at both device profiles."""
    suite = []
    for pname, fs, n_sub in (ESP32_PROFILE, PI_PROFILE):
        long_run = 150.0 if pname == "esp32" else 400.0
        suite.append(Scenario(
            name=f"fixed_easy_{pname}", duration_s=long_run, sample_rate_hz=fs,
            subcarriers=n_sub, hr_bpm=Schedule.constant(72.0),
            br_brpm=Schedule.constant(15.0), noise_std=0.05,
            seed=11 if pname == "esp32" else 12))
        suite.append(Scenario(
            name=f"stepped_{pname}", duration_s=120.0, sample_rate_hz=fs,
            subcarriers=n_sub,
            hr_bpm=Schedule((0.0, 60.0), (66.0, 90.0)),
            br_brpm=Schedule((0.0, 60.0), (12.0, 18.0)),
            noise_std=0.05, seed=21 if pname == "esp32" else 22))
        suite.append(Scenario(
            name=f"low_snr_{pname}", duration_s=120.0, sample_rate_hz=fs,
            subcarriers=n_sub, hr_bpm=Schedule.constant(78.0),
            br_brpm=Schedule.constant(16.0), noise_std=1.0,
            seed=31 if pname == "esp32" else 32))
        suite.append(Scenario(
            name=f"alternate_breathing_{pname}", duration_s=long_run,
            sample_rate_hz=fs, subcarriers=n_sub,
            hr_bpm=Schedule.constant(72.0), br_brpm=Schedule.constant(15.0),
            apnea_intervals=_alternate_breathing(long_run),
            noise_std=0.05, seed=41 if pname == "esp32" else 42))
    return suite


def scenario_by_name(name: str) -> Scenario:
    for sc in scenario_suite():
        if sc.name == name:
            return sc
    raise InvalidScenario(
        f"unknown scenario {name!r}; known: {[s.name for s in scenario_suite()]}")
