"""Butterworth band extraction filters.

Digital filters are designed from the analog Butterworth prototype via the
bilinear transform with frequency pre-warping of both band edges, so the
stated edges land exactly on the -3 dB points. The result is realized as a
cascade of second-order sections, which stays well conditioned even for the
breathing band (0.1 Hz at an 80 Hz rate is 0.00125 of Nyquist, where a single
high-order polynomial would be numerically useless).

A zero low edge degrades the design to an order-N low-pass: a bandpass whose
lower edge is 0 Hz *is* a low-pass (used for the apnea band).

FilterState runs the sections as a pipeline with the same IEEE operations
per sample as a section-by-section loop, so any block split gives its bytes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import InvalidBand


@dataclass(frozen=True)
class FilterSpec:
    """Band edges in Hz, analog prototype order, and the sampling rate."""

    low_cut_hz: float
    high_cut_hz: float
    order: int
    sample_rate_hz: float

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise InvalidBand("sample_rate_hz must be positive")
        if self.low_cut_hz < 0:
            raise InvalidBand("low_cut_hz must be >= 0")
        if not self.low_cut_hz < self.high_cut_hz:
            raise InvalidBand(
                f"low_cut_hz {self.low_cut_hz} must be below high_cut_hz {self.high_cut_hz}")
        if not self.high_cut_hz < self.sample_rate_hz / 2:
            raise InvalidBand(
                f"high_cut_hz {self.high_cut_hz} must be below Nyquist "
                f"{self.sample_rate_hz / 2}")
        if not 1 <= int(self.order) <= 8:
            raise InvalidBand("order must be in [1, 8]")

    @property
    def is_lowpass(self) -> bool:
        return self.low_cut_hz == 0.0


@dataclass(frozen=True)
class BiquadSection:
    """One direct-form II transposed section with monic denominator."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def is_stable(self) -> bool:
        return abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2


@dataclass(frozen=True)
class BiquadCascade:
    sections: tuple
    overall_gain: float

    def __post_init__(self):
        for sec in self.sections:
            if not sec.is_stable():
                raise InvalidBand(f"unstable section {sec}")
        if not math.isfinite(self.overall_gain):
            raise InvalidBand(f"overall gain {self.overall_gain} is not finite")


def _prototype_poles(order: int):
    """Left-half-plane poles of the unit-cutoff analog Butterworth filter."""
    return [cmath.exp(1j * math.pi * (2 * k + order - 1) / (2 * order))
            for k in range(1, order + 1)]


def _bilinear_pole(p: complex, fs2: float) -> complex:
    return (fs2 + p) / (fs2 - p)


def _biquad_from_pole_pair(q1: complex, q2: complex, b: Sequence[float]) -> BiquadSection:
    # (z - q1)(z - q2) with real product: a1 = -(q1+q2), a2 = q1*q2
    a1 = -(q1 + q2)
    a2 = q1 * q2
    return BiquadSection(b[0], b[1], b[2], float(a1.real), float(a2.real))


def design_bandpass(spec: FilterSpec) -> BiquadCascade:
    """Design the Butterworth filter for ``spec`` as a biquad cascade.

    Bandpass specs yield order-N bandpass filters (2N poles, N sections);
    specs with a zero low edge yield order-N low-passes (ceil(N/2) sections).
    """
    fs = float(spec.sample_rate_hz)
    order = int(spec.order)
    fs2 = 2.0 * fs

    def warp(f_hz: float) -> float:
        return fs2 * math.tan(math.pi * f_hz / fs)

    proto = _prototype_poles(order)

    if spec.is_lowpass:
        wc = warp(spec.high_cut_hz)
        analog_poles = [p * wc for p in proto]
        gain_a = wc ** order
        # no finite analog zeros; all digital zeros sit at z = -1
        digital = [_bilinear_pole(p, fs2) for p in analog_poles]
        gain_num = 1.0
        # at rates so high that this overflows, the poles have rounded onto
        # the unit circle: BiquadCascade refuses the design, so no warning
        with np.errstate(over="ignore", invalid="ignore"):
            gain_den = np.prod([fs2 - p for p in analog_poles])
            gain = gain_a * (gain_num / gain_den).real

        sections = []
        complex_poles = [p for p in digital if p.imag > 1e-14]
        real_poles = [p.real for p in digital if abs(p.imag) <= 1e-14]
        for p in complex_poles:
            sections.append(_biquad_from_pole_pair(p, p.conjugate(), (1.0, 2.0, 1.0)))
        real_poles.sort()
        while len(real_poles) >= 2:
            r1, r2 = real_poles.pop(), real_poles.pop()
            sections.append(_biquad_from_pole_pair(complex(r1), complex(r2), (1.0, 2.0, 1.0)))
        if real_poles:
            r = real_poles.pop()
            sections.append(BiquadSection(1.0, 1.0, 0.0, -r, 0.0))
        return BiquadCascade(tuple(sections), float(gain))

    w1 = warp(spec.low_cut_hz)
    w2 = warp(spec.high_cut_hz)
    w0sq = w1 * w2
    bw = w2 - w1

    # low-pass prototype -> bandpass: s -> (s^2 + w0^2) / (bw * s)
    analog_poles = []
    pole_pairs = []  # analog pole groups producing one real biquad each
    for p in proto:
        if abs(p.imag) <= 1e-14:
            ps = p.real * bw / 2.0
            q1 = ps + cmath.sqrt(complex(ps * ps - w0sq))
            q2 = ps - cmath.sqrt(complex(ps * ps - w0sq))
            analog_poles.extend([q1, q2])
            if abs(q1.imag) <= 1e-14:
                pole_pairs.append((q1, q2))  # two real poles
            else:
                pole_pairs.append((q1, q1.conjugate()))  # conjugate pair
        elif p.imag > 0:
            ps = p * bw / 2.0
            q1 = ps + cmath.sqrt(ps * ps - w0sq)
            q2 = ps - cmath.sqrt(ps * ps - w0sq)
            analog_poles.extend([q1, q2, q1.conjugate(), q2.conjugate()])
            pole_pairs.append((q1, q1.conjugate()))
            pole_pairs.append((q2, q2.conjugate()))
    gain_a = bw ** order
    # N analog zeros at s = 0
    try:
        zeros_gain = fs2 ** order
    except OverflowError:  # as above, BiquadCascade refuses the design
        zeros_gain = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        gain = gain_a * (zeros_gain / np.prod([fs2 - p for p in analog_poles])).real

    sections = []
    for q1, q2 in pole_pairs:
        z1 = _bilinear_pole(q1, fs2)
        z2 = _bilinear_pole(q2, fs2)
        # one zero at z=1 and one at z=-1 per section: b = (1, 0, -1)
        sections.append(_biquad_from_pole_pair(z1, z2, (1.0, 0.0, -1.0)))
    sections.sort(key=lambda s: s.a2)
    return BiquadCascade(tuple(sections), float(gain))


def frequency_response(cascade: BiquadCascade, freqs_hz, sample_rate_hz: float) -> np.ndarray:
    """Complex response H(e^{j 2 pi f / fs}) evaluated from the coefficients."""
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    zinv = np.exp(-2j * np.pi * f / sample_rate_hz)
    h = np.full(f.shape, cascade.overall_gain, dtype=np.complex128)
    for sec in cascade.sections:
        num = sec.b0 + sec.b1 * zinv + sec.b2 * zinv * zinv
        den = 1.0 + sec.a1 * zinv + sec.a2 * zinv * zinv
        h *= num / den
    return h


class FilterState:
    """Per-channel direct-form II transposed state for one cascade.

    One instance filters one multichannel signal incrementally; feeding the
    same samples in one block or packet by packet produces bit-identical
    output, which is what lets streaming inference match batch processing.

    The K sections run as a pipeline: at step j section k filters sample
    j - k, so one set of array operations on (K, S) rows advances every
    section. Each sample meets the same IEEE operations in the same order as
    in a section-by-section loop: out = b0 x + s1, s1 = (b1 x - a1 out) + s2,
    s2 = (b2 x - a2 out) + -0.0 (adding -0.0 returns every double unchanged,
    signed zeros included), and the overall gain last. The first and last
    K - 1 steps of a block touch only the sections that hold a sample of it.
    """

    def __init__(self, cascade: BiquadCascade, n_channels: int):
        self.cascade = cascade
        k = len(cascade.sections)
        coef = np.array([[s.b0, s.b1, s.b2, s.a1, s.a2] for s in cascade.sections]).T
        coef = np.repeat(coef[:, :, None], n_channels, axis=2)  # (5, K, S): faster than (5, K, 1)
        # pipe[0] is the next input row, pipe[k + 1] the newest output of section k
        self._pipe = np.zeros((k + 1, n_channels))
        # two copies of each section's (s1, s2, -0.0): a step reads one and
        # writes the other; _phase says which copy the next block reads first
        state = np.zeros((2, 3, k, n_channels))
        state[:, 2] = -0.0
        self._phase = 0
        bx, ax = np.empty((3, k, n_channels)), np.empty((2, k, n_channels))
        # per (lo, hi) and state copy: the arrays a step on sections lo:hi uses
        self._views = {(lo, hi): [(
            coef[:3, lo:hi], self._pipe[lo:hi], bx[:, lo:hi], bx[0, lo:hi], state[p, 0, lo:hi],
            self._pipe[lo + 1:hi + 1], coef[3:, lo:hi], ax[:, lo:hi], bx[1:, lo:hi],
            state[p, 1:, lo:hi], state[1 - p, :2, lo:hi]) for p in (0, 1)]
            for lo in range(k) for hi in range(lo + 1, k + 1)}
        # step plans of blocks up to 2K rows, by (rows, phase)
        self._plans = {}

    def _plan(self, t: int) -> list:
        """The views of each of the t + K - 1 steps of a t-row block (t >= 1)
        that starts on state copy _phase: step j advances sections
        max(0, j - t + 1) .. min(K, j + 1) - 1, so the first and last K - 1
        steps ramp the pipeline in and out, and the steps between use all K
        sections on alternate copies."""
        key = (t, self._phase)
        plan = self._plans.get(key)
        if plan is None:
            k, views, phase = len(self._pipe) - 1, self._views, self._phase

            def at(j):
                return views[max(0, j - t + 1), min(k, j + 1)][(j + phase) & 1]

            ramp_in = [at(j) for j in range(k - 1)]
            steady = [at(j) for j in range(k - 1, min(t, k + 1))]
            ramp_out = [at(j) for j in range(max(t, k - 1), t + k - 1)]
            n_steady = max(t - k + 1, 0)
            plan = ramp_in + steady * (n_steady // 2) + steady[:n_steady & 1] + ramp_out
            if t <= 2 * k:
                self._plans[key] = plan
        return plan

    def process(self, block: np.ndarray) -> np.ndarray:
        """Filter a (T, S) block, advancing state."""
        x = np.asarray(block, dtype=np.float64)
        y = np.empty(x.shape)  # C order even for an F-ordered x
        t, k = x.shape[0], len(self._pipe) - 1
        pipe = self._pipe
        mul, add, sub = np.multiply, np.add, np.subtract
        for j, (b, xin, bx, bx0, s1, out, a, ax, bx12, s2z, s_next) in enumerate(
                self._plan(t) if t else ()):
            if j < t:
                pipe[0] = x[j]
            mul(b, xin, bx)  # b0 x, b1 x, b2 x (out= given by position: cheaper)
            add(bx0, s1, out)
            mul(a, out, ax)  # a1 out, a2 out
            sub(bx12, ax, bx12)
            add(bx12, s2z, s_next)
            if j >= k - 1:
                y[j - k + 1] = pipe[k]
        self._phase ^= t & 1
        y *= self.cascade.overall_gain
        return y


def filter_values(cascade: BiquadCascade, values: np.ndarray) -> np.ndarray:
    """Causal single pass over a (T, S) matrix with zero initial conditions."""
    state = FilterState(cascade, values.shape[1])
    return state.process(values)

