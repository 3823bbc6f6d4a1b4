"""Butterworth design and application, checked against analytic responses."""

import warnings

import numpy as np
import pytest

from pulsesense.dsp import (
    FilterSpec,
    FilterState,
    design_bandpass,
    filter_values,
    frequency_response,
)
from pulsesense.errors import InvalidBand

HR_SPEC = FilterSpec(0.8, 2.17, 3, 80.0)
BR_SPEC = FilterSpec(0.1, 0.5, 3, 80.0)
APNEA_SPEC = FilterSpec(0.0, 0.5, 3, 80.0)

MINUS_3DB = 20.0 * np.log10(1.0 / np.sqrt(2.0))


def db(h):
    return 20.0 * np.log10(np.abs(h))


class TestDesign:
    def test_hr_band_edges_at_minus_3db(self):
        """Pre-warped edges land exactly on the Butterworth -3 dB points."""
        cascade = design_bandpass(HR_SPEC)
        h = frequency_response(cascade, [0.8, 2.17], 80.0)
        np.testing.assert_allclose(db(h), MINUS_3DB, atol=1e-4)

    def test_bandpass_blocks_dc_exactly(self):
        cascade = design_bandpass(HR_SPEC)
        h = frequency_response(cascade, [0.0], 80.0)
        assert abs(h[0]) == 0.0

    def test_br_stopband_attenuation(self):
        """Six poles over two octaves: >= 30 dB down at 2 Hz."""
        cascade = design_bandpass(BR_SPEC)
        h = frequency_response(cascade, [2.0], 80.0)
        assert db(h[0]) <= -30.0

    def test_section_counts(self):
        assert len(design_bandpass(HR_SPEC).sections) == 3
        assert len(design_bandpass(APNEA_SPEC).sections) == 2
        assert len(design_bandpass(FilterSpec(0.0, 1.0, 4, 80.0)).sections) == 2
        assert len(design_bandpass(FilterSpec(1.0, 3.0, 5, 80.0)).sections) == 5

    def test_zero_low_edge_is_lowpass(self):
        cascade = design_bandpass(APNEA_SPEC)
        h = frequency_response(cascade, [0.0, 0.5], 80.0)
        assert abs(h[0]) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(db(h[1]), MINUS_3DB, atol=1e-4)

    def test_invalid_bands(self):
        with pytest.raises(InvalidBand):
            FilterSpec(2.0, 1.0, 3, 80.0)
        with pytest.raises(InvalidBand):
            FilterSpec(0.5, 40.0, 3, 80.0)  # edge at Nyquist
        with pytest.raises(InvalidBand):
            FilterSpec(0.1, 0.5, 0, 80.0)
        with pytest.raises(InvalidBand):
            FilterSpec(0.1, 0.5, 9, 80.0)

    @pytest.mark.parametrize("fs", [1e30, 1e103, 1e300, 1.7e308])
    @pytest.mark.parametrize("low,high", [(0.8, 2.17), (0.1, 0.5), (0.0, 0.5)])
    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_rates_past_every_design_refused_without_warnings(self, fs, low, high, order):
        """At rates where the poles round onto the unit circle and the gain
        overflows (or 2 fs does), the design is an InvalidBand: no
        OverflowError, no numpy warning, no cascade without sections."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBand):
                design_bandpass(FilterSpec(low, high, order, fs))

    def test_random_specs_always_stable(self):
        """Every designed cascade keeps all poles strictly inside the unit
        circle, across the realistic spec envelope."""
        rng = np.random.default_rng(1234)
        for _ in range(300):
            fs = float(rng.uniform(4.0, 400.0))
            order = int(rng.integers(1, 9))
            if rng.random() < 0.25:
                low = 0.0
                high = float(rng.uniform(0.002, 0.47)) * fs
            else:
                low = float(rng.uniform(0.001, 0.40)) * fs
                high = float(rng.uniform(low / fs + 0.01, 0.47)) * fs
            cascade = design_bandpass(FilterSpec(low, high, order, fs))
            assert np.all(np.abs(cascade.poles()) < 1.0)
            for sec in cascade.sections:
                assert abs(sec.a2) < 1.0 and abs(sec.a1) < 1.0 + sec.a2


class TestApply:
    def test_zero_in_zero_out(self):
        cascade = design_bandpass(HR_SPEC)
        assert np.all(filter_values(cascade, np.zeros((100, 4))) == 0.0)

    def test_impulse_response_fft_matches_analytic_response(self):
        """FFT of the impulse response equals H evaluated at the bin
        frequencies (oracle: direct DFT of the time-domain output)."""
        cascade = design_bandpass(HR_SPEC)
        n = 16384  # long enough that truncation is below 1e-9
        x = np.zeros((n, 1))
        x[0, 0] = 1.0
        imp = filter_values(cascade, x)[:, 0]
        spectrum = np.fft.rfft(imp)
        freqs = np.fft.rfftfreq(n, d=1.0 / 80.0)
        analytic = frequency_response(cascade, freqs, 80.0)
        np.testing.assert_allclose(spectrum, analytic, atol=1e-9)

    def test_sinusoid_steady_state_gain(self):
        """A 1.2 Hz tone settles to the designed passband gain."""
        cascade = design_bandpass(HR_SPEC)
        fs = 80.0
        t = np.arange(int(40 * fs)) / fs
        x = np.sin(2 * np.pi * 1.2 * t)[:, None]
        y = filter_values(cascade, x)[:, 0]
        steady = y[int(10 * fs):]
        amp = (steady.max() - steady.min()) / 2.0
        gain = abs(frequency_response(cascade, [1.2], fs)[0])
        assert amp == pytest.approx(gain, abs=1e-3)

    def test_linearity(self):
        """filter(a x + b y) = a filter(x) + b filter(y) within 1e-9."""
        cascade = design_bandpass(HR_SPEC)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((500, 3))
        y = rng.standard_normal((500, 3))
        a, b = 2.5, -1.25
        lhs = filter_values(cascade, a * x + b * y)
        rhs = a * filter_values(cascade, x) + b * filter_values(cascade, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_output_shape_preserved(self):
        cascade = design_bandpass(BR_SPEC)
        x = np.random.default_rng(0).standard_normal((257, 5))
        assert filter_values(cascade, x).shape == (257, 5)

    def test_blockwise_equals_full_pass_bitwise(self):
        """Feeding packets one at a time, or in blocks of any sizes, reproduces
        the block result exactly in every band; streaming inference, which
        filters the rows of each smoothing batch in one block, relies on this."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((300, 4))
        # uniform blocks of 1, 7, 16 and 32 with a partial last one, and a
        # mixed split with an empty block
        splits = ([1] * 300, [7] * 42 + [6], [16] * 18 + [12], [32] * 9 + [12],
                  [1, 7, 16, 32, 2, 31, 5, 0, 206])
        for spec in (HR_SPEC, BR_SPEC, APNEA_SPEC):
            cascade = design_bandpass(spec)
            full = filter_values(cascade, x)
            state = FilterState(cascade, 4)
            rows = np.vstack([state.process(row) for row in x])
            assert np.array_equal(full, rows)
            for sizes in splits:
                state = FilterState(cascade, 4)
                edges = np.cumsum([0] + sizes)
                blocks = [state.process(x[a:b]) for a, b in zip(edges, edges[1:])]
                assert np.vstack(blocks).tobytes() == full.tobytes(), sizes


def textbook_df2t(cascade, x):
    """Per-sample, per-channel direct-form II transposed recursion in plain
    Python floats, section after section, then the overall gain."""
    channels = [[float(v) for v in col] for col in x.T]
    for sec in cascade.sections:
        for col in channels:
            s1 = s2 = 0.0
            for t, xt in enumerate(col):
                out = sec.b0 * xt + s1
                s1 = sec.b1 * xt - sec.a1 * out + s2
                s2 = sec.b2 * xt - sec.a2 * out
                col[t] = out
    return np.array(channels).T * cascade.overall_gain


class TestOracle:
    @pytest.mark.parametrize("spec", [HR_SPEC, BR_SPEC, APNEA_SPEC],
                             ids=["heart", "breath", "apnea"])
    def test_filter_values_equals_textbook_loop_bitwise(self, spec):
        cascade = design_bandpass(spec)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((600, 3)) * 10.0 + rng.uniform(-5, 5, 3)
        assert filter_values(cascade, x).tobytes() == textbook_df2t(cascade, x).tobytes()


# bandpass orders 1-8 give K = 1..8 sections; the odd low-pass orders end on
# the first-order section (b2 = a2 = 0)
CASCADE_SPECS = ([FilterSpec(0.8, 2.17, n, 80.0) for n in range(1, 9)]
                 + [FilterSpec(0.0, 0.5, n, 80.0) for n in range(1, 9)])


def _signed_zero_signal(rng, t, s):
    """Random rows with exact +0.0 and -0.0 entries, a constant column and an
    all -0.0 column."""
    x = rng.standard_normal((t, s)) * 10.0
    x[rng.random((t, s)) < 0.2] = 0.0
    x[rng.random((t, s)) < 0.2] = -0.0
    x[:, 1] = 3.25
    x[:, 2] = -0.0
    return x


class TestPipelinedCascade:
    @pytest.mark.parametrize("spec", CASCADE_SPECS,
                             ids=[f"{'lp' if s.is_lowpass else 'bp'}{s.order}"
                                  for s in CASCADE_SPECS])
    def test_random_block_splits_equal_textbook_bytes(self, spec):
        """Any split of one signal into blocks, single packets included, gives
        the oracle's bytes. Blocks of 0, 1 and fewer than K rows end inside the
        pipeline's ramp-in and ramp-out steps."""
        cascade = design_bandpass(spec)
        k = len(cascade.sections)
        rng = np.random.default_rng(100 + spec.order + 10 * spec.is_lowpass)
        x = _signed_zero_signal(rng, 60, 4)
        expected = textbook_df2t(cascade, x).tobytes()
        assert filter_values(cascade, x).tobytes() == expected
        for _ in range(4):
            state, parts, i = FilterState(cascade, 4), [], 0
            while i < len(x):
                n = int(rng.choice([0, 1, max(k - 1, 0), int(rng.integers(2, 2 * k + 4))]))
                if n == 1 and rng.random() < 0.5:
                    parts.append(state.process(x[i])[None])  # one (S,) packet
                else:
                    parts.append(state.process(x[i:i + n]))
                i += n
            assert np.concatenate(parts).tobytes() == expected

    @pytest.mark.parametrize("spec", [HR_SPEC, BR_SPEC, APNEA_SPEC],
                             ids=["heart", "breath", "apnea"])
    def test_packets_between_odd_and_even_blocks_equal_one_full_pass(self, spec):
        """One-packet calls run the cached per-packet step plans; between
        blocks of odd and even length, short and past the cached sizes, they
        leave the bytes of one full pass."""
        cascade = design_bandpass(spec)
        k = len(cascade.sections)
        x = _signed_zero_signal(np.random.default_rng(31), 400, 4)
        full = filter_values(cascade, x).tobytes()
        for pattern in ([1, 2, 1, 3], [3, 1, 1, 4, 1],
                        [2 * k + 1, 1, 2 * k + 2, 1, 1, k, 1, k - 1, 5 * k + 2]):
            state, parts, i, n = FilterState(cascade, 4), [], 0, 0
            while i < len(x):
                size = pattern[n % len(pattern)]
                if size == 1:
                    parts.append(state.process(x[i])[None])
                else:
                    parts.append(state.process(x[i:i + size]))
                i, n = i + size, n + 1
            assert np.concatenate(parts).tobytes() == full

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_state_decayed_to_signed_zero_equals_textbook_bytes(self, order):
        """An impulse response that underflows leaves -0.0 in the state, which
        a following run of -0.0 input carries to the output; only then does
        the sign of a zero state entry reach the bytes."""
        cascade = design_bandpass(FilterSpec(0.0, 30.0, order, 80.0))
        x = np.zeros((4000, 2))
        x[0] = [1.0, -5e-324]
        x[2000:, 0] = -0.0
        out = filter_values(cascade, x)
        assert np.any((out == 0.0) & np.signbit(out))
        assert out.tobytes() == textbook_df2t(cascade, x).tobytes()

    def test_empty_block_keeps_shape_and_state(self):
        cascade = design_bandpass(HR_SPEC)
        x = np.random.default_rng(4).standard_normal((20, 3))
        state = FilterState(cascade, 3)
        head = state.process(x[:7])
        assert state.process(np.empty((0, 3))).shape == (0, 3)
        rest = state.process(x[7:])
        assert np.vstack([head, rest]).tobytes() == filter_values(cascade, x).tobytes()

    def test_fortran_ordered_input_gives_c_ordered_output(self):
        """A subcarrier subset reaches the filter F-ordered. Standardize's
        column sums add in a layout-dependent order, so an F-ordered output
        carried on to them would give batch z-scores that differ in the last
        bit from the streaming ones, which are stacked from C-ordered rows."""
        cascade = design_bandpass(HR_SPEC)
        x = np.random.default_rng(8).standard_normal((200, 5))
        out = filter_values(cascade, np.asfortranarray(x))
        assert out.flags.c_contiguous
        assert out.tobytes() == filter_values(cascade, x).tobytes()
