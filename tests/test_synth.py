"""Synthetic recording generator: spectral content, labels, determinism."""

import numpy as np
import pytest

from pulsesense.dsp import FilterSpec, amplitude, design_bandpass, filter_values, remove_dc
from pulsesense.errors import InvalidScenario
from pulsesense.synth import (
    Scenario,
    Schedule,
    generate,
    scenario_by_name,
    scenario_suite,
)


def basic_scenario(**overrides):
    kwargs = dict(name="unit", duration_s=60.0, sample_rate_hz=20.0,
                  subcarriers=2, hr_bpm=Schedule.constant(72.0),
                  br_brpm=Schedule.constant(15.0), noise_std=0.02, seed=0)
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestGenerate:
    def test_heart_label_is_schedule_times_60(self):
        """A constant 1.2 Hz cardiac schedule labels 72 BPM throughout."""
        rec = generate(basic_scenario())
        assert np.all(rec.heart.values == 72.0)
        assert np.all(rec.breath.values == 15.0)

    def test_fft_peaks_at_scheduled_frequencies(self):
        """Noise-free single subcarrier: the two dominant non-DC amplitude
        peaks sit at f_br and f_hr within one bin (periodogram oracle)."""
        sc = basic_scenario(subcarriers=1, noise_std=0.0, duration_s=120.0,
                            breath_gain=0.1, cardiac_gain=0.03)
        rec = generate(sc)
        amp = amplitude(rec.stream).values[:, 0]
        n = amp.size
        spectrum = np.abs(np.fft.rfft(amp - amp.mean()))
        freqs = np.fft.rfftfreq(n, 1.0 / sc.sample_rate_hz)
        order = np.argsort(spectrum)[::-1]
        top2 = sorted(freqs[order[:2]])
        bin_width = freqs[1] - freqs[0]
        assert abs(top2[0] - 15.0 / 60.0) <= bin_width
        assert abs(top2[1] - 72.0 / 60.0) <= bin_width

    def test_rate_step_keeps_the_phase_continuous(self):
        """Across a 72 -> 90 BPM step at 10.5 s, the cycle count advances by
        one sample's worth at 80 Hz, where f(t) * t would jump 3.165 cycles."""
        fs = 80.0
        t = np.arange(int(20 * fs)) / fs
        steps = np.diff(Schedule((0.0, 10.5), (72.0, 90.0)).cycles_at(t))
        assert steps.min() >= 1.2 / fs - 1e-12 and steps.max() <= 1.5 / fs + 1e-12

    def test_constant_rate_cycles_are_rate_times_time(self):
        """One piece gives f_0 t bit for bit, so constant-rate recordings do
        not move."""
        t = np.arange(12000) / 80.0
        assert np.array_equal(Schedule.constant(72.0).cycles_at(t), 72.0 / 60.0 * t)

    def test_apnea_labels_cover_interval_inclusively(self):
        sc = basic_scenario(apnea_intervals=((20.0, 30.0),))
        rec = generate(sc)
        t = rec.apnea.timestamps
        inside = (t >= 20.0) & (t <= 30.0)
        assert np.all(rec.apnea.values[inside] == 1.0)
        assert np.all(rec.apnea.values[~inside] == 0.0)

    def test_breathing_gated_off_during_apnea(self):
        """Inside the hold interval the breathing modulation vanishes but the
        cardiac component persists."""
        sc = basic_scenario(subcarriers=1, noise_std=0.0, duration_s=60.0,
                            apnea_intervals=((20.0, 40.0),),
                            breath_gain=0.2, cardiac_gain=0.02)
        rec = generate(sc)
        amp = amplitude(rec.stream).values[:, 0]
        t = rec.stream.timestamps
        hold = amp[(t > 22.0) & (t < 38.0)]
        breathe = amp[(t > 42.0) & (t < 58.0)]
        # breathing swing ~ 2*base*alpha; cardiac-only swing ~ 2*base*beta
        assert np.ptp(breathe) > 4 * np.ptp(hold)
        assert np.ptp(hold) > 0  # cardiac still present

    def test_stream_satisfies_invariants(self):
        rec = generate(basic_scenario())
        assert np.all(np.diff(rec.stream.timestamps) > 0)
        assert rec.stream.values.shape == (1200, 2)

    def test_bit_identical_regeneration(self):
        sc = basic_scenario(seed=77)
        a = generate(sc)
        b = generate(sc)
        assert np.array_equal(a.stream.values, b.stream.values)
        assert np.array_equal(a.heart.values, b.heart.values)

    def test_no_breathing_no_cardiac_leaves_noise_floor(self):
        """Gate closed everywhere and zero cardiac gain: HR-band output RMS
        stays within 3 dB of the pure-noise floor."""
        fs = 20.0
        common = dict(name="x", duration_s=120.0, sample_rate_hz=fs,
                      subcarriers=1, hr_bpm=Schedule.constant(72.0),
                      br_brpm=Schedule.constant(15.0), noise_std=0.05,
                      breath_gain=0.1, cardiac_gain=0.0, seed=9)
        gated = Scenario(apnea_intervals=((0.0, 120.0),), **common)
        silent = Scenario(apnea_intervals=((0.0, 120.0),),
                          **{**common, "breath_gain": 0.0})
        cascade = design_bandpass(FilterSpec(0.8, 2.17, 3, fs))

        def band_rms(scenario):
            series = remove_dc(amplitude(generate(scenario).stream))
            out = filter_values(cascade, series.values)[int(10 * fs):]
            return np.sqrt(np.mean(out ** 2))

        ratio_db = 20 * np.log10(band_rms(gated) / band_rms(silent))
        assert ratio_db < 3.0


class TestValidation:
    def test_heart_schedule_range(self):
        with pytest.raises(InvalidScenario):
            basic_scenario(hr_bpm=Schedule.constant(140.0))

    def test_breath_schedule_range(self):
        with pytest.raises(InvalidScenario):
            basic_scenario(br_brpm=Schedule.constant(40.0))

    def test_cardiac_gain_bounded_by_breath_gain(self):
        with pytest.raises(InvalidScenario):
            basic_scenario(breath_gain=0.1, cardiac_gain=0.05)

    def test_overlapping_apnea_intervals(self):
        with pytest.raises(InvalidScenario):
            basic_scenario(apnea_intervals=((10.0, 20.0), (15.0, 25.0)))

    def test_interval_outside_duration(self):
        with pytest.raises(InvalidScenario):
            basic_scenario(apnea_intervals=((50.0, 70.0),))

    @pytest.mark.parametrize("overrides", [
        {"duration_s": float("nan")}, {"duration_s": float("inf")},
        {"sample_rate_hz": float("nan")}, {"noise_std": float("nan")},
        {"noise_std": float("inf")}, {"apnea_intervals": ((float("nan"), 20.0),)},
        {"apnea_intervals": ((10.0, float("nan")),)},
        {"base": float("nan")}, {"breath_gain": [0.1, float("nan")]},
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_non_finite_values_refused(self, overrides):
        """Every numeric check fails for NaN rather than passing it."""
        with pytest.raises(InvalidScenario):
            basic_scenario(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"duration_s": 10 ** 400}, {"sample_rate_hz": 10 ** 400},
        {"duration_s": 10 ** 400, "sample_rate_hz": 10 ** 400}])
    def test_int_past_the_float_range_is_too_many_packets(self, overrides):
        """A duration or rate past the float range is a scenario too large
        for one array, not an OverflowError from their product."""
        with pytest.raises(InvalidScenario, match="exceed the largest array"):
            basic_scenario(**overrides)

    def test_nan_breakpoint_refused(self):
        with pytest.raises(InvalidScenario, match="breakpoints must increase"):
            Schedule((0.0, float("nan")), (70.0, 80.0))


class TestSuite:
    def test_contains_alternate_breathing_20s_10s(self):
        sc = scenario_by_name("alternate_breathing_esp32")
        starts = [a for a, _ in sc.apnea_intervals]
        assert sc.apnea_intervals[0] == (20.0, 30.0)
        assert all(b - a == 10.0 for a, b in sc.apnea_intervals)
        assert np.allclose(np.diff(starts), 30.0)

    def test_both_device_profiles_present(self):
        suite = scenario_suite()
        rates = {(sc.sample_rate_hz, sc.subcarriers) for sc in suite}
        assert (80.0, 64) in rates
        assert (7.4, 234) in rates

    def test_all_scenarios_regenerate_identically(self):
        for sc in scenario_suite():
            if sc.duration_s > 150:
                continue  # keep the check cheap; same code path as the rest
            a = generate(sc)
            b = generate(sc)
            assert np.array_equal(a.stream.values, b.stream.values)

    def test_names_unique(self):
        names = [sc.name for sc in scenario_suite()]
        assert len(names) == len(set(names))

    def test_unknown_name(self):
        with pytest.raises(InvalidScenario):
            scenario_by_name("nonexistent")
