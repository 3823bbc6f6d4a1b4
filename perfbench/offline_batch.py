"""offline_batch: the ``process`` command as a closed loop.

One pass runs parse -> align -> run_pipeline -> write_segment_dump ->
read_segment_dump on two recordings: a long, narrow ESP32 CSV capture
(12000 x 64 at 80 Hz, heart mode) and a short, wide canonical JSONL
recording (2960 x 234 at 7.4 Hz, breath mode). Passes run back to back for
the measured time. The network does no work here.

End-to-end times are calibrated against the pure-Python reference (see
common.Reference), which matches this parse-bound mix; set-up time against
the batch-1 LSTM-like one.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from common import (
    LSTM_B1_REFERENCE,
    PYTHON_REFERENCE,
    CallTimes,
    Result,
    Spans,
    derive_seeds,
    median,
    no_span,
    peak_rss_mb,
)
from pulsesense import dsp, ingest, synth
from pulsesense.dsp.filters import FilterSpec, design_bandpass, filter_values
from pulsesense.dsp.pipeline import (
    BANDPASS_ORDER,
    AmplitudeSeries,
    PipelineConfig,
    WindowSegment,
    window_label,
)
from pulsesense.dsp.savgol import savgol_kernel, smooth_values
from pulsesense.ingest import LabelSeries

# ESP32 captures carry small signed integers; the synthetic channel (base
# amplitude 10) is scaled so the rounded values span most of the int8 range.
ESP32_SCALE = 10.0
SETUP_REPEATS = 5  # before the first pass and after every pass


@dataclass
class Recording:
    name: str
    fmt: str                 # "esp32" or "canonical"
    data: bytes
    labels: LabelSeries
    packets: int             # generated packet count
    subcarriers: int
    sample_rate_hz: float
    cfg: PipelineConfig
    true_rate: float         # per minute, the scenario's constant rate
    tolerance: float         # per minute, for the spectral-peak check


def esp32_csv(stream: ingest.CsiStream) -> bytes:
    """Header line, then ``timestamp,im0,re0,im1,re1,...`` integer rows."""
    scaled = np.rint(stream.values * ESP32_SCALE)
    rows = np.empty((stream.frame_count, 2 * stream.subcarrier_count), dtype=np.int64)
    rows[:, 0::2] = scaled.imag
    rows[:, 1::2] = scaled.real
    header = "timestamp," + ",".join(
        f"im{k},re{k}" for k in range(stream.subcarrier_count))
    lines = [header] + [repr(t) + "," + ",".join(map(str, row))
                        for t, row in zip(stream.timestamps.tolist(), rows.tolist())]
    return ("\n".join(lines) + "\n").encode("utf-8")


def make_inputs(seed: int, tiny: bool) -> List[Recording]:
    esp_seed, pi_seed = derive_seeds(seed, 2)
    esp = dataclasses.replace(synth.scenario_by_name("fixed_easy_esp32"),
                              seed=esp_seed)
    pi = dataclasses.replace(synth.scenario_by_name("fixed_easy_pi"), seed=pi_seed)
    if tiny:
        esp = dataclasses.replace(esp, duration_s=20.0)
        pi = dataclasses.replace(pi, duration_s=60.0)
    esp_rec = synth.generate(esp)
    pi_rec = synth.generate(pi)
    return [
        Recording("esp32", "esp32", esp32_csv(esp_rec.stream), esp_rec.heart,
                  esp_rec.stream.frame_count, esp.subcarriers, esp.sample_rate_hz,
                  PipelineConfig(mode="heart", window_s=5.0, stride=16),
                  true_rate=72.0, tolerance=1.5),
        Recording("pi", "canonical", ingest.write_canonical(pi_rec.stream),
                  pi_rec.breath, pi_rec.stream.frame_count, pi.subcarriers,
                  pi.sample_rate_hz, PipelineConfig(mode="breath", window_s=20.0, stride=7),
                  true_rate=15.0, tolerance=0.75),
    ]


def parse(rec: Recording) -> ingest.CsiStream:
    if rec.fmt == "esp32":
        return ingest.parse_esp32_csv(rec.data)
    return ingest.parse_canonical(rec.data)


def process(rec: Recording, call: CallTimes) -> None:
    """The untraced pass body: the public composite calls, each timed."""
    with call("parse", rec.name):
        stream = parse(rec)
    with call("align", rec.name):
        aligned = ingest.align(stream, rec.labels)
    with call("run_pipeline", rec.name):
        segments = dsp.run_pipeline_config(aligned, rec.cfg)
    with call("write_segment_dump", rec.name):
        dump = dsp.write_segment_dump(segments)
    with call("read_segment_dump", rec.name):
        dsp.read_segment_dump(dump)


def recompose_pipeline(aligned: ingest.AlignedRecording, cfg: PipelineConfig,
                       span=no_span) -> List[WindowSegment]:
    """run_pipeline rebuilt from its public stage functions, one span each.

    Covers the causal configuration the workloads use (no band override,
    subcarrier subset or zero-phase pass); the checks require the result to
    be bit-identical to run_pipeline.
    """
    with span("dsp.amplitude"):
        series = dsp.amplitude(aligned.stream)
    with span("dsp.remove_dc"):
        series = dsp.remove_dc(series)
    fs = series.sample_rate_hz
    low, high = cfg.effective_band()
    with span("dsp.design_bandpass"):
        cascade = design_bandpass(FilterSpec(low, high, BANDPASS_ORDER, fs))
    with span("dsp.filter_values"):
        filtered = filter_values(cascade, series.values)
    with span("dsp.savgol_kernel"):
        kernel = savgol_kernel(cfg.savgol_window, cfg.savgol_order)
    with span("dsp.smooth_values"):
        smoothed = AmplitudeSeries(smooth_values(kernel, filtered), fs)
    with span("dsp.segment"):
        raw = dsp.segment(smoothed, cfg.window_s, cfg.stride)
        w = dsp.window_length(cfg.window_s, fs)
        labels = [window_label(aligned.alignment, i * cfg.stride, w, cfg.mode)
                  for i in range(len(raw))]
    out = []
    for i, win in enumerate(raw):
        with span("dsp.standardize"):
            values = dsp.standardize(win)
        out.append(WindowSegment(values, labels[i], i * cfg.stride, w / fs))
    return out


def process_traced(rec: Recording, span: Spans) -> int:
    """The traced pass body; returns the segment dump's size in bytes."""
    name = "ingest.parse_esp32_csv" if rec.fmt == "esp32" else "ingest.parse_canonical"
    with span(name):
        stream = parse(rec)
    with span("ingest.align"):
        aligned = ingest.align(stream, rec.labels)
    segments = recompose_pipeline(aligned, rec.cfg, span)
    with span("dsp.write_segment_dump"):
        dump = dsp.write_segment_dump(segments)
    with span("dsp.read_segment_dump"):
        dsp.read_segment_dump(dump)
    return len(dump)


def setup_seconds(recs: List[Recording]) -> float:
    """The program's own set-up calls for one pass: filter designs and
    smoothing kernels."""
    t0 = time.perf_counter()
    for rec in recs:
        low, high = rec.cfg.effective_band()
        design_bandpass(FilterSpec(low, high, BANDPASS_ORDER, rec.sample_rate_hz))
        savgol_kernel(rec.cfg.savgol_window, rec.cfg.savgol_order)
    return time.perf_counter() - t0


def run_passes(recs: List[Recording], budget_s: float, res: Result,
               body, between, span=no_span) -> List[float]:
    """Closed loop: whole passes until ``budget_s`` of pass time is spent,
    with ``between`` called untimed after each pass."""
    times: List[float] = []
    while not times or sum(times) < budget_s:
        t0 = time.perf_counter()
        with span("offline.pass"):
            for rec in recs:
                res.attempt(body, rec)
        times.append(time.perf_counter() - t0)
        between()
    return times


def spectral_peak_per_min(segments: List[WindowSegment], fs: float,
                          band, pad: int = 16, samples: int = 16) -> float:
    """Median over evenly spaced windows of the peak of the mean |FFT| over
    subcarriers, zero-padded ``pad`` times, searched inside ``band``."""
    idx = np.unique(np.linspace(0, len(segments) - 1, min(samples, len(segments)))
                    .round().astype(int))
    peaks = []
    for i in idx:
        x = segments[i].values
        n = pad * x.shape[0]
        spectrum = np.abs(np.fft.rfft(x, n=n, axis=0)).mean(axis=1)
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        inside = (freqs >= band[0]) & (freqs <= band[1])
        peaks.append(freqs[inside][np.argmax(spectrum[inside])])
    return 60.0 * median(peaks)


def check_outputs(rec: Recording, res: Result) -> None:
    """Correctness checks, run after the timed loop."""
    stream = parse(rec)
    res.check(f"{rec.name}.packet_count", stream.frame_count == rec.packets,
              f"parsed {stream.frame_count}, generated {rec.packets}")
    aligned = ingest.align(stream, rec.labels)
    segments = dsp.run_pipeline_config(aligned, rec.cfg)

    recomposed = recompose_pipeline(aligned, rec.cfg)
    same = len(recomposed) == len(segments) and all(
        np.array_equal(a.values, b.values) and a.label == b.label
        and a.start_index == b.start_index and a.duration_s == b.duration_s
        for a, b in zip(recomposed, segments))
    res.check(f"{rec.name}.recomposed_equals_run_pipeline", same,
              f"{len(segments)} windows")
    del recomposed

    values, labels = dsp.read_segment_dump(dsp.write_segment_dump(segments))
    same = values.shape[0] == len(segments) and all(
        np.array_equal(values[i], seg.values.astype(np.float32))
        and labels[i] == np.float32(seg.label)
        for i, seg in enumerate(segments))
    res.check(f"{rec.name}.dump_round_trip", same)
    del values, labels

    rate = spectral_peak_per_min(segments, stream.sample_rate_hz,
                                 rec.cfg.effective_band())
    res.check(f"{rec.name}.spectral_peak", abs(rate - rec.true_rate) <= rec.tolerance,
              f"{rate:.3f}/min, true {rec.true_rate}/min, tolerance {rec.tolerance}")


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    res = Result()
    recs = make_inputs(seed, tiny)
    pass_samples = sum(r.packets * r.subcarriers for r in recs)
    pass_bytes = sum(len(r.data) for r in recs)
    # set-up is small numpy and LAPACK calls: the batch-1 reference's mix;
    # it is sampled between passes so that the samples span the whole run
    setup_ratios: List[float] = []

    def measure_setup() -> None:
        for _ in range(SETUP_REPEATS):
            setup_ratios.append(setup_seconds(recs) / LSTM_B1_REFERENCE.seconds())

    measure_setup()
    if trace:
        spans = Spans()
        dump_bytes = []
        times = run_passes(recs, seconds, res,
                           lambda rec: dump_bytes.append(process_traced(rec, spans)),
                           measure_setup, spans)
    else:
        calls = CallTimes(PYTHON_REFERENCE)
        times = run_passes(recs, seconds, res, lambda rec: process(rec, calls),
                           measure_setup)
    rss = peak_rss_mb()
    setup_s = LSTM_B1_REFERENCE.idle_seconds * median(setup_ratios)

    for rec in recs:
        check_outputs(rec, res)

    n = len(times)
    if not trace:
        pass_s = sum(calls.calibrated(name, tag) for name, tag in calls.samples)
        res.put("csi_msamples_per_s", pass_samples / pass_s / 1e6, "MS/s", n)
        res.put("result_latency_ms_p50", 1e3 * pass_s, "ms", n)
        res.put("setup_s", setup_s, "s", len(setup_ratios))
        res.put("peak_rss_mb", rss, "MB", 1)
        res.lines.append(f"passes: {n} over {len(recs)} recordings, {pass_samples} CSI "
                         f"values and {pass_bytes} input bytes each; wall time per pass "
                         f"median {median(times):.4f} s, calibrated {pass_s:.4f} s")
        return res

    passes = spans.self_times_by_root()
    for name in ("ingest.parse_esp32_csv", "ingest.parse_canonical", "ingest.align",
                 "dsp.amplitude", "dsp.remove_dc", "dsp.filter_values",
                 "dsp.smooth_values", "dsp.segment", "dsp.standardize",
                 "dsp.write_segment_dump", "dsp.read_segment_dump"):
        res.put(name + "_s", median([p[name] for p in passes]), "s", n)
    res.put("ingest.packets", n * sum(r.packets for r in recs), "count", n)
    res.put("ingest.bytes", n * pass_bytes, "B", n)
    res.put("dsp.windows", len(spans.durations("dsp.standardize")), "count", n)
    res.put("dsp.dump_bytes", sum(dump_bytes), "B", n)
    res.put("trace.overhead_frac", spans.overhead_seconds() / sum(times), "ratio",
            len(spans.records))
    res.note(f"per-layer seconds are self time per pass over both recordings, "
             f"median of {n} passes; the traced pass calls run_pipeline's public "
             f"stages one by one, checked bit-identical to run_pipeline")
    return res
