"""live_streams: the ``infer`` monitor as an open loop.

Two esp32-profile streams (80 Hz, 64 subcarriers, heart mode, 5 s windows,
stride 16) are each offered at their real rate, so together they emit 10
predictions per second. The second stream's packets, and so its emissions,
run half an emission period behind the first. One thread pushes each packet
into its stream's StreamingPredictor when the packet is due; a push that
returns a prediction is timed from that packet's due time, which counts any
queue wait and excludes the window length and the Savitzky-Golay look-ahead.
Pass one (column means) and the fill of the first window are set-up.

End-to-end times are calibrated against the B=1 LSTM-like reference (see
common.Reference), timed in idle gaps of the loop, never when it could
delay a due packet; each push is divided by the median of the REF_NEAREST
reference times nearest to it. Wall-clock latency and streams per core are
printed too.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List

import numpy as np

from common import (
    LSTM_B1_REFERENCE,
    Result,
    Spans,
    derive_seeds,
    lstm_stack_flops,
    median,
    no_span,
    peak_rss_mb,
    percentile,
)
from pulsesense import dsp, ingest, synth
from pulsesense.dsp.pipeline import PipelineConfig
from pulsesense.nn import ModelConfig, forward, init_params, load_model, save_model
from pulsesense.streaming import StreamingPredictor, streaming_column_means

N_STREAMS = 2
CFG = PipelineConfig(mode="heart", window_s=5.0, stride=16)
SETUP_REPEATS = 9
START_LEAD_S = 0.05  # schedule start after the loop is entered
REF_EVERY_S = 0.05   # at most one reference sample per 50 ms of the run
REF_NEAREST = 9      # a push is calibrated by this many nearest samples


def make_inputs(seed: int, tiny: bool):
    seeds = derive_seeds(seed, N_STREAMS + 1)
    base = synth.scenario_by_name("fixed_easy_esp32")
    if tiny:
        base = dataclasses.replace(base, duration_s=20.0)
    recordings = [synth.generate(dataclasses.replace(base, seed=s))
                  for s in seeds[:N_STREAMS]]
    model = save_model(init_params(ModelConfig(input_dim=base.subcarriers), seeds[-1]),
                       extra={"pipeline": CFG.to_dict()})
    return recordings, model


def set_up(recordings, model: bytes):
    """The program's own set-up: load the model, pass one over each stream,
    build each predictor and fill its first window. Returns the predictors,
    the parameters, the fill length and the timings of the parts."""
    t0 = time.perf_counter()
    params, _ = load_model(model)
    load_s = time.perf_counter() - t0
    predictors, means_s = [], []
    for rec in recordings:
        t1 = time.perf_counter()
        mu, _ = streaming_column_means(iter(rec.stream.values))
        means_s.append(time.perf_counter() - t1)
        pred = StreamingPredictor(params, CFG, rec.stream.sample_rate_hz, mu)
        predictors.append(pred)
    fill = predictors[0].w + predictors[0].m - 1  # the next push emits
    for pred, rec in zip(predictors, recordings):
        for j in range(fill):
            pred.push(float(rec.stream.timestamps[j]), rec.stream.values[j])
    total = time.perf_counter() - t0
    return predictors, params, fill, {"total": total, "load": load_s, "means": means_s}


def schedule(recordings, fill: int, seconds: float):
    """Due offsets (s from the start), stream and packet index of every push
    in the run, in due order."""
    fs = recordings[0].stream.sample_rate_hz
    stagger = CFG.stride / fs / 2
    events = []
    for k, rec in enumerate(recordings):
        j = np.arange(fill, rec.stream.frame_count)
        due = k * stagger + (j - fill) / fs
        keep = due < seconds
        if keep.all():
            raise ValueError(f"recordings too short for a {seconds} s run")
        events.extend(zip(due[keep].tolist(), [k] * int(keep.sum()), j[keep].tolist()))
    events.sort()
    return events


def run_open_loop(recordings, predictors, events, res: Result, span, calibrate: bool):
    """Push every packet when due.

    With ``calibrate``, the reference runs before a push whenever that push
    is due more than 3 idle reference times from now, at most every
    REF_EVERY_S.
    Returns per-push records (due, start, end, emitted, backlog; seconds from
    the loop start), reference samples (time, seconds) and each stream's
    emissions.
    """
    dues = np.asarray([e[0] for e in events])
    pushes = []
    emitted = [[] for _ in recordings]
    t0 = time.perf_counter() + START_LEAD_S
    refs = [(-START_LEAD_S, LSTM_B1_REFERENCE.seconds())]
    next_ref = 0.0
    for i, (offset, k, j) in enumerate(events):
        due = t0 + offset
        now = time.perf_counter()
        if (calibrate and now - t0 >= next_ref
                and due - now > 3 * LSTM_B1_REFERENCE.idle_seconds):
            refs.append((now - t0, LSTM_B1_REFERENCE.seconds()))
            next_ref = now - t0 + REF_EVERY_S
            now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        stream = recordings[k].stream
        start = time.perf_counter()
        with span("streaming.push", k):
            out = res.attempt(predictors[k].push, float(stream.timestamps[j]),
                              stream.values[j])
        end = time.perf_counter()
        backlog = int(np.searchsorted(dues, start - t0, side="right")) - i
        pushes.append((offset, start - t0, end - t0, bool(out), backlog))
        if out:
            emitted[k].extend(out)
    return pushes, refs, emitted


def calibration_factors(pushes, refs) -> np.ndarray:
    """Per push: the reference's idle time over the median of the
    REF_NEAREST reference times nearest to the push's start."""
    ref_t = np.asarray([t for t, _ in refs])
    ref_s = np.asarray([r for _, r in refs])
    k = min(REF_NEAREST, len(refs))
    out = np.empty(len(pushes))
    for i, (_, start, _, _, _) in enumerate(pushes):
        nearest = np.argpartition(np.abs(ref_t - start), k - 1)[:k]
        out[i] = LSTM_B1_REFERENCE.idle_seconds / np.median(ref_s[nearest])
    return out


def check_predictions(recordings, params, emitted, res: Result) -> List[float]:
    """Each stream's predictions against forward over the causal batch
    pipeline's windows of the same recording; returns forward timings."""
    forward_s = []
    for k, rec in enumerate(recordings):
        segments = dsp.run_pipeline_config(ingest.align(rec.stream, rec.heart), CFG)
        w = segments[0].values.shape[0]
        same = 0 < len(emitted[k]) <= len(segments)
        for (t_end, pred), seg in zip(emitted[k], segments):
            t0 = time.perf_counter()
            ref, _ = forward(params, seg.values)
            forward_s.append(time.perf_counter() - t0)
            ref_t = float(rec.stream.timestamps[seg.start_index + w - 1])
            same = same and pred == ref and t_end == ref_t
        res.check(f"stream{k}.equals_batch_forward", same,
                  f"{len(emitted[k])} predictions")
        del segments
    return forward_s


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    res = Result()
    recordings, model = make_inputs(seed, tiny)
    setups, setup_ratios = [], []
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(recordings, model))
        setup_ratios.append(setups[-1][3]["total"] / LSTM_B1_REFERENCE.seconds())
    predictors, params, fill, _ = setups[-1]
    events = schedule(recordings, fill, seconds)

    spans = Spans()
    pushes, refs, emitted = run_open_loop(recordings, predictors, events, res,
                                          spans if trace else no_span,
                                          calibrate=not trace)
    rss = peak_rss_mb()
    forward_s = check_predictions(recordings, params, emitted, res)

    wall = pushes[-1][2] - pushes[0][0]
    busy = np.asarray([end - start for _, start, end, _, _ in pushes])
    emits = np.asarray([p[3] for p in pushes])
    latency = np.asarray([end - due for due, _, end, _, _ in pushes])[emits]
    subcarriers = recordings[0].stream.subcarrier_count
    if not trace:
        factor = calibration_factors(pushes, refs)
        res.put("csi_msamples_per_s",
                len(pushes) * subcarriers / float((busy * factor).sum()) / 1e6,
                "MS/s", len(pushes))
        res.put("result_latency_ms_p50", 1e3 * median(latency * factor[emits]), "ms",
                len(latency))
        res.put("setup_s", LSTM_B1_REFERENCE.idle_seconds * median(setup_ratios), "s",
                len(setups))
        res.put("peak_rss_mb", rss, "MB", 1)
        res.lines += [
            f"emit_latency_ms_p50 {1e3 * median(latency):.4f} ms n={len(latency)} (wall)",
            f"emit_latency_ms_p90 {1e3 * percentile(latency, 90):.4f} ms "
            f"n={len(latency)} (wall; calibrated "
            f"{1e3 * percentile(latency * factor[emits], 90):.4f})",
            f"streams_per_core {N_STREAMS * wall / busy.sum():.4f} streams "
            f"n={len(pushes)} pushes (wall; {len(refs)} reference samples)",
        ]
        return res

    quiet = busy[~emits]
    waits = [start - due for due, start, _, _, _ in pushes]
    res.put("streaming.push_ms_p50", 1e3 * median(quiet), "ms", len(quiet))
    res.put("streaming.push_ms_p99", 1e3 * percentile(quiet, 99), "ms", len(quiet))
    res.put("streaming.emit_ms_p50", 1e3 * median(busy[emits]), "ms", int(emits.sum()))
    res.put("streaming.emissions", int(emits.sum()), "count", len(pushes))
    res.put("streaming.busy_frac", busy.sum() / wall, "ratio", len(pushes))
    res.put("streaming.queue_wait_ms_p90", 1e3 * percentile(waits, 90), "ms", len(pushes))
    res.put("streaming.backlog_max", max(p[4] for p in pushes), "count", len(pushes))
    res.put("streaming.column_means_s",
            median([m for s in setups for m in s[3]["means"]]), "s",
            N_STREAMS * len(setups))
    res.put("nn.load_model_s", median([s[3]["load"] for s in setups]), "s", len(setups))
    w = int(round(CFG.window_s * recordings[0].stream.sample_rate_hz))
    mc = params.config
    flops = lstm_stack_flops(1, w, mc.input_dim, mc.lstm1_units, mc.lstm2_units,
                             mc.dense_units)
    res.put("nn.forward_b1_ms_p50", 1e3 * median(forward_s), "ms", len(forward_s))
    res.put("nn.forward_b1_gflops", flops / median(forward_s) / 1e9, "GFLOP/s",
            len(forward_s))
    res.put("trace.overhead_frac", spans.overhead_seconds() / busy.sum(), "ratio",
            len(spans.records))
    res.note("streaming.push_ms_* are pushes that emit nothing (the per-packet DSP); "
             "nn.forward_b1 is timed on the same windows in the correctness check, "
             "not inside push; GFLOP/s use the analytic LSTM operation count (computed)")
    return res
