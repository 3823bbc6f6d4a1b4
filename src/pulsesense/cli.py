"""Command-line entry point.

Subcommands: synth, process, train, eval, cv, infer, bench. Config-driven
commands take one JSON document plus ``--set path.key=value`` overrides and
write only into the configured output directory. Exit codes: 0 ok,
2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from .bench import CSV_HEADER, bench_inference
from .dsp.pipeline import (
    PipelineConfig,
    read_segment_dump,
    run_pipeline_config,
    segments_to_arrays,
    subcarrier_index,
    write_segment_dump,
)
from .errors import (
    ConfigError,
    DataError,
    PulseSenseError,
    SchemaMismatch,
)
from .ingest import (
    align,
    complex_values,
    iter_canonical,
    parse_canonical,
    parse_esp32_csv,
    parse_labels,
    utf8_lines,
    write_canonical,
)
from .nn.model import ModelConfig, init_params
from .nn.serialize import load_model, save_model
from .streaming import StreamingPredictor, streaming_column_means
from .synth import generate
from .training import (
    TrainingConfig,
    evaluate,
    kfold_cv,
    split_segments,
    train,
)

MODE_THRESHOLDS = {"heart": 1.5, "breath": 0.75}


def _write(path: str, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def _out_dir(cfg: dict) -> str:
    out = cfgmod.read_block("output", cfgmod.require_block(cfg, "output"),
                            cfgmod.OutputConfig).dir
    os.makedirs(out, exist_ok=True)
    return out


def _load_recording(cfg: dict):
    ingest = cfgmod.read_block("ingest", cfgmod.require_block(cfg, "ingest"),
                               cfgmod.IngestConfig)
    with open(ingest.path, "rb") as fh:
        data = fh.read()
    if ingest.format == "esp32":
        stream = parse_esp32_csv(data, ingest.sample_rate_hz)
    else:
        stream = parse_canonical(data)
    with open(ingest.labels.path, "rb") as fh:
        labels = parse_labels(fh.read(), ingest.labels.kind)
    return align(stream, labels)


def cmd_synth(args) -> int:
    cfg = cfgmod.load_config(args.config, args.set)
    scenario = cfgmod.scenario_from_config(cfgmod.require_block(cfg, "synth"))
    out = _out_dir(cfg)
    rec = generate(scenario)
    _write(os.path.join(out, "stream.jsonl"), write_canonical(rec.stream))
    for name, series in (("heart", rec.heart), ("breath", rec.breath),
                         ("apnea", rec.apnea)):
        lines = [f"{float(t)!r},{float(v)!r}"
                 for t, v in zip(series.timestamps, series.values)]
        _write(os.path.join(out, f"labels_{name}.csv"), "\n".join(lines) + "\n")
    print(f"wrote {rec.stream.frame_count} frames "
          f"({scenario.name}) to {out}")
    return 0


def _process_segments(cfg: dict):
    pipeline_cfg = PipelineConfig.from_dict(cfg.get("pipeline", {}))
    recording = _load_recording(cfg)
    segments = run_pipeline_config(recording, pipeline_cfg)
    return segments, pipeline_cfg, recording


def cmd_process(args) -> int:
    cfg = cfgmod.load_config(args.config, args.set)
    out = _out_dir(cfg)
    segments, pipeline_cfg, _ = _process_segments(cfg)
    _write(os.path.join(out, "segments.psseg"), write_segment_dump(segments))
    w, s = segments[0].values.shape
    summary = {"count": len(segments), "window_packets": w, "subcarriers": s,
               "pipeline": pipeline_cfg.to_dict()}
    _write(os.path.join(out, "summary.json"), json.dumps(summary, indent=2) + "\n")
    print(f"wrote {len(segments)} segments of {w}x{s} to {out}")
    return 0


def _training_inputs(cfg: dict):
    """Configs and the (x, y) pair for train and cv. ``training.segments``,
    the CLI's own key, names a segment dump to read instead of running
    ingest and the pipeline."""
    block = cfg.get("training", {})
    segments_path = (cfgmod.check_type("training.segments", block.pop("segments", ""), str)
                     if isinstance(block, dict) else "")
    training_cfg = cfgmod.read_block("training", block, TrainingConfig)
    if segments_path:
        with open(segments_path, "rb") as fh:
            x, y = read_segment_dump(fh.read())
        pipeline_cfg = PipelineConfig.from_dict(cfg.get("pipeline", {}))
    else:
        segments, pipeline_cfg, _ = _process_segments(cfg)
        x, y = segments_to_arrays(segments)
    head = "binary" if pipeline_cfg.mode == "apnea" else "regression"
    model_cfg = cfgmod.read_block("model", cfg.get("model", {}), ModelConfig,
                                  input_dim=x.shape[2], head=head)
    return training_cfg, model_cfg, pipeline_cfg, x, y


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config, args.set)
    out = _out_dir(cfg)
    training_cfg, model_cfg, pipeline_cfg, x, y = _training_inputs(cfg)
    idx = split_segments(x.shape[0], training_cfg)
    params, history = train((x[idx.train], y[idx.train]), model_cfg, training_cfg,
                            val_segments=(x[idx.val], y[idx.val]))
    threshold = MODE_THRESHOLDS.get(pipeline_cfg.mode, 1.5)
    report = evaluate(params, (x[idx.test], y[idx.test]), threshold=threshold)

    _write(os.path.join(out, "model.psnn"),
           save_model(params, extra={"pipeline": pipeline_cfg.to_dict(),
                                     "window_packets": x.shape[1]}))
    _write(os.path.join(out, "history.csv"), history.to_csv())
    _write(os.path.join(out, "metrics.json"), report.to_json() + "\n")
    print(f"trained {history.stopped_epoch} epochs "
          f"(best {history.best_epoch}); metrics in {out}")
    return 0


@contextmanager
def _stored_in(model_path: str):
    """Config errors in the blocks a model file stores are data errors:
    the commands that read them take no config."""
    try:
        yield
    except ConfigError as exc:
        raise SchemaMismatch(
            f"model {model_path} stores {type(exc).__name__}: {exc}") from None


def cmd_eval(args) -> int:
    with open(args.model, "rb") as fh:
        params, extra = load_model(fh.read())
    threshold = args.threshold
    if threshold is None:
        with _stored_in(args.model):
            stored = PipelineConfig.from_dict((extra or {}).get("pipeline", {}))
        threshold = MODE_THRESHOLDS.get(stored.mode, 1.5)
    with open(args.data, "rb") as fh:
        x, y = read_segment_dump(fh.read())
    report = evaluate(params, (x, y), threshold=threshold,
                      decision_threshold=args.decision_threshold)
    text = report.to_json() + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_cv(args) -> int:
    cfg = cfgmod.load_config(args.config, args.set)
    out = _out_dir(cfg)
    training_cfg, model_cfg, pipeline_cfg, x, y = _training_inputs(cfg)
    threshold = MODE_THRESHOLDS.get(pipeline_cfg.mode, 1.5)
    reports, aggregate = kfold_cv((x, y), model_cfg, training_cfg, k=args.k,
                                  threshold=threshold)
    doc = aggregate.to_json_dict()
    _write(os.path.join(out, "cv.json"), json.dumps(doc, indent=2) + "\n")
    print(f"{args.k}-fold CV done; aggregate in {out}/cv.json")
    return 0


def _iter_canonical_packets(path: str):
    """Yield (timestamp, complex row) pairs without materializing the file."""
    with open(path, "rb") as fh:
        _, _, frames = iter_canonical(utf8_lines(fh))
        for t, re, im in frames:
            yield t, complex_values(re, im)


class _StreamRows:
    """The complex rows of a canonical file; each iteration reads it anew."""

    def __init__(self, path: str):
        self.path = path

    def __iter__(self):
        return (row for _, row in _iter_canonical_packets(self.path))


def cmd_infer(args) -> int:
    # the pipeline and window length stored with the model are the contract
    with open(args.model, "rb") as fh:
        params, extra = load_model(fh.read())
    extra = extra or {}
    with open(args.stream, "rb") as fh:
        fs, n_sub, _ = iter_canonical(utf8_lines(fh))
    with _stored_in(args.model):
        pipeline_cfg = PipelineConfig.from_dict(extra.get("pipeline", {}))
        _, _, w = pipeline_cfg.stages(fs)
        trained_w = cfgmod.check_type("window_packets", extra.get("window_packets", w), int)
    if trained_w != w:
        raise SchemaMismatch(
            f"model was trained on {trained_w}-packet windows; "
            f"{pipeline_cfg.window_s} s at the stream's {fs} Hz is {w} packets")
    width = np.arange(n_sub)[subcarrier_index(pipeline_cfg.subcarriers, n_sub)].size
    if width != params.config.input_dim:
        raise SchemaMismatch(
            f"model takes {params.config.input_dim} subcarriers; the stream's "
            f"selection has {width} of its {n_sub}")

    mu, _count = streaming_column_means(_StreamRows(args.stream),
                                        pipeline_cfg.subcarriers)
    predictor = StreamingPredictor(params, pipeline_cfg, fs, mu)

    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        for t, row in _iter_canonical_packets(args.stream):
            for t_end, pred in predictor.push(t, row):
                sink.write(f"{t_end!r},{pred!r}\n")
        for t_end, pred in predictor.finish():
            sink.write(f"{t_end!r},{pred!r}\n")
    finally:
        if args.out:
            sink.close()
    return 0


def cmd_bench(args) -> int:
    if args.model:
        with open(args.model, "rb") as fh:
            params, _ = load_model(fh.read())
        name = os.path.basename(args.model)
    else:
        params = init_params(ModelConfig(input_dim=args.input_dim), seed=0)
        name = "fresh"
    report = bench_inference(params, args.seq_len, args.batch,
                             n_preds_target=args.n_preds, model_name=name)
    text = CSV_HEADER + "\n" + report.csv_row() + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _in_range(kind: type, low: float, high: float = math.inf):
    """An argparse type: a finite ``kind`` value in [low, high]. Anything
    else makes argparse exit 2 with a message naming the flag."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high or value == math.inf:
            what = "an integer" if kind is int else "a finite number"
            bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {what} {bounds}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsesense",
        description="CSI vital-sign estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--set", action="append", metavar="PATH.KEY=VALUE",
                       help="override a config value")
        p.set_defaults(fn=fn)
        return p

    add_config_cmd("synth", cmd_synth, "generate a synthetic recording")
    add_config_cmd("process", cmd_process, "run the DSP pipeline, dump segments")
    add_config_cmd("train", cmd_train, "train a model on processed segments")
    cv = add_config_cmd("cv", cmd_cv, "k-fold cross-validation")
    cv.add_argument("--k", type=_in_range(int, 2), default=10)

    ev = sub.add_parser("eval", help="evaluate a model on a segment dump")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--threshold", type=_in_range(float, 0.0),
                    help="regression tolerance; default: the stored mode's "
                         "(1.5 bpm heart, 0.75 brpm breath)")
    ev.add_argument("--decision-threshold", type=_in_range(float, 0.0, 1.0), default=0.5)
    ev.add_argument("--out")
    ev.set_defaults(fn=cmd_eval)

    inf = sub.add_parser("infer", help="streaming inference over a recording")
    inf.add_argument("--model", required=True)
    inf.add_argument("--stream", required=True, help="canonical JSONL recording")
    inf.add_argument("--out")
    inf.set_defaults(fn=cmd_infer)

    be = sub.add_parser("bench", help="inference throughput report")
    be.add_argument("--model")
    be.add_argument("--input-dim", type=_in_range(int, 1), default=64,
                    help="used when no --model is given")
    be.add_argument("--seq-len", type=_in_range(int, 1), required=True)
    be.add_argument("--batch", type=_in_range(int, 1), default=64)
    be.add_argument("--n-preds", type=_in_range(int, 1), default=2048)
    be.add_argument("--out")
    be.set_defaults(fn=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except PulseSenseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
