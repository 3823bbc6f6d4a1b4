"""Command-line entry point.

Subcommands: synth, process, train, eval, cv, infer, bench. Config-driven
commands take one JSON document plus ``--set path.key=value`` overrides and
write only into the configured output directory. Exit codes: 0 ok,
2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from . import config as cfgmod
from .bench import CSV_HEADER, bench_inference
from .dsp.pipeline import (
    MODES,
    PipelineConfig,
    mode_spec,
    read_segment_dump,
    run_pipeline_config,
    segments_to_arrays,
    subcarrier_index,
    write_segment_dump,
)
from .errors import (
    ConfigError,
    ConfigInvalidValue,
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

def _write(path: str, data) -> None:
    mode = "w" if isinstance(data, str) else "wb"
    with open(path, mode) as fh:
        fh.write(data)


def _out_dir(cfg: dict) -> str:
    out = cfgmod.read_block("output", cfgmod.require_block(cfg, "output"),
                            cfgmod.OutputConfig).dir
    os.makedirs(out, exist_ok=True)
    return out


def _load_recording(cfg: dict, mode: str):
    """The configured recording aligned to its labels, read as ``mode``'s kind."""
    ingest = cfgmod.read_block("ingest", cfgmod.require_block(cfg, "ingest"),
                               cfgmod.IngestConfig)
    with open(ingest.path, "rb") as fh:
        data = fh.read()
    if ingest.format == "esp32":
        stream = parse_esp32_csv(data, ingest.sample_rate_hz)
    else:
        stream = parse_canonical(data)
    with open(ingest.labels, "rb") as fh:
        labels = parse_labels(fh.read(), mode_spec(mode).label_kind)
    return align(stream, labels)


def cmd_synth(args) -> int:
    cfg = cfgmod.load_config(args.config, args.set)
    scenario = cfgmod.scenario_from_config(cfgmod.require_block(cfg, "synth"))
    out = _out_dir(cfg)
    rec = generate(scenario)
    _write(os.path.join(out, "stream.jsonl"), write_canonical(rec.stream))
    for name in MODES:
        series = rec.labels_for_mode(name)
        lines = [f"{float(t)!r},{float(v)!r}"
                 for t, v in zip(series.timestamps, series.values)]
        _write(os.path.join(out, f"labels_{name}.csv"), "\n".join(lines) + "\n")
    print(f"wrote {rec.stream.frame_count} frames "
          f"({scenario.name}) to {out}")
    return 0


def _process_segments(cfg: dict, pipeline_cfg: PipelineConfig):
    return run_pipeline_config(_load_recording(cfg, pipeline_cfg.mode), pipeline_cfg)


def cmd_process(args) -> int:
    cfg = cfgmod.load_config(args.config, args.set)
    out = _out_dir(cfg)
    pipeline_cfg = cfgmod.read_pipeline(cfg.get("pipeline", {}))
    segments = _process_segments(cfg, pipeline_cfg)
    _write(os.path.join(out, "segments.psseg"), write_segment_dump(segments))
    w, s = segments[0].values.shape
    summary = {"count": len(segments), "window_packets": w, "subcarriers": s,
               "pipeline": pipeline_cfg.to_dict()}
    _write(os.path.join(out, "summary.json"), json.dumps(summary, indent=2) + "\n")
    print(f"wrote {len(segments)} segments of {w}x{s} to {out}")
    return 0


def _training_inputs(cfg: dict):
    """Configs and the (x, y) pair for train and cv: the configured
    recording run through the configured pipeline, so the pipeline a model
    stores is the one that made its windows. Every block is read before any
    data is: the model's ``input_dim``, which the data sets, is filled in
    last."""
    training_cfg = cfgmod.read_block("training", cfg.get("training", {}), TrainingConfig)
    pipeline_cfg = cfgmod.read_pipeline(cfg.get("pipeline", {}))
    model_cfg = cfgmod.read_block("model", cfg.get("model", {}), ModelConfig,
                                  input_dim=1, head=mode_spec(pipeline_cfg.mode).head)
    x, y = segments_to_arrays(_process_segments(cfg, pipeline_cfg))
    model_cfg = dataclasses.replace(model_cfg, input_dim=x.shape[2])
    return training_cfg, model_cfg, pipeline_cfg, x, y


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config, args.set)
    out = _out_dir(cfg)
    training_cfg, model_cfg, pipeline_cfg, x, y = _training_inputs(cfg)
    idx = split_segments(x.shape[0], training_cfg)
    params, history = train((x[idx.train], y[idx.train]), model_cfg, training_cfg,
                            val_segments=(x[idx.val], y[idx.val]))
    report = evaluate(params, (x[idx.test], y[idx.test]),
                      threshold=mode_spec(pipeline_cfg.mode).threshold)

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


def _load_trained(model_path: str):
    """A trained model: its params, the pipeline it stores (the default
    block when it stores none) and its stored window length in packets
    (None when absent). A head other than the stored mode's would print one
    task's outputs as another's, so such a model is refused."""
    with open(model_path, "rb") as fh:
        params, extra = load_model(fh.read())
    extra = extra or {}
    with _stored_in(model_path):
        stored = cfgmod.read_pipeline(extra.get("pipeline", {}))
        trained_w = (cfgmod.check_type("window_packets", extra["window_packets"], int)
                     if "window_packets" in extra else None)
    head = mode_spec(stored.mode).head
    if head != params.config.head:
        raise SchemaMismatch(
            f"model {model_path} has a {params.config.head} head but stores mode "
            f"{stored.mode!r}, whose head is {head}")
    return params, stored, trained_w


def _check_fit(params, trained_w: Optional[int], w: int, width: int, source: str) -> None:
    """A model takes windows of the length it was trained on (when it stores
    one), each ``input_dim`` subcarriers wide; ``source`` gives ``w`` x ``width``."""
    if trained_w is not None and w != trained_w:
        raise SchemaMismatch(
            f"model takes {trained_w}-packet windows; {source} gives {w}-packet windows")
    if width != params.config.input_dim:
        raise SchemaMismatch(
            f"model takes {params.config.input_dim} subcarriers; {source} gives {width}")


def cmd_eval(args) -> int:
    params, stored, trained_w = _load_trained(args.model)
    # each head reads one scoring flag; the other would be silently dropped
    head = params.config.head
    flag, value = (("--threshold", args.threshold) if head == "binary"
                   else ("--decision-threshold", args.decision_threshold))
    if value is not None:
        raise ConfigInvalidValue(f"{flag} does not apply to a model with a {head} head")
    with open(args.data, "rb") as fh:
        x, y = read_segment_dump(fh.read())
    _check_fit(params, trained_w, x.shape[1], x.shape[2], f"dump {args.data}")
    threshold = (args.threshold if args.threshold is not None
                 else mode_spec(stored.mode).threshold)
    decision = 0.5 if args.decision_threshold is None else args.decision_threshold
    report = evaluate(params, (x, y), threshold=threshold, decision_threshold=decision)
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
    reports, aggregate = kfold_cv((x, y), model_cfg, training_cfg, k=args.k,
                                  threshold=mode_spec(pipeline_cfg.mode).threshold)
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


def cmd_infer(args) -> int:
    params, pipeline_cfg, trained_w = _load_trained(args.model)
    # the header and pass one share one open of the stream; pass two opens it again
    with open(args.stream, "rb") as fh:
        fs, n_sub, frames = iter_canonical(utf8_lines(fh))
        with _stored_in(args.model):
            _, _, w = pipeline_cfg.stages(fs)
        index = subcarrier_index(pipeline_cfg.subcarriers, n_sub)
        width = n_sub if isinstance(index, slice) else len(index)
        _check_fit(params, trained_w, w, width, f"the stream at {fs} Hz")
        mu, _count = streaming_column_means(
            (complex_values(re, im) for _, re, im in frames), pipeline_cfg.subcarriers)
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
        params, _, _ = _load_trained(args.model)
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
                    help="regression tolerance; default: the stored mode's")
    ev.add_argument("--decision-threshold", type=_in_range(float, 0.0, 1.0),
                    help="binary-head decision threshold; default: 0.5")
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
