"""End-to-end CLI workflows on a desk-scale synthetic recording."""

import builtins
import json
import os
import struct
import subprocess
import sys
import warnings
import weakref
import zlib

import numpy as np
import pytest

import pulsesense
from pulsesense import cli
from pulsesense.dsp import pipeline
from pulsesense.cli import main
from pulsesense.errors import MalformedLine
from pulsesense.ingest import (
    CsiStream,
    canonical_packets,
    parse_canonical,
    parse_esp32_csv,
    parse_labels,
    write_canonical,
)


@pytest.fixture()
def workdir(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "synth": {
            "scenario": {
                "name": "cli-unit",
                "duration_s": 60.0,
                "sample_rate_hz": 20.0,
                "subcarriers": 3,
                "hr_bpm": 72.0,
                "br_brpm": 15.0,
                "noise_std": 0.05,
                "seed": 9,
            }
        },
        "ingest": {
            "format": "canonical",
            "path": str(out / "stream.jsonl"),
            "labels": str(out / "labels_heart.csv"),
        },
        "pipeline": {"mode": "heart", "window_s": 5.0, "stride": 10},
        "model": {"lstm1_units": 6, "lstm2_units": 4, "dense_units": 4,
                  "dropout_rate": 0.0},
        "training": {"max_epochs": 3, "batch_size": 16, "seed": 1},
        "output": {"dir": str(out)},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return tmp_path, out, path


def test_full_workflow(workdir, capsys):
    tmp_path, out, cfg_path = workdir

    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert (out / "stream.jsonl").exists()
    assert (out / "labels_heart.csv").exists()
    assert (out / "labels_breath.csv").exists()
    assert (out / "labels_apnea.csv").exists()

    assert main(["process", "--config", str(cfg_path)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # 60 s at 20 Hz, W = 100, stride 10 -> (1200 - 100) / 10 + 1
    assert summary["count"] == 111
    assert summary["window_packets"] == 100
    assert summary["subcarriers"] == 3

    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "model.psnn").exists()
    history = (out / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_loss,val_loss,lr"
    assert len(history) == 4  # header + 3 epochs
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n"] == 22  # 20% of 111
    assert "mae" in metrics

    capsys.readouterr()
    assert main(["eval", "--model", str(out / "model.psnn"),
                 "--data", str(out / "segments.psseg")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 111


def test_infer_line_count_and_determinism(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0

    pred_a = out / "preds_a.csv"
    pred_b = out / "preds_b.csv"
    for target in (pred_a, pred_b):
        assert main(["infer", "--model", str(out / "model.psnn"),
                     "--stream", str(out / "stream.jsonl"),
                     "--out", str(target)]) == 0
    lines = pred_a.read_text().strip().splitlines()
    # the model's stride 10: one line per window start, (1200 - 100) / 10 + 1
    assert len(lines) == 111
    t_end0, pred0 = lines[0].split(",")
    assert float(t_end0) == pytest.approx(99 / 20.0)
    float(pred0)  # parses
    assert pred_a.read_bytes() == pred_b.read_bytes()


def test_infer_uses_pipeline_config_embedded_in_model(workdir):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    preds = out / "preds.csv"
    assert main(["infer", "--model", str(out / "model.psnn"),
                 "--stream", str(out / "stream.jsonl"),
                 "--out", str(preds)]) == 0
    # stride 10 from the embedded pipeline block
    assert len(preds.read_text().strip().splitlines()) == 111


def test_cv_command(workdir):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    assert main(["cv", "--config", str(cfg_path), "--k", "5",
                 "--set", "training.max_epochs=1"]) == 0
    doc = json.loads((out / "cv.json").read_text())
    assert doc["n_runs"] == 5
    assert len(doc["runs"]) == 5
    assert sum(r["n"] for r in doc["runs"]) == 111
    assert "mae" in doc["means"] and "mae" in doc["stds"]
    # the runs and their means name each metric alike
    assert set(doc["means"]) == set(doc["stds"]) == {
        "mae", "mape_percent", "mape_complement", "frac_within_threshold"}
    assert all(set(doc["means"]) <= set(run) for run in doc["runs"])


def test_esp32_ingest_path(workdir):
    """process accepts raw ESP32 captures with a caller-supplied rate."""
    tmp_path, out, cfg_path = workdir
    rng_lines = []
    for i in range(200):
        t = i / 20.0
        vals = [(i * 7 + j) % 11 - 5 for j in range(4)]  # 2 subcarriers, im/re
        rng_lines.append(f"{t}," + ",".join(str(v) for v in vals))
    capture = tmp_path / "capture.csv"
    capture.write_text("\n".join(rng_lines) + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0.0,72\n5.0,72\n10.0,72\n")

    cfg = json.loads(cfg_path.read_text())
    cfg["ingest"] = {
        "format": "esp32",
        "path": str(capture),
        "sample_rate_hz": 20.0,
        "labels": str(labels),
    }
    cfg["pipeline"] = {"mode": "heart", "window_s": 5.0, "stride": 20}
    esp_cfg = tmp_path / "esp.json"
    esp_cfg.write_text(json.dumps(cfg))
    assert main(["process", "--config", str(esp_cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["count"] == 6  # (200 - 100) / 20 + 1
    assert summary["subcarriers"] == 2


def test_esp32_non_finite_timestamp_exits_3(workdir, capsys):
    """A nan timestamp is a data error naming its line, also when the rate
    is estimated from the timestamps."""
    tmp_path, out, cfg_path = workdir
    lines = [f"{i / 20.0},1,2,3,4" for i in range(200)]
    lines[57] = "nan,1,2,3,4"
    capture = tmp_path / "capture.csv"
    capture.write_text("\n".join(lines) + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0.0,72\n5.0,72\n10.0,72\n")
    cfg = json.loads(cfg_path.read_text())
    cfg["ingest"] = {"format": "esp32", "path": str(capture),
                     "labels": str(labels)}
    esp_cfg = tmp_path / "esp.json"
    esp_cfg.write_text(json.dumps(cfg))
    assert main(["process", "--config", str(esp_cfg)]) == 3
    err = capsys.readouterr().err
    assert "MalformedLine" in err and "line 58:" in err


def test_unknown_config_key_exits_2(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    cfg = json.loads(cfg_path.read_text())
    cfg["pipeline"]["windw_s"] = 5.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main(["process", "--config", str(bad)]) == 2
    assert "ConfigUnknownKey" in capsys.readouterr().err


def test_unknown_top_level_key_exits_2(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    cfg = json.loads(cfg_path.read_text())
    cfg["outputs"] = {"dir": "x"}
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(bad)]) == 2
    assert "ConfigUnknownKey" in capsys.readouterr().err


def test_unknown_training_key_exits_2(workdir, capsys):
    """train and cv read the training block by the config rule: a key that
    is not a TrainingConfig field is a config error naming it."""
    tmp_path, out, cfg_path = workdir
    for cmd in ("train", "cv"):
        assert main([cmd, "--config", str(cfg_path),
                     "--set", "training.segmentz=x.psseg"]) == 2
        assert "ConfigUnknownKey: training.segmentz" in capsys.readouterr().err


def test_training_segments_is_an_unknown_key(workdir, capsys):
    """train and cv take their windows from the configured recording only:
    a segment dump named in the training block is refused before anything
    is written."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    for cmd in ("train", "cv"):
        assert main([cmd, "--config", str(cfg_path), "--set",
                     f"training.segments={out / 'segments.psseg'}"]) == 2
        assert "ConfigUnknownKey: training.segments" in capsys.readouterr().err
    for name in ("model.psnn", "history.csv", "metrics.json", "cv.json"):
        assert not (out / name).exists()


def test_model_stores_the_pipeline_that_made_its_windows(workdir):
    """With nested and list overrides, train stores the pipeline block and
    window length that process reports for the same overrides."""
    tmp_path, out, cfg_path = workdir
    from pulsesense.nn import load_model
    overrides = ["--set", 'pipeline.band={"low_hz": 0.7, "high_hz": 2.5}',
                 "--set", 'pipeline.savgol={"window": 9, "order": 2}',
                 "--set", "pipeline.subcarriers=[0, 2]",
                 "--set", "pipeline.stride=20"]
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)] + overrides) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert main(["train", "--config", str(cfg_path)] + overrides) == 0
    params, extra = load_model((out / "model.psnn").read_bytes())
    assert extra["pipeline"] == summary["pipeline"]
    assert extra["window_packets"] == summary["window_packets"]
    assert params.config.input_dim == summary["subcarriers"] == 2


def test_train_reads_val_fraction_of_train(workdir):
    """split_segments gives val_fraction_of_train of the non-test windows to
    validation, so the fraction changes the model train writes."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    models = []
    for extra in ([], ["--set", "training.val_fraction_of_train=0.5"]):
        assert main(["train", "--config", str(cfg_path)] + extra) == 0
        models.append((out / "model.psnn").read_bytes())
    assert models[0] != models[1]


@pytest.mark.parametrize("override,key", [
    ('training.seed="abc"', "training.seed"),
    ("training.max_epochs=1.5", "training.max_epochs"),
    ('model.lstm1_units="8"', "model.lstm1_units"),
    ("pipeline.stride=abc", "pipeline.stride"),
    ('pipeline.zero_phase="false"', "pipeline.zero_phase"),
    ("pipeline.stride=20.9", "pipeline.stride"),
    ("pipeline.window_s=true", "pipeline.window_s"),
])
def test_wrong_config_type_exits_2(workdir, capsys, override, key):
    """A config value of the wrong JSON type is a config error naming its key,
    never a traceback or a silent conversion."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--set", override]) == 2
    assert f"ConfigInvalidValue: {key} must be " in capsys.readouterr().err
    assert not (out / "model.psnn").exists()


def test_non_finite_sample_exits_3_before_any_output(workdir, capsys):
    """process and infer refuse a NaN sample, naming its packet, and write
    neither a dump nor a prediction."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    lines = (out / "stream.jsonl").read_text().splitlines()
    frame = json.loads(lines[201])  # packet 200, after the header line
    frame["im"][2] = float("nan")
    lines[201] = json.dumps(frame)
    (out / "stream.jsonl").write_text("\n".join(lines) + "\n")
    from pulsesense.nn import ModelConfig, init_params, save_model
    model_path = tmp_path / "m.psnn"
    model_path.write_bytes(save_model(init_params(ModelConfig(input_dim=3), 0)))
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 3
    assert "NonFiniteSample: packet 200 " in capsys.readouterr().err
    assert not (out / "segments.psseg").exists()
    preds = tmp_path / "preds.csv"
    assert main(["infer", "--model", str(model_path),
                 "--stream", str(out / "stream.jsonl"), "--out", str(preds)]) == 3
    assert "NonFiniteSample: packet 200 " in capsys.readouterr().err
    assert not preds.exists()


def test_infer_opens_its_stream_twice_and_once_when_pass_one_refuses(
        workdir, capsys, monkeypatch):
    """Both passes read the stream through one open, for a good stream as
    for one that pass one refuses."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    good = out / "stream.jsonl"
    lines = good.read_text().splitlines()
    frame = json.loads(lines[201])  # packet 200, after the header line
    frame["re"][0] = float("nan")
    lines[201] = json.dumps(frame)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    preds = tmp_path / "preds.csv"
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    capsys.readouterr()
    assert main(["infer", "--model", str(model), "--stream", str(good),
                 "--out", str(preds)]) == 0
    assert opened.count(str(good)) == 1
    assert main(["infer", "--model", str(model), "--stream", str(bad)]) == 3
    assert "NonFiniteSample: packet 200 " in capsys.readouterr().err
    assert opened.count(str(bad)) == 1


def test_data_error_exits_3(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    from pulsesense.nn import ModelConfig, init_params, save_model
    model_path = tmp_path / "m.psnn"
    model_path.write_bytes(save_model(init_params(ModelConfig(input_dim=3), 0)))
    garbled = tmp_path / "garbled.psseg"
    garbled.write_bytes(b"NOTSEG" + b"\x00" * 32)
    assert main(["eval", "--model", str(model_path),
                 "--data", str(garbled)]) == 3
    assert "BadMagic" in capsys.readouterr().err


def test_truncated_segment_dump_exits_3(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    from pulsesense.nn import ModelConfig, init_params, save_model
    model_path = tmp_path / "m.psnn"
    model_path.write_bytes(save_model(init_params(ModelConfig(input_dim=3), 0)))
    truncated = tmp_path / "truncated.psseg"
    truncated.write_bytes((out / "segments.psseg").read_bytes()[:10])
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path),
                 "--data", str(truncated)]) == 3
    assert "MalformedLine" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["count", "W", "S"])
def test_zero_dimension_segment_dump_exits_3(workdir, capsys, field):
    tmp_path, out, cfg_path = workdir
    from pulsesense.nn import ModelConfig, init_params, save_model
    model_path = tmp_path / "m.psnn"
    model_path.write_bytes(save_model(init_params(ModelConfig(input_dim=3), 0)))
    dims = {"count": 2, "W": 5, "S": 3}
    dims[field] = 0
    dump = tmp_path / "degenerate.psseg"
    dump.write_bytes(b"PSSEG1" + struct.pack("<III", dims["count"], dims["W"], dims["S"])
                     + b"\x00" * (dims["count"] * (dims["W"] * dims["S"] + 1) * 4))
    assert main(["eval", "--model", str(model_path), "--data", str(dump)]) == 3
    assert "MalformedLine" in capsys.readouterr().err


def test_infer_frame_missing_key_exits_3(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    lines = (out / "stream.jsonl").read_text().splitlines()
    frame = json.loads(lines[5])
    del frame["im"]
    lines[5] = json.dumps(frame)
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["infer", "--model", str(out / "model.psnn"),
                 "--stream", str(broken),
                 "--out", str(tmp_path / "preds.csv")]) == 3
    err = capsys.readouterr().err
    assert "MalformedLine" in err and "line 6:" in err


@pytest.mark.parametrize("bad", ["x", None, [1.0], True],
                         ids=["string", "null", "nested", "boolean"])
def test_infer_non_number_value_exits_3(workdir, capsys, bad):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    from pulsesense.nn import ModelConfig, init_params, save_model
    model_path = tmp_path / "m.psnn"
    model_path.write_bytes(save_model(init_params(ModelConfig(input_dim=3), 0)))
    lines = (out / "stream.jsonl").read_text().splitlines()
    frame = json.loads(lines[9])
    frame["re"][1] = bad
    lines[9] = json.dumps(frame)
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["infer", "--model", str(model_path), "--stream", str(broken),
                 "--out", str(tmp_path / "preds.csv")]) == 3
    err = capsys.readouterr().err
    assert "MalformedLine" in err and "line 10:" in err


@pytest.mark.parametrize("bad", [False, True, "0.5"], ids=["false", "true", "string"])
def test_infer_non_number_timestamp_exits_3(workdir, capsys, bad):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    from pulsesense.nn import ModelConfig, init_params, save_model
    model_path = tmp_path / "m.psnn"
    model_path.write_bytes(save_model(init_params(ModelConfig(input_dim=3), 0)))
    lines = (out / "stream.jsonl").read_text().splitlines()
    frame = json.loads(lines[1])
    frame["t"] = bad
    lines[1] = json.dumps(frame)
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["infer", "--model", str(model_path), "--stream", str(broken),
                 "--out", str(tmp_path / "preds.csv")]) == 3
    err = capsys.readouterr().err
    assert "MalformedLine" in err and "line 2:" in err


def test_infer_refuses_window_length_mismatch(workdir, capsys):
    """train stores its window length; infer on a stream whose rate gives
    another window length is a data error, the matching rate runs."""
    tmp_path, out, cfg_path = workdir
    from pulsesense.nn import load_model
    fast = ["--set", "synth.scenario.sample_rate_hz=80.0",
            "--set", "pipeline.stride=40"]
    assert main(["synth", "--config", str(cfg_path)] + fast) == 0
    assert main(["train", "--config", str(cfg_path)] + fast) == 0
    _, extra = load_model((out / "model.psnn").read_bytes())
    assert extra["window_packets"] == 400
    model_80 = tmp_path / "model_80.psnn"
    model_80.write_bytes((out / "model.psnn").read_bytes())

    assert main(["synth", "--config", str(cfg_path)]) == 0  # 20 Hz stream
    capsys.readouterr()
    assert main(["infer", "--model", str(model_80),
                 "--stream", str(out / "stream.jsonl"),
                 "--out", str(tmp_path / "preds.csv")]) == 3
    err = capsys.readouterr().err
    assert "SchemaMismatch" in err and "400" in err and "100" in err

    assert main(["train", "--config", str(cfg_path)]) == 0
    _, extra = load_model((out / "model.psnn").read_bytes())
    assert extra["window_packets"] == 100
    assert main(["infer", "--model", str(out / "model.psnn"),
                 "--stream", str(out / "stream.jsonl"),
                 "--out", str(tmp_path / "preds.csv")]) == 0


def test_infer_packets_equal_parse_canonical_bitwise(tmp_path):
    """infer builds its rows as parse_canonical does: signed zeros and
    infinite imaginary parts come through unchanged and without warnings."""
    rng = np.random.default_rng(2)
    re = rng.standard_normal((30, 4))
    im = rng.standard_normal((30, 4))
    re[3, 1] = im[4, 2] = -0.0
    re[5, 0] = im[6, 3] = 0.0
    im[7, 0], im[8, 1] = np.inf, -np.inf
    values = np.empty(re.shape, dtype=np.complex128)
    values.real, values.imag = re, im
    path = tmp_path / "stream.jsonl"
    path.write_bytes(write_canonical(CsiStream(np.arange(30) / 80.0, values, 80.0)))
    expected = parse_canonical(path.read_bytes()).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with open(path, "rb") as fh:
            packets = list(canonical_packets(fh))
    assert packets[0] == (80.0, 4)  # the header
    rows = np.stack([row for _, row in packets[1:]])
    assert rows.tobytes() == expected.tobytes() == values.tobytes()


@pytest.mark.parametrize("change,seen", [("append", "at least 1201"), ("truncate", "1190")])
def test_infer_refuses_a_stream_that_changes_between_the_passes(
        workdir, capsys, monkeypatch, change, seen):
    """Pass two refuses a stream whose packet count is not pass one's, at
    the first surplus packet or after the last one, before finish writes
    the tail: the rows written are a strict prefix of the unchanged run's."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    stream = out / "stream.jsonl"
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    good, preds = tmp_path / "good.csv", tmp_path / "preds.csv"
    argv = ["infer", "--model", str(model), "--stream", str(stream)]
    assert main(argv + ["--out", str(good)]) == 0
    lines = stream.read_text().splitlines()

    first_pass = cli.streaming_column_means

    def then_edit(packets, subcarriers):  # pass one, then the edit
        means = first_pass(packets, subcarriers)
        if change == "append":
            frame = json.loads(lines[-1])
            frame["t"] += 1.0
            stream.write_text("\n".join(lines + [json.dumps(frame)]) + "\n")
        else:
            stream.write_text("\n".join(lines[:-10]) + "\n")
        return means

    monkeypatch.setattr(cli, "streaming_column_means", then_edit)
    capsys.readouterr()
    assert main(argv + ["--out", str(preds)]) == 3
    err = capsys.readouterr().err
    assert f"DataError: the stream changed between the passes: pass one read 1200 " \
           f"packets, pass two {seen}" in err
    written, want = preds.read_text(), good.read_text()
    assert len(written) < len(want) and want.startswith(written)


@pytest.mark.parametrize("argv", [
    ["synth", "--set", "synth.scenario.duration_s=1e13"],
    ["bench", "--seq-len", "1000000000000", "--batch", "64", "--n-preds", "64"],
], ids=["synth", "bench"])
def test_memory_error_exits_4(workdir, capsys, argv):
    """An array past the address space is a runtime error with a one-line
    message, not a traceback; numpy refuses it before allocating."""
    tmp_path, out, cfg_path = workdir
    if argv[0] == "synth":
        argv = argv[:1] + ["--config", str(cfg_path)] + argv[1:]
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("MemoryError: Unable to allocate") and err.count("\n") == 1


def test_runtime_error_exits_4(workdir, capsys):
    """A recording shorter than the smoothing window is a runtime error, not
    config or data."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    stream = out / "stream.jsonl"
    stream.write_text("\n".join(stream.read_text().splitlines()[:4]) + "\n")  # 3 packets
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 4
    assert "SeriesTooShort" in capsys.readouterr().err
    assert not (out / "segments.psseg").exists()


@pytest.mark.parametrize("override", [
    "synth.scenario.duration_s=1e17", "synth.scenario.duration_s=1e300",
    "synth.scenario.sample_rate_hz=1e20",
])
def test_synth_past_the_largest_array_exits_2(workdir, capsys, monkeypatch, override):
    """A scenario whose complex128 values no array can index is refused as
    an InvalidScenario before generate makes any array."""
    tmp_path, out, cfg_path = workdir

    def generate(scenario):
        raise AssertionError("generate ran")

    monkeypatch.setattr(cli, "generate", generate)
    assert main(["synth", "--config", str(cfg_path), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidScenario: ") and err.count("\n") == 1
    assert "exceed the largest array numpy can index" in err


def test_huge_header_rate_refused_as_an_invalid_band(workdir, capsys):
    """A header rate whose filter design overflows is an InvalidBand, as a
    1e30 Hz one is: exit 2 in process, a SchemaMismatch naming the model
    (exit 3) in infer, with no numpy warning on the way and no --out opened."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    lines = (out / "stream.jsonl").read_text().splitlines()
    lines[0] = lines[0].replace('"sample_rate_hz": 20.0', '"sample_rate_hz": 1e300')
    (out / "stream.jsonl").write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    preds = tmp_path / "preds.csv"
    capsys.readouterr()
    for mode in ("heart", "apnea"):  # band-pass and low-pass designs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["process", "--config", str(cfg_path),
                         "--set", f"pipeline.mode={mode}",
                         "--set", f"ingest.labels={out / f'labels_{mode}.csv'}"]) == 2
        assert capsys.readouterr().err.startswith("InvalidBand: ")
    assert not (out / "segments.psseg").exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                     "--out", str(preds)]) == 3
    assert f"SchemaMismatch: model {model} stores InvalidBand: " in capsys.readouterr().err
    assert not preds.exists()


def test_stream_too_large_to_standardize_exits_3_before_any_output(workdir, capsys):
    """Scaled by 1e200 the stream's windows overflow standardize: process
    and infer refuse them (ValueOutOfRange, exit 3) with no warning, and
    write no dump and no --out; scaled by 1e150 both run."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    stream = parse_canonical((out / "stream.jsonl").read_bytes())
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    for scale in (1e200, 1e150):
        (out / "stream.jsonl").write_bytes(write_canonical(CsiStream(
            stream.timestamps, stream.values * scale, stream.sample_rate_hz)))
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [main(["process", "--config", str(cfg_path)]),
                     main(["infer", "--model", str(model), "--stream",
                           str(out / "stream.jsonl"), "--out", str(preds)])]
        err = capsys.readouterr().err
        if scale == 1e200:
            assert codes == [3, 3]
            assert err.count("ValueOutOfRange: window values too large to standardize") == 2
            assert not (out / "segments.psseg").exists() and not preds.exists()
        else:
            assert codes == [0, 0] and err == "" and preds.exists()


def test_huge_esp32_rate_refused_as_an_invalid_band(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    capture = tmp_path / "capture.csv"
    capture.write_text("".join(f"{i / 20.0},1,2,3,4\n" for i in range(200)))
    labels = tmp_path / "labels.csv"
    labels.write_text("0.0,72\n5.0,72\n10.0,72\n")
    cfg = json.loads(cfg_path.read_text())
    cfg["ingest"] = {"format": "esp32", "path": str(capture), "sample_rate_hz": 1e300,
                     "labels": str(labels)}
    esp_cfg = tmp_path / "esp.json"
    esp_cfg.write_text(json.dumps(cfg))
    assert main(["process", "--config", str(esp_cfg)]) == 2
    assert capsys.readouterr().err.startswith("InvalidBand: ")


def test_smoothing_window_past_the_stream_refused_before_its_kernel(workdir, capsys,
                                                                    monkeypatch):
    """A smoothing window longer than the stream is a SeriesTooShort (exit 4)
    in process and, after pass one, in infer; neither designs the kernel, and
    infer opens no --out."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0

    def savgol_kernel(window, order):
        raise AssertionError(f"a {window}-point kernel was designed")

    monkeypatch.setattr(pipeline, "savgol_kernel", savgol_kernel)
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path),
                 "--set", "pipeline.savgol.window=1000000001"]) == 4
    assert ("SeriesTooShort: stream of 1200 packets shorter than the smoothing window"
            in capsys.readouterr().err)
    assert not (out / "segments.psseg").exists()
    block = {"mode": "heart", "window_s": 5.0, "savgol": {"window": 1000000001, "order": 3}}
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, {"pipeline": block, "window_packets": 100}))
    preds = tmp_path / "preds.csv"
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(preds)]) == 4
    assert ("SeriesTooShort: stream of 1200 packets shorter than the smoothing window"
            in capsys.readouterr().err)
    assert not preds.exists()


def test_train_drops_the_window_stack_before_training(workdir, monkeypatch):
    """cmd_train trains on copies of the split parts, so the (N, W, S) stack
    they were taken from is gone by the time train starts."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    stacks, gone = [], []
    training_inputs, train = cli._training_inputs, cli.train

    def watched_inputs(cfg):
        inputs = training_inputs(cfg)
        stacks.append(weakref.ref(inputs[3]))
        return inputs

    def watched_train(*args, **kwargs):
        gone.append(stacks[-1]() is None)
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "_training_inputs", watched_inputs)
    monkeypatch.setattr(cli, "train", watched_train)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert gone == [True]


@pytest.mark.parametrize("extra,window_s,error", [
    ({"window_packets": 100}, 4.0, "model takes 100-packet windows; dump {} gives 80-packet"),
    (None, 5.0, "model takes 7 subcarriers; dump {} gives 3"),
], ids=["window-length", "width"])
def test_eval_refuses_dump_the_model_does_not_fit(workdir, capsys, extra, window_s, error):
    """eval applies infer's fit rule to the dump: windows of the stored
    length, input_dim subcarriers wide, or a data error before any report."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path),
                 "--set", f"pipeline.window_s={window_s}"]) == 0
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3 if extra else 7, extra))
    dump, report = out / "segments.psseg", tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(dump),
                 "--out", str(report)]) == 3
    assert f"SchemaMismatch: {error.format(dump)}" in capsys.readouterr().err
    assert not report.exists()


def test_empty_stream_exits_3(workdir, capsys):
    """A canonical recording with a header and no packet is an EmptyStream
    (a data error) in process and in infer alike."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    stream = out / "stream.jsonl"
    stream.write_text(stream.read_text().splitlines()[0] + "\n")
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    preds = tmp_path / "preds.csv"
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 3
    assert "EmptyStream: stream has no frames" in capsys.readouterr().err
    assert not (out / "segments.psseg").exists()
    assert main(["infer", "--model", str(model), "--stream", str(stream),
                 "--out", str(preds)]) == 3
    assert "EmptyStream: empty stream" in capsys.readouterr().err
    assert not preds.exists()


def test_bench_csv(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    assert main(["bench", "--input-dim", "4", "--seq-len", "16",
                 "--batch", "8", "--n-preds", "32"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("model,seq_len,batch,cold_start_s")
    assert len(lines[1].split(",")) == 8


def test_zero_phase_true_exits_2(workdir, capsys):
    """zero_phase was removed: false (stored by older models) still loads,
    true is a config error in a config and makes a model file unusable
    (exit 3), since infer takes no config."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path),
                 "--set", "pipeline.zero_phase=true"]) == 2
    assert "ConfigInvalidValue: pipeline.zero_phase" in capsys.readouterr().err
    assert not (out / "segments.psseg").exists()
    preds = tmp_path / "preds.csv"
    block = {"mode": "heart", "window_s": 5.0, "stride": 10, "zero_phase": True}
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, {"pipeline": block}))
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(preds)]) == 3
    assert "ConfigInvalidValue: pipeline.zero_phase" in capsys.readouterr().err
    assert not preds.exists()


@pytest.mark.parametrize("extra,error,commands", [
    ({"pipeline": {"mode": 5}}, "ConfigInvalidValue: pipeline.mode must be a string",
     ("infer", "eval")),
    ({"pipeline": {"bogus": 1}}, "ConfigUnknownKey: pipeline.bogus", ("infer", "eval")),
    # eval has no sample rate, so only infer's stages(fs) refuses these two
    ({"pipeline": {"savgol": {"window": 14}}}, "InvalidKernelSpec", ("infer",)),
    ({"pipeline": {"stride": 0}}, "ConfigInvalidValue: pipeline.stride", ("infer",)),
    ({"pipeline": []}, "ConfigInvalidValue: pipeline must be an object", ("infer", "eval")),
    ({"window_packets": "100"}, "ConfigInvalidValue: window_packets must be an integer",
     ("infer", "eval")),
    ({"window_packets": 100.0}, "ConfigInvalidValue: window_packets must be an integer",
     ("infer", "eval")),
], ids=["mode-type", "unknown-key", "even-kernel", "zero-stride", "not-object",
        "window-string", "window-float"])
def test_bad_stored_pipeline_exits_3(workdir, capsys, extra, error, commands):
    """infer and eval take no config, so a stored block they cannot run is a
    data error naming the model file, found before any output is written."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, extra))
    preds = tmp_path / "preds.csv"
    argvs = {"infer": ["--stream", str(out / "stream.jsonl")],
             "eval": ["--data", str(out / "segments.psseg")]}
    capsys.readouterr()
    for command in commands:
        assert main([command, "--model", str(model), "--out", str(preds)]
                    + argvs[command]) == 3
        assert f"SchemaMismatch: model {model} stores {error}" in capsys.readouterr().err
        assert not preds.exists()


def _model_bytes(input_dim, extra=None, head="regression"):
    from pulsesense.nn import ModelConfig, init_params, save_model
    return save_model(init_params(ModelConfig(input_dim=input_dim, head=head), 0),
                      extra=extra)


def test_infer_reads_models_that_store_zero_phase_false(workdir):
    """A model saved with the old "zero_phase": false key gives the same bytes
    as one saved without it."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    block = {"mode": "heart", "window_s": 5.0, "stride": 10,
             "savgol": {"window": 15, "order": 3}}
    outputs = []
    for extra_block in (block, dict(block, zero_phase=False)):
        model = tmp_path / "m.psnn"
        model.write_bytes(_model_bytes(3, {"pipeline": extra_block, "window_packets": 100}))
        preds = tmp_path / "preds.csv"
        assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                     "--out", str(preds)]) == 0
        outputs.append(preds.read_bytes())
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 111


@pytest.mark.parametrize("overrides,error", [
    (["pipeline.savgol.window=14"], "InvalidKernelSpec"),
    (["pipeline.band.low_hz=1.0", "pipeline.band.high_hz=12.0"], "InvalidBand"),  # > Nyquist
    (["pipeline.window_s=0.01"], "ConfigInvalidValue: pipeline.window_s"),  # 0 packets
    (["pipeline.window_s=-5"], "ConfigInvalidValue: pipeline.window_s"),
    (["pipeline.window_s=NaN"], "ConfigInvalidValue: pipeline.window_s"),
    (["pipeline.window_s=1" + "0" * 400], "ConfigInvalidValue: pipeline.window_s must be a number"),
], ids=["even-kernel", "band-above-nyquist", "empty-window", "negative-window", "nan-window",
        "int-too-large-window"])
def test_invalid_pipeline_value_exits_2(workdir, capsys, overrides, error):
    """Values of the right type that the pipeline cannot run at the
    recording's 20 Hz are config errors, found before any dump is written."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(["process", "--config", str(cfg_path)] + sets) == 2
    assert error in capsys.readouterr().err
    assert not (out / "segments.psseg").exists()


@pytest.mark.parametrize("subcarriers", ["[7]", "[-1]", "[0,0]", "[]", "[1180591620717411303424]"])
def test_subcarrier_selection_checked_against_stream(workdir, capsys, subcarriers):
    """process and infer refuse a selection that is not distinct columns of
    the 3-subcarrier stream, before any dump or prediction is written."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path),
                 "--set", f"pipeline.subcarriers={subcarriers}"]) == 3
    assert "SchemaMismatch: pipeline.subcarriers" in capsys.readouterr().err
    assert not (out / "segments.psseg").exists()
    block = {"mode": "heart", "window_s": 5.0, "subcarriers": json.loads(subcarriers)}
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(max(1, len(block["subcarriers"])), {"pipeline": block}))
    preds = tmp_path / "preds.csv"
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(preds)]) == 3
    assert "SchemaMismatch: pipeline.subcarriers" in capsys.readouterr().err
    assert not preds.exists()


def test_infer_refuses_stream_width_other_than_model(workdir, capsys):
    """A stream whose selected width is not the model's input width is a data
    error before pass one, not a shape error once a window fills."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(4))
    preds = tmp_path / "preds.csv"
    capsys.readouterr()
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(preds)]) == 3
    assert "SchemaMismatch: model takes 4 subcarriers" in capsys.readouterr().err
    assert not preds.exists()


@pytest.mark.parametrize("command,override,message", [
    ("process", "ingest.path=0", "ingest.path must be a string"),
    ("process", 'ingest.labels={"path": "l.csv", "kind": "heart_rate_bpm"}',
     "ingest.labels must be a string"),
    ("process", "ingest.labels=1", "ingest.labels must be a string"),
    ("process", "output.dir=5", "output.dir must be a string"),
    # the head comes from pipeline.mode and the input width from the data
    ("train", "model.head=binary", "ConfigUnknownKey: model.head"),
    ("train", "model.input_dim=2", "ConfigUnknownKey: model.input_dim"),
    ("synth", 'synth.scenario.hr_bpm="abc"', "synth.scenario.hr_bpm must be a number"),
    ("synth", "synth.scenario.hr_bpm=[[0,70],[5]]", "synth.scenario.hr_bpm must hold"),
    ("synth", "synth.scenario.apnea_intervals=5", "synth.scenario.apnea_intervals must be a list"),
    ("synth", 'synth.scenario.base="q"', "synth.scenario.base must be a number"),
    ("synth", "synth.scenario.subcarriers=2.5", "synth.scenario.subcarriers must be an integer"),
    ("synth", "synth.scenario.hr_bpm=500", "InvalidScenario: heart schedule"),
    ("synth", "synth.scenario.hr_bpm=NaN", "InvalidScenario: heart schedule"),
    # a canonical recording's header states its rate
    ("process", "ingest.sample_rate_hz=100",
     "ConfigInvalidValue: ingest.sample_rate_hz applies only to format esp32"),
])
def test_config_block_values_exit_2(workdir, capsys, command, override, message):
    tmp_path, out, cfg_path = workdir
    if command != "synth":
        assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--set", override]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "model.psnn").exists()


@pytest.mark.parametrize("rate", ['"abc"', "0", "-20"])
def test_esp32_sample_rate_value_exits_2(workdir, capsys, rate):
    tmp_path, out, cfg_path = workdir
    capture = tmp_path / "capture.csv"
    capture.write_text("".join(f"{i / 20.0},1,2,3,4\n" for i in range(200)))
    cfg = json.loads(cfg_path.read_text())
    cfg["ingest"] = {"format": "esp32", "path": str(capture), "sample_rate_hz": json.loads(rate),
                     "labels": str(tmp_path / "labels.csv")}
    esp_cfg = tmp_path / "esp.json"
    esp_cfg.write_text(json.dumps(cfg))
    assert main(["process", "--config", str(esp_cfg)]) == 2
    assert "ConfigInvalidValue: ingest.sample_rate_hz must be" in capsys.readouterr().err


def test_non_finite_label_exits_3(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    labels = (out / "labels_heart.csv").read_text().splitlines()
    labels[4] = labels[4].split(",")[0] + ",nan"
    (out / "labels_heart.csv").write_text("\n".join(labels) + "\n")
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 3
    assert "MalformedLine: line 5: non-finite" in capsys.readouterr().err
    assert not (out / "segments.psseg").exists()


@pytest.mark.parametrize("rate", ["-5", "NaN"])
def test_bad_header_rate_exits_3(workdir, capsys, rate):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    lines = (out / "stream.jsonl").read_text().splitlines()
    lines[0] = lines[0].replace('"sample_rate_hz": 20.0', f'"sample_rate_hz": {rate}')
    (out / "stream.jsonl").write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 3
    assert "SchemaMismatch: header sample_rate_hz" in capsys.readouterr().err
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(tmp_path / "preds.csv")]) == 3
    assert "SchemaMismatch: header sample_rate_hz" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["short_tensors", "list_block"])
def test_model_with_matching_crc_but_wrong_contents_exits_3(workdir, capsys, damage):
    tmp_path, out, cfg_path = workdir
    data = _model_bytes(3)
    (json_len,) = struct.unpack_from("<I", data, 5)
    if damage == "short_tensors":
        payload = data[:-4 - 8]
    else:
        blob = b"[1, 2, 3]"
        payload = data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + json_len:-4]
    model = tmp_path / "m.psnn"
    model.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
    assert main(["infer", "--model", str(model), "--stream", str(tmp_path / "none.jsonl")]) == 3
    err = capsys.readouterr().err
    assert ("ChecksumMismatch" if damage == "short_tensors" else "SchemaMismatch") in err


def test_model_with_a_non_finite_weight_exits_3_before_any_output(workdir, capsys):
    """A NaN weight under a valid CRC is refused when the model is read, so
    neither eval nor infer writes its --out."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    from pulsesense.nn import ModelConfig, init_params, save_model
    params = init_params(ModelConfig(input_dim=3), 0)
    params.w1[0, 0] = np.nan
    model = tmp_path / "nan.psnn"
    model.write_bytes(save_model(params, extra={"pipeline": {"mode": "heart"}}))
    capsys.readouterr()
    report = tmp_path / "eval.json"
    assert main(["eval", "--model", str(model), "--data", str(out / "segments.psseg"),
                 "--out", str(report)]) == 3
    assert "NonFiniteWeight: model tensor w1" in capsys.readouterr().err
    assert not report.exists()
    preds = tmp_path / "preds.csv"
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(preds)]) == 3
    assert "NonFiniteWeight: model tensor w1" in capsys.readouterr().err
    assert not preds.exists()


def test_config_not_utf8_exits_2(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    cfg_path.write_bytes(cfg_path.read_bytes().replace(b'"cli-unit"', b'"cli-\xffunit"'))
    assert main(["process", "--config", str(cfg_path)]) == 2
    assert "ConfigInvalidValue: config is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["stream.jsonl", "labels_heart.csv"])
def test_invalid_utf8_recording_exits_3(workdir, capsys, target):
    """A byte that is not UTF-8 names its line, in batch and streamed reads."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    lines = (out / target).read_bytes().split(b"\n")
    lines[6] = lines[6][:3] + b"\xff" + lines[6][3:]
    (out / target).write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 3
    assert "MalformedLine: line 7: not UTF-8" in capsys.readouterr().err
    if target == "stream.jsonl":
        model = tmp_path / "m.psnn"
        model.write_bytes(_model_bytes(3))
        preds = tmp_path / "preds.csv"
        assert main(["infer", "--model", str(model), "--stream", str(out / target),
                     "--out", str(preds)]) == 3
        assert "MalformedLine: line 7: not UTF-8" in capsys.readouterr().err


# Ways six lines can fail to decode: (damage, the line named, the reason)
UTF8_DAMAGE = {
    # a three-byte sequence cut short by line 2's LF
    "cut_by_lf": (lambda lines: b"\n".join(lines[:1] + [lines[1] + b"\xe2\x82"] + lines[2:])
                  + b"\n", 2, "unexpected end of data"),
    # the same cut on the last line, which has no LF
    "cut_at_end": (lambda lines: b"\n".join(lines) + b"\xe2\x82", 6, "unexpected end of data"),
    # a stray 0xff inside line 3
    "stray_ff": (lambda lines: b"\n".join(lines[:2] + [lines[2][:4] + b"\xff" + lines[2][4:]]
                                          + lines[3:]) + b"\n", 3, "invalid start byte"),
}


@pytest.mark.parametrize("damage", sorted(UTF8_DAMAGE))
def test_one_utf8_rule_in_every_reader(workdir, capsys, damage):
    """Every reader decodes a line without its LF, so the same damage is
    the same MalformedLine in the three parsers, and in process and infer
    on the same damaged stream."""
    tmp_path, out, cfg_path = workdir
    damaged, line_no, reason = UTF8_DAMAGE[damage]
    expected = f"line {line_no}: not UTF-8: {reason}"
    t = (np.arange(5) / 20.0).tolist()
    texts = {
        parse_canonical: write_canonical(CsiStream(t, np.full((5, 3), 1 + 2j), 20.0)),
        parse_esp32_csv: b"timestamp,im0,re0\n" + b"".join(b"%r,2,1\n" % v for v in t),
        (lambda data: parse_labels(data, "heart_rate_bpm")):
            b"timestamp,bpm\n" + b"".join(b"%r,72\n" % v for v in t),
    }
    for reader, text in texts.items():
        with pytest.raises(MalformedLine) as err:
            reader(damaged(text.split(b"\n")[:-1]))
        assert (str(err.value), err.value.line_no) == (expected, line_no)

    out.mkdir()
    stream = out / "stream.jsonl"
    stream.write_bytes(damaged(texts[parse_canonical].split(b"\n")[:-1]))
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == f"MalformedLine: {expected}\n"
    assert main(["infer", "--model", str(model), "--stream", str(stream)]) == 3
    assert capsys.readouterr().err == f"MalformedLine: {expected}\n"


@pytest.mark.parametrize("field,value", [
    ("sample_rate_hz", '"20"'), ("sample_rate_hz", "true"),
    ("subcarriers", "1.9"), ("subcarriers", "true"),
])
def test_canonical_header_types_exit_3(workdir, capsys, field, value):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    lines = (out / "stream.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header[field] = json.loads(value)
    lines[0] = json.dumps(header)
    (out / "stream.jsonl").write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    capsys.readouterr()
    assert main(["process", "--config", str(cfg_path)]) == 3
    assert "SchemaMismatch: header sample_rate_hz" in capsys.readouterr().err
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(tmp_path / "preds.csv")]) == 3
    assert "SchemaMismatch: header sample_rate_hz" in capsys.readouterr().err


@pytest.mark.parametrize("subs", [None, [0, 2]])
def test_huge_header_width_exits_3(workdir, capsys, subs):
    """A header claiming 2**50 subcarriers is measured from the subcarrier
    index, not from an array of that width: a misfit (exit 3), and no
    --out is opened."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    lines = (out / "stream.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["subcarriers"] = 2 ** 50
    lines[0] = json.dumps(header)
    (out / "stream.jsonl").write_text("\n".join(lines) + "\n")
    block = {"mode": "heart", "window_s": 5.0}
    if subs is not None:
        block["subcarriers"] = subs
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, {"pipeline": block}))
    preds = tmp_path / "preds.csv"
    capsys.readouterr()
    assert main(["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                 "--out", str(preds)]) == 3
    width = 2 ** 50 if subs is None else 2
    assert (f"SchemaMismatch: model takes 3 subcarriers; the stream at 20.0 Hz "
            f"gives {width}") in capsys.readouterr().err
    assert not preds.exists()


@pytest.mark.parametrize("command", ["eval"])
def test_non_finite_segment_dump_exits_3(workdir, capsys, command):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    dump = bytearray((out / "segments.psseg").read_bytes())
    count, w, s = struct.unpack_from("<III", dump, 6)
    struct.pack_into("<f", dump, 18 + 4 * (w * s + 1) * count - 4, float("nan"))
    bad = tmp_path / "nan.psseg"
    bad.write_bytes(bytes(dump))
    capsys.readouterr()
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3))
    assert main([command, "--model", str(model), "--data", str(bad)]) == 3
    assert (f"NonFiniteSample: dump record {count - 1} (counted from 0) holds a "
            "non-finite label") in capsys.readouterr().err


@pytest.mark.parametrize("command,override,message", [
    ("synth", "synth.scenario.duration_s=NaN", "InvalidScenario: duration and rate"),
    ("synth", "synth.scenario.noise_std=NaN", "InvalidScenario: noise_std"),
    ("train", "training.learning_rate=-1", "ConfigInvalidValue: learning_rate"),
    ("train", "training.lr_factor=2", "ConfigInvalidValue: lr_factor"),
])
def test_non_finite_or_out_of_range_config_exits_2(workdir, capsys, command, override,
                                                    message):
    tmp_path, out, cfg_path = workdir
    assert main([command, "--config", str(cfg_path), "--set", override]) == 2
    assert message in capsys.readouterr().err


def _argv_exit_code(argv, capsys):
    """main's exit code where argparse refuses a flag (it raises SystemExit),
    and what it printed on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-3", "1", "2.5"])
def test_cv_k_below_two_exits_2(workdir, capsys, k):
    tmp_path, out, cfg_path = workdir
    code, err = _argv_exit_code(["cv", "--config", str(cfg_path), "--k", k], capsys)
    assert code == 2 and "--k: must be an integer >= 2" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--threshold", "nan"), ("--threshold", "-1"), ("--threshold", "inf"),
    ("--decision-threshold", "nan"), ("--decision-threshold", "1.5"),
    ("--decision-threshold", "-0.1"),
])
def test_eval_threshold_out_of_range_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "report.json"
    code, err = _argv_exit_code(["eval", "--model", "m.psnn", "--data", "d.psseg",
                                 flag, value, "--out", str(out)], capsys)
    assert code == 2 and f"{flag}: must be a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("mode,key", [("breath", "frac_within_0_75_brpm"),
                                      ("heart", "frac_within_1_5_bpm"),
                                      (None, "frac_within_1_5_bpm")])
def test_eval_default_threshold_is_the_stored_mode(workdir, capsys, mode, key):
    """eval scores a model at its mode's threshold, as train and cv do;
    a model with no stored pipeline uses the default (heart) one. The
    fraction is written as frac_within_threshold, never under a per-unit
    ``key``."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, mode and {"pipeline": {"mode": mode}}))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(out / "segments.psseg")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] == (0.75 if mode == "breath" else 1.5)
    assert "frac_within_threshold" in doc and key not in doc


def test_eval_threshold_flag_names_no_unit(workdir, capsys):
    """--threshold 1.5 on a breath model is scored at 1.5 under the one key
    every report uses, not a heart-rate key."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, {"pipeline": {"mode": "breath"}}))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(out / "segments.psseg"),
                 "--threshold", "1.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] == 1.5 and "frac_within_threshold" in doc
    assert not [key for key in doc if "bpm" in key]


@pytest.mark.parametrize("head,mode", [("binary", "heart"), ("binary", "breath"),
                                       ("regression", "apnea")])
def test_head_other_than_the_stored_mode_exits_3(workdir, capsys, head, mode):
    """A model whose head is not its stored mode's would print one task's
    outputs as another's: infer, eval and bench refuse it before any output,
    and eval does so whether or not it is given --threshold."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, {"pipeline": {"mode": mode}}, head=head))
    preds = tmp_path / "preds.csv"
    mode_head = "regression" if head == "binary" else "binary"
    eval_argv = ["eval", "--model", str(model), "--data", str(out / "segments.psseg"),
                 "--out", str(preds)]
    capsys.readouterr()
    for argv in (["infer", "--model", str(model), "--stream", str(out / "stream.jsonl"),
                  "--out", str(preds)],
                 eval_argv, eval_argv + ["--threshold", "1.5"],
                 ["bench", "--model", str(model), "--seq-len", "16", "--out", str(preds)]):
        assert main(argv) == 3
        assert (f"SchemaMismatch: model {model} has a {head} head but stores mode "
                f"{mode!r}, whose head is {mode_head}") in capsys.readouterr().err
        assert not preds.exists()


def test_fraction_leaving_no_training_window_exits_2(workdir, capsys):
    """A val_fraction_of_train too large for the window count is a config
    error in both train's split (56 windows) and cv's carve-out (28 of them
    per fold at k = 2), refused before any output is written."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    argv = ["--config", str(cfg_path), "--set", "pipeline.stride=20",
            "--set", "training.val_fraction_of_train=0.99"]
    capsys.readouterr()
    for command, n, output in ((["train"], 56, "model.psnn"),
                               (["cv", "--k", "2"], 28, "cv.json")):
        assert main(command + argv) == 2
        assert (f"ConfigInvalidValue: training.val_fraction_of_train of 0.99 leaves "
                f"no training window of {n}") in capsys.readouterr().err
        assert not (out / output).exists()


@pytest.mark.parametrize("mode,head,flag", [("apnea", "binary", "--threshold"),
                                            ("heart", "regression", "--decision-threshold")])
def test_eval_refuses_the_flag_its_head_does_not_read(workdir, capsys, mode, head, flag):
    """A regression head reads --threshold and a binary head
    --decision-threshold; the other flag is refused (exit 2, naming it and
    the head) before the dump is read, not silently dropped."""
    tmp_path, out, cfg_path = workdir
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, {"pipeline": {"mode": mode}}, head=head))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(tmp_path / "missing.psseg"),
                 flag, "0.5", "--out", str(report)]) == 2
    assert (f"ConfigInvalidValue: {flag} does not apply to a model with a {head} head"
            in capsys.readouterr().err)
    assert not report.exists()


def test_eval_decision_threshold_defaults_to_one_half(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    apnea = ["--set", "pipeline.mode=apnea",
             "--set", f"ingest.labels={out / 'labels_apnea.csv'}"]
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)] + apnea) == 0
    model = tmp_path / "m.psnn"
    model.write_bytes(_model_bytes(3, {"pipeline": {"mode": "apnea"}}, head="binary"))
    argv = ["eval", "--model", str(model), "--data", str(out / "segments.psseg")]
    capsys.readouterr()
    reports = []
    for extra in ([], ["--decision-threshold", "0.5"]):
        assert main(argv + extra) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and '"kappa"' in reports[0]


def test_model_block_read_before_ingest(workdir, capsys):
    """A bad model key is a config error even when the recording it would
    have trained on does not exist."""
    tmp_path, out, cfg_path = workdir
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--set", "model.head=binary",
                 "--set", f"ingest.path={tmp_path / 'missing.jsonl'}"]) == 2
    assert "ConfigUnknownKey: model.head" in capsys.readouterr().err


@pytest.mark.parametrize("mode,kind", [("breath", "breathing_rate_brpm"),
                                       ("apnea", "apnea_flag")])
def test_mode_reads_its_own_label_kind(workdir, capsys, mode, kind):
    """pipeline.mode sets the label kind: the heart label file read as
    another mode's labels is out of range before any training."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--set", f"pipeline.mode={mode}"]) == 3
    assert f"ValueOutOfRange: {kind}: value" in capsys.readouterr().err
    assert not (out / "model.psnn").exists()


@pytest.mark.parametrize("flag", ["--seq-len", "--batch", "--input-dim", "--n-preds"])
def test_bench_flag_below_one_exits_2(tmp_path, capsys, flag):
    argv = {"--seq-len": "16", "--batch": "8", "--input-dim": "4", "--n-preds": "32"}
    argv[flag] = "0"
    out = tmp_path / "bench.csv"
    code, err = _argv_exit_code(
        ["bench", "--out", str(out)] + [a for kv in argv.items() for a in kv], capsys)
    assert code == 2 and f"{flag}: must be an integer >= 1, got '0'" in err
    assert not out.exists()


# the child's address space: far above what the desk-scale workdir needs and
# far below what the sizes refused here would take
CHILD_ADDRESS_SPACE = 3 * 2**30


def run_limited(*argv):
    """cli.main(argv) in a child process under CHILD_ADDRESS_SPACE and with
    Python warnings as errors, so a size that slips past its check fails to
    allocate instead of taking the machine's memory; returns (exit code,
    stderr)."""
    src = os.path.dirname(os.path.dirname(pulsesense.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2); "
            "from pulsesense.cli import main; sys.exit(main(sys.argv[1:]))")
    child = subprocess.run([sys.executable, "-W", "error", "-c", code, *map(str, argv)],
                           env=env, capture_output=True, text=True, timeout=300)
    return child.returncode, child.stderr


def test_diverging_training_exits_4_with_one_line_and_no_warning(workdir, capsys):
    """A learning rate of 1e300 overflows the first steps: DivergedLoss,
    exit 4, with numpy's overflow and invalid-value warnings silenced on the
    way, on the helper thread of backward too."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", str(cfg_path),
                     "--set", "training.learning_rate=1e300"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("DivergedLoss: non-finite loss at epoch ") and err.count("\n") == 1
    assert not (out / "model.psnn").exists()


@pytest.mark.parametrize("units,code,error", [
    (2**63, 2, "ConfigInvalidValue: model tensor w1 of shape (36893488147419103232, 3) "
               "is past the largest array numpy can index"),
    (2**62, 2, "ConfigInvalidValue: model tensor w1 of shape (18446744073709551616, 3) "
               "is past the largest array numpy can index"),
    # every tensor fits the index range; w1 alone would take 24 GiB
    (2**28, 4, "MemoryError: Unable to allocate 24.0 GiB"),
], ids=["2**63", "2**62", "unallocatable"])
def test_unit_counts_past_the_largest_array(workdir, units, code, error):
    """Unit counts whose tensors no array can hold are a config error (exit
    2) before init_params allocates; a size numpy refuses to allocate stays
    a MemoryError (exit 4). Each has one stderr line."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    status, err = run_limited("train", "--config", cfg_path,
                              "--set", f"model.lstm1_units={units}")
    assert (status, err.count("\n")) == (code, 1), err[-2000:]
    assert err.startswith(error)


def test_impossible_model_refused_before_the_pipeline(workdir, capsys):
    """The model block is checked once the recording's width is known and
    before the DSP chain runs: a 1000 s window, which the pipeline would
    refuse as longer than the 60 s recording, is never reached."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--set", "pipeline.window_s=1000",
                 "--set", f"model.lstm1_units={2**63}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigInvalidValue: model tensor w1 ") and err.count("\n") == 1


@pytest.mark.parametrize("override", [
    "pipeline.window_s=1e300", f"pipeline.window_s={2**63}",
    # fewer rows than np.intp counts, but not their bytes at 3 subcarriers
    "pipeline.window_s=1e17", f"pipeline.stride={2**63}",
])
def test_front_end_buffers_past_the_largest_array_exit_2(workdir, override):
    """A window or stride whose front-end buffers no array can hold is
    refused by PipelineConfig.stages before they are allocated: a config
    error in process (exit 2), a data error naming the model in infer
    (exit 3), one stderr line each and no output file."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    status, err = run_limited("process", "--config", cfg_path, "--set", override)
    assert (status, err.count("\n")) == (2, 1), err[-2000:]
    assert err.startswith("ConfigInvalidValue: pipeline.window_s of ")
    assert "past the largest array numpy can index" in err
    assert not (out / "segments.psseg").exists()

    key, _, value = override.partition("=")
    block = {"mode": "heart", "window_s": 5.0, "stride": 10, key.split(".")[1]: json.loads(value)}
    model, preds = tmp_path / "m.psnn", tmp_path / "preds.csv"
    model.write_bytes(_model_bytes(3, {"pipeline": block}))
    status, err = run_limited("infer", "--model", model, "--stream", out / "stream.jsonl",
                              "--out", preds)
    assert (status, err.count("\n")) == (3, 1), err[-2000:]
    assert err.startswith(f"SchemaMismatch: model {model} stores ConfigInvalidValue: "
                          f"pipeline.window_s of ")
    assert not preds.exists()


def test_front_end_buffers_numpy_cannot_allocate_exit_4(workdir):
    """A 1e9 s window fits the index range and fails to allocate: a
    MemoryError (exit 4) with one stderr line, as before."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    status, err = run_limited("process", "--config", cfg_path,
                              "--set", "pipeline.window_s=1e9")
    assert (status, err.count("\n")) == (4, 1), err[-2000:]
    assert err.startswith("MemoryError: Unable to allocate")


@pytest.mark.parametrize("flag,value,code,error", [
    ("--seq-len", 2**62, 2, "ConfigInvalidValue: bench input of batch 64 x seq_len "
                            "4611686018427387904 x input_dim 64 float64 values is past "
                            "the largest array numpy can index"),
    ("--batch", 2**62, 2, "ConfigInvalidValue: bench input of batch 4611686018427387904 "
                          "x seq_len 100 x input_dim 64 float64 values is past the "
                          "largest array numpy can index"),
    # fits the index range; numpy refuses to allocate its 29.1 PiB
    ("--seq-len", 10**12, 4, "MemoryError: Unable to allocate"),
], ids=["seq-len-2**62", "batch-2**62", "unallocatable"])
def test_bench_input_past_the_largest_array(tmp_path, flag, value, code, error):
    """A bench input pool no array can hold is a config error (exit 2),
    refused before it is allocated; a size numpy refuses to allocate stays
    a MemoryError (exit 4). Each has one stderr line and writes no --out."""
    argv = {"--seq-len": "100", "--batch": "64", "--n-preds": "64", flag: str(value)}
    out = tmp_path / "bench.csv"
    status, err = run_limited("bench", "--out", out, *[a for kv in argv.items() for a in kv])
    assert (status, err.count("\n")) == (code, 1), err[-2000:]
    assert err.startswith(error)
    assert not out.exists()
