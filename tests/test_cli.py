"""End-to-end CLI workflows on a desk-scale synthetic recording."""

import json
import struct
import warnings

import numpy as np
import pytest

from pulsesense.cli import _iter_canonical_packets, main
from pulsesense.ingest import CsiStream, parse_canonical, write_canonical


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
            "labels": {"path": str(out / "labels_heart.csv"),
                       "kind": "heart_rate_bpm"},
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

    assert main(["train", "--config", str(cfg_path), "--set",
                 f"training.segments={out / 'segments.psseg'}"]) == 0
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
                     "--config", str(cfg_path),
                     "--set", "pipeline.stride=1",
                     "--out", str(target)]) == 0
    lines = pred_a.read_text().strip().splitlines()
    # stride 1: one line per window start, (1200 - 100) + 1
    assert len(lines) == 1101
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
                 "--set", f"training.segments={out / 'segments.psseg'}",
                 "--set", "training.max_epochs=1"]) == 0
    doc = json.loads((out / "cv.json").read_text())
    assert doc["n_runs"] == 5
    assert len(doc["runs"]) == 5
    assert sum(r["n"] for r in doc["runs"]) == 111
    assert "mae" in doc["means"] and "mae" in doc["stds"]


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
        "labels": {"path": str(labels), "kind": "heart_rate_bpm"},
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
                     "labels": {"path": str(labels), "kind": "heart_rate_bpm"}}
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
    """training.segments belongs to the CLI; other unknown keys still fail."""
    tmp_path, out, cfg_path = workdir
    for cmd in ("train", "cv"):
        assert main([cmd, "--config", str(cfg_path),
                     "--set", "training.segmentz=x.psseg"]) == 2
        assert "ConfigUnknownKey: training.segmentz" in capsys.readouterr().err


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
        rows = np.stack([row for _, row in _iter_canonical_packets(str(path))])
    assert rows.tobytes() == expected.tobytes() == values.tobytes()


def test_runtime_error_exits_4(workdir, capsys):
    """Model/data shape disagreement is a runtime error, not config or data."""
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    from pulsesense.nn import ModelConfig, init_params, save_model
    wrong = tmp_path / "wrong.psnn"
    wrong.write_bytes(save_model(init_params(ModelConfig(input_dim=7), 0)))
    assert main(["eval", "--model", str(wrong),
                 "--data", str(out / "segments.psseg")]) == 4
    assert "ShapeMismatch" in capsys.readouterr().err


def test_bench_csv(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    assert main(["bench", "--input-dim", "4", "--seq-len", "16",
                 "--batch", "8", "--n-preds", "32"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("model,seq_len,batch,cold_start_s")
    assert len(lines[1].split(",")) == 8


def test_zero_phase_infer_rejected(workdir, capsys):
    tmp_path, out, cfg_path = workdir
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["process", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    code = main(["infer", "--model", str(out / "model.psnn"),
                 "--stream", str(out / "stream.jsonl"),
                 "--config", str(cfg_path),
                 "--set", "pipeline.zero_phase=true"])
    assert code == 2
    assert "ConfigInvalidValue" in capsys.readouterr().err
