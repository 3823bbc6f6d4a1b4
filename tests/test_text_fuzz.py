"""Seeded damage to the text readers: only PulseSenseError escapes."""

import io
import json

import numpy as np
import pytest

from pulsesense import config as cfgmod
from pulsesense.dsp import PipelineConfig
from pulsesense.errors import PulseSenseError
from pulsesense.ingest import (
    CsiStream,
    iter_canonical,
    parse_canonical,
    parse_esp32_csv,
    parse_labels,
    utf8_lines,
    write_canonical,
)
from pulsesense.nn import ModelConfig
from pulsesense.training import TrainingConfig


def _damaged(rng, data: bytes) -> bytes:
    """One to three seeded truncations, bit flips, duplicated or removed
    lines, or spliced bytes (a copy of another stretch, or random bytes)."""
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(5))
        at = int(rng.integers(len(data) + 1))
        if kind == 0:
            data = data[:at]
        elif kind == 1 and data:
            buf = bytearray(data)
            buf[int(rng.integers(len(buf)))] ^= 1 << int(rng.integers(8))
            data = bytes(buf)
        elif kind in (2, 3):
            lines = data.split(b"\n")
            k = int(rng.integers(len(lines)))
            if kind == 2:
                lines.insert(int(rng.integers(len(lines) + 1)), lines[k])
            else:
                del lines[k]
            data = b"\n".join(lines)
        elif rng.integers(2):
            start = int(rng.integers(len(data) + 1))
            data = data[:at] + data[start:start + int(rng.integers(1, 40))] + data[at:]
        else:
            data = data[:at] + bytes(rng.integers(0, 256, int(rng.integers(1, 9)),
                                                  dtype=np.uint8)) + data[at:]
    return data


def _stream(rng, n_frames=30, n_sub=3):
    t = np.arange(n_frames) / 20.0
    re, im = rng.integers(-60, 60, (2, n_frames, n_sub))
    return CsiStream(t, re + 1j * im, 20.0)


def _esp32_text(stream) -> bytes:
    lines = ["timestamp," + ",".join(f"im{k},re{k}" for k in range(stream.subcarrier_count))]
    for t, row in zip(stream.timestamps.tolist(), stream.values):
        parts = [f"{int(v.imag)},{int(v.real)}" for v in row]
        lines.append(",".join([repr(t)] + parts))
    return ("\n".join(lines) + "\n").encode()


def _streamed(data: bytes):
    """The canonical reader as `infer` drives it: line by line from a file."""
    _, _, frames = iter_canonical(utf8_lines(io.BytesIO(data)))
    return list(frames)


READERS = {
    "esp32": (lambda rng: _esp32_text(_stream(rng)), [parse_esp32_csv]),
    "labels": (lambda rng: "".join(f"{k / 2!r},{72 + k % 5}\n" for k in range(40)).encode(),
               [lambda data: parse_labels(data, "heart_rate_bpm")]),
    "canonical": (lambda rng: write_canonical(_stream(rng, 12)),
                  [parse_canonical, _streamed]),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_csi_and_label_readers(name):
    make, readers = READERS[name]
    rng = np.random.default_rng(sorted(READERS).index(name) + 31)
    data = make(rng)
    for reader in readers:
        reader(data)  # the undamaged input reads
    for _ in range(400):
        damaged = _damaged(rng, data)
        for reader in readers:
            try:
                reader(damaged)
            except PulseSenseError:
                pass


VALID_CONFIG = {
    "synth": {"scenario": {"name": "fuzz", "duration_s": 60.0, "sample_rate_hz": 20.0,
                           "subcarriers": 3, "hr_bpm": [[0, 70], [30, 80]],
                           "br_brpm": 15.0, "apnea_intervals": [[10, 20]],
                           "noise_std": 0.05, "seed": 9}},
    "ingest": {"format": "esp32", "path": "capture.csv", "sample_rate_hz": 80.0,
               "labels": {"path": "labels.csv", "kind": "heart_rate_bpm"}},
    "pipeline": {"mode": "heart", "window_s": 5.0, "stride": 10,
                 "band": {"low_hz": 0.8, "high_hz": 2.0},
                 "savgol": {"window": 15, "order": 3}, "subcarriers": [0, 2]},
    "model": {"lstm1_units": 6, "lstm2_units": 4, "dense_units": 4, "dropout_rate": 0.1},
    "training": {"max_epochs": 3, "batch_size": 16, "learning_rate": 0.001,
                 "lr_factor": 0.5, "seed": 1},
    "output": {"dir": "out"},
}


def _validators(cfg):
    """Each block's validator, as the commands run them after load_config."""
    return [
        lambda: cfgmod.read_block("ingest", cfgmod.require_block(cfg, "ingest"),
                                  cfgmod.IngestConfig),
        lambda: cfgmod.scenario_from_config(cfgmod.require_block(cfg, "synth")),
        lambda: PipelineConfig.from_dict(cfg.get("pipeline", {})).stages(20.0),
        lambda: cfgmod.read_block("model", cfg.get("model", {}), ModelConfig, input_dim=3),
        lambda: cfgmod.read_block("training", cfg.get("training", {}), TrainingConfig),
        lambda: cfgmod.read_block("output", cfgmod.require_block(cfg, "output"),
                                  cfgmod.OutputConfig),
    ]


def test_load_config(tmp_path):
    rng = np.random.default_rng(37)
    data = json.dumps(VALID_CONFIG, indent=1).encode()
    path = tmp_path / "config.json"
    path.write_bytes(data)
    for check in _validators(cfgmod.load_config(str(path))):
        check()  # the undamaged config is valid
    for _ in range(400):
        path.write_bytes(_damaged(rng, data))
        try:
            checks = _validators(cfgmod.load_config(str(path)))
        except PulseSenseError:
            continue
        for check in checks:
            try:
                check()
            except PulseSenseError:
                pass
