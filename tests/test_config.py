"""JSON type rules shared by the config blocks."""

import re

import pytest

from pulsesense.config import IngestConfig, LabelsConfig, check_type, read_block
from pulsesense.dsp import PipelineConfig
from pulsesense.errors import ConfigInvalidValue, ConfigUnknownKey
from pulsesense.nn import ModelConfig


@pytest.mark.parametrize("value,kind,ok", [
    (3, int, True), (True, int, False), (3.0, int, False), ("3", int, False),
    (3, float, True), (2.5, float, True), (False, float, False), ("2.5", float, False),
    (True, bool, True), (False, bool, True), (0, bool, False), ("false", bool, False),
    ("heart", str, True), (1, str, False), (None, str, False),
    ([1], list, True), ("1", list, False),
])
def test_check_type_rules(value, kind, ok):
    """An int field takes no bool or float, a float field takes an int, and
    a bool field takes only a bool."""
    if ok:
        assert check_type("block.key", value, kind) is value
    else:
        with pytest.raises(ConfigInvalidValue, match="block.key must be "):
            check_type("block.key", value, kind)


@pytest.mark.parametrize("block,key", [
    ({"band": {"low_hz": 0.5}}, "pipeline.band.high_hz"),
    ({"band": {"low_hz": "0.5", "high_hz": 3.0}}, "pipeline.band.low_hz"),
    ({"savgol": {"window": True}}, "pipeline.savgol.window"),
    ({"savgol": {"order": 2.0}}, "pipeline.savgol.order"),
    ({"subcarriers": "0,1"}, "pipeline.subcarriers"),
    ({"subcarriers": [0, 1.5]}, "pipeline.subcarriers[]"),
    ({"mode": ["heart"]}, "pipeline.mode"),
])
def test_pipeline_nested_values_are_typed(block, key):
    with pytest.raises(ConfigInvalidValue, match=re.escape(f"{key} must be ")):
        PipelineConfig.from_dict(block)


def test_pipeline_round_trip_and_int_for_float():
    cfg = PipelineConfig.from_dict({"mode": "breath", "window_s": 20, "stride": 7,
                                    "band": {"low_hz": 0, "high_hz": 0.5},
                                    "subcarriers": [2, 0], "zero_phase": False})
    assert cfg.window_s == 20.0 and cfg.band == (0.0, 0.5) and cfg.subcarriers == [2, 0]
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


INGEST = {"path": "rec.jsonl", "labels": {"path": "hr.csv", "kind": "heart_rate_bpm"}}


def test_read_block_reads_nested_and_optional_fields():
    cfg = read_block("ingest", dict(INGEST, sample_rate_hz=None), IngestConfig)
    assert cfg == IngestConfig("rec.jsonl", LabelsConfig("hr.csv", "heart_rate_bpm"))
    assert read_block("ingest", dict(INGEST, sample_rate_hz=80), IngestConfig).sample_rate_hz == 80


@pytest.mark.parametrize("block,error,message", [
    ({"labels": INGEST["labels"]}, ConfigInvalidValue, "ingest.path is required"),
    ({"path": "rec.jsonl"}, ConfigInvalidValue, "ingest.labels is required"),
    (dict(INGEST, labels={"path": "hr.csv"}), ConfigInvalidValue,
     "ingest.labels.kind is required"),
    (dict(INGEST, pth="x"), ConfigUnknownKey, "ingest.pth"),
    (dict(INGEST, labels={"path": "hr.csv", "kind": "heart_rate_bpm", "x": 1}),
     ConfigUnknownKey, "ingest.labels.x"),
    (dict(INGEST, labels={"path": "hr.csv", "kind": "pulse"}), ConfigInvalidValue,
     "ingest.labels.kind must be one of"),
    (dict(INGEST, labels={"path": "hr.csv", "kind": 3}), ConfigInvalidValue,
     "ingest.labels.kind must be a string"),
    (dict(INGEST, labels="hr.csv"), ConfigInvalidValue, "ingest.labels must be an object"),
    (dict(INGEST, labels=None), ConfigInvalidValue, "ingest.labels must be an object"),
    (dict(INGEST, path=None), ConfigInvalidValue, "ingest.path must be a string"),
    (dict(INGEST, format=None), ConfigInvalidValue, "ingest.format must be a string"),
    (dict(INGEST, sample_rate_hz="80"), ConfigInvalidValue,
     "ingest.sample_rate_hz must be a number"),
    (dict(INGEST, sample_rate_hz=0), ConfigInvalidValue,
     "ingest.sample_rate_hz must be positive and finite"),
    ([INGEST], ConfigInvalidValue, "ingest must be an object"),
])
def test_read_block_names_the_key(block, error, message):
    """A missing or unknown key names its block; null is taken only by an
    Optional field; an error in a nested block names the nested key."""
    with pytest.raises(error, match=re.escape(message)):
        read_block("ingest", block, IngestConfig)


def test_read_block_given_values_are_defaults_the_block_overrides():
    assert read_block("model", {}, ModelConfig, input_dim=3, head="binary") == \
        ModelConfig(input_dim=3, head="binary")
    assert read_block("model", {"head": "regression"}, ModelConfig, input_dim=3,
                      head="binary").head == "regression"
    with pytest.raises(ConfigInvalidValue, match=re.escape("model.input_dim is required")):
        read_block("model", {}, ModelConfig)
    with pytest.raises(ConfigInvalidValue, match=re.escape("model.dropout_rate must be in")):
        read_block("model", {"dropout_rate": 1}, ModelConfig, input_dim=3)
