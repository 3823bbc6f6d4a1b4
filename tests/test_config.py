"""JSON type rules shared by the config blocks."""

import json
import re

import pytest

from pulsesense.config import IngestConfig, check_type, read_block, read_pipeline
from pulsesense.dsp import Band, PipelineConfig, Savgol
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
    """A nested value of the wrong type names its key, as a missing band
    edge does."""
    text = "is required" if key == "pipeline.band.high_hz" else "must be "
    with pytest.raises(ConfigInvalidValue, match=re.escape(f"{key} {text}")):
        read_pipeline(block)


@pytest.mark.parametrize("block,error,message", [
    ({"band": {"low_hz": 0.5, "high_hz": 3.0, "x": 1}}, ConfigUnknownKey, "pipeline.band.x"),
    ({"savgol": {"window": 15, "ordr": 3}}, ConfigUnknownKey, "pipeline.savgol.ordr"),
    ({"savgol": None}, ConfigInvalidValue, "pipeline.savgol must be an object"),
    ({"band": [0.5, 3.0]}, ConfigInvalidValue, "pipeline.band must be an object"),
    ({"mode": "walk"}, ConfigInvalidValue, "mode must be one of"),
])
def test_pipeline_nested_blocks_are_read_as_blocks(block, error, message):
    with pytest.raises(error, match=re.escape(message)):
        read_pipeline(block)


@pytest.mark.parametrize("block,key", [
    ({"window_s": 10**400}, "pipeline.window_s"),
    ({"window_s": -10**400}, "pipeline.window_s"),
    ({"band": {"low_hz": 0, "high_hz": 10**309}}, "pipeline.band.high_hz"),
])
def test_pipeline_int_too_large_for_a_float_is_refused(block, key):
    """A JSON integer that no float can hold is a config error naming its
    key, not an OverflowError where the value is first used."""
    with pytest.raises(ConfigInvalidValue,
                       match=re.escape(f"{key} must be a number, got an integer too large")):
        read_pipeline(block)


def test_pipeline_null_reads_as_the_default():
    """band: null is the mode's default band, subcarriers: null keeps all."""
    assert read_pipeline({"band": None, "subcarriers": None}) == PipelineConfig()


def test_pipeline_round_trip_and_int_for_float():
    cfg = read_pipeline({"mode": "breath", "window_s": 20, "stride": 7,
                         "band": {"low_hz": 0, "high_hz": 0.5},
                         "subcarriers": [2, 0], "zero_phase": False})
    assert cfg.window_s == 20.0 and cfg.band == Band(0.0, 0.5) and cfg.subcarriers == [2, 0]
    assert read_pipeline(cfg.to_dict()) == cfg


def test_pipeline_to_dict_key_order():
    """summary.json writes the block in this order, nested keys included."""
    cfg = PipelineConfig(mode="apnea", window_s=10.0, stride=7, savgol=Savgol(31, 2),
                         band=Band(0.0, 0.5), subcarriers=[2, 0])
    assert json.dumps(cfg.to_dict()) == (
        '{"mode": "apnea", "window_s": 10.0, "stride": 7, '
        '"savgol": {"window": 31, "order": 2}, '
        '"band": {"low_hz": 0.0, "high_hz": 0.5}, "subcarriers": [2, 0]}')


INGEST = {"path": "rec.jsonl", "labels": "hr.csv"}


def test_read_block_reads_optional_fields():
    cfg = read_block("ingest", dict(INGEST, sample_rate_hz=None), IngestConfig)
    assert cfg == IngestConfig("rec.jsonl", "hr.csv")
    esp32 = dict(INGEST, format="esp32", sample_rate_hz=80)
    assert read_block("ingest", esp32, IngestConfig).sample_rate_hz == 80


@pytest.mark.parametrize("block,error,message", [
    ({"labels": INGEST["labels"]}, ConfigInvalidValue, "ingest.path is required"),
    ({"path": "rec.jsonl"}, ConfigInvalidValue, "ingest.labels is required"),
    # the object form that also named the label kind, which pipeline.mode now sets
    (dict(INGEST, labels={"path": "hr.csv", "kind": "heart_rate_bpm"}), ConfigInvalidValue,
     "ingest.labels must be a string"),
    (dict(INGEST, pth="x"), ConfigUnknownKey, "ingest.pth"),
    (dict(INGEST, kind="heart_rate_bpm"), ConfigUnknownKey, "ingest.kind"),
    (dict(INGEST, labels=3), ConfigInvalidValue, "ingest.labels must be a string"),
    (dict(INGEST, labels=["hr.csv"]), ConfigInvalidValue, "ingest.labels must be a string"),
    (dict(INGEST, labels=True), ConfigInvalidValue, "ingest.labels must be a string"),
    (dict(INGEST, labels=None), ConfigInvalidValue, "ingest.labels must be a string"),
    (dict(INGEST, path=None), ConfigInvalidValue, "ingest.path must be a string"),
    (dict(INGEST, format=None), ConfigInvalidValue, "ingest.format must be a string"),
    (dict(INGEST, sample_rate_hz="80"), ConfigInvalidValue,
     "ingest.sample_rate_hz must be a number"),
    (dict(INGEST, sample_rate_hz=0), ConfigInvalidValue,
     "ingest.sample_rate_hz must be positive and finite"),
    ([INGEST], ConfigInvalidValue, "ingest must be an object"),
    (dict(INGEST, sample_rate_hz=80), ConfigInvalidValue,
     "ingest.sample_rate_hz applies only to format esp32"),
])
def test_read_block_names_the_key(block, error, message):
    """A missing or unknown key names its block, and null is taken only by
    an Optional field."""
    with pytest.raises(error, match=re.escape(message)):
        read_block("ingest", block, IngestConfig)


def test_read_block_fixed_values_cannot_be_set():
    """Values the caller fixes (the CLI's input width and mode head) are
    not keys of the block: setting one is an unknown key."""
    assert read_block("model", {}, ModelConfig, input_dim=3, head="binary") == \
        ModelConfig(input_dim=3, head="binary")
    for key, value in (("head", "regression"), ("input_dim", 2)):
        with pytest.raises(ConfigUnknownKey, match=re.escape(f"model.{key}")):
            read_block("model", {key: value}, ModelConfig, input_dim=3, head="binary")
    with pytest.raises(ConfigInvalidValue, match=re.escape("model.input_dim is required")):
        read_block("model", {}, ModelConfig)
    with pytest.raises(ConfigInvalidValue, match=re.escape("model.dropout_rate must be in")):
        read_block("model", {"dropout_rate": 1}, ModelConfig, input_dim=3)
