"""JSON type rules shared by the config blocks."""

import re

import pytest

from pulsesense.config import check_type
from pulsesense.dsp import PipelineConfig
from pulsesense.errors import ConfigInvalidValue


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
