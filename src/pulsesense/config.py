"""Run-configuration loading and validation.

One JSON document drives the config-based subcommands. Unknown keys are
rejected everywhere. A block whose keys are its dataclass's fields is read
by ``read_block``; the pipeline and synth blocks, whose JSON shape differs
from their fields, map their own keys. ``--set path.key=value`` overrides
are applied before validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import List, Optional, get_args, get_type_hints

from .errors import ConfigInvalidValue, ConfigUnknownKey
from .ingest import LABEL_KINDS
from .synth import Scenario, Schedule, scenario_by_name

TOP_LEVEL_KEYS = ("ingest", "pipeline", "model", "training", "synth", "output")

SYNTH_KEYS = ("scenario",)
SCENARIO_KEYS = ("name", "duration_s", "sample_rate_hz", "subcarriers",
                 "hr_bpm", "br_brpm", "apnea_intervals", "base",
                 "breath_gain", "cardiac_gain", "noise_std", "seed")


@dataclass(frozen=True)
class LabelsConfig:
    path: str
    kind: str

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"kind must be one of {LABEL_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class IngestConfig:
    path: str
    labels: LabelsConfig
    format: str = "canonical"
    sample_rate_hz: Optional[float] = None  # esp32 only; None estimates it

    def __post_init__(self):
        if self.format not in ("esp32", "canonical"):
            raise ValueError(f"format must be esp32|canonical, got {self.format!r}")
        rate = self.sample_rate_hz
        if rate is not None and not 0 < rate < math.inf:
            raise ValueError(f"sample_rate_hz must be positive and finite, got {rate!r}")


@dataclass(frozen=True)
class OutputConfig:
    dir: str


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list"}


def reject_unknown(block_name: str, block: dict, allowed) -> None:
    if not isinstance(block, dict):
        raise ConfigInvalidValue(f"{block_name} must be an object")
    for key in block:
        if key not in allowed:
            raise ConfigUnknownKey(f"{block_name}.{key}")


def check_type(name: str, value, kind: type):
    """Return the JSON ``value`` of a field of type ``kind``, or raise.

    An int field takes no bool or float, a float field also takes an int,
    and a bool field takes only a bool. This runs where JSON enters, not in
    the config classes, whose library callers may pass numpy scalars.
    """
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigInvalidValue(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _read_value(name: str, value, hint):
    if type(None) in get_args(hint):  # Optional[X]: X or null
        return None if value is None else _read_value(name, value, get_args(hint)[0])
    if is_dataclass(hint):
        return read_block(name, value, hint)
    return check_type(name, value, hint)


def read_block(name: str, block, cls, **given):
    """The dataclass ``cls`` read from the JSON object ``block``.

    Each key must be a field of ``cls`` and its value of the field's type
    (``check_type``); an Optional field also takes null, and a
    dataclass-typed field is read recursively. ``given`` supplies values the
    block may override. A missing required field, or a ValueError from
    ``cls`` itself (whose message starts with the field it names), is a
    ConfigInvalidValue naming the block.
    """
    hints = get_type_hints(cls)
    reject_unknown(name, block, hints)
    kwargs = dict(given)
    for key, value in block.items():
        kwargs[key] = _read_value(f"{name}.{key}", value, hints[key])
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING:
            raise ConfigInvalidValue(f"{name}.{f.name} is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigInvalidValue(f"{name}.{exc}") from None


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: dict, overrides: Optional[List[str]]) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigInvalidValue(f"--set expects path.key=value, got {item!r}")
        path, _, raw = item.partition("=")
        keys = path.split(".")
        node = cfg
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigInvalidValue(f"cannot set below non-object {key!r}")
        node[keys[-1]] = _parse_override_value(raw)
    return cfg


def load_config(path: str, overrides: Optional[List[str]] = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigInvalidValue(f"config is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigInvalidValue(f"config is not UTF-8: {exc.reason}") from None
    if not isinstance(cfg, dict):
        raise ConfigInvalidValue("config root must be an object")
    apply_overrides(cfg, overrides)
    reject_unknown("config", cfg, TOP_LEVEL_KEYS)
    return cfg


def require_block(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigInvalidValue(f"config is missing the {name!r} block")
    return cfg[name]


def _pairs(name: str, value) -> tuple:
    """A JSON list of [number, number] pairs, as a tuple of float pairs."""
    pairs = check_type(name, value, list)
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ConfigInvalidValue(f"{name} must hold [a, b] pairs, got {value!r}")
    return tuple((float(check_type(name, a, float)), float(check_type(name, b, float)))
                 for a, b in pairs)


def _schedule_from_config(name: str, value) -> Schedule:
    """A number (constant) or a list of [t, value] breakpoints."""
    if not isinstance(value, list):
        return Schedule.constant(float(check_type(name, value, float)))
    pairs = _pairs(name, value)
    return Schedule(tuple(t for t, _ in pairs), tuple(v for _, v in pairs))


def scenario_from_config(block: dict) -> Scenario:
    reject_unknown("synth", block, SYNTH_KEYS)
    spec = block.get("scenario")
    if spec is None:
        raise ConfigInvalidValue("synth.scenario is required")
    if isinstance(spec, str):
        return scenario_by_name(spec)
    reject_unknown("synth.scenario", spec, SCENARIO_KEYS)
    kwargs = dict(spec)
    hints = get_type_hints(Scenario)
    for key, value in spec.items():
        name = f"synth.scenario.{key}"
        if key in ("hr_bpm", "br_brpm"):
            kwargs[key] = _schedule_from_config(name, value)
        elif key == "apnea_intervals":
            kwargs[key] = _pairs(name, value)
        elif hints[key] in _TYPE_NAMES:
            check_type(name, value, hints[key])
        else:  # a number, or one per subcarrier
            for item in (value if isinstance(value, list) else [value]):
                check_type(name, item, float)
    try:
        return Scenario(**kwargs)
    except TypeError as exc:
        raise ConfigInvalidValue(str(exc)) from None
