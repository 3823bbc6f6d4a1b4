"""Model container format.

Byte layout (all integers little-endian):

    offset  size  field
    0       5     magic b"PSNN1"
    5       4     u32 length L of the JSON block
    9       L     UTF-8 JSON: model config plus optional extra metadata
    9+L     ...   tensors as float32 little-endian, C order, in the fixed
                  order w1, u1, b1, w2, u2, b2, dense_w, dense_b, head_w,
                  head_b (gate packing i|f|g|o along the 4H axis)
    end-4   4     u32 CRC32 of every preceding byte

Weights are stored as float32; loading re-embeds them in float64 exactly, so
save(load(data)) == data and load(save(p)) == p whenever p holds
float32-representable values (always true for loaded or saved models).
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import zlib
from typing import Optional, Tuple

import numpy as np

from ..config import read_block
from ..errors import BadMagic, ChecksumMismatch, ConfigError, SchemaMismatch
from .model import ModelConfig, ModelParams, expected_shapes

MAGIC = b"PSNN1"


def save_model(params: ModelParams, extra: Optional[dict] = None) -> bytes:
    """Serialize params (and optional extra metadata, e.g. pipeline settings)."""
    doc = dataclasses.asdict(params.config)
    if extra:
        doc["extra"] = extra
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(blob)), blob]
    for tensor in params.tensors():
        parts.append(np.asarray(tensor, dtype="<f4").tobytes(order="C"))
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload))


def load_model(data: bytes) -> Tuple[ModelParams, Optional[dict]]:
    """Inverse of save_model; returns (params, extra-metadata-or-None)."""
    if data[:5] != MAGIC:
        raise BadMagic("not a model container")
    if len(data) < 13:
        raise ChecksumMismatch("container truncated")
    payload, trailer = data[:-4], data[-4:]
    if struct.unpack("<I", trailer)[0] != zlib.crc32(payload):
        raise ChecksumMismatch("CRC32 trailer does not match container contents")
    (json_len,) = struct.unpack_from("<I", data, 5)
    try:
        doc = json.loads(payload[9:9 + json_len].decode("utf-8"))
        if not isinstance(doc, dict) or not isinstance(doc.get("extra", {}), dict):
            raise SchemaMismatch("model block and its extra must be JSON objects")
        extra = doc.pop("extra", None)
        # save_model writes every field: a missing one is damage, not a default
        missing = [f.name for f in dataclasses.fields(ModelConfig) if f.name not in doc]
        if missing:
            raise SchemaMismatch(f"model block lacks {missing}")
        config = read_block("model", doc, ModelConfig)
    except (ConfigError, ValueError) as exc:
        raise SchemaMismatch(f"bad model config block: {exc}") from None
    shapes = expected_shapes(config)
    offset = 9 + json_len
    expected = offset + 4 * sum(math.prod(shape) for shape in shapes)
    if expected != len(payload):
        raise ChecksumMismatch(
            f"container holds {len(payload)} bytes before its CRC; its config "
            f"implies {expected}")
    tensors = []
    for shape in shapes:
        n = math.prod(shape)
        arr = np.frombuffer(payload, dtype="<f4", count=n, offset=offset)
        tensors.append(arr.reshape(shape).astype(np.float64))
        offset += n * 4
    return ModelParams.from_tensors(config, tensors), extra


def quantize_params(params: ModelParams) -> ModelParams:
    """Round every tensor to its float32 representation (still float64 dtype).

    After this, save/load round-trips the parameters bit-for-bit.
    """
    return ModelParams.from_tensors(
        params.config,
        [t.astype(np.float32).astype(np.float64) for t in params.tensors()])
