"""Model container format: round trips, corruption detection, size bounds."""

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from pulsesense.dsp import read_segment_dump, run_pipeline, write_segment_dump
from pulsesense.errors import (
    BadMagic,
    ChecksumMismatch,
    DataError,
    NonFiniteSample,
    NonFiniteWeight,
    PulseSenseError,
    SchemaMismatch,
)
from pulsesense.ingest import CsiStream, LabelSeries, align
from pulsesense.nn import (
    ModelConfig,
    count_parameters,
    init_params,
    load_model,
    save_model,
)


def small_params(seed=0, head="regression"):
    cfg = ModelConfig(input_dim=3, lstm1_units=4, lstm2_units=3,
                      dense_units=5, head=head)
    # float32-representable weights, which save/load keeps bit for bit
    return load_model(save_model(init_params(cfg, seed)))[0]


class TestRoundTrip:
    def test_params_round_trip_bit_identical(self):
        params = small_params()
        loaded, extra = load_model(save_model(params))
        assert extra is None
        assert loaded.config == params.config
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a, b)

    def test_bytes_round_trip_identical(self):
        data = save_model(small_params(seed=3, head="binary"))
        loaded, _ = load_model(data)
        assert save_model(loaded) == data

    def test_extra_metadata_round_trips(self):
        extra = {"pipeline": {"mode": "heart", "window_s": 5.0}}
        _, got = load_model(save_model(small_params(), extra=extra))
        assert got == extra

    def test_random_weights_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            cfg = ModelConfig(input_dim=int(rng.integers(1, 10)),
                              lstm1_units=int(rng.integers(1, 10)),
                              lstm2_units=int(rng.integers(1, 10)),
                              dense_units=int(rng.integers(1, 10)),
                              head="binary" if rng.random() < 0.5 else "regression")
            params = load_model(save_model(init_params(cfg, int(rng.integers(0, 100)))))[0]
            loaded, _ = load_model(save_model(params))
            for a, b in zip(params.tensors(), loaded.tensors()):
                assert np.array_equal(a, b)


    def test_golden_container_bytes(self):
        """The container layout, JSON block included, is frozen: a full-size
        model with a stored pipeline hashes to the same bytes as ever."""
        data = save_model(init_params(ModelConfig(input_dim=64), 7),
                          extra={"pipeline": {"mode": "heart"}, "window_packets": 400})
        assert len(data) == 184135
        assert hashlib.sha256(data).hexdigest() == (
            "fc8f8fa270e4b84d4a589b95704bef08ff24832124ac62a18d2a74d24c2fb6f5")


class TestCorruption:
    def test_bad_magic(self):
        data = save_model(small_params())
        with pytest.raises(BadMagic):
            load_model(b"XXXXX" + data[5:])

    def test_truncated_file(self):
        data = save_model(small_params())
        with pytest.raises(ChecksumMismatch):
            load_model(data[:-9])

    def test_flipped_byte(self):
        data = bytearray(save_model(small_params()))
        data[30] ^= 0xFF
        with pytest.raises(ChecksumMismatch):
            load_model(bytes(data))

    @pytest.mark.parametrize("name", ["w1", "u2", "head_b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_with_a_valid_crc_is_refused(self, name, bad):
        """A container whose CRC holds but whose tensor holds a NaN or an
        infinity is a data error naming the tensor, not a model whose every
        prediction is non-finite."""
        params = small_params()
        getattr(params, name).flat[-1] = bad
        with pytest.raises(NonFiniteWeight, match=f"tensor {name} ") as exc:
            load_model(save_model(params))
        assert isinstance(exc.value, DataError)


def _small_dump() -> bytes:
    t = np.arange(60) / 20.0
    stream = CsiStream(t, 1.0 + np.sin(np.outer(t, [1.0, 2.0])), 20.0)
    labels = LabelSeries("heart_rate_bpm", t, np.full(60, 72.0))
    return write_segment_dump(run_pipeline(align(stream, labels), "heart", 1.0, 7))


class TestDumpValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["value", "label"])
    def test_non_finite_record_refused(self, bad, field):
        data = bytearray(_small_dump())
        count, w, s = struct.unpack_from("<III", data, 6)
        record = 4 * (w * s + 1)
        offset = 18 + 2 * record + (4 * w * s if field == "label" else 4 * (w * s // 2))
        struct.pack_into("<f", data, offset, bad)
        with pytest.raises(NonFiniteSample, match=f"record 2 .*non-finite {field}"):
            read_segment_dump(bytes(data))

    def test_finite_dump_reads_back(self):
        values, labels = read_segment_dump(_small_dump())
        assert np.isfinite(values).all() and np.all(labels == 72.0)


def _sealed(payload: bytes) -> bytes:
    """payload plus a matching CRC32 trailer, so load_model reads the body."""
    return payload + struct.pack("<I", zlib.crc32(payload))


HOSTILE_JSON = [None, True, -1, 0, 2 ** 70, 1e308, float("nan"), "x", [], {}, [1, 2]]


def _with_block(data: bytes, doc) -> bytes:
    """The container ``data`` with its JSON block replaced by ``doc``."""
    (json_len,) = struct.unpack_from("<I", data, 5)
    blob = json.dumps(doc).encode()
    return data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + json_len:-4]


@pytest.mark.parametrize("key,value", [
    ("input_dim", 3.9), ("input_dim", "3"), ("input_dim", True),
    ("lstm1_units", 4.7), ("dropout_rate", "0.2"), ("head", None),
])
def test_config_values_of_the_wrong_type_are_refused(key, value):
    """The stored config is read as a config block is, never converted:
    3.9 is not read as 3, nor "0.2" as 0.2."""
    data = save_model(small_params())
    (json_len,) = struct.unpack_from("<I", data, 5)
    doc = dict(json.loads(data[9:9 + json_len]), **{key: value})
    with pytest.raises(SchemaMismatch, match=f"model.{key} must be "):
        load_model(_sealed(_with_block(data, doc)))


def test_config_missing_a_field_is_refused():
    """save_model writes every field, so a missing one is damage, not a
    default."""
    data = save_model(small_params())
    (json_len,) = struct.unpack_from("<I", data, 5)
    doc = json.loads(data[9:9 + json_len])
    del doc["dropout_rate"]
    with pytest.raises(SchemaMismatch, match="dropout_rate"):
        load_model(_sealed(_with_block(data, doc)))


def _damaged(rng, data: bytes) -> bytes:
    """One seeded truncation, run of bit flips, or tail of extra bytes."""
    kind = rng.integers(3)
    if kind == 0:
        return data[:int(rng.integers(len(data)))]
    if kind == 1:
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 5))):
            buf[int(rng.integers(len(buf)))] ^= 1 << int(rng.integers(8))
        return bytes(buf)
    return data + bytes(rng.integers(0, 256, int(rng.integers(1, 9)), dtype=np.uint8))


class TestFuzz:
    """Seeded damage to the two binary readers: only PulseSenseError escapes."""

    def test_load_model(self):
        rng = np.random.default_rng(11)
        data = save_model(small_params(), extra={"pipeline": {"mode": "heart"},
                                                 "window_packets": 100})
        (json_len,) = struct.unpack_from("<I", data, 5)
        doc = json.loads(data[9:9 + json_len])
        for i in range(600):
            if i % 2:
                payload = _damaged(rng, data[:-4])
            else:  # one JSON value replaced, dropped, or the block not an object
                edited = dict(doc)
                key = sorted(doc)[int(rng.integers(len(doc)))]
                choice = int(rng.integers(len(HOSTILE_JSON) + 2))
                if choice == len(HOSTILE_JSON):
                    del edited[key]
                elif choice == len(HOSTILE_JSON) + 1:
                    edited = [edited]
                else:
                    edited[key] = HOSTILE_JSON[choice]
                payload = _with_block(data, edited)
            try:
                params, extra = load_model(_sealed(payload))
            except PulseSenseError:
                continue
            # what loads is what the block says: saved again, it gives the
            # same bytes (an empty extra is saved as none)
            assert save_model(params, extra) == _sealed(payload) or extra == {}

    def test_read_segment_dump(self):
        rng = np.random.default_rng(12)
        data = _small_dump()
        for i in range(600):
            if i % 2:
                damaged = _damaged(rng, data)
            else:  # one header field set to a seeded u32
                fields = list(struct.unpack_from("<III", data, 6))
                fields[int(rng.integers(3))] = int(rng.choice(
                    [0, 1, 2 ** 32 - 1, int(rng.integers(2 ** 32))]))
                damaged = data[:6] + struct.pack("<III", *fields) + data[18:]
            try:
                read_segment_dump(damaged)
            except PulseSenseError:
                pass


class TestSize:
    def test_full_model_file_size_window(self):
        """45,985 float32 weights plus a small header: expect the file inside
        [0.9, 1.3]x the raw tensor bytes + 4 KiB."""
        cfg = ModelConfig(input_dim=64)
        data = save_model(load_model(save_model(init_params(cfg, 0)))[0])
        raw = count_parameters(cfg) * 4
        assert 0.9 * raw <= len(data) <= 1.3 * raw + 4096
