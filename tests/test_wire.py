import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum import wire


def round_trip_f64(values: np.ndarray) -> np.ndarray:
    return wire.decode_f64(wire.unpack(wire.pack({"params": wire.encode_f64(values)}))["params"])


def test_f64_round_trip_is_bit_exact_for_special_values():
    bits = np.array(
        [
            0x8000000000000000,  # -0.0
            0x7FF8000000000123,  # quiet NaN with payload bits
            0xFFF0000000000001,  # signalling NaN, sign bit set
            0x7FF0000000000000,  # +inf
            0xFFF0000000000000,  # -inf
            0x0000000000000001,  # smallest subnormal
            0x800FFFFFFFFFFFFF,  # largest negative subnormal
        ],
        dtype=np.uint64,
    )
    out = round_trip_f64(bits.view(np.float64))
    assert out.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), bits)


def test_empty_arrays_round_trip():
    assert round_trip_f64(np.empty(0)).shape == (0,)
    packed = wire.pack({"labels": wire.encode_i64(np.empty(0, dtype=np.int64))})
    assert wire.decode_i64(wire.unpack(packed)["labels"]).shape == (0,)


def test_i64_round_trip_keeps_the_extremes():
    values = np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max], dtype=np.int64)
    out = wire.decode_i64(wire.unpack(wire.pack({"labels": wire.encode_i64(values)}))["labels"])
    assert out.dtype == np.int64
    assert np.array_equal(out, values)


@given(raw=st.binary(max_size=256).map(lambda b: b[: len(b) // 8 * 8]))
@settings(max_examples=200, deadline=None)
def test_any_float64_bit_pattern_round_trips(raw):
    out = round_trip_f64(np.frombuffer(raw, dtype="<f8"))
    assert out.tobytes() == raw


def test_decoded_arrays_own_writable_memory():
    payload = wire.pack({"params": wire.encode_f64(np.arange(4.0))})
    out = wire.decode_f64(wire.unpack(payload)["params"])
    out[0] = 9.0  # a view into the payload would be read-only
    assert out.flags.owndata


@pytest.mark.parametrize(
    "obj",
    [{"item_id": 7}, {"b": 1, "a": [1, 2.5], "c": "é\x00"}, {}, {"x": None, "y": True}],
)
def test_header_only_payload_is_the_sorted_compact_json(obj):
    expected = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert wire.pack(obj) == expected
    assert wire.unpack(expected) == obj


def test_byte_layout_is_header_nul_then_blobs_in_name_order():
    payload = wire.pack({"epoch": 3, "zeta": b"zz", "alpha": wire.encode_f64(np.array([1.0, 2.0]))})
    assert payload == (
        b'{"__blobs__":[["alpha",16],["zeta",2]],"epoch":3}\x00'
        + struct.pack("<2d", 1.0, 2.0)
        + b"zz"
    )
    msg = wire.unpack(payload)
    assert msg["epoch"] == 3 and bytes(msg["zeta"]) == b"zz"
    assert wire.pack(msg) == payload  # unpacked blobs pack back unchanged


def test_nul_bytes_in_strings_and_blobs_do_not_end_the_header_early():
    obj = {"name": "a\x00b", "blob": b"\x00\x00{}\x00"}
    msg = wire.unpack(wire.pack(obj))
    assert msg["name"] == "a\x00b"
    assert bytes(msg["blob"]) == obj["blob"]


@pytest.mark.parametrize(
    "payload, cause",
    [
        (b'{"a":1}\x00abc', "no blob table"),
        (b'{"__blobs__":[["a",2]]}\x00abc', "declares 2 bytes but 3 follow"),
        (b'{"__blobs__":[["a",5]]}\x00abc', "declares 5 bytes but 3 follow"),
        (b'[1,2]', "must be a JSON object"),
        (b'[["a",1]]\x00x', "must be a JSON object"),
        (b'{"__blobs__":[]}', "blob table but no NUL"),
        (b'{"__blobs__":[["a",1]],"a":1}\x00x', "'a' collides with a header field"),
        (b'{"__blobs__":[["__blobs__",1]]}\x00x', "collides with a header field"),
        (b'{"__blobs__":[["b",1],["a",1]]}\x00xy', "'a' is out of ascending name order"),
        (b'{"__blobs__":[["a",1],["a",1]]}\x00xy', "out of ascending name order"),
        (b'{"__blobs__":[["a",-1]]}\x00', "is not \\[name, byte length\\]"),
        (b'{"__blobs__":{"a":1}}\x00x', "no blob table"),
        (b'{not json', "Expecting property name"),
    ],
)
def test_malformed_payload_raises_value_error_naming_the_cause(payload, cause):
    with pytest.raises(ValueError, match=cause):
        wire.unpack(payload)


def test_a_field_named_with_the_reserved_key_is_refused():
    with pytest.raises(ValueError, match="reserved for the blob table"):
        wire.pack({wire.BLOB_TABLE: 1})
    with pytest.raises(ValueError, match="reserved for the blob table"):
        wire.pack({wire.BLOB_TABLE: b"x"})


def test_a_blob_that_is_not_whole_float64s_fails_to_decode():
    payload = wire.pack({"params": b"\x00" * 12})
    with pytest.raises(ValueError):
        wire.decode_f64(wire.unpack(payload)["params"])
