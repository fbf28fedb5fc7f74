import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from continuum import wire


def round_trip(values: np.ndarray) -> np.ndarray:
    return wire.unpack(wire.pack({"params": values}))["params"]


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
    out = round_trip(bits.view(np.float64))
    assert out.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), bits)


def test_empty_arrays_round_trip():
    assert round_trip(np.empty(0)).shape == (0,)
    packed = wire.pack({"labels": np.empty(0, dtype=np.int64)})
    assert wire.unpack(packed)["labels"].shape == (0,)
    assert round_trip(np.empty((3, 0))).shape == (3, 0)


def test_i64_round_trip_keeps_the_extremes():
    values = np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max], dtype=np.int64)
    out = round_trip(values)
    assert out.dtype == np.int64
    assert np.array_equal(out, values)


def test_arrays_travel_as_f8_or_i8_in_their_shape():
    out = wire.unpack(wire.pack({
        "features": np.arange(6, dtype=np.float32).reshape(2, 3),
        "labels": np.array([[1], [2]], dtype=np.int8),
        "scalar": np.array(2.5),
    }))
    assert out["features"].dtype == np.float64 and out["features"].shape == (2, 3)
    assert np.array_equal(out["features"], np.arange(6.0).reshape(2, 3))
    assert out["labels"].dtype == np.int64 and out["labels"].shape == (2, 1)
    assert out["scalar"].shape == () and out["scalar"] == 2.5


@given(raw=st.binary(max_size=256).map(lambda b: b[: len(b) // 8 * 8]))
@settings(max_examples=200, deadline=None)
def test_any_float64_bit_pattern_round_trips(raw):
    out = round_trip(np.frombuffer(raw, dtype="<f8"))
    assert out.tobytes() == raw


def test_unpacked_arrays_own_writable_memory():
    payload = wire.pack({"params": np.arange(4.0), "grid": np.arange(6).reshape(2, 3)})
    for out in wire.unpack(payload).values():
        out.flat[0] = 9  # a view into the payload would be read-only
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
    payload = wire.pack({"epoch": 3, "zeta": np.array([[7], [8]]), "alpha": np.array([1.0, 2.0])})
    assert payload == (
        b'{"__blobs__":[["alpha","<f8",[2]],["zeta","<i8",[2,1]]],"epoch":3}\x00'
        + struct.pack("<2d", 1.0, 2.0)
        + struct.pack("<2q", 7, 8)
    )
    msg = wire.unpack(payload)
    assert msg["epoch"] == 3 and msg["zeta"].tolist() == [[7], [8]]
    assert wire.pack(msg) == payload  # unpacked arrays pack back unchanged


def test_nul_bytes_in_strings_and_blobs_do_not_end_the_header_early():
    obj = {"name": "a\x00b", "blob": np.array([0, 0x7B7D, 0])}  # 0x7B7D is b"}{" little-endian
    msg = wire.unpack(wire.pack(obj))
    assert msg["name"] == "a\x00b"
    assert np.array_equal(msg["blob"], obj["blob"])


@pytest.mark.parametrize(
    "payload, cause",
    [
        (b'{"a":1}\x00abc', "no blob table"),
        (b'{"__blobs__":[["a","<i8",[2]]]}\x00' + bytes(17), "declares 16 bytes but 17 follow"),
        (b'{"__blobs__":[["a","<f8",[5]]]}\x00' + bytes(24),
         "'a' of shape \\[5\\] needs 40 bytes, 24 follow"),
        (b'[1,2]', "must be a JSON object"),
        (b'[["a",1]]\x00x', "must be a JSON object"),
        (b'{"__blobs__":[]}', "blob table but no NUL"),
        (b'{"__blobs__":[["a","<f8",[1]]],"a":1}\x00' + bytes(8),
         "'a' collides with a header field"),
        (b'{"__blobs__":[["__blobs__","<f8",[1]]]}\x00' + bytes(8), "collides with a header field"),
        (b'{"__blobs__":[["b","<f8",[1]],["a","<f8",[1]]]}\x00' + bytes(16),
         "'a' is out of ascending name order"),
        (b'{"__blobs__":[["a","<f8",[1]],["a","<f8",[1]]]}\x00' + bytes(16),
         "out of ascending name order"),
        (b'{"__blobs__":[["a",8]]}\x00' + bytes(8), "is not \\[name, dtype, shape\\]"),
        (b'{"__blobs__":{"a":1}}\x00x', "no blob table"),
        (b'{not json', "Expecting property name"),
        # malformed table entries
        (b'{"__blobs__":[["a","<f4",[2]]]}\x00' + bytes(8), "'a' has unknown dtype '<f4'"),
        (b'{"__blobs__":[["a",null,[1]]]}\x00' + bytes(8), "'a' has unknown dtype None"),
        (b'{"__blobs__":[["a","<f8",[-1]]]}\x00', "'a' has shape \\[-1\\], not a list of ints"),
        (b'{"__blobs__":[["a","<f8",[2.0]]]}\x00' + bytes(16), "'a' has shape \\[2.0\\]"),
        (b'{"__blobs__":[["a","<i8",[true]]]}\x00' + bytes(8), "'a' has shape \\[True\\]"),
        (b'{"__blobs__":[["a","<i8",2]]}\x00' + bytes(16), "'a' has shape 2, not a list"),
        (b'{"__blobs__":[["a","<f8",[2,3]]]}\x00' + bytes(40),
         "'a' of shape \\[2, 3\\] needs 48 bytes, 40 follow"),
        (b'{"__blobs__":[["a","<f8",[2,3]]]}\x00' + bytes(56), "declares 48 bytes but 56 follow"),
        (b'{"__blobs__":[["a","<f8",[1]],["b","<i8",[2]]]}\x00' + bytes(16),
         "'b' of shape \\[2\\] needs 16 bytes, 8 follow"),
    ],
)
def test_malformed_payload_raises_value_error_naming_the_cause(payload, cause):
    with pytest.raises(ValueError, match=cause):
        wire.unpack(payload)


def test_a_field_named_with_the_reserved_key_is_refused():
    with pytest.raises(ValueError, match="reserved for the blob table"):
        wire.pack({wire.BLOB_TABLE: 1})
    with pytest.raises(ValueError, match="reserved for the blob table"):
        wire.pack({wire.BLOB_TABLE: np.zeros(1)})


@pytest.mark.parametrize("dtype", [np.bool_, np.uint64, np.complex128, np.str_])
def test_an_array_that_is_not_float_or_signed_int_is_refused_naming_its_field(dtype):
    with pytest.raises(ValueError, match="field 'mask' is a"):
        wire.pack({"epoch": 1, "mask": np.zeros(2, dtype=dtype)})


def test_bytes_are_not_a_blob_value():
    with pytest.raises(TypeError):
        wire.pack({"params": b"\x00" * 16})


def test_the_table_alone_decides_a_blobs_dtype():
    payload = bytearray(wire.pack({"labels": np.array([1, 2])}))
    payload[payload.index(b"<i8") + 1] = ord("f")  # the table now says <f8: the bits stay
    assert wire.unpack(bytes(payload))["labels"].dtype == np.float64
    payload[payload.index(b"<f8") + 2] = ord("4")  # an unknown dtype: refused
    with pytest.raises(ValueError, match="unknown dtype '<f4'"):
        wire.unpack(bytes(payload))


# --- properties ---

_SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=6)
            | st.floats(allow_nan=False))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_ARRAYS = (hnp.arrays(np.uint64, _SHAPES).map(lambda a: a.view(np.float64))  # NaN bits too
           | hnp.arrays(np.int64, _SHAPES))
_FIELDS = st.dictionaries(
    st.text(max_size=5).filter(lambda k: k != wire.BLOB_TABLE), _SCALARS | _ARRAYS, max_size=5
)


def assert_same_fields(out: dict, obj: dict) -> None:
    assert out.keys() == obj.keys()
    for key, value in obj.items():
        if isinstance(value, np.ndarray):
            assert out[key].dtype == value.dtype and out[key].shape == value.shape
            assert out[key].tobytes() == value.tobytes()
        else:
            assert out[key] == value and type(out[key]) is type(value)


@given(obj=_FIELDS)
@settings(max_examples=300, deadline=None)
def test_scalars_and_arrays_round_trip_bit_for_bit_with_dtype_and_shape(obj):
    assert_same_fields(wire.unpack(wire.pack(obj)), obj)


def assert_arrays_match_their_table(payload: bytes) -> None:
    """Unpack either refuses the payload or gives each blob its table entry's dtype and shape."""
    try:
        out = wire.unpack(payload)
    except ValueError:
        return
    end = payload.find(b"\0")
    table = [] if end < 0 else json.loads(payload[:end])[wire.BLOB_TABLE]
    arrays = {k: v for k, v in out.items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == [name for name, _, _ in table]
    for name, dtype, shape in table:
        assert arrays[name].dtype == np.dtype(dtype) and arrays[name].shape == tuple(shape)
        assert arrays[name].flags.owndata and arrays[name].flags.writeable


# bytes that change a header's structure: a digit, a sign, a separator, a quote, a NUL
_HEADER_BYTES = b'04-.,[]"f\x00'


@given(obj=_FIELDS, data=st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_or_mutated_payloads_raise_value_error_or_match_their_table(obj, data):
    payload = wire.pack(obj)
    for cut in range(len(payload)):
        assert_arrays_match_their_table(payload[:cut])
    header_end = payload.find(b"\0")
    for at in range(header_end if header_end >= 0 else len(payload)):
        for byte in _HEADER_BYTES:
            assert_arrays_match_their_table(payload[:at] + bytes([byte]) + payload[at + 1:])
    at = data.draw(st.integers(0, len(payload) - 1))
    byte = data.draw(st.integers(0, 255))
    assert_arrays_match_their_table(payload[:at] + bytes([byte]) + payload[at + 1:])
