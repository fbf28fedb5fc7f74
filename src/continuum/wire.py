"""The one payload codec of the bus: a sorted-key JSON header, then raw array bytes.

    header   the scalar fields as JSON, sorted keys, no whitespace, ASCII only
    NUL      one 0x00 byte, present only when the payload carries arrays
    blobs    each array's raw bytes, back to back, in ascending name order

A payload with arrays lists them in its header under the reserved key
BLOB_TABLE, as [name, dtype, shape] entries in the order the blobs follow, so
`{"epoch": 3, "params": np.zeros(2)}` travels as

    {"__blobs__":[["params","<f8",[2]]],"epoch":3}\\x00<16 raw bytes>

A payload without arrays is the header alone, `{"item_id":7}`. JSON text
escapes control characters, so the first NUL always ends the header. A float
array travels as little-endian float64 ("<f8"), a signed-integer array as
little-endian int64 ("<i8"), row major, through the element codecs
`encode_f64`/`encode_i64`; `unpack` returns it, through `decode_f64`/`decode_i64`,
as a writable native array of its declared shape that owns its memory. Round
trips are bit-exact, NaN payloads included.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

BLOB_TABLE = "__blobs__"

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_decode = json.JSONDecoder().decode


def pack(obj: dict[str, Any]) -> bytes:
    """Header-only JSON when no value is an array; otherwise header, NUL, blobs."""
    if BLOB_TABLE in obj:
        raise ValueError(f"field name {BLOB_TABLE!r} is reserved for the blob table")
    names = sorted(k for k, v in obj.items() if isinstance(v, np.ndarray))
    if not names:
        return _encode(obj).encode("ascii")
    header = {k: v for k, v in obj.items() if not isinstance(v, np.ndarray)}
    table, blobs = [], []
    for name in names:
        arr = obj[name]
        if arr.dtype.kind not in ("f", "i"):
            raise ValueError(f"field {name!r} is a {arr.dtype} array, not float or signed int")
        f8 = arr.dtype.kind == "f"
        table.append([name, "<f8" if f8 else "<i8", list(arr.shape)])
        blobs.append(encode_f64(arr) if f8 else encode_i64(arr))
    header[BLOB_TABLE] = table
    return b"".join([_encode(header).encode("ascii"), b"\0", *blobs])


def unpack(payload: bytes) -> dict[str, Any]:
    """Inverse of `pack`; raises ValueError naming what is malformed."""
    end = payload.find(b"\0")
    obj = _decode(str(payload if end < 0 else payload[:end], "utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("payload header must be a JSON object")
    if end < 0:
        if BLOB_TABLE in obj:
            raise ValueError("payload header has a blob table but no NUL before the blobs")
        return obj
    table = obj.pop(BLOB_TABLE, None)
    if not isinstance(table, list):
        raise ValueError("payload has a NUL after its header but no blob table")
    body = memoryview(payload)[end + 1:]
    offset = 0
    previous = None
    for entry in table:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)):
            raise ValueError(f"blob table entry {entry!r} is not [name, dtype, shape]")
        name, dtype, shape = entry
        if previous is not None and name <= previous:
            raise ValueError(f"blob {name!r} is out of ascending name order")
        if name in obj or name == BLOB_TABLE:
            raise ValueError(f"blob {name!r} collides with a header field")
        if dtype not in ("<f8", "<i8"):
            raise ValueError(f"blob {name!r} has unknown dtype {dtype!r}")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"blob {name!r} has shape {shape!r}, not a list of ints >= 0")
        size = 8 * math.prod(shape)
        if offset + size > len(body):
            raise ValueError(f"blob {name!r} of shape {shape} needs {size} bytes, "
                             f"{len(body) - offset} follow")
        decode = decode_f64 if dtype == "<f8" else decode_i64
        obj[name] = decode(body[offset:offset + size], shape)
        offset, previous = offset + size, name
    if offset != len(body):
        raise ValueError(f"blob table declares {offset} bytes but {len(body)} follow the header")
    return obj


def encode_f64(arr: np.ndarray) -> bytes:
    """Little-endian float64 bytes, row major; exact (bitwise) round trip."""
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def decode_f64(blob: bytes, shape: int | list[int] = -1) -> np.ndarray:
    """A native float64 array of this shape, holding its own copy of the blob."""
    return np.frombuffer(blob, dtype="<f8").reshape(shape).astype(np.float64)


def encode_i64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<i8").tobytes()


def decode_i64(blob: bytes, shape: int | list[int] = -1) -> np.ndarray:
    return np.frombuffer(blob, dtype="<i8").reshape(shape).astype(np.int64)
