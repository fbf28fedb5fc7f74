"""The one payload codec of the bus: a sorted-key JSON header, then raw array bytes.

    header   the scalar fields as JSON, sorted keys, no whitespace, ASCII only
    NUL      one 0x00 byte, present only when the payload carries arrays
    blobs    each array's raw bytes, back to back, in ascending name order

A payload with arrays lists them in its header under the reserved key
BLOB_TABLE, as [name, byte length] pairs in the order the blobs follow, so
`{"epoch": 3, "params": <16 bytes>}` travels as

    {"__blobs__":[["params",16]],"epoch":3}\\x00<16 raw bytes>

A payload without arrays is the header alone, `{"item_id":7}`. JSON text
escapes control characters, so the first NUL always ends the header. Arrays
travel as little-endian bytes: `encode_f64`/`encode_i64` give `<f8`/`<i8`
bytes, which `pack` takes as field values, and `unpack` returns those fields as
read-only memoryviews into the payload, which `decode_f64`/`decode_i64` copy
once into a native array. Round trips are bit-exact, NaN payloads included.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

BLOB_TABLE = "__blobs__"

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_decode = json.JSONDecoder().decode
_BLOB_TYPES = (bytes, bytearray, memoryview)


def pack(obj: dict[str, Any]) -> bytes:
    """Header-only JSON when no value is bytes-like; otherwise header, NUL, blobs."""
    if BLOB_TABLE in obj:
        raise ValueError(f"field name {BLOB_TABLE!r} is reserved for the blob table")
    names = sorted(k for k, v in obj.items() if isinstance(v, _BLOB_TYPES))
    if not names:
        return _encode(obj).encode("ascii")
    blobs = [memoryview(obj[k]).cast("B") for k in names]
    header = {k: v for k, v in obj.items() if not isinstance(v, _BLOB_TYPES)}
    header[BLOB_TABLE] = [[k, len(b)] for k, b in zip(names, blobs)]
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
    body = memoryview(payload)[end + 1:].toreadonly()
    offset = 0
    previous = None
    for entry in table:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and type(entry[1]) is int and entry[1] >= 0):
            raise ValueError(f"blob table entry {entry!r} is not [name, byte length]")
        name, size = entry
        if previous is not None and name <= previous:
            raise ValueError(f"blob {name!r} is out of ascending name order")
        if name in obj or name == BLOB_TABLE:
            raise ValueError(f"blob {name!r} collides with a header field")
        obj[name] = body[offset:offset + size]
        offset += size
        previous = name
    if offset != len(body):
        raise ValueError(
            f"blob table declares {offset} bytes but {len(body)} follow the header"
        )
    return obj


def encode_f64(arr: np.ndarray) -> bytes:
    """Little-endian float64 bytes; exact (bitwise) round trip."""
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def decode_f64(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<f8").astype(np.float64)


def encode_i64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<i8").tobytes()


def decode_i64(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<i8").astype(np.int64)
