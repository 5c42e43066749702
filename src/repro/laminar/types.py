"""Laminar's type system.

Operands are stored in CSPOT logs, so every type must serialize to a
bounded-size byte string. Built-in scalar and array types are provided;
"application-specific types" (the paper's phrase) are created by
instantiating :class:`LaminarType` with custom encode/decode functions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class TypeError_(Exception):
    """A Laminar type violation (bad edge wiring or bad runtime value).

    Named with a trailing underscore to avoid shadowing the builtin.
    """


@dataclass(frozen=True)
class LaminarType:
    """A named type with validation and log-safe serialization.

    Attributes
    ----------
    name:
        Type name used in error messages and graph dumps.
    validate:
        Predicate over Python values.
    encode / decode:
        Byte-string (de)serialization for CSPOT log storage.
    max_encoded_size:
        Upper bound on the encoded size; the runtime sizes operand logs
        with it (CSPOT logs have fixed element sizes).
    """

    name: str
    validate: Callable[[Any], bool]
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]
    max_encoded_size: int = 4096

    def __post_init__(self) -> None:
        if self.max_encoded_size <= 0:
            raise ValueError(f"max_encoded_size must be positive: {self.max_encoded_size}")

    def check(self, value: Any, context: str = "") -> None:
        """Raise :class:`TypeError_` unless ``value`` inhabits this type."""
        if not self.validate(value):
            where = f" in {context}" if context else ""
            raise TypeError_(
                f"value {value!r} is not a valid {self.name}{where}"
            )

    def roundtrip(self, value: Any) -> Any:
        """Encode then decode (used at host boundaries)."""
        return self.decode(self.encode(value))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _encode_i64(v: Any) -> bytes:
    return struct.pack("<q", int(v))


def _encode_f64(v: Any) -> bytes:
    return struct.pack("<d", float(v))


def _encode_bool(v: Any) -> bytes:
    return struct.pack("<?", bool(v))


def _encode_str(v: Any) -> bytes:
    return str(v).encode("utf-8")


def _encode_arr(v: Any) -> bytes:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise TypeError_(f"ARRAY_F64 requires a 1-D array, got shape {arr.shape}")
    return arr.tobytes()


I64 = LaminarType(
    name="i64",
    validate=lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool),
    encode=_encode_i64,
    decode=lambda b: struct.unpack("<q", b)[0],
    max_encoded_size=8,
)

F64 = LaminarType(
    name="f64",
    validate=lambda v: isinstance(v, (float, int, np.floating, np.integer))
    and not isinstance(v, bool),
    encode=_encode_f64,
    decode=lambda b: struct.unpack("<d", b)[0],
    max_encoded_size=8,
)

BOOL = LaminarType(
    name="bool",
    validate=lambda v: isinstance(v, (bool, np.bool_)),
    encode=_encode_bool,
    decode=lambda b: struct.unpack("<?", b)[0],
    max_encoded_size=1,
)

STRING = LaminarType(
    name="string",
    validate=lambda v: isinstance(v, str),
    encode=_encode_str,
    decode=lambda b: b.decode("utf-8"),
    max_encoded_size=4096,
)

ARRAY_F64 = LaminarType(
    name="array<f64>",
    validate=lambda v: (
        isinstance(v, (list, tuple, np.ndarray))
        and np.asarray(v).dtype.kind in "fi"
        and np.asarray(v).ndim == 1
    ),
    encode=_encode_arr,
    decode=lambda b: np.frombuffer(b, dtype=np.float64).copy(),
    max_encoded_size=8 * 4096,
)
