"""Marshalling: byte-size measurement and wire encoding of guest values.

Two jobs live here:

* :func:`deep_size` — the byte accounting used for *every* interaction,
  local or remote.  The paper's execution graph annotates each edge with
  "the total amount of information transferred between objects of the
  classes as represented by the parameters and return values", so sizes
  are measured uniformly whether or not a call actually crosses the
  network.
* :func:`encode_value` / :func:`decode_value` — the wire format used by
  the RPC channel between two VMs.  Guest objects travel *by reference*
  (an 8-byte handle resolved through the reference-mapping tables);
  primitives travel by value.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple, Union

from ..errors import RemoteInvocationError
from ..vm.objectmodel import JArray, JObject

#: Wire overhead charged per RPC message (headers, opcode, request id).
MESSAGE_HEADER_BYTES = 32

#: Size of one object reference handle on the wire.
REFERENCE_BYTES = 8

#: Fixed overhead of an encoded string (length + tag) before its chars.
STRING_HEADER_BYTES = 24

#: Per-character size (UTF-16, as in Java).
CHAR_BYTES = 2

#: Fixed sizes by exact type: scalars, and guest objects and arrays,
#: which travel as a reference handle.
_FIXED_SIZES = {
    bool: 1,
    int: 8,
    float: 8,
    type(None): 8,
    JObject: REFERENCE_BYTES,
    JArray: REFERENCE_BYTES,
}

#: Memoised sizes for short strings (method names, field names, class
#: names recur on every interaction); bounded so a pathological guest
#: cannot grow it without limit.
_SMALL_STRING_MAX_LEN = 64
_SMALL_STRING_CACHE_CAP = 4096
_small_string_sizes: Dict[str, int] = {}


def reset_size_cache() -> None:
    """Clear the small-string size memo.

    The memo is module-global so the hot path stays a single dict
    lookup, which means it leaks state across tests and benchmark
    rounds; fixtures call this between runs so no run observes another
    run's cache occupancy (sizes themselves are pure, but eviction
    order and capacity behaviour are not).
    """
    _small_string_sizes.clear()


def deep_size(value: Any) -> int:
    """Measure the marshalled size of one guest value in bytes.

    Scalars, guest references and strings — the overwhelming majority
    of marshalled values — resolve through an exact-type fast path
    before any ``isinstance`` dispatch; short strings are memoised.

    >>> deep_size(42)
    8
    >>> deep_size("ab")
    28
    >>> deep_size((1, 2.0, None))
    40
    """
    value_type = type(value)
    size = _FIXED_SIZES.get(value_type)
    if size is not None:
        return size
    if value_type is str:
        size = _small_string_sizes.get(value)
        if size is not None:
            return size
        size = STRING_HEADER_BYTES + CHAR_BYTES * len(value)
        if len(value) <= _SMALL_STRING_MAX_LEN:
            if len(_small_string_sizes) >= _SMALL_STRING_CACHE_CAP:
                # Evict the oldest entry (insertion order) so hot names
                # seen after the cap still get memoised, instead of the
                # cache freezing at whatever filled it first.
                _small_string_sizes.pop(next(iter(_small_string_sizes)))
            _small_string_sizes[value] = size
        return size
    if isinstance(value, JObject):
        return REFERENCE_BYTES
    if isinstance(value, str):
        return STRING_HEADER_BYTES + CHAR_BYTES * len(value)
    if isinstance(value, (tuple, list)):
        return 16 + sum(deep_size(item) for item in value)
    if isinstance(value, dict):
        return 16 + sum(
            deep_size(k) + deep_size(v) for k, v in value.items()
        )
    raise RemoteInvocationError(
        f"value of type {value_type.__name__} cannot be marshalled"
    )


def args_size(args: Tuple[Any, ...]) -> int:
    """Total marshalled size of a parameter tuple (without the header).

    Runs once per guest invocation: a fixed-size argument (most are
    references or scalars) is sized here without a :func:`deep_size`
    call.
    """
    total = 0
    for arg in args:
        size = _FIXED_SIZES.get(type(arg))
        total += deep_size(arg) if size is None else size
    return total


# -- wire encoding ----------------------------------------------------------
#
# The encoded form is a small JSON-able structure.  Object references are
# encoded as ``{"$ref": <token>}`` where the token names the owning VM's
# namespace and the handle within it — the two VMs deliberately do not
# share an object-reference namespace (paper section 3.2), so a bare
# handle would be ambiguous the moment a call carries references in both
# directions.

Encoded = Union[None, bool, int, float, str, List, Dict]


def encode_value(value: Any, export_ref) -> Encoded:
    """Encode one value for the wire.

    ``export_ref(obj)`` is called for each :class:`JObject` and must
    return a JSON-able token (typically ``{"owner": site, "handle": n}``)
    that the receiving side's ``resolve_ref`` understands.
    """
    if isinstance(value, JObject):
        return {"$ref": export_ref(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [encode_value(item, export_ref) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise RemoteInvocationError("dict keys on the wire must be str")
            if key.startswith("$"):
                raise RemoteInvocationError(
                    f"dict key {key!r} collides with wire tags"
                )
            encoded[key] = encode_value(item, export_ref)
        return encoded
    raise RemoteInvocationError(
        f"value of type {type(value).__name__} cannot be encoded"
    )


def decode_value(encoded: Encoded, resolve_ref) -> Any:
    """Decode one wire value.

    ``resolve_ref(token)`` must translate a reference token produced by
    the sender's ``export_ref`` into a live object (possibly a stub for
    a still-remote object).
    """
    if isinstance(encoded, dict):
        if "$ref" in encoded:
            return resolve_ref(encoded["$ref"])
        return {k: decode_value(v, resolve_ref) for k, v in encoded.items()}
    if isinstance(encoded, list):
        return [decode_value(item, resolve_ref) for item in encoded]
    return encoded


def message_size(payload_bytes: int) -> int:
    """Total on-wire size of a message with the given payload."""
    if payload_bytes < 0:
        raise RemoteInvocationError("payload size cannot be negative")
    return MESSAGE_HEADER_BYTES + payload_bytes


# -- compact binary wire format ---------------------------------------------
#
# The RPC channel's original encoding was a JSON-shaped dict tree: every
# method name, field name, and class name travelled as a full string on
# every message.  The binary format below replaces it.  Values are
# tag-prefixed; class/method/field names (and any other short string)
# are *interned* per channel direction — the first use ships the string
# once with a 2-byte id, every later use ships only the id.  Recurring
# names are the bulk of RPC metadata, so steady-state messages shrink to
# a few bytes of framing plus the actual argument payload.

#: Format version, first byte of every encoded message.
WIRE_FORMAT_VERSION = 1

#: On-wire cost of an interned-name reference (tag + 2-byte id).
INTERNED_NAME_BYTES = 3

_TAG_NULL = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR_DEF = 0x05
_TAG_STR_REF = 0x06
_TAG_STR_RAW = 0x07
_TAG_REF = 0x08
_TAG_LIST = 0x09
_TAG_DICT = 0x0A

#: Strings longer than this are never interned (one-off payload text).
INTERN_MAX_LEN = _SMALL_STRING_MAX_LEN

#: A 2-byte id space per direction; beyond it, strings ship raw.
INTERN_TABLE_CAP = 0xFFFF

_pack_f64 = struct.Struct(">d").pack
_unpack_f64 = struct.Struct(">d").unpack_from
_pack_u16 = struct.Struct(">H").pack
_unpack_u16 = struct.Struct(">H").unpack_from


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise RemoteInvocationError("truncated varint on the wire")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    """Map signed to unsigned so small magnitudes stay small (any width)."""
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value + 1) // 2


class InternTable:
    """Per-direction string table: first use ships the string, later
    uses ship a 2-byte id.

    Sender and receiver state live in one object because the modelled
    channel's two endpoints share the process; the encoder assigns ids
    in first-use order and the decoder learns them from ``STR_DEF``
    entries in the same stream, so the table can never desynchronise.
    """

    def __init__(self, capacity: int = INTERN_TABLE_CAP) -> None:
        if capacity < 1:
            raise RemoteInvocationError("intern table needs capacity >= 1")
        self.capacity = capacity
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def __len__(self) -> int:
        return len(self._names)

    def intern(self, name: str) -> Tuple[int, bool]:
        """Return ``(id, is_new)``; raises when the table is full."""
        ident = self._ids.get(name)
        if ident is not None:
            return ident, False
        if len(self._names) >= self.capacity:
            raise RemoteInvocationError("intern table full")
        ident = len(self._names)
        self._ids[name] = ident
        self._names.append(name)
        return ident, True

    def can_intern(self, name: str) -> bool:
        return name in self._ids or len(self._names) < self.capacity

    def lookup(self, ident: int) -> str:
        if 0 <= ident < len(self._names):
            return self._names[ident]
        raise RemoteInvocationError(f"unknown interned-string id {ident}")

    def learn(self, ident: int, name: str) -> None:
        """Decoder side of a ``STR_DEF``: register an id seen on the wire."""
        if ident != len(self._names):
            raise RemoteInvocationError(
                f"out-of-order intern definition {ident} "
                f"(expected {len(self._names)})"
            )
        self._ids[name] = ident
        self._names.append(name)


class WireCodec:
    """Binary encoder/decoder for one direction of one channel.

    Encoding and decoding share the codec's intern table; a value
    encoded by this codec must be decoded by the same codec (or its
    mirrored peer) so interned ids resolve.  ``export_ref(obj)`` must
    return ``(owner_site, handle)``; ``resolve_ref(owner_site, handle)``
    is its inverse on the receiving side.
    """

    def __init__(self) -> None:
        self.names = InternTable()
        self.messages_encoded = 0
        self.bytes_encoded = 0

    # -- encoding ----------------------------------------------------------

    def encode(self, value: Any, export_ref) -> bytes:
        out = bytearray([WIRE_FORMAT_VERSION])
        self._encode_value(out, value, export_ref)
        self.messages_encoded += 1
        self.bytes_encoded += len(out)
        return bytes(out)

    def _encode_str(self, out: bytearray, value: str) -> None:
        if len(value) <= INTERN_MAX_LEN and self.names.can_intern(value):
            ident, is_new = self.names.intern(value)
            if is_new:
                raw = value.encode("utf-8")
                out.append(_TAG_STR_DEF)
                out += _pack_u16(ident)
                _write_varint(out, len(raw))
                out += raw
            else:
                out.append(_TAG_STR_REF)
                out += _pack_u16(ident)
            return
        raw = value.encode("utf-8")
        out.append(_TAG_STR_RAW)
        _write_varint(out, len(raw))
        out += raw

    def _encode_value(self, out: bytearray, value: Any, export_ref) -> None:
        if isinstance(value, JObject):
            owner, handle = export_ref(value)
            out.append(_TAG_REF)
            self._encode_str(out, owner)
            _write_varint(out, handle)
            return
        if value is None:
            out.append(_TAG_NULL)
            return
        if isinstance(value, bool):
            out.append(_TAG_TRUE if value else _TAG_FALSE)
            return
        if isinstance(value, int):
            out.append(_TAG_INT)
            _write_varint(out, _zigzag(value))
            return
        if isinstance(value, float):
            out.append(_TAG_FLOAT)
            out += _pack_f64(value)
            return
        if isinstance(value, str):
            self._encode_str(out, value)
            return
        if isinstance(value, (tuple, list)):
            out.append(_TAG_LIST)
            _write_varint(out, len(value))
            for item in value:
                self._encode_value(out, item, export_ref)
            return
        if isinstance(value, dict):
            out.append(_TAG_DICT)
            _write_varint(out, len(value))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise RemoteInvocationError(
                        "dict keys on the wire must be str"
                    )
                self._encode_str(out, key)
                self._encode_value(out, item, export_ref)
            return
        raise RemoteInvocationError(
            f"value of type {type(value).__name__} cannot be encoded"
        )

    # -- decoding ----------------------------------------------------------

    def decode(self, data: bytes, resolve_ref) -> Any:
        if not data or data[0] != WIRE_FORMAT_VERSION:
            raise RemoteInvocationError(
                f"unsupported wire format {data[:1]!r}"
            )
        value, pos = self._decode_value(data, 1, resolve_ref)
        if pos != len(data):
            raise RemoteInvocationError(
                f"{len(data) - pos} trailing bytes after wire value"
            )
        return value

    def _decode_str(self, data: bytes, pos: int) -> Tuple[str, int]:
        tag = data[pos]
        pos += 1
        if tag == _TAG_STR_REF:
            (ident,) = _unpack_u16(data, pos)
            return self.names.lookup(ident), pos + 2
        if tag == _TAG_STR_DEF:
            (ident,) = _unpack_u16(data, pos)
            length, pos = _read_varint(data, pos + 2)
            name = data[pos:pos + length].decode("utf-8")
            if ident >= len(self.names):
                # Fresh definition (decode of a peer-encoded message);
                # re-decoding our own encoder output finds it present.
                self.names.learn(ident, name)
            return name, pos + length
        if tag == _TAG_STR_RAW:
            length, pos = _read_varint(data, pos)
            return data[pos:pos + length].decode("utf-8"), pos + length
        raise RemoteInvocationError(f"expected a string tag, got {tag:#x}")

    def _decode_value(self, data: bytes, pos: int,
                      resolve_ref) -> Tuple[Any, int]:
        if pos >= len(data):
            raise RemoteInvocationError("truncated wire value")
        tag = data[pos]
        if tag == _TAG_NULL:
            return None, pos + 1
        if tag == _TAG_TRUE:
            return True, pos + 1
        if tag == _TAG_FALSE:
            return False, pos + 1
        if tag == _TAG_INT:
            raw, pos = _read_varint(data, pos + 1)
            return _unzigzag(raw), pos
        if tag == _TAG_FLOAT:
            return _unpack_f64(data, pos + 1)[0], pos + 9
        if tag in (_TAG_STR_DEF, _TAG_STR_REF, _TAG_STR_RAW):
            return self._decode_str(data, pos)
        if tag == _TAG_REF:
            owner, pos = self._decode_str(data, pos + 1)
            handle, pos = _read_varint(data, pos)
            return resolve_ref(owner, handle), pos
        if tag == _TAG_LIST:
            count, pos = _read_varint(data, pos + 1)
            items = []
            for _ in range(count):
                item, pos = self._decode_value(data, pos, resolve_ref)
                items.append(item)
            return items, pos
        if tag == _TAG_DICT:
            count, pos = _read_varint(data, pos + 1)
            decoded = {}
            for _ in range(count):
                key, pos = self._decode_str(data, pos)
                decoded[key], pos = self._decode_value(data, pos,
                                                       resolve_ref)
            return decoded, pos
        raise RemoteInvocationError(f"unknown wire tag {tag:#x}")

