"""Columnar (struct-of-arrays) trace representation and `.ctrace` files.

A full workload trace holds 10^5-10^6 events.  As Python objects
(:mod:`repro.emulator.events`) each event costs an allocation, a
per-field attribute slot, and per-field boxed values; replaying them
costs a type dispatch and several attribute loads per event.  The
columnar representation stores the same information as parallel typed
columns (:mod:`array` arrays) plus one interned string table, which

* shrinks a resident trace several-fold,
* lets the batched replay loop in :mod:`repro.emulator.replay` read
  plain integers out of decoded columns instead of chasing attributes,
* and maps directly onto a compact on-disk format (``.ctrace``) whose
  column blobs can be mmap-ed and used without parsing.

Field packing
=============

Every event kind draws from the same eleven columns; unused cells hold
the ``-1``/``0`` sentinel.  ``a_*`` is the *acting* side (allocated
object, freed object, caller, accessor, working class) and ``b_*`` the
*acted-on* side (creator, callee, owner):

======  ======  =====================================================
column  type    per-kind meaning
======  ======  =====================================================
tags    u8      event kind (``TAG_ALLOC`` .. ``TAG_WORK``)
a_cls   i32     string id: class_name / caller / accessor / work class
a_oid   i64     oid / caller_oid / accessor_oid / work oid (-1 = None)
b_cls   i32     string id: creator / callee / owner
b_oid   i64     creator_oid / callee_oid / owner_oid (-1 = None)
m_id    i32     invoke: method string id
k_id    i32     invoke: mkind string id
flags   u8      invoke: bit0 stateless; access: bit0 write, bit1 static
n1      i64     alloc size / invoke arg_bytes / access nbytes
n2      i64     invoke ret_bytes
f64     f64     work seconds
======  ======  =====================================================

On-disk layout (versioned, little-endian)::

    magic   b"CTRC"
    u16     CTRACE_VERSION
    u16     reserved (0)
    u32     header length in bytes
    bytes   header JSON (app, notes, class_traits, events, strings,
            columns: [{name, typecode, offset, count}, ...])
    ...     8-byte-aligned column blobs (array().tobytes())

``read_ctrace(path, use_mmap=True)`` maps the file and casts each blob
through a zero-copy :class:`memoryview`; the reload is O(header), not
O(events).
"""

from __future__ import annotations

import json
import math
import mmap as mmap_module
import struct
import sys
from array import array
from itertools import compress
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..errors import TraceFormatError
from .events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    TraceEvent,
    WorkEvent,
)
from .traces import Trace

CTRACE_MAGIC = b"CTRC"
CTRACE_VERSION = 1
CTRACE_SUFFIX = ".ctrace"

TAG_ALLOC = 0
TAG_FREE = 1
TAG_INVOKE = 2
TAG_ACCESS = 3
TAG_WORK = 4

FLAG_STATELESS = 1  # invoke
FLAG_WRITE = 1      # access
FLAG_STATIC = 2     # access

#: (column name, array typecode) in serialisation order.
COLUMN_SPECS = (
    ("tags", "B"),
    ("a_cls", "i"),
    ("a_oid", "q"),
    ("b_cls", "i"),
    ("b_oid", "q"),
    ("m_id", "i"),
    ("k_id", "i"),
    ("flags", "B"),
    ("n1", "q"),
    ("n2", "q"),
    ("f64", "d"),
)

_FIXED_HEADER = struct.Struct("<4sHHI")

#: String-id columns and the tags whose events need a string there.
_STRING_COLUMNS = (
    ("a_cls", frozenset((TAG_ALLOC, TAG_INVOKE, TAG_ACCESS, TAG_WORK))),
    ("b_cls", frozenset((TAG_ALLOC, TAG_INVOKE, TAG_ACCESS))),
    ("m_id", frozenset((TAG_INVOKE,))),
    ("k_id", frozenset((TAG_INVOKE,))),
)


def _reject(column: str, values: list, bad, why: str):
    """Raise for the first cell of ``column`` that ``bad`` accepts."""
    for index, value in enumerate(values):
        if bad(index, value):
            raise TraceFormatError(
                f"trace column {column!r}, event {index}: {why} "
                f"({value!r})")


def check_columns(cols: Dict[str, list], strings: int) -> None:
    """Reject decoded columns the replay cannot trust: an unknown tag, a
    string id out of range (or ``-1`` where the tag needs a string), a
    negative size, or a negative or non-finite work time."""
    tags = cols["tags"]
    if tags and max(tags) > TAG_WORK:
        _reject("tags", tags, lambda i, tag: tag > TAG_WORK, "unknown tag")
    for name, needed in _STRING_COLUMNS:
        column = cols[name]
        if column and (min(column) < -1 or max(column) >= strings):
            _reject(name, column, lambda i, sid: not -1 <= sid < strings,
                    f"string id outside the {strings}-string table")
        if min(compress(column, map(needed.__contains__, tags)),
               default=0) < 0:
            _reject(name, column,
                    lambda i, sid: sid < 0 and tags[i] in needed,
                    "missing string id")
    for name in ("n1", "n2"):
        if min(cols[name], default=0) < 0:
            _reject(name, cols[name], lambda i, n: n < 0, "negative size")
    f64 = cols["f64"]
    if not all(map(math.isfinite, f64)) or min(f64, default=0.0) < 0:
        _reject("f64", f64, lambda i, t: not 0.0 <= t < math.inf,
                "negative or non-finite time")


def _oid_cell(oid: Optional[int], what: str) -> int:
    if oid is None:
        return -1
    if not isinstance(oid, int) or isinstance(oid, bool) or oid < 0:
        raise TraceFormatError(
            f"columnar traces require non-negative integer oids; "
            f"got {oid!r} for {what}"
        )
    return oid


def _oid_value(cell: int) -> Optional[int]:
    return None if cell < 0 else cell


class ColumnarTrace:
    """A trace as parallel typed columns plus one interned string table.

    Semantically equivalent to :class:`~repro.emulator.traces.Trace`
    (``from_trace``/``to_trace`` round-trip exactly); structurally a
    struct-of-arrays, so it is cheap to hold, ship to worker processes,
    and replay through the batched dispatch loop.
    """

    def __init__(
        self,
        app_name: str = "",
        class_traits: Optional[Dict[str, Dict[str, bool]]] = None,
        notes: str = "",
        strings: Optional[List[str]] = None,
        columns: Optional[Dict[str, "array"]] = None,
    ) -> None:
        self.app_name = app_name
        self.class_traits: Dict[str, Dict[str, bool]] = class_traits or {}
        self.notes = notes
        self.strings: List[str] = strings if strings is not None else []
        if columns is None:
            columns = {name: array(code) for name, code in COLUMN_SPECS}
        self.columns = columns
        self._events_cache: Optional[List[TraceEvent]] = None
        self._lists_cache = None
        # Keeps an mmap (and its file) alive for view-backed columns.
        self._mmap = None
        self._views: List[memoryview] = []

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns["tags"])

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.iter_events()

    @property
    def events(self) -> List[TraceEvent]:
        """Materialised event objects (built lazily, cached)."""
        if self._events_cache is None:
            self._events_cache = list(self.iter_events())
        return self._events_cache

    def pinned_classes(self, stateless_natives_ok: bool = False) -> List[str]:
        """Classes that must stay on the client under the given rules."""
        trait = "stateful_native" if stateless_natives_ok else "native"
        return sorted(
            name for name, traits in self.class_traits.items()
            if traits.get(trait)
        )

    # -- decoded view for the batched replay loop -------------------------------

    def column_lists(self) -> Dict[str, list]:
        """The columns as plain Python lists (decoded once, cached).

        List indexing beats both ``array`` and ``memoryview`` indexing
        in the replay hot loop; the decode is a single C-level pass.
        The decoded values are checked once here (see
        :func:`check_columns`), so the replay need not check them.
        """
        if self._lists_cache is None:
            decoded = {}
            for name, _ in COLUMN_SPECS:
                column = self.columns[name]
                decoded[name] = (
                    column.tolist() if hasattr(column, "tolist")
                    else list(column)
                )
            check_columns(decoded, len(self.strings))
            self._lists_cache = decoded
        return self._lists_cache

    # -- conversion --------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Union[Trace, "ColumnarTrace"]) -> "ColumnarTrace":
        """Convert a row trace in one pass; a columnar trace is returned
        unchanged.

        Raises :class:`TraceFormatError` for an oid that is not a
        non-negative integer and for a value its column cannot hold.
        """
        if isinstance(trace, ColumnarTrace):
            return trace
        strings: List[str] = []
        index: Dict[str, int] = {}

        def intern(name: str) -> int:
            sid = index.get(name)
            if sid is None:
                sid = index[name] = len(strings)
                strings.append(name)
            return sid

        lists: Dict[str, list] = {name: [] for name, _ in COLUMN_SPECS}
        tags, a_cls, a_oid = (lists["tags"].append, lists["a_cls"].append,
                              lists["a_oid"].append)
        b_cls, b_oid = lists["b_cls"].append, lists["b_oid"].append
        m_id, k_id, flags = (lists["m_id"].append, lists["k_id"].append,
                             lists["flags"].append)
        n1, n2, f64 = lists["n1"].append, lists["n2"].append, lists["f64"].append
        for event in trace.events:
            kind = type(event)
            if kind is AccessEvent:
                tags(TAG_ACCESS)
                a_cls(intern(event.accessor_class))
                oid = event.accessor_oid
                a_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "accessor_oid"))
                b_cls(intern(event.owner_class))
                oid = event.owner_oid
                b_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "owner_oid"))
                m_id(-1)
                k_id(-1)
                flags((FLAG_WRITE if event.is_write else 0)
                      | (FLAG_STATIC if event.is_static else 0))
                n1(event.nbytes)
                n2(0)
                f64(0.0)
            elif kind is InvokeEvent:
                tags(TAG_INVOKE)
                a_cls(intern(event.caller_class))
                oid = event.caller_oid
                a_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "caller_oid"))
                b_cls(intern(event.callee_class))
                oid = event.callee_oid
                b_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "callee_oid"))
                m_id(intern(event.method))
                k_id(intern(event.mkind))
                flags(FLAG_STATELESS if event.stateless else 0)
                n1(event.arg_bytes)
                n2(event.ret_bytes)
                f64(0.0)
            elif kind is WorkEvent:
                tags(TAG_WORK)
                a_cls(intern(event.class_name))
                oid = event.oid
                a_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "work oid"))
                b_cls(-1)
                b_oid(-1)
                m_id(-1)
                k_id(-1)
                flags(0)
                n1(0)
                n2(0)
                f64(event.seconds)
            elif kind is AllocEvent:
                tags(TAG_ALLOC)
                a_cls(intern(event.class_name))
                oid = event.oid
                a_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "oid"))
                b_cls(intern(event.creator_class))
                oid = event.creator_oid
                b_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "creator_oid"))
                m_id(-1)
                k_id(-1)
                flags(0)
                n1(event.size)
                n2(0)
                f64(0.0)
            elif kind is FreeEvent:
                tags(TAG_FREE)
                a_cls(-1)
                oid = event.oid
                a_oid(oid if type(oid) is int and oid >= 0
                      else _oid_cell(oid, "oid"))
                b_cls(-1)
                b_oid(-1)
                m_id(-1)
                k_id(-1)
                flags(0)
                n1(0)
                n2(0)
                f64(0.0)
            else:
                raise TraceFormatError(
                    f"unknown trace event type {kind.__name__!r}")
        try:
            columns = {name: array(code, lists[name])
                       for name, code in COLUMN_SPECS}
        except (TypeError, OverflowError) as exc:
            raise TraceFormatError(
                f"trace {trace.app_name!r} holds a value its column "
                f"cannot store: {exc}"
            ) from exc
        columnar = cls(
            app_name=trace.app_name,
            class_traits={k: dict(v) for k, v in trace.class_traits.items()},
            notes=trace.notes,
            strings=strings,
            columns=columns,
        )
        return columnar

    def iter_events(self) -> Iterator[TraceEvent]:
        """Rebuild event objects one at a time (the exact inverse of
        :meth:`from_trace`)."""
        cols = self.column_lists()
        strings = self.strings
        tags = cols["tags"]
        a_cls, a_oid = cols["a_cls"], cols["a_oid"]
        b_cls, b_oid = cols["b_cls"], cols["b_oid"]
        m_id, k_id, flags = cols["m_id"], cols["k_id"], cols["flags"]
        n1, n2, f64 = cols["n1"], cols["n2"], cols["f64"]
        for i in range(len(tags)):
            tag = tags[i]
            if tag == TAG_INVOKE:
                yield InvokeEvent(
                    strings[a_cls[i]], _oid_value(a_oid[i]),
                    strings[b_cls[i]], _oid_value(b_oid[i]),
                    strings[m_id[i]], strings[k_id[i]],
                    bool(flags[i] & FLAG_STATELESS), n1[i], n2[i],
                )
            elif tag == TAG_ACCESS:
                yield AccessEvent(
                    strings[a_cls[i]], _oid_value(a_oid[i]),
                    strings[b_cls[i]], _oid_value(b_oid[i]),
                    n1[i], bool(flags[i] & FLAG_WRITE),
                    bool(flags[i] & FLAG_STATIC),
                )
            elif tag == TAG_WORK:
                yield WorkEvent(strings[a_cls[i]], _oid_value(a_oid[i]),
                                f64[i])
            elif tag == TAG_ALLOC:
                yield AllocEvent(
                    a_oid[i], strings[a_cls[i]], n1[i],
                    strings[b_cls[i]], _oid_value(b_oid[i]),
                )
            else:
                yield FreeEvent(a_oid[i])

    def to_trace(self) -> Trace:
        trace = Trace(
            app_name=self.app_name,
            class_traits={k: dict(v) for k, v in self.class_traits.items()},
            notes=self.notes,
        )
        trace.events = list(self.iter_events())
        return trace

    # -- persistence -------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        write_ctrace(self, path)

    @classmethod
    def load(cls, path: Union[str, Path],
             use_mmap: bool = True) -> "ColumnarTrace":
        return read_ctrace(path, use_mmap=use_mmap)

    def close(self) -> None:
        """Release mmap-backed column views (no-op for in-memory traces)."""
        if self._mmap is None:
            return
        # Views must be released before the map can be closed.
        self.columns = {
            name: array(code, self.columns[name])
            for name, code in COLUMN_SPECS
        }
        for view in self._views:
            view.release()
        self._views = []
        self._mmap.close()
        self._mmap = None

    # -- pickling (multiprocessing shard dispatch) --------------------------------

    def __getstate__(self) -> dict:
        """Pickle as plain arrays: mmap views cannot cross processes."""
        return {
            "app_name": self.app_name,
            "class_traits": self.class_traits,
            "notes": self.notes,
            "strings": self.strings,
            "columns": {
                name: array(code, self.columns[name])
                for name, code in COLUMN_SPECS
            },
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def write_ctrace(trace: Union[Trace, ColumnarTrace],
                 path: Union[str, Path]) -> ColumnarTrace:
    """Serialise a trace to the columnar on-disk format.

    Accepts either representation (a row-oriented :class:`Trace` is
    converted first) and returns the columnar form that was written.
    """
    columnar = ColumnarTrace.from_trace(trace)
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        raise TraceFormatError(
            "ctrace files are little-endian; writing from a big-endian "
            "host is not supported"
        )
    blobs = []
    specs = []
    for name, code in COLUMN_SPECS:
        column = columnar.columns[name]
        if not isinstance(column, array):
            column = array(code, column)
        blobs.append(column.tobytes())
        specs.append({"name": name, "typecode": code, "count": len(column)})
    header = {
        "app": columnar.app_name,
        "notes": columnar.notes,
        "class_traits": columnar.class_traits,
        "events": len(columnar),
        "strings": columnar.strings,
        "columns": specs,
    }
    # Offsets depend on the header length, which depends on the offsets'
    # rendered digit counts; iterate to a fixed point (monotone in the
    # header length, so this settles within a few rounds).
    for spec in specs:
        spec["offset"] = 0
    final_header = b""
    for _ in range(8):
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        base = _pad8(_FIXED_HEADER.size + len(header_bytes))
        offset = base
        for spec, blob in zip(specs, blobs):
            spec["offset"] = offset
            offset += _pad8(len(blob))
        final_header = json.dumps(header, sort_keys=True).encode("utf-8")
        if len(final_header) == len(header_bytes):
            break
    else:  # pragma: no cover - defensive
        raise TraceFormatError("ctrace header failed to stabilise")
    base = _pad8(_FIXED_HEADER.size + len(final_header))
    path = Path(path)
    with path.open("wb") as stream:
        stream.write(_FIXED_HEADER.pack(
            CTRACE_MAGIC, CTRACE_VERSION, 0, len(final_header)
        ))
        stream.write(final_header)
        stream.write(b"\0" * (base - _FIXED_HEADER.size - len(final_header)))
        for spec, blob in zip(specs, blobs):
            assert stream.tell() == spec["offset"]
            stream.write(blob)
            stream.write(b"\0" * (_pad8(len(blob)) - len(blob)))
    return columnar


def _parse_fixed_header(path: Path, raw: bytes):
    if len(raw) < _FIXED_HEADER.size:
        raise TraceFormatError(f"{path}: truncated ctrace file")
    magic, version, _reserved, header_len = _FIXED_HEADER.unpack_from(raw)
    if magic != CTRACE_MAGIC:
        raise TraceFormatError(f"{path}: not a ctrace file (bad magic)")
    if version != CTRACE_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported ctrace version {version}"
        )
    end = _FIXED_HEADER.size + header_len
    if len(raw) < end:
        raise TraceFormatError(f"{path}: truncated ctrace header")
    try:
        header = json.loads(raw[_FIXED_HEADER.size:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: bad ctrace header") from exc
    if not isinstance(header, dict):
        raise TraceFormatError(f"{path}: ctrace header is not an object")
    return header


def _column_window(path: Path, spec: dict, total: int):
    try:
        name = spec["name"]
        code = spec["typecode"]
        offset = spec["offset"]
        count = spec["count"]
    except (TypeError, KeyError) as exc:
        raise TraceFormatError(f"{path}: malformed column spec {spec!r}") from exc
    itemsize = array(code).itemsize
    end = offset + count * itemsize
    if offset < 0 or end > total:
        raise TraceFormatError(
            f"{path}: column {name!r} [{offset}, {end}) lies outside "
            f"the {total}-byte file"
        )
    return name, code, offset, end


def read_ctrace(path: Union[str, Path],
                use_mmap: bool = True) -> ColumnarTrace:
    """Load a ``.ctrace`` file.

    With ``use_mmap`` (the default) the column data stays in the mapped
    file — columns are zero-copy ``memoryview`` casts, so loading is
    O(header) and the OS pages event data in on demand.  With
    ``use_mmap=False`` the columns are copied into ``array`` objects and
    the file is closed before returning.
    """
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        use_mmap = False
    path = Path(path)
    with path.open("rb") as stream:
        if use_mmap:
            try:
                mm = mmap_module.mmap(stream.fileno(), 0,
                                      access=mmap_module.ACCESS_READ)
            except (ValueError, OSError):
                # Empty or unmappable file: fall through to a plain read.
                use_mmap = False
        if not use_mmap:
            raw = stream.read()
    if use_mmap:
        prefix = bytes(mm[:_FIXED_HEADER.size])
        if len(prefix) < _FIXED_HEADER.size:
            raise TraceFormatError(f"{path}: truncated ctrace file")
        header_len = _FIXED_HEADER.unpack_from(prefix)[3]
        header = _parse_fixed_header(
            path, bytes(mm[:_FIXED_HEADER.size + header_len])
        )
        total = mm.size()
    else:
        header = _parse_fixed_header(path, raw)
        total = len(raw)
    events = header.get("events")
    strings = header.get("strings")
    specs = header.get("columns")
    if not isinstance(strings, list) or not isinstance(specs, list):
        raise TraceFormatError(f"{path}: ctrace header lacks strings/columns")
    columns: Dict[str, object] = {}
    views: List[memoryview] = []
    expected = {name: code for name, code in COLUMN_SPECS}
    for spec in specs:
        name, code, offset, end = _column_window(path, spec, total)
        if expected.get(name) != code:
            raise TraceFormatError(
                f"{path}: column {name!r} has unexpected typecode {code!r}"
            )
        if use_mmap:
            view = memoryview(mm)[offset:end].cast(code)
            views.append(view)
            columns[name] = view
        else:
            column = array(code)
            column.frombytes(raw[offset:end])
            columns[name] = column
    missing = sorted(set(expected) - set(columns))
    if missing:
        raise TraceFormatError(f"{path}: ctrace lacks columns {missing}")
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1 or (
        isinstance(events, int) and lengths["tags"] != events
    ):
        raise TraceFormatError(
            f"{path}: column lengths {lengths} disagree with declared "
            f"event count {events}"
        )
    trace = ColumnarTrace(
        app_name=header.get("app", ""),
        class_traits=header.get("class_traits", {}),
        notes=header.get("notes", ""),
        strings=[str(s) for s in strings],
        columns=columns,
    )
    if use_mmap:
        trace._mmap = mm
        trace._views = views
    return trace
