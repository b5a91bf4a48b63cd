"""The trace: columns in memory, JSONL or `.ctrace` on disk.

A full workload trace holds 10^5-10^6 events.  As Python objects
(:mod:`repro.emulator.events`) each event would cost an allocation, a
per-field attribute slot, and per-field boxed values.  A trace is
instead held in one form from recording to disk: parallel typed
columns (:mod:`array` arrays) plus one interned string table, which

* keeps a resident trace small,
* lets the batched replay loop in :mod:`repro.emulator.replay` read
  plain integers out of decoded columns instead of chasing attributes,
* and maps directly onto a compact on-disk format (``.ctrace``) whose
  column blobs can be mmap-ed and used without parsing.

The recorder, :meth:`ColumnarTrace.append` and the JSONL loader all
write the columns through one packing function per event kind
(:meth:`ColumnarTrace.packers`).  The JSONL format is one header line
(version, app, notes, class traits, event count) and one row per event,
``["A", oid, class, size, creator, creator_oid]`` and so on (see
:data:`ROW_KINDS`); a ``.gz`` suffix gzips it.

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

An allocation or a free always names its object: its ``a_oid`` is never
``-1``.  The decoded lists (:meth:`ColumnarTrace.column_lists`) also
carry dense object indices derived from the two oid columns
(:func:`object_indices`); no file stores them.

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

import gzip
import json
import math
import mmap as mmap_module
import struct
import sys
import zlib
from array import array
from bisect import bisect_right
from itertools import chain, compress
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, TypeVar, Union

from ..errors import TraceFormatError
from .events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    TraceEvent,
    WorkEvent,
)

T = TypeVar("T")

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

def _tag_mask(*tags: int) -> bytes:
    """A ``bytes.translate`` table taking ``tags`` to 1 and others to 0."""
    return bytes(tag in tags for tag in range(256))


#: String-id columns, each with a mask of the tags whose events need a
#: string there.
_STRING_COLUMNS = (
    ("a_cls", _tag_mask(TAG_ALLOC, TAG_INVOKE, TAG_ACCESS, TAG_WORK)),
    ("b_cls", _tag_mask(TAG_ALLOC, TAG_INVOKE, TAG_ACCESS)),
    ("m_id", _tag_mask(TAG_INVOKE)),
    ("k_id", _tag_mask(TAG_INVOKE)),
)

#: Tags whose events name their object in ``a_oid``: an allocation
#: or a free without an oid would be a phantom object.
_OBJECT_TAGS = _tag_mask(TAG_ALLOC, TAG_FREE)


def check_columns(cols: Dict[str, list], strings: int,
                  line_of: Optional[Callable[[int], int]] = None) -> None:
    """Reject columns the replay cannot trust: an unknown tag, a string
    id out of range (or ``-1`` where the tag needs a string), an oid
    below the ``-1`` sentinel, an allocation or free without an oid, a
    negative size, or a negative or non-finite work time.  ``line_of`` maps an event index to the
    line the message should name."""

    def reject(column: str, values: list, bad, why: str):
        for index, value in enumerate(values):
            if bad(index, value):
                where = "" if line_of is None else f" (line {line_of(index)})"
                raise TraceFormatError(
                    f"trace column {column!r}, event {index}: {why} "
                    f"({value!r}){where}")

    tags = cols["tags"]
    if tags and max(tags) > TAG_WORK:
        reject("tags", tags, lambda i, tag: tag > TAG_WORK, "unknown tag")
    tag_bytes = bytes(tags)
    for name, mask in _STRING_COLUMNS:
        column = cols[name]
        if column and (min(column) < -1 or max(column) >= strings):
            reject(name, column, lambda i, sid: not -1 <= sid < strings,
                   f"string id outside the {strings}-string table")
        needed = tag_bytes.translate(mask)
        if min(compress(column, needed), default=0) < 0:
            reject(name, column, lambda i, sid: sid < 0 and needed[i],
                   "missing string id")
    for name in ("a_oid", "b_oid"):
        if min(cols[name], default=-1) < -1:
            reject(name, cols[name], lambda i, oid: oid < -1, "negative oid")
    a_oid = cols["a_oid"]
    needed = tag_bytes.translate(_OBJECT_TAGS)
    if min(compress(a_oid, needed), default=0) < 0:
        reject("a_oid", a_oid, lambda i, oid: oid < 0 and needed[i],
               "allocation or free without an oid")
    for name in ("n1", "n2"):
        if min(cols[name], default=0) < 0:
            reject(name, cols[name], lambda i, n: n < 0, "negative size")
    f64 = cols["f64"]
    # A NaN or an infinity makes the sum non-finite (so may a huge
    # finite sum, which the exact scan then clears).
    if not math.isfinite(sum(f64)) or min(f64, default=0.0) < 0:
        reject("f64", f64, lambda i, t: not 0.0 <= t < math.inf,
               "negative or non-finite time")


def object_indices(a_oid: List[int], b_oid: List[int]) -> Dict[str, list]:
    """Dense per-trace object indices, derived from the oid columns.

    ``oid_of`` lists the ``-1`` sentinel, then every oid the trace
    names, once each (first the ``a`` column's, then the ``b``
    column's), and ``a_ix[i]``/``b_ix[i]`` index it:
    ``oid_of[a_ix[i]] == a_oid[i]``, and index 0 stands for ``-1``.
    Oids come from a process-wide counter; the indices let the replay
    keep its per-object tables in lists.  They are derived, never
    stored, so neither file format carries them.
    """
    oid_of = list(dict.fromkeys(chain((-1,), a_oid, b_oid)))
    index = dict(zip(oid_of, range(len(oid_of)))).__getitem__
    return {"a_ix": list(map(index, a_oid)), "b_ix": list(map(index, b_oid)),
            "oid_of": oid_of}


def _decoded_lists(trace: "ColumnarTrace") -> Dict[str, list]:
    """The trace's columns decoded to lists and checked, with its dense
    object indices."""
    decoded = {name: trace.columns[name].tolist() for name, _ in COLUMN_SPECS}
    check_columns(decoded, len(trace.strings))
    decoded.update(object_indices(decoded["a_oid"], decoded["b_oid"]))
    return decoded


def _oid_cell(oid: Optional[int], what: str) -> int:
    if oid is None:
        return -1
    if not isinstance(oid, int) or isinstance(oid, bool) or oid < 0:
        raise TraceFormatError(
            f"columnar traces require non-negative integer oids; "
            f"got {oid!r} for {what}"
        )
    return oid


def _object_oid_cell(oid: Optional[int], kind: str) -> int:
    """The cell of an allocated or freed object's oid, which must name
    the object: ``None`` is refused too."""
    if oid is None:
        raise TraceFormatError(f"every {kind} needs an oid; got None")
    return _oid_cell(oid, "oid")


class _Interner(dict):
    """Name -> id in a trace's string table; an unseen name is added."""

    def __init__(self, strings: List[str]) -> None:
        super().__init__((name, sid) for sid, name in enumerate(strings))
        self.strings = strings

    def __missing__(self, name: str) -> int:
        if not isinstance(name, str):
            raise TraceFormatError(f"trace names must be strings; got {name!r}")
        sid = self[name] = len(self.strings)
        self.strings.append(name)
        return sid


class _EventView:
    """A trace's events as a read-only, uncached view: ``len`` is O(1)
    and each event is rebuilt from the columns as it is read."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "ColumnarTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self._trace.iter_events()


class ColumnarTrace:
    """An ordered execution/resource trace: parallel typed columns plus
    one interned string table, and the trace's metadata.

    ``class_traits`` maps each guest class to its placement-relevant
    properties (``native``, ``stateful_native``) so the replayer can
    compute pinned sets without the original class registry.  The
    recorder, the JSONL loader and :meth:`append` all write the columns
    through :meth:`packers`; :meth:`iter_events` reads them back as
    :mod:`~repro.emulator.events` records.
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
        # Values derived from the columns (see ``derived``), and the
        # length they were derived at.
        self._derived: Dict[tuple, object] = {}
        self._derived_len = 0
        self._packers = None
        # Keeps an mmap (and its file) alive for view-backed columns.
        self._mmap = None
        self._views: List[memoryview] = []

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns["tags"])

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.iter_events()

    @property
    def events(self) -> _EventView:
        """The events as a read-only view (nothing is cached)."""
        return _EventView(self)

    def pinned_classes(self, stateless_natives_ok: bool = False) -> List[str]:
        """Classes that must stay on the client under the given rules."""
        trait = "stateful_native" if stateless_natives_ok else "native"
        return sorted(
            name for name, traits in self.class_traits.items()
            if traits.get(trait)
        )

    # -- decoded view for the batched replay loop -------------------------------

    def column_lists(self) -> Dict[str, list]:
        """The columns as plain Python lists (decoded once, cached until
        the trace grows), with the trace's dense object indices (see
        :func:`object_indices`) derived from them.

        List indexing beats both ``array`` and ``memoryview`` indexing
        in the replay hot loop; the decode is a single C-level pass.
        The decoded values are checked once here (see
        :func:`check_columns`), so the replay need not check them.
        """
        return self.derived(("column-lists",), _decoded_lists)

    def derived(self, key: tuple, build: Callable[["ColumnarTrace"], T]) -> T:
        """``build(self)``, built once under ``key`` and cached until the
        trace grows.

        For tables derived from the columns that every replay of the
        trace reads: the decoded lists (:meth:`column_lists`) and the
        graph fold's plan (:class:`~repro.emulator.graphfold.FoldPlan`).
        No file stores them and pickling drops them.
        """
        if self._derived_len != len(self):
            self._derived = {}
            self._derived_len = len(self)
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    # -- writing events ----------------------------------------------------------

    def packers(self) -> Dict[type, Callable[..., None]]:
        """One packing function per event class, each appending one event
        to the columns from the event's fields in record order (which is
        also its JSONL row order).

        An oid that is not a non-negative integer or ``None``, or an
        allocation or free without an oid, raises
        :class:`TraceFormatError`; a value its column cannot hold raises
        ``TypeError`` or ``OverflowError``.  Either may leave some
        columns one cell longer than the rest.
        """
        if self._packers is not None:
            return self._packers
        self.close()  # mapped columns are read-only: copy them first
        intern = _Interner(self.strings).__getitem__
        (tags, a_cls, a_oid, b_cls, b_oid, m_id, k_id, flags, n1, n2,
         f64) = (self.columns[name].append for name, _ in COLUMN_SPECS)

        def alloc(oid, class_name, size, creator_class, creator_oid):
            tags(TAG_ALLOC)
            a_cls(intern(class_name))
            a_oid(oid if type(oid) is int and oid >= 0
                  else _object_oid_cell(oid, "allocation"))
            b_cls(intern(creator_class))
            b_oid(creator_oid if type(creator_oid) is int and creator_oid >= 0
                  else _oid_cell(creator_oid, "creator_oid"))
            m_id(-1)
            k_id(-1)
            flags(0)
            n1(size)
            n2(0)
            f64(0.0)

        def free(oid):
            tags(TAG_FREE)
            a_cls(-1)
            a_oid(oid if type(oid) is int and oid >= 0
                  else _object_oid_cell(oid, "free"))
            b_cls(-1)
            b_oid(-1)
            m_id(-1)
            k_id(-1)
            flags(0)
            n1(0)
            n2(0)
            f64(0.0)

        def invoke(caller_class, caller_oid, callee_class, callee_oid,
                   method, mkind, stateless, arg_bytes, ret_bytes):
            tags(TAG_INVOKE)
            a_cls(intern(caller_class))
            a_oid(caller_oid if type(caller_oid) is int and caller_oid >= 0
                  else _oid_cell(caller_oid, "caller_oid"))
            b_cls(intern(callee_class))
            b_oid(callee_oid if type(callee_oid) is int and callee_oid >= 0
                  else _oid_cell(callee_oid, "callee_oid"))
            m_id(intern(method))
            k_id(intern(mkind))
            flags(FLAG_STATELESS if stateless else 0)
            n1(arg_bytes)
            n2(ret_bytes)
            f64(0.0)

        def access(accessor_class, accessor_oid, owner_class, owner_oid,
                   nbytes, is_write, is_static):
            tags(TAG_ACCESS)
            a_cls(intern(accessor_class))
            a_oid(accessor_oid if type(accessor_oid) is int and accessor_oid >= 0
                  else _oid_cell(accessor_oid, "accessor_oid"))
            b_cls(intern(owner_class))
            b_oid(owner_oid if type(owner_oid) is int and owner_oid >= 0
                  else _oid_cell(owner_oid, "owner_oid"))
            m_id(-1)
            k_id(-1)
            flags((FLAG_WRITE if is_write else 0)
                  | (FLAG_STATIC if is_static else 0))
            n1(nbytes)
            n2(0)
            f64(0.0)

        def work(class_name, oid, seconds):
            tags(TAG_WORK)
            a_cls(intern(class_name))
            a_oid(oid if type(oid) is int and oid >= 0
                  else _oid_cell(oid, "work oid"))
            b_cls(-1)
            b_oid(-1)
            m_id(-1)
            k_id(-1)
            flags(0)
            n1(0)
            n2(0)
            f64(seconds)

        self._packers = {AllocEvent: alloc, FreeEvent: free,
                         InvokeEvent: invoke, AccessEvent: access,
                         WorkEvent: work}
        return self._packers

    def append(self, event: TraceEvent) -> None:
        """Pack one event record onto the end of the columns; a bad oid
        or value raises :class:`TraceFormatError` and leaves the trace
        as it was."""
        pack = self.packers().get(type(event))
        if pack is None:
            raise TraceFormatError(f"not a trace event: {event!r}")
        count = len(self)
        try:
            pack(*event)
        except (TraceFormatError, TypeError, OverflowError) as exc:
            for column in self.columns.values():
                del column[count:]
            raise TraceFormatError(
                f"trace {self.app_name!r} cannot store {event!r}: {exc}"
            ) from exc

    # -- reading events ----------------------------------------------------------

    def cells(self) -> Iterator[tuple]:
        """Each event's cells, as one tuple in :data:`COLUMN_SPECS` order.

        Reads the typed columns directly (checked first, as
        :meth:`column_lists` checks them), so iterating a trace does not
        pay for the replay's decoded lists.
        """
        columns = self.columns
        check_columns(columns, len(self.strings))
        return zip(*(columns[name] for name, _ in COLUMN_SPECS))

    def iter_events(self) -> Iterator[TraceEvent]:
        """Rebuild event records one at a time."""
        strings = self.strings
        new = tuple.__new__  # skips each record class's Python-level __new__
        for tag, a, a_oid, b, b_oid, m, k, flags, n1, n2, f64 in self.cells():
            if tag == TAG_INVOKE:
                yield new(InvokeEvent, (
                    strings[a], None if a_oid < 0 else a_oid,
                    strings[b], None if b_oid < 0 else b_oid,
                    strings[m], strings[k],
                    bool(flags & FLAG_STATELESS), n1, n2,
                ))
            elif tag == TAG_ACCESS:
                yield new(AccessEvent, (
                    strings[a], None if a_oid < 0 else a_oid,
                    strings[b], None if b_oid < 0 else b_oid,
                    n1, bool(flags & FLAG_WRITE), bool(flags & FLAG_STATIC),
                ))
            elif tag == TAG_WORK:
                yield new(WorkEvent,
                          (strings[a], None if a_oid < 0 else a_oid, f64))
            elif tag == TAG_ALLOC:
                yield new(AllocEvent, (a_oid, strings[a], n1, strings[b],
                                       None if b_oid < 0 else b_oid))
            else:
                yield new(FreeEvent, (a_oid,))

    @staticmethod
    def from_trace(trace: "ColumnarTrace") -> "ColumnarTrace":
        """Return ``trace``: every trace is already columnar."""
        return trace

    # -- persistence -------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace in the format ``path``'s suffix names:
        ``.ctrace`` is columnar, anything else JSONL (gzipped when the
        suffix is ``.gz``)."""
        if Path(path).suffix == CTRACE_SUFFIX:
            write_ctrace(self, path)
        else:
            write_jsonl(self, path)

    @classmethod
    def load(cls, path: Union[str, Path],
             use_mmap: bool = True) -> "ColumnarTrace":
        """Read a trace file in the format its suffix names (see
        :meth:`save`); ``use_mmap`` applies to ``.ctrace`` files."""
        if Path(path).suffix == CTRACE_SUFFIX:
            return read_ctrace(path, use_mmap=use_mmap)
        return read_jsonl(path)

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


# -- JSON lines -----------------------------------------------------------------

JSONL_VERSION = 1

#: JSONL row tag -> (row arity, event class).  Arity is checked up front
#: so a short or padded row fails with the tag and expected width rather
#: than surfacing as an opaque downstream exception.
ROW_KINDS = {
    "A": (6, AllocEvent),
    "F": (2, FreeEvent),
    "I": (10, InvokeEvent),
    "D": (8, AccessEvent),
    "W": (4, WorkEvent),
}


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", compresslevel=6)
    return path.open(mode, encoding="utf-8")


def write_jsonl(trace: ColumnarTrace, path: Union[str, Path]) -> None:
    """Write the trace as a JSON-lines file: a header, then one row per
    event, formatted from the decoded columns.  A ``.gz`` suffix selects
    gzip compression — full workload traces shrink roughly tenfold."""
    text = [json.dumps(name) for name in trace.strings]

    def oid(cell: int):
        return "null" if cell < 0 else cell

    header = {"version": JSONL_VERSION, "app": trace.app_name,
              "notes": trace.notes, "class_traits": trace.class_traits,
              "events": len(trace)}
    with _open_text(Path(path), "w") as stream:
        stream.write(json.dumps(header) + "\n")
        for tag, a, a_oid, b, b_oid, m, k, flags, n1, n2, f64 in trace.cells():
            if tag == TAG_INVOKE:
                row = (f'"I", {text[a]}, {oid(a_oid)}, {text[b]}, '
                       f'{oid(b_oid)}, {text[m]}, {text[k]}, '
                       f'{flags & FLAG_STATELESS}, {n1}, {n2}')
            elif tag == TAG_ACCESS:
                row = (f'"D", {text[a]}, {oid(a_oid)}, {text[b]}, '
                       f'{oid(b_oid)}, {n1}, {flags & FLAG_WRITE}, '
                       f'{(flags & FLAG_STATIC) >> 1}')
            elif tag == TAG_WORK:
                row = f'"W", {text[a]}, {oid(a_oid)}, {f64!r}'
            elif tag == TAG_ALLOC:
                row = (f'"A", {oid(a_oid)}, {text[a]}, {n1}, {text[b]}, '
                       f'{oid(b_oid)}')
            else:
                row = f'"F", {oid(a_oid)}'
            stream.write(f"[{row}]\n")


def read_jsonl(path: Union[str, Path]) -> ColumnarTrace:
    """Load a JSON-lines trace, packing each row straight into columns.

    Every oid and value is checked here, and a :class:`TraceFormatError`
    names the offending line.
    """
    path = Path(path)
    try:
        with _open_text(path, "r") as stream:
            first = stream.readline()
            if not first:
                raise TraceFormatError(f"{path}: empty trace file")
            try:
                header = json.loads(first)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}: bad header") from exc
            version = (header.get("version") if isinstance(header, dict)
                       else None)
            if version != JSONL_VERSION:
                raise TraceFormatError(
                    f"{path}: unsupported trace version {version}")
            trace = ColumnarTrace(app_name=header.get("app", ""),
                                  class_traits=header.get("class_traits", {}),
                                  notes=header.get("notes", ""))
            blanks = _pack_rows(path, stream, trace)
    except (UnicodeDecodeError, EOFError, zlib.error,
            gzip.BadGzipFile) as exc:
        raise TraceFormatError(f"{path}: unreadable trace ({exc})") from exc
    declared = header.get("events")
    if isinstance(declared, int) and declared >= 0 and declared != len(trace):
        raise TraceFormatError(
            f"{path}: header declares {declared} events, found {len(trace)}")
    check_columns(trace.columns, len(trace.strings),
                  lambda event: event + 2 + bisect_right(blanks, event))
    return trace


def _pack_rows(path: Path, stream, trace: ColumnarTrace) -> List[int]:
    """Pack every event row of ``stream`` into ``trace``; returns the
    event count at each blank line skipped."""
    pack = trace.packers()
    kinds = {tag: (arity, pack[cls]) for tag, (arity, cls) in ROW_KINDS.items()}
    blanks: List[int] = []
    for lineno, line in enumerate(stream, start=2):
        if not line.strip():
            blanks.append(len(trace))
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}: bad event line (line {lineno})") from exc
        try:
            arity, pack_row = kinds[row[0]]
        except (KeyError, IndexError, TypeError):
            arity = None
        if arity is None or len(row) != arity:
            raise _row_error(row, lineno)
        try:
            pack_row(*row[1:])
        except TraceFormatError as exc:
            raise TraceFormatError(f"{exc} (line {lineno})") from None
        except (TypeError, OverflowError) as exc:
            raise TraceFormatError(
                f"trace {trace.app_name!r} holds a value its column "
                f"cannot store: {exc} (line {lineno})") from None
    return blanks


def _row_error(row, line: int) -> TraceFormatError:
    """Why ``row`` matches no row kind, or not its kind's arity."""
    where = f" (line {line})"
    if not isinstance(row, list) or not row:
        return TraceFormatError(f"empty trace row{where}: {row!r}")
    tag = row[0]
    if not isinstance(tag, str) or tag not in ROW_KINDS:
        return TraceFormatError(f"unknown trace event tag {tag!r}{where}")
    return TraceFormatError(
        f"trace row tagged {tag!r} has {len(row)} fields, "
        f"expected {ROW_KINDS[tag][0]}{where}: {row!r}")


# -- .ctrace ----------------------------------------------------------------------


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def write_ctrace(columnar: ColumnarTrace, path: Union[str, Path]) -> None:
    """Serialise a trace to the columnar on-disk format."""
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
        itemsize = array(code).itemsize
    except (TypeError, KeyError, ValueError) as exc:
        raise TraceFormatError(f"{path}: malformed column spec {spec!r}") from exc
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
