"""Columnar trace representation and the `.ctrace` on-disk format."""

import pickle
import struct
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.columnar import (
    CTRACE_MAGIC,
    CTRACE_VERSION,
    ColumnarTrace,
    read_ctrace,
    read_jsonl,
    write_ctrace,
)
from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.errors import TraceFormatError
from tests.helpers import event_fields, trace_of, write_jsonl_rows

CLASS_NAMES = st.sampled_from(
    ["app.Model", "ui.Screen", "util.FastMath", "app.Buffer", "int[]"]
)
OIDS = st.one_of(st.none(), st.integers(min_value=0, max_value=2**40))
SIZES = st.integers(min_value=0, max_value=2**31)

ALLOCS = st.builds(
    AllocEvent,
    st.integers(min_value=0, max_value=2**40),
    CLASS_NAMES, SIZES, CLASS_NAMES, OIDS,
)
FREES = st.builds(FreeEvent, st.integers(min_value=0, max_value=2**40))
INVOKES = st.builds(
    InvokeEvent,
    CLASS_NAMES, OIDS, CLASS_NAMES, OIDS,
    st.sampled_from(["run", "paint", "<init>"]),
    st.sampled_from(["instance", "static", "native"]),
    st.booleans(), SIZES, SIZES,
)
ACCESSES = st.builds(
    AccessEvent,
    CLASS_NAMES, OIDS, CLASS_NAMES, OIDS, SIZES,
    st.booleans(), st.booleans(),
)
WORKS = st.builds(
    WorkEvent, CLASS_NAMES, OIDS,
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
EVENTS = st.one_of(ALLOCS, FREES, INVOKES, ACCESSES, WORKS)


def build_trace(events):
    return trace_of(events, app_name="prop", notes="hypothesis",
                    class_traits={
                        "ui.Screen": {"native": True,
                                      "stateful_native": True},
                        "app.Model": {"native": False,
                                      "stateful_native": False},
                    })


def sample_trace():
    return build_trace([
        AllocEvent(1, "app.Model", 64, "<main>", None),
        InvokeEvent("<main>", None, "app.Model", 1, "run",
                    "instance", False, 8, 8),
        AccessEvent("app.Model", 1, "int[]", 2, 128, True, False),
        WorkEvent("app.Model", 1, 1.5),
        FreeEvent(1),
    ])


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(EVENTS, max_size=40))
    def test_trace_columnar_trace(self, events):
        trace = build_trace(events)
        assert len(trace) == len(trace.events) == len(events)
        assert event_fields(trace) == event_fields(events)
        assert event_fields(trace.events) == event_fields(events)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(EVENTS, max_size=40), st.booleans())
    def test_ctrace_file_roundtrip(self, tmp_path_factory, events, use_mmap):
        trace = build_trace(events)
        path = tmp_path_factory.mktemp("ct") / "prop.ctrace"
        write_ctrace(trace, path)
        loaded = read_ctrace(path, use_mmap=use_mmap)
        try:
            assert event_fields(loaded) == event_fields(events)
            assert loaded.class_traits == trace.class_traits
        finally:
            loaded.close()

    def test_all_kinds_survive_both_file_formats(self, tmp_path):
        trace = sample_trace()
        for name in ("t.trace", "t.trace.gz"):
            jsonl = tmp_path / name
            trace.save(jsonl)
            assert event_fields(ColumnarTrace.load(jsonl)) == \
                event_fields(trace)
        ctrace = tmp_path / "t.ctrace"
        trace.save(ctrace)
        assert ctrace.read_bytes()[:4] == CTRACE_MAGIC
        loaded = ColumnarTrace.load(ctrace)
        try:
            back = tmp_path / "back.trace.gz"
            loaded.save(back)
            assert event_fields(ColumnarTrace.load(back)) == \
                event_fields(trace)
        finally:
            loaded.close()

    def test_from_trace_is_identity_on_columnar(self):
        columnar = sample_trace()
        assert ColumnarTrace.from_trace(columnar) is columnar

    def test_none_oids_use_sentinel_and_come_back_none(self):
        columnar = build_trace([
            InvokeEvent("<main>", None, "app.Model", None, "run",
                        "static", False, 0, 0),
        ])
        assert columnar.columns["a_oid"][0] == -1
        assert columnar.columns["b_oid"][0] == -1
        event = next(iter(columnar))
        assert event.caller_oid is None
        assert event.callee_oid is None

    @staticmethod
    def assert_rejected_and_unchanged(event, text):
        trace = sample_trace()
        before = event_fields(trace)
        with pytest.raises(TraceFormatError, match=text):
            trace.append(event)
        assert {len(column) for column in trace.columns.values()} == {
            len(before)}
        assert event_fields(trace) == before

    def test_negative_oid_rejected(self):
        self.assert_rejected_and_unchanged(FreeEvent(-3), "non-negative")

    def test_bool_oid_rejected(self):
        self.assert_rejected_and_unchanged(
            AllocEvent(True, "app.Model", 16, "<main>", None),
            "non-negative")

    @pytest.mark.parametrize("size", ["64", 2 ** 63])
    def test_value_its_column_cannot_hold_rejected(self, size):
        self.assert_rejected_and_unchanged(
            AllocEvent(1, "app.Model", size, "<main>", None),
            "cannot store")

    def test_pinned_classes_match_row_trace(self):
        trace = sample_trace()
        assert trace.pinned_classes() == ["ui.Screen"]
        assert trace.pinned_classes(stateless_natives_ok=True) == [
            "ui.Screen"]


class TestMmapReload:
    def test_mmap_and_copy_loads_agree(self, tmp_path):
        path = tmp_path / "m.ctrace"
        write_ctrace(sample_trace(), path)
        mapped = read_ctrace(path, use_mmap=True)
        copied = read_ctrace(path, use_mmap=False)
        try:
            assert mapped._mmap is not None
            assert copied._mmap is None
            assert event_fields(mapped) == event_fields(copied)
            assert mapped.strings == copied.strings
        finally:
            mapped.close()

    def test_close_releases_map_but_keeps_data(self, tmp_path):
        path = tmp_path / "c.ctrace"
        write_ctrace(sample_trace(), path)
        loaded = read_ctrace(path, use_mmap=True)
        expected = event_fields(loaded)
        loaded.close()
        assert loaded._mmap is None
        loaded.close()  # idempotent
        assert event_fields(loaded) == expected

    def test_mmap_backed_trace_pickles(self, tmp_path):
        path = tmp_path / "p.ctrace"
        write_ctrace(sample_trace(), path)
        loaded = read_ctrace(path, use_mmap=True)
        try:
            clone = pickle.loads(pickle.dumps(loaded))
        finally:
            loaded.close()
        assert clone._mmap is None
        assert event_fields(clone) == event_fields(sample_trace())


class TestMalformedFiles:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.ctrace"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="truncated"):
            read_ctrace(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.ctrace"
        write_ctrace(sample_trace(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_ctrace(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "v.ctrace"
        write_ctrace(sample_trace(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, CTRACE_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="version"):
            read_ctrace(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "th.ctrace"
        write_ctrace(sample_trace(), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_ctrace(path)

    def test_garbage_header_json_rejected(self, tmp_path):
        path = tmp_path / "gj.ctrace"
        garbage = b"{not json"
        path.write_bytes(
            struct.pack("<4sHHI", CTRACE_MAGIC, CTRACE_VERSION, 0,
                        len(garbage)) + garbage
        )
        with pytest.raises(TraceFormatError, match="bad ctrace header"):
            read_ctrace(path)

    def test_column_window_outside_file_rejected(self, tmp_path):
        path = tmp_path / "w.ctrace"
        write_ctrace(sample_trace(), path)
        # Cut the file short so the last column runs off the end.
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TraceFormatError, match="outside"):
            read_ctrace(path)

    def test_unknown_column_typecode_rejected(self, tmp_path):
        path = tmp_path / "tc.ctrace"
        write_ctrace(sample_trace(), path)
        raw = path.read_bytes()
        header_len = struct.unpack_from("<4sHHI", raw)[3]
        # One flipped bit turns typecode "q" into "p", which ``array``
        # does not know.
        header = raw[12:12 + header_len].replace(
            b'"typecode": "q"', b'"typecode": "p"', 1)
        assert header != raw[12:12 + header_len]
        path.write_bytes(raw[:12] + header + raw[12 + header_len:])
        with pytest.raises(TraceFormatError, match="malformed column spec"):
            read_ctrace(path)

    def test_count_mismatch_rejected(self, tmp_path):
        import json as json_module

        path = tmp_path / "n.ctrace"
        columnar = sample_trace()
        write_ctrace(columnar, path)
        raw = path.read_bytes()
        header_len = struct.unpack_from("<4sHHI", raw)[3]
        header = json_module.loads(raw[12:12 + header_len])
        header["events"] = len(columnar) + 1
        # Same rendered length: swap one digit in place.
        patched = json_module.dumps(header, sort_keys=True).encode()
        assert len(patched) == header_len
        path.write_bytes(raw[:12] + patched + raw[12 + header_len:])
        with pytest.raises(TraceFormatError, match="disagree"):
            read_ctrace(path)


class TestCheckedValues:
    """Decoding checks every value the replay would trust."""

    def replay(self, trace):
        from repro.emulator.replay import EmulatorConfig, TraceReplayer

        return TraceReplayer(trace, EmulatorConfig()).run()

    @pytest.mark.parametrize("column,value,text", [
        ("tags", 9, "unknown tag"),
        ("a_cls", 99, "string id outside"),
        ("a_cls", -1, "missing string id"),
        ("b_cls", -2, "string id outside"),
        ("b_oid", -5, "negative oid"),
        ("n1", -100, "negative size"),
    ])
    def test_bad_cell_names_column_and_event(self, column, value, text):
        columnar = sample_trace()
        columnar.columns[column][1] = value
        with pytest.raises(TraceFormatError,
                           match=rf"'{column}', event 1: {text}"):
            columnar.column_lists()

    @pytest.mark.parametrize("seconds", [-2.5, float("nan"), float("inf")])
    def test_bad_work_time_is_rejected(self, seconds):
        trace = trace_of([WorkEvent("app.Model", None, seconds)])
        with pytest.raises(TraceFormatError, match="'f64', event 0"):
            self.replay(trace)

    def test_double_free_is_rejected(self):
        trace = trace_of([AllocEvent(1, "app.Model", 1000, "<main>", None),
                          FreeEvent(1), FreeEvent(1)])
        with pytest.raises(TraceFormatError, match="FREE of oid 1"):
            self.replay(trace)

    def test_realloc_of_live_oid_is_rejected(self):
        alloc = AllocEvent(1, "app.Model", 1000, "<main>", None)
        trace = trace_of([alloc, alloc])
        with pytest.raises(TraceFormatError, match="ALLOC of oid 1"):
            self.replay(trace)


class TestOidlessObjects:
    """An allocation or a free must name its object, whichever way the
    trace comes in; oid-less ones would replay as a phantom object."""

    @pytest.mark.parametrize("row,kind", [
        (["A", None, "app.A", 16, "<main>", None], "allocation"),
        (["F", None], "free"),
    ])
    def test_jsonl_row_is_rejected_with_its_line(self, tmp_path, row, kind):
        alloc = ["A", 9, "app.Data", 8, "<main>", None]
        path = write_jsonl_rows(tmp_path / "o.trace", [alloc, row])
        with pytest.raises(TraceFormatError,
                           match=rf"every {kind} needs an oid; got None "
                                 rf"\(line 3\)"):
            read_jsonl(path)

    @pytest.mark.parametrize("event", [
        AllocEvent(None, "app.Model", 16, "<main>", None),
        FreeEvent(None),
    ])
    def test_append_rejects_and_leaves_the_trace_unchanged(self, event):
        TestRoundTrip.assert_rejected_and_unchanged(event, "needs an oid")

    def test_ctrace_cells_are_rejected_before_replay(self, tmp_path):
        from repro.emulator.replay import EmulatorConfig, TraceReplayer

        trace = trace_of([AllocEvent(1, "app.Model", 16, "<main>", None),
                          FreeEvent(1)])
        trace.columns["a_oid"][0] = -1
        trace.columns["a_oid"][1] = -1
        path = tmp_path / "oidless.ctrace"
        write_ctrace(trace, path)
        loaded = read_ctrace(path)
        with pytest.raises(TraceFormatError,
                           match=r"'a_oid', event 0: allocation or free "
                                 r"without an oid"):
            TraceReplayer(loaded, EmulatorConfig()).run()
        loaded.close()


def _fuzz_source():
    """The first 3,000 events of the dia trace, as ``.ctrace`` bytes."""
    import tempfile
    from pathlib import Path

    from repro.experiments import cached_trace
    from repro.experiments.exp_overhead import MEMORY_WORKLOADS

    dia = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    prefix = trace_of(islice(dia, 3000), app_name=dia.app_name,
                      class_traits=dia.class_traits)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "dia.ctrace"
        write_ctrace(prefix, path)
        return path.read_bytes()


class TestCorruptedFiles:
    """A truncated or byte-flipped ``.ctrace`` either fails with a
    :class:`TraceFormatError`, at load or at replay, or replays to the
    end: it never crashes the replay."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_corruption_fails_loudly_or_replays(self, data, tmp_path_factory):
        from repro.emulator.replay import EmulatorConfig, TraceReplayer

        global _FUZZ_SOURCE
        if _FUZZ_SOURCE is None:
            _FUZZ_SOURCE = _fuzz_source()
        raw = bytearray(_FUZZ_SOURCE)
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="keep")]
        else:
            for _ in range(data.draw(st.integers(1, 8), label="flips")):
                at = data.draw(st.integers(0, len(raw) - 1), label="at")
                raw[at] ^= data.draw(st.integers(1, 255), label="mask")
        path = tmp_path_factory.mktemp("fuzz") / "x.ctrace"
        path.write_bytes(bytes(raw))
        try:
            trace = read_ctrace(path, use_mmap=False)
            result = TraceReplayer(trace, EmulatorConfig()).run()
        except TraceFormatError:
            return
        assert result.events_processed == len(trace) or result.oom


_FUZZ_SOURCE = None
