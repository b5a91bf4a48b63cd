"""Unit tests for the trace container and its JSONL persistence."""

import json
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.columnar import ColumnarTrace, read_jsonl
from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.errors import TraceFormatError
from tests.helpers import event_fields, trace_of, write_jsonl_rows


def make_trace():
    return trace_of(
        [
            AllocEvent(1, "app.Model", 64, "<main>", None),
            InvokeEvent("<main>", None, "app.Model", 1, "run",
                        "instance", False, 8, 8),
            WorkEvent("app.Model", None, 1.5),
        ],
        app_name="demo", notes="unit test",
        class_traits={
            "ui.Screen": {"native": True, "stateful_native": True},
            "util.FastMath": {"native": True, "stateful_native": False},
            "app.Model": {"native": False, "stateful_native": False},
        },
    )


def rewrite_header(path, **changes):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header.update(changes)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


class TestTrace:
    def test_length_and_iteration(self):
        trace = make_trace()
        assert len(trace) == 3
        assert len(trace.events) == 3
        assert [e.kind for e in trace] == ["alloc", "invoke", "work"]
        assert [e.kind for e in trace.events] == ["alloc", "invoke", "work"]

    def test_pinned_classes_initial_rule(self):
        trace = make_trace()
        assert trace.pinned_classes() == ["ui.Screen", "util.FastMath"]

    def test_pinned_classes_with_stateless_enhancement(self):
        trace = make_trace()
        assert trace.pinned_classes(stateless_natives_ok=True) == ["ui.Screen"]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "demo.trace"
        trace.save(path)
        loaded = ColumnarTrace.load(path)
        assert loaded.app_name == "demo"
        assert loaded.notes == "unit test"
        assert loaded.class_traits == trace.class_traits
        assert len(loaded) == len(trace)
        events = list(loaded.events)
        assert events[0].class_name == "app.Model"
        assert events[2].seconds == 1.5
        assert event_fields(loaded) == event_fields(trace)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            read_jsonl(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError):
            read_jsonl(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.trace"
        path.write_text('{"version": 99, "events": 0}\n')
        with pytest.raises(TraceFormatError):
            read_jsonl(path)

    def test_truncated_event_stream_rejected(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trunc.trace"
        trace.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceFormatError):
            read_jsonl(path)

    def test_malformed_event_line_rejected(self, tmp_path):
        path = tmp_path / "noise.trace"
        path.write_text(
            '{"version": 1, "app": "x", "class_traits": {}, "events": 1}\n'
            "{broken\n"
        )
        with pytest.raises(TraceFormatError):
            read_jsonl(path)

    def test_bad_json_error_carries_line_number(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "noise.trace"
        trace.save(path)
        with path.open("a") as stream:
            stream.write("{broken\n")
        # Rewrite the header so the count covers the extra line.
        rewrite_header(path, events=len(trace) + 1)
        with pytest.raises(TraceFormatError, match=r"line 5"):
            read_jsonl(path)

    def test_arity_mismatch_error_carries_line_number(self, tmp_path):
        path = tmp_path / "short.trace"
        path.write_text(
            '{"version": 1, "app": "x", "class_traits": {}, "events": 1}\n'
            '["A", 1, "cls"]\n'
        )
        with pytest.raises(TraceFormatError,
                           match=r"3 fields, expected 6 \(line 2\)"):
            read_jsonl(path)

    def test_unknown_tag_error_carries_line_number(self, tmp_path):
        path = tmp_path / "tag.trace"
        path.write_text(
            '{"version": 1, "app": "x", "class_traits": {}, "events": 1}\n'
            '["Z", 1]\n'
        )
        with pytest.raises(TraceFormatError, match=r"'Z' \(line 2\)"):
            read_jsonl(path)

    def test_declared_count_mismatch_rejected(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "over.trace"
        trace.save(path)
        rewrite_header(path, events=len(trace) + 2)
        with pytest.raises(TraceFormatError, match="declares"):
            read_jsonl(path)

    @pytest.mark.parametrize("row,text", [
        (["F", -5], "non-negative integer oids; got -5 for oid"),
        (["A", 1, "app.Data", "64", "<main>", None], "cannot store"),
        (["A", 1, 7, 64, "<main>", None], "names must be strings"),
        (["A", 1, "app.Data", -100, "<main>", None],
         "column 'n1', event 1: negative size"),
        (["W", "app.Data", None, -2.5],
         "column 'f64', event 1: negative or non-finite time"),
    ])
    def test_bad_value_error_carries_line_number(self, tmp_path, row, text):
        alloc = ["A", 9, "app.Data", 8, "<main>", None]
        path = write_jsonl_rows(tmp_path / "v.trace", [alloc, row])
        with pytest.raises(TraceFormatError) as raised:
            read_jsonl(path)
        assert text in str(raised.value)
        assert str(raised.value).endswith("(line 3)")

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "blank.trace"
        path.write_text(
            '{"version": 1, "app": "x", "class_traits": {}, "events": 2}\n'
            '["F", 1]\n\n["A", 1, "app.Data", -1, "<main>", null]\n'
        )
        with pytest.raises(TraceFormatError, match=r"event 1: .*\(line 4\)"):
            read_jsonl(path)


class TestGzipPersistence:
    def test_gz_suffix_roundtrips_compressed(self, tmp_path):
        trace = make_trace()
        plain = tmp_path / "demo.trace"
        packed = tmp_path / "demo.trace.gz"
        trace.save(plain)
        trace.save(packed)
        loaded = ColumnarTrace.load(packed)
        assert len(loaded) == len(trace)
        assert loaded.class_traits == trace.class_traits
        # It really is gzip on disk.
        assert packed.read_bytes()[:2] == b"\x1f\x8b"

    def test_large_trace_compresses_well(self, tmp_path):
        trace = make_trace()
        for index in range(2000):
            trace.append(AccessEvent("app.Model", None, "int[]", index,
                                     64, True, False))
        plain = tmp_path / "big.trace"
        packed = tmp_path / "big.trace.gz"
        trace.save(plain)
        trace.save(packed)
        assert packed.stat().st_size < plain.stat().st_size / 4

    def test_resave_after_append_declares_current_count(self, tmp_path):
        """Header ``events`` is computed at write time, so a trace that
        grew after a prior save declares (and round-trips) its current
        length — for gzip and plain alike."""
        import gzip

        trace = make_trace()
        for path in (tmp_path / "grow.trace", tmp_path / "grow.trace.gz"):
            trace.save(path)
            trace.append(WorkEvent("app.Model", None, 0.25))
            trace.save(path)
            loaded = ColumnarTrace.load(path)
            assert len(loaded) == len(trace)
            opener = gzip.open if path.suffix == ".gz" else open
            with opener(path, "rt", encoding="utf-8") as stream:
                header = json.loads(stream.readline())
            assert header["events"] == len(trace)

    def test_corrupt_gzip_rejected(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        make_trace().save(path)
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(TraceFormatError, match="unreadable"):
            read_jsonl(path)


def _fuzz_source():
    """The first 2,000 events of the dia trace, as JSONL bytes."""
    import tempfile
    from pathlib import Path

    from repro.experiments import cached_trace
    from repro.experiments.exp_overhead import MEMORY_WORKLOADS

    dia = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    prefix = trace_of(islice(dia, 2000), app_name=dia.app_name,
                      class_traits=dia.class_traits)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "dia.jsonl"
        prefix.save(path)
        return path.read_bytes()


class TestCorruptedJsonl:
    """A truncated or byte-flipped JSONL trace either fails with a
    :class:`TraceFormatError`, at load or at replay, or replays to the
    end: no other exception escapes."""

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
        path = tmp_path_factory.mktemp("fuzz") / "x.jsonl"
        path.write_bytes(bytes(raw))
        try:
            trace = read_jsonl(path)
            result = TraceReplayer(trace, EmulatorConfig()).run()
        except TraceFormatError:
            return
        assert result.events_processed == len(trace) or result.oom


_FUZZ_SOURCE = None
