"""Unit tests for trace event records and their JSONL rows."""

import pytest

from repro.emulator.columnar import read_jsonl
from repro.emulator.events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    WorkEvent,
)
from repro.errors import TraceFormatError
from tests.helpers import event_fields, trace_of, write_jsonl_rows


def sample_events():
    return [
        AllocEvent(1, "t.A", 128, "<main>", None),
        FreeEvent(1),
        InvokeEvent("t.A", 1, "t.B", 2, "run", "instance", False, 16, 8),
        InvokeEvent("t.B", 2, "java.lang.Math", None, "sqrt", "native",
                    True, 8, 8),
        AccessEvent("t.A", 1, "int[]", 3, 64, True, False),
        WorkEvent("t.A", None, 0.25),
    ]


class TestRowRoundtrip:
    @pytest.mark.parametrize("event", sample_events(),
                             ids=lambda e: e.kind)
    def test_roundtrip_preserves_fields(self, event, tmp_path):
        trace = trace_of([event])
        path = tmp_path / "one.jsonl"
        trace.save(path)
        for clone in (next(iter(trace)), next(iter(read_jsonl(path)))):
            assert type(clone) is type(event)
            assert event_fields([clone]) == event_fields([event])

    def test_invoke_flags(self):
        native = sample_events()[3]
        assert native.is_native
        assert not native.is_static
        assert native.stateless

    def test_unknown_tag_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unknown trace event tag"):
            read_jsonl(write_jsonl_rows(tmp_path / "z.jsonl", [["Z", 1]]))

    def test_empty_row_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="empty trace row"):
            read_jsonl(write_jsonl_rows(tmp_path / "e.jsonl", [[]]))

    def test_truncated_row_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="expected 6"):
            read_jsonl(write_jsonl_rows(tmp_path / "t.jsonl",
                                        [["A", 1, "t.A"]]))
