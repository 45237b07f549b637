"""The record-log rule of ``repro.obs.jsonl``, cut at every byte."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.obs.jsonl import RecordTail, append_record, read_records, repair

_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=2)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=4,
)
_RECORDS = st.lists(
    st.dictionaries(st.text(max_size=3), _VALUES, max_size=3), max_size=3
)


@settings(max_examples=30, deadline=None)
@given(records=_RECORDS, chunks=st.lists(st.integers(1, 16), min_size=1, max_size=4))
def test_every_cut_reads_repairs_and_tails_to_the_intact_prefix(
    tmp_path_factory, records, chunks
):
    directory = tmp_path_factory.mktemp("jsonl")
    full = directory / "full.jsonl"
    for record in records:
        append_record(full, record)
    data = full.read_bytes() if records else b""
    # record i is intact once its whole line is on disk, newline or not
    line_ends = [index for index, byte in enumerate(data) if byte == ord("\n")]
    extra = {"appended": True}
    for cut in range(len(data) + 1):
        intact = sum(1 for end in line_ends if end <= cut)
        expected = records[:intact]
        path = directory / "cut.jsonl"
        path.write_bytes(data[:cut])

        assert read_records(path, TraceError, "log") == expected

        assert repair(path, TraceError, "log") == expected
        append_record(path, extra)
        assert read_records(path, TraceError, "log") == expected + [extra]
        boundary = line_ends[intact - 1] + 1 if intact else 0
        assert path.read_bytes() == data[:boundary] + (
            json.dumps(extra, sort_keys=True).encode() + b"\n"
        )

        path.write_bytes(b"")
        tail = RecordTail(path, TraceError, "log")
        tailed = tail.poll()
        position, step = 0, 0
        while position < cut:
            size = chunks[step % len(chunks)]
            with open(path, "ab") as handle:
                handle.write(data[position : min(cut, position + size)])
            position, step = position + size, step + 1
            tailed.extend(tail.poll())
        assert tailed == expected
