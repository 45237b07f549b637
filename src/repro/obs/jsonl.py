"""One record log: the JSONL rule every artifact reader and appender shares.

Traces, metrics snapshots, audit bundles and sweep checkpoints are JSONL
files appended by processes that can be killed at any byte.  Over a
file's ``\\n``-separated lines, blank lines skipped: a line that decodes
as a JSON object is an intact record, newline or not (a proper prefix of
an object line never decodes); an undecodable *final* line is the torn
tail of a killed writer and is dropped; an undecodable line with
anything after it, or a non-object line, is corruption and raises the
caller's error type.

:func:`read_records` reads at rest, :func:`repair` opens a file for
appending, :func:`append_record` writes one record durably and
:class:`RecordTail` polls a file still being written.  They share one
scanner, so a repair never changes what a reader returns and a tail fed
the file in any chunks yields exactly the at-rest records.  Formats add
only their own checks (:func:`header_problem` for the header-first ones)
and error types.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Type

from ..errors import ReproError

__all__ = ["RecordTail", "append_record", "header_problem", "read_records", "repair"]


class _Scanner:
    """The intact-record rule, applied to bytes as they arrive."""

    def __init__(self, error: Type[ReproError], name: str) -> None:
        self._error = error
        self._name = name
        self._pending = b""  # bytes after the last newline
        self._lines = 0  # complete lines consumed
        self._consumed = 0  # bytes consumed through the last newline
        self._torn: Optional[int] = None  # line number of an undecodable line
        self._pending_read = False  # the pending line was already yielded
        #: Byte offset just past the last intact record, and whether
        #: that record's newline is in the file.
        self.intact_end = 0
        self.terminated = True

    def _decode(self, line: bytes, number: int, complete: bool) -> Optional[Dict]:
        if not line.strip():
            return None
        if self._torn is not None:
            raise self._error(
                f"{self._name} line {self._torn} is not JSON but is not the final line"
            )
        try:
            record = json.loads(line)
        except ValueError:
            if complete:
                self._torn = number
            return None
        if not isinstance(record, dict):
            raise self._error(f"{self._name} line {number} is not a JSON object")
        return record

    def feed(self, data: bytes) -> List[Dict]:
        """The records ``data`` makes readable, in file order."""
        *lines, self._pending = (self._pending + data).split(b"\n")
        records: List[Dict] = []
        for line in lines:
            self._lines += 1
            self._consumed += len(line) + 1
            record = self._decode(line, self._lines, complete=True)
            if record is not None:
                if not self._pending_read:
                    records.append(record)
                self.intact_end, self.terminated = self._consumed, True
            self._pending_read = False
        if not self._pending_read:
            record = self._decode(self._pending, self._lines + 1, complete=False)
            if record is not None:
                records.append(record)
                self._pending_read = True
                self.intact_end = self._consumed + len(self._pending)
                self.terminated = False
        return records


def read_records(source, error: Type[ReproError], name: str) -> List[Dict]:
    """The intact records of a JSONL file (a path) or iterable of lines.

    ``name`` opens every error message.  A missing file raises
    :class:`FileNotFoundError`.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as handle:
            data = handle.read()
    else:
        data = "\n".join(line.rstrip("\n") for line in source).encode("utf-8")
    return _Scanner(error, name).feed(data)


def header_problem(records: List[Dict], schema: str) -> Optional[str]:
    """Why ``records`` do not open with a ``schema`` header, or ``None``."""
    if not records:
        return "is empty: no header record"
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != schema:
        return f"does not start with a {schema!r} header: {header!r}"
    return None


def repair(path, error: Type[ReproError], name: str) -> List[Dict]:
    """Open ``path`` for appending; return its intact records.

    Cuts a torn tail and terminates a final record that lost only its
    newline, so the next append cannot fuse with a fragment.  The
    records are what :func:`read_records` returns before and after.  A
    missing file is an empty log; corruption raises ``error``.
    """
    if not os.path.exists(path):
        return []
    with open(path, "r+b") as handle:
        scanner = _Scanner(error, name)
        records = scanner.feed(handle.read())
        # The next append's fsync makes the repair durable; without one,
        # readers see the same records either way.
        handle.truncate(scanner.intact_end)
        if not scanner.terminated:
            handle.write(b"\n")  # the unterminated record ends the file
    return records


def append_record(path, record: Dict) -> None:
    """Durably append one record (write, flush, ``fsync``).

    A kill at any instant loses at most this record, as a torn tail.
    """
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


class RecordTail:
    """Poll a JSONL file that another process is still appending to.

    A partial final line is held back until it decodes, so a record
    mid-``write`` is never read half-done.
    """

    def __init__(self, path, error: Type[ReproError], name: str) -> None:
        self.path = os.fspath(path)
        self._offset = 0
        self._scanner = _Scanner(error, name)

    def poll(self) -> List[Dict]:
        """The records that became readable since the last poll."""
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        self._offset += len(chunk)
        return self._scanner.feed(chunk)
