"""Scan records: one outcome per (tool, contract), the JSON-lines file
that stores a campaign's records, and the index the scoring layers query.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import stat
from collections import namedtuple
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import DuplicateRecord, MissingRecord, ScbenchError

STATUSES = ("ok", "timeout", "tool_error", "harness_error")
_STATUS = {status: status for status in STATUSES}  # one object per status

# what a records line can get wrong, short of an unreadable file
_MALFORMED = (ValueError, KeyError, TypeError, OverflowError, ScbenchError)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector over a bulk build of acyclic
    containers, which reference counting frees without it. Each collection
    it would run in between traverses every container built so far."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def check_findings(findings: Mapping[str, Iterable[int]]) -> None:
    """Raise :class:`ScbenchError` unless every class id is a string and
    every line an integer (``bool`` is not one)."""
    for cid, lines in findings.items():
        if type(cid) is not str:
            raise ScbenchError(f"class id {cid!r} is not a string")
        for line in lines:
            if type(line) is not int:
                raise ScbenchError(f"line {line!r} of {cid} is not an integer")


class ScanRecord(namedtuple("ScanRecord", "tool contract status duration_ms findings raw_ref")):
    """Outcome of one (tool, contract) execution.

    An immutable tuple whose fields are checked when it is built, by
    ``_replace`` too. It equals another record with the same fields, and
    nothing else."""

    __slots__ = ()

    def __new__(cls, tool: str, contract: str, status: str, duration_ms: int,
                findings: Mapping[str, frozenset[int]] | None = None,
                raw_ref: str | None = None) -> "ScanRecord":
        try:
            status = _STATUS[status]
        except (KeyError, TypeError):
            raise ScbenchError(f"unknown status {status!r}") from None
        if findings:
            if status != "ok":
                raise ScbenchError("findings must be empty unless status is ok")
            check_findings(findings)
        elif findings is None:
            findings = {}
        if type(duration_ms) is not int:
            raise ScbenchError(f"duration_ms {duration_ms!r} is not an integer")
        if duration_ms < 0:
            raise ScbenchError("negative duration")
        if type(tool) is not str or type(contract) is not str or (
                raw_ref is not None and type(raw_ref) is not str):
            raise ScbenchError("tool, contract and raw_ref must be strings")
        return tuple.__new__(cls, (tool, contract, status, duration_ms, findings, raw_ref))

    @classmethod
    def _make(cls, iterable) -> "ScanRecord":
        return cls(*iterable)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def to_json(self) -> str:
        """The record's JSON line, without its newline: the bytes
        ``json.dumps(doc, sort_keys=True)`` gives for the record's document,
        formatted directly, since the fields can only be strings, ints and
        a ``None`` ``raw_ref``."""
        tool, contract, status, duration_ms, findings, raw_ref = self
        found = ", ".join([
            f'{{"class": {_quote(cid)}, "lines": [{", ".join(map(str, sorted(findings[cid])))}]}}'
            for cid in sorted(findings)]) if findings else ""
        ref = "null" if raw_ref is None else _quote(raw_ref)
        return (f'{{"contract": {_quote(contract)}, "duration_ms": {duration_ms}, '
                f'"findings": [{found}], "raw_ref": {ref}, '
                f'"status": {_quote(status)}, "tool": {_quote(tool)}}}')


def _from_doc(doc, share) -> ScanRecord:
    """The record of one decoded records line. ``share``, the ``setdefault``
    of a dict kept across lines, swaps each tool name, contract id and line
    set for the one object kept for its value; it sees a value only once
    its type is checked, so a bad line fails as it would without it."""
    tool, contract = doc["tool"], doc["contract"]
    rec = ScanRecord(
        share(tool, tool) if type(tool) is str else tool,
        share(contract, contract) if type(contract) is str else contract,
        doc["status"],
        int(doc["duration_ms"]),
        {f["class"]: frozenset(f.get("lines", ())) for f in doc.get("findings", ())},
        doc.get("raw_ref"),
    )
    findings = rec.findings  # the record's own dict, its lines checked
    for cid, lines in findings.items():
        findings[cid] = share(lines, lines)
    return rec


def _cannot_write(path, reason: str) -> ScbenchError:
    return ScbenchError(f"cannot write records {path}: {reason}")


def check_records_dir(path: str | Path) -> None:
    """Raise :class:`ScbenchError` unless the records file ``path`` can be
    made: its directory exists and can be written, and ``path`` is not a
    directory. So a campaign can fail before it runs."""
    directory = os.path.dirname(os.fspath(path)) or os.curdir
    try:
        is_dir = stat.S_ISDIR(os.stat(directory).st_mode)
    except OSError as exc:
        raise _cannot_write(path, exc.strerror) from None
    code = (errno.ENOTDIR if not is_dir
            else errno.EACCES if not os.access(directory, os.W_OK | os.X_OK)
            else errno.EISDIR if os.path.isdir(path) else None)
    if code:
        raise _cannot_write(path, os.strerror(code))


_CHUNK = 1024  # records formatted and written per write


def write_records(records: Iterable[ScanRecord], path: str | Path) -> int:
    """Persist records as JSON-lines, sorted by (tool, contract) for
    byte-stable output. The lines are written a chunk at a time, so only
    one chunk of the output is held at once. A file that cannot be written
    raises :class:`ScbenchError`."""
    ordered = sorted(records, key=itemgetter(1))
    ordered.sort(key=itemgetter(0))  # stable: by (tool, contract), with no key tuples
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, len(ordered), _CHUNK):
                fh.write("".join([rec.to_json() + "\n"
                                  for rec in ordered[start:start + _CHUNK]]))
    except OSError as exc:
        raise _cannot_write(path, exc.strerror) from None
    return len(ordered)


_scan_value = json.JSONDecoder().scan_once  # the C scanner json.loads runs
_LINE_ENDS = ("", "\n", "\r\n", "\r")


def _loads(line: str):
    """``json.loads(line)``, without its per-call overhead for a line that
    starts with its value and ends with it, as the writer writes one. Any
    other line is left to ``json.loads``, which takes it or names the fault."""
    try:
        doc, end = _scan_value(line, 0)
    except StopIteration:
        return json.loads(line)
    return doc if line[end:] in _LINE_ENDS else json.loads(line)


_BATCH = 1 << 16  # bytes of whole lines read at a time


def _lines(fh):
    r"""The lines of binary file ``fh`` as ``fh.read().splitlines(keepends=True)``
    gives them, ended by "\n", "\r\n" or "\r", read a batch at a time.
    ``readlines`` ends a line at "\n" only, so a batch that holds a "\r" is
    split again; it ends at a "\n" or at the end of the file, so no
    "\r\n" is parted."""
    while batch := fh.readlines(_BATCH):
        block = b"".join(batch)
        yield from block.splitlines(keepends=True) if b"\r" in block else batch


def _read(path: str | Path, add) -> None:
    """Stream the records of ``path`` into ``add``, a batch of lines at a
    time. A line that strips to nothing is blank; any other must be one
    JSON value, as ``json.loads`` of the line takes it. The first malformed
    line raises :class:`ScbenchError` naming the file and line, and so
    does a :class:`DuplicateRecord` that ``add`` raises. Equal tool names,
    contract ids, statuses and line sets are one object each."""
    share = {}.setdefault
    try:
        with open(path, "rb") as fh, gc_paused():
            for lineno, raw in enumerate(_lines(fh), 1):
                try:
                    line = raw.decode("utf-8")
                    if not line.strip():
                        continue
                    rec = _from_doc(_loads(line), share)
                except _MALFORMED as exc:
                    detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                    raise ScbenchError(f"{path}:{lineno}: {detail}") from None
                try:
                    add(rec)
                except DuplicateRecord as exc:
                    raise DuplicateRecord(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise ScbenchError(f"cannot read records {path}: {exc.strerror}") from None


def read_records(path: str | Path) -> list[ScanRecord]:
    """The records of a JSON-lines file, in file order (see :func:`_read`)."""
    records: list[ScanRecord] = []
    _read(path, records.append)
    return records


class RecordSet:
    """Index over campaign records for metric queries: tool -> contract ->
    record, one record per (tool, contract) pair; a duplicate raises
    :class:`DuplicateRecord`. It iterates tool by tool, in the order each
    tool is first added, and each tool's records in the order they are
    added. For a file in writer order, that is file order."""

    def __init__(self, records: Iterable[ScanRecord] = ()):
        self._by_tool: dict[str, dict[str, ScanRecord]] = {}
        for rec in records:
            self.add(rec)

    def add(self, rec: ScanRecord) -> None:
        by_contract = self._by_tool.get(rec.tool)
        if by_contract is None:
            by_contract = self._by_tool[rec.tool] = {}
        if rec.contract in by_contract:
            raise DuplicateRecord(f"duplicate record for ({rec.tool}, {rec.contract})")
        by_contract[rec.contract] = rec

    def __iter__(self) -> Iterator[ScanRecord]:
        return chain.from_iterable(map(dict.values, self._by_tool.values()))

    def tools(self) -> list[str]:
        return sorted(self._by_tool)

    def get(self, tool: str, contract: str) -> ScanRecord:
        try:
            return self._by_tool[tool][contract]
        except KeyError:
            raise MissingRecord(f"no record for ({tool}, {contract})") from None

    def for_tool(self, tool: str) -> list[ScanRecord]:
        return list(self._by_tool.get(tool, {}).values())


def load_record_set(path: str | Path) -> RecordSet:
    """The records of ``path``, indexed as the file streams in: the second
    record for a (tool, contract) raises naming the file and its line."""
    index = RecordSet()
    _read(path, index.add)
    return index
