"""Scan records: one outcome per (tool, contract), the JSON-lines file
that stores a campaign's records, and the index the scoring layers query.
"""

from __future__ import annotations

import gc
import json
from collections import namedtuple
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DuplicateRecord, MissingRecord, ScbenchError

STATUSES = ("ok", "timeout", "tool_error", "harness_error")

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
        if status not in STATUSES:
            raise ScbenchError(f"unknown status {status!r}")
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

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        return _from_doc(json.loads(line))


def _from_doc(doc) -> ScanRecord:
    return ScanRecord(
        doc["tool"],
        doc["contract"],
        doc["status"],
        int(doc["duration_ms"]),
        {f["class"]: frozenset(f.get("lines", ())) for f in doc.get("findings", ())},
        doc.get("raw_ref"),
    )


def write_records(records: Iterable[ScanRecord], path: str | Path) -> int:
    """Persist records as JSON-lines, sorted by (tool, contract) for
    byte-stable output."""
    ordered = sorted(records, key=itemgetter(0, 1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([rec.to_json() + "\n" for rec in ordered]))
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


def read_records(path: str | Path, unique: bool = False) -> list[ScanRecord]:
    """Load JSON-lines records. A line that strips to nothing is blank; any
    other must be one JSON value, as ``json.loads`` of the line takes it.
    The first malformed line raises :class:`ScbenchError` naming the file
    and line, as does, with ``unique``, the second record for a
    (tool, contract)."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)  # at "\n", "\r\n" and "\r"
    except OSError as exc:
        raise ScbenchError(f"cannot read records {path}: {exc.strerror}") from None
    records = []
    seen: set[tuple[str, str]] = set()
    with gc_paused():
        for lineno, raw in enumerate(lines, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = _from_doc(_loads(line))
            except _MALFORMED as exc:
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ScbenchError(f"{path}:{lineno}: {detail}") from None
            if unique:
                pair = (rec.tool, rec.contract)
                if pair in seen:
                    raise ScbenchError(f"{path}:{lineno}: duplicate record for "
                                       f"({rec.tool}, {rec.contract})")
                seen.add(pair)
            records.append(rec)
    return records


class RecordSet:
    """Index over campaign records for metric queries: one record per
    (tool, contract) pair, a duplicate raises :class:`DuplicateRecord`."""

    def __init__(self, records: Iterable[ScanRecord]):
        self.records = list(records)
        self._by_pair: dict[tuple[str, str], ScanRecord] = {}
        self._by_tool: dict[str, list[ScanRecord]] = {}
        for rec in self.records:
            pair = (rec.tool, rec.contract)
            if pair in self._by_pair:
                raise DuplicateRecord(f"duplicate record for ({rec.tool}, {rec.contract})")
            self._by_pair[pair] = rec
            self._by_tool.setdefault(rec.tool, []).append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def tools(self) -> list[str]:
        return sorted(self._by_tool)

    def get(self, tool: str, contract: str) -> ScanRecord:
        try:
            return self._by_pair[(tool, contract)]
        except KeyError:
            raise MissingRecord(f"no record for ({tool}, {contract})") from None

    def for_tool(self, tool: str) -> list[ScanRecord]:
        return self._by_tool.get(tool, [])


def load_record_set(path: str | Path) -> RecordSet:
    """:func:`read_records` indexed as a :class:`RecordSet`. Only a file the
    index rejects is read again, to name the line of the second record for
    a (tool, contract)."""
    records = read_records(path)
    try:
        return RecordSet(records)
    except DuplicateRecord:
        read_records(path, unique=True)
        raise
