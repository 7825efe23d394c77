"""Scan records: one outcome per (tool, contract), the JSON-lines file
that stores a campaign's records, and the outcome table the scoring layers
fold that file into.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import stat
from collections import namedtuple
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import DuplicateRecord, ScbenchError

if TYPE_CHECKING:
    from .corpus import ContractCase

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


def _checked(tool, contract, status, duration_ms, findings, raw_ref) -> tuple:
    """The fields of a scan record, checked; the first wrong one raises."""
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
    return tool, contract, status, duration_ms, findings, raw_ref


class ScanRecord(namedtuple("ScanRecord", "tool contract status duration_ms findings raw_ref")):
    """Outcome of one (tool, contract) execution.

    An immutable tuple whose fields are checked when it is built, by
    ``_replace`` too. It equals another record with the same fields, and
    nothing else."""

    __slots__ = ()

    def __new__(cls, tool: str, contract: str, status: str, duration_ms: int,
                findings: Mapping[str, frozenset[int]] | None = None,
                raw_ref: str | None = None) -> "ScanRecord":
        return tuple.__new__(cls, _checked(tool, contract, status, duration_ms, findings,
                                           raw_ref))

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


def _fields(doc) -> tuple:
    """The checked fields of one decoded records line, as a
    :class:`ScanRecord` holds them (:func:`_checked`); a class listed twice
    raises too."""
    tool, contract, found = doc["tool"], doc["contract"], doc.get("findings", ())
    status, duration_ms, findings = doc["status"], doc["duration_ms"], {}
    for f in found:  # a loop, not a comprehension: most lines list no finding
        cid = f["class"]
        findings[cid] = frozenset(f.get("lines", ()))
    fields = _checked(tool, contract, status, duration_ms, findings, doc.get("raw_ref"))
    if len(fields[4]) != len(found):
        classes = [f["class"] for f in found]
        repeated = next(c for c in classes if classes.count(c) > 1)
        raise ScbenchError(f"findings list class {repeated!r} twice")
    return fields


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
    """Stream the records of ``path`` into ``add``, the checked fields of
    one line (:func:`_fields`) at a time, a batch of lines read at a time.
    A line that strips to nothing is blank; any other must be one JSON
    value, as ``json.loads`` of the line takes it. The first malformed
    line, or the first that ``add`` refuses, raises naming the file and
    line."""
    try:
        with open(path, "rb") as fh, gc_paused():
            for lineno, raw in enumerate(_lines(fh), 1):
                try:
                    line = raw.decode("utf-8")
                    if not line.isspace():  # a line is never empty
                        add(_fields(_loads(line)))
                except _MALFORMED as exc:
                    detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                    kind = DuplicateRecord if isinstance(exc, DuplicateRecord) else ScbenchError
                    raise kind(f"{path}:{lineno}: {detail}") from None
    except OSError as exc:
        raise ScbenchError(f"cannot read records {path}: {exc.strerror}") from None


def read_records(path: str | Path) -> list[ScanRecord]:
    """The records of a JSON-lines file, in file order (see :func:`_read`)."""
    records: list[ScanRecord] = []
    _read(path, lambda fields: records.append(tuple.__new__(ScanRecord, fields)))
    return records


class Outcomes:
    """A campaign's records, folded as the file streams in into a list per
    tool indexed by corpus position: None while the contract has no record,
    the status of a scan that did not end ok, and for an ok scan the class
    ids it flagged, in the file's order (one shared tuple per distinct
    list); beside it, the tool's total ms of ok scans. Finding lines and
    the durations of other scans are checked, then dropped: no metric
    reads them."""

    def __init__(self, corpus: Sequence[ContractCase]):
        self.corpus = corpus
        self._index = {case.id: at for at, case in enumerate(corpus)}
        self._slots: dict[str, list[str | tuple[str, ...] | None]] = {}
        self._ok_ms: dict[str, int] = {}
        self._share = {}.setdefault

    @property
    def tools(self) -> list[str]:
        """The recorded tools, in the order of their first record."""
        return list(self._slots)

    def add(self, fields: tuple) -> None:
        """Fold one record's fields in; a contract outside the corpus, or a
        second record for a (tool, contract) pair, raises."""
        tool, contract, status, duration_ms, findings, _ = fields
        at = self._index.get(contract)
        if at is None:
            raise ScbenchError(f"records name contract {contract!r} (tool {tool}), "
                               "which is not in the corpus")
        slots = self._slots.get(tool)
        if slots is None:
            slots = self._slots[tool] = [None] * len(self.corpus)
            self._ok_ms[tool] = 0
        if slots[at] is not None:
            raise DuplicateRecord(f"duplicate record for ({tool}, {contract})")
        if status == "ok":
            classes = tuple(findings)
            slots[at] = self._share(classes, classes)
            self._ok_ms[tool] += duration_ms
        else:
            slots[at] = status

    def ok_scans(self, tool: str) -> tuple[list[tuple[int, tuple[str, ...]]], int, int]:
        """``tool``'s scans that ended ok, as (corpus position, class ids
        flagged) in corpus order; their total ms; and the position of the
        first corpus contract that ``tool`` has no record for (the corpus
        length when there is none)."""
        slots = self._slots.get(tool, [None] * len(self.corpus))
        return ([(at, slot) for at, slot in enumerate(slots) if type(slot) is tuple],
                self._ok_ms.get(tool, 0), slots.index(None) if None in slots else len(slots))


def load_outcomes(path: str | Path, corpus: Sequence[ContractCase]) -> Outcomes:
    """The records of ``path`` folded over ``corpus``, each line checked as
    :func:`read_records` checks it."""
    outcomes = Outcomes(corpus)
    _read(path, outcomes.add)
    return outcomes


# No command uses RecordSet: perfbench/traced.py patches its __init__ on
# the runner module, and test_names_the_benchmark_reads pins it there.
class RecordSet:
    """Campaign records by tool and contract; a duplicate pair raises
    :class:`DuplicateRecord`."""

    def __init__(self, records: Iterable[ScanRecord] = ()):
        self._by_tool: dict[str, dict[str, ScanRecord]] = {}
        for rec in records:
            by_contract = self._by_tool.setdefault(rec.tool, {})
            if rec.contract in by_contract:
                raise DuplicateRecord(f"duplicate record for ({rec.tool}, {rec.contract})")
            by_contract[rec.contract] = rec

    def of_tool(self, tool: str) -> Mapping[str, ScanRecord]:
        """The records of ``tool`` by contract id; empty for a tool with no
        record."""
        return self._by_tool.get(tool, {})
