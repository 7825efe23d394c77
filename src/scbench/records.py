"""Scan records: one outcome per (tool, contract), the JSON-lines file
that stores a campaign's records, and the index the scoring layers query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NoReturn

from .errors import DuplicateRecord, MissingRecord, ScbenchError

STATUSES = ("ok", "timeout", "tool_error", "harness_error")

_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class ScanRecord:
    """Outcome of one (tool, contract) execution."""

    tool: str
    contract: str
    status: str
    duration_ms: int
    findings: Mapping[str, frozenset[int]] = field(default_factory=dict)
    raw_ref: str | None = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ScbenchError(f"unknown status {self.status!r}")
        if self.status != "ok" and self.findings:
            raise ScbenchError("findings must be empty unless status is ok")
        if self.duration_ms < 0:
            raise ScbenchError("negative duration")

    def to_json(self) -> str:
        return _ENCODER.encode(
            {
                "tool": self.tool,
                "contract": self.contract,
                "status": self.status,
                "duration_ms": self.duration_ms,
                "findings": [
                    {"class": cid, "lines": sorted(lines)}
                    for cid, lines in sorted(self.findings.items())
                ],
                "raw_ref": self.raw_ref,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        doc = json.loads(line)
        return cls(
            tool=doc["tool"],
            contract=doc["contract"],
            status=doc["status"],
            duration_ms=int(doc["duration_ms"]),
            findings={
                f["class"]: frozenset(f.get("lines", ()))
                for f in doc.get("findings", ())
            },
            raw_ref=doc.get("raw_ref"),
        )


def write_records(records: Iterable[ScanRecord], path: str | Path) -> int:
    """Persist records as JSON-lines, sorted by (tool, contract) for
    byte-stable output."""
    ordered = sorted(records, key=lambda r: (r.tool, r.contract))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rec.to_json() + "\n" for rec in ordered))
    return len(ordered)


def read_records(path: str | Path) -> list[ScanRecord]:
    """Load JSON-lines records; a malformed line raises :class:`ScbenchError`
    naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        try:
            return [ScanRecord.from_json(line) for line in fh if line.strip()]
        except (ValueError, KeyError, TypeError, ScbenchError):
            pass  # read again, line by line, to name the first bad one
    _raise_first_bad_line(path)


def _raise_first_bad_line(path: str | Path) -> NoReturn:
    """Read a rejected records file again, line by line, to name the first
    malformed line or repeated (tool, contract) pair."""
    seen: set[tuple[str, str]] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = ScanRecord.from_json(line)
            except (ValueError, KeyError, TypeError, ScbenchError) as exc:
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ScbenchError(f"{path}:{lineno}: {detail}") from None
            pair = (rec.tool, rec.contract)
            if pair in seen:
                raise ScbenchError(f"{path}:{lineno}: duplicate record for "
                                   f"({rec.tool}, {rec.contract})")
            seen.add(pair)
    raise ScbenchError(f"{path}: not a JSON-lines records file")


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
        _raise_first_bad_line(path)
