"""Scan campaign execution.

A campaign runs every (tool, contract) pair exactly once under a bounded
worker pool. Each task owns its temp files; records flow through a single
serialized sink. Determinism is defined on the *set* of records, never
their order, and individual task failures are recorded, not fatal.
"""

from __future__ import annotations

import json
import logging
import re
import shlex
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import Callable, Iterable, Mapping, Sequence

from .adapters import (Findings, ReplayFixture, parse_json_output,
                       parse_text_output, resolve_replay_fixture)
from .corpus import ContractCase
from .errors import MissingRecord, ScbenchError
from .taxonomy import Registry, ToolDescriptor

logger = logging.getLogger(__name__)

# the only substitutions in a command template; other braces are literal
_PLACEHOLDER_RE = re.compile(r"\{(input|solc)\}")

STATUSES = ("ok", "timeout", "tool_error", "harness_error")


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
        return json.dumps(
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
            },
            sort_keys=True,
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
        for rec in ordered:
            fh.write(rec.to_json() + "\n")
    return len(ordered)


def read_records(path: str | Path) -> list[ScanRecord]:
    with open(path, encoding="utf-8") as fh:
        return [ScanRecord.from_json(line) for line in fh if line.strip()]


def _filter_to_capabilities(tool: ToolDescriptor, findings: Findings) -> Findings:
    kept: Findings = {}
    for cid, lines in findings.items():
        if tool.can_detect(cid):
            kept[cid] = lines
        else:
            logger.warning(
                "adapter bug: %s emitted %s outside its capability set",
                tool.name, cid,
            )
            kept[cid] = lines
    return kept


def run_scan(
    tool: ToolDescriptor,
    case: ContractCase,
    timeout: float | None = None,
    replay_dir: str | Path | None = None,
    raw_dir: str | Path | None = None,
    _fixture_cache: dict | None = None,
) -> ScanRecord:
    """Execute one scan task and classify its outcome.

    Spawn or I/O failures on our side are ``harness_error``; a non-zero
    exit from the tool is ``tool_error``; the wall clock is capped at the
    adapter timeout. Raw output is persisted under ``raw_dir`` when given.
    """
    config = tool.adapter
    cap = timeout if timeout is not None else config.timeout

    if config.kind == "stub":
        findings: Findings = {}
        for cid, lines in config.findings:
            findings[cid] = findings.get(cid, frozenset()) | frozenset(lines)
        return ScanRecord(tool.name, case.id, "ok", 0,
                          _filter_to_capabilities(tool, findings))

    if config.kind == "replay":
        try:
            fixture_path = resolve_replay_fixture(config, tool.name, replay_dir)
            if _fixture_cache is not None and fixture_path in _fixture_cache:
                fixture = _fixture_cache[fixture_path]
            else:
                fixture = ReplayFixture.load(fixture_path)
                if _fixture_cache is not None:
                    _fixture_cache[fixture_path] = fixture
        except (ScbenchError, OSError, json.JSONDecodeError) as exc:
            logger.error("replay fixture for %s unavailable: %s", tool.name, exc)
            return ScanRecord(tool.name, case.id, "harness_error", 0)
        status, duration_ms, findings = fixture.lookup(case.id)
        if status != "ok":
            findings = {}
        return ScanRecord(tool.name, case.id, status, duration_ms,
                          _filter_to_capabilities(tool, findings))

    # command-backed adapters (json / text output)
    raw_ref = None
    with tempfile.TemporaryDirectory(prefix="scbench-") as tmp:
        input_path = Path(tmp) / "contract.sol"
        input_path.write_text(case.source, "utf-8")
        values = {"input": str(input_path), "solc": str(tool.max_solidity)}
        argv = [
            _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], part)
            for part in shlex.split(config.command)
        ]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=cap
            )
            elapsed_ms = int((time.monotonic() - start) * 1000)
        except subprocess.TimeoutExpired:
            return ScanRecord(tool.name, case.id, "timeout", int(cap * 1000))
        except (OSError, ValueError) as exc:
            logger.error("failed to spawn %s: %s", tool.name, exc)
            return ScanRecord(tool.name, case.id, "harness_error", 0)

        if raw_dir is not None:
            try:
                out_dir = Path(raw_dir) / tool.name
                out_dir.mkdir(parents=True, exist_ok=True)
                raw_path = out_dir / (case.id.replace("/", "__") + ".out")
                raw_path.write_text(proc.stdout + proc.stderr, "utf-8")
                raw_ref = str(raw_path)
            except OSError as exc:
                logger.error("could not persist raw output for %s: %s",
                             tool.name, exc)
                return ScanRecord(tool.name, case.id, "harness_error", elapsed_ms)

        if proc.returncode != 0:
            return ScanRecord(tool.name, case.id, "tool_error", elapsed_ms,
                              raw_ref=raw_ref)
        try:
            if config.kind == "json":
                findings = parse_json_output(proc.stdout, config.rule_map)
            else:
                findings = parse_text_output(proc.stdout, config.rule_map,
                                             config.line_pattern)
        except (json.JSONDecodeError, re.error) as exc:
            logger.error("unparseable output from %s: %s", tool.name, exc)
            return ScanRecord(tool.name, case.id, "tool_error", elapsed_ms,
                              raw_ref=raw_ref)
        return ScanRecord(tool.name, case.id, "ok", elapsed_ms,
                          _filter_to_capabilities(tool, findings), raw_ref)


def execute_campaign(
    tools: Registry | Sequence[ToolDescriptor],
    corpus: Sequence[ContractCase],
    parallelism: int = 1,
    timeout: float | None = None,
    replay_dir: str | Path | None = None,
    raw_dir: str | Path | None = None,
    on_record: Callable[[ScanRecord], None] | None = None,
) -> list[ScanRecord]:
    """Run every (tool, contract) pair; returns |tools| x |corpus| records.

    ``on_record`` is the serialized sink hook (e.g. a JSONL appender);
    exceptions it raises abort the campaign, nothing else does.
    """
    if parallelism < 1:
        raise ScbenchError("parallelism must be >= 1")
    tool_list = list(tools)
    fixture_cache: dict = {}
    sink_lock = Lock()
    records: list[ScanRecord] = []

    def task(tool: ToolDescriptor, case: ContractCase) -> ScanRecord:
        try:
            return run_scan(tool, case, timeout=timeout, replay_dir=replay_dir,
                            raw_dir=raw_dir, _fixture_cache=fixture_cache)
        except Exception:  # record, never abort the campaign
            logger.exception("scan task crashed: %s on %s", tool.name, case.id)
            return ScanRecord(tool.name, case.id, "harness_error", 0)

    def sink(record: ScanRecord) -> None:
        with sink_lock:
            records.append(record)
            if on_record is not None:
                on_record(record)

    pairs = [(t, c) for t in tool_list for c in corpus]
    # replay fixtures are shared read-only state; prime the cache serially
    for tool in tool_list:
        if tool.adapter.kind == "replay":
            try:
                p = resolve_replay_fixture(tool.adapter, tool.name, replay_dir)
                fixture_cache.setdefault(p, ReplayFixture.load(p))
            except (ScbenchError, OSError, json.JSONDecodeError):
                pass  # the per-task path records harness_error

    if parallelism == 1:
        for tool, case in pairs:
            sink(task(tool, case))
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            for record in pool.map(lambda tc: task(*tc), pairs):
                sink(record)
    return records


class RecordSet:
    """Index over campaign records for metric queries."""

    def __init__(self, records: Iterable[ScanRecord]):
        self.records = list(records)
        self._by_pair: dict[tuple[str, str], ScanRecord] = {}
        for rec in self.records:
            self._by_pair[(rec.tool, rec.contract)] = rec

    def __len__(self) -> int:
        return len(self.records)

    def tools(self) -> list[str]:
        return sorted({r.tool for r in self.records})

    def get(self, tool: str, contract: str) -> ScanRecord:
        try:
            return self._by_pair[(tool, contract)]
        except KeyError:
            raise MissingRecord(f"no record for ({tool}, {contract})") from None

    def for_tool(self, tool: str) -> list[ScanRecord]:
        return [r for r in self.records if r.tool == tool]

    def predicted(self, tool: str, contract: str, class_id: str) -> bool:
        """Contract-level binarization: an ok record with >= 1 finding of
        the class counts as a positive prediction."""
        rec = self.get(tool, contract)
        return rec.status == "ok" and class_id in rec.findings
