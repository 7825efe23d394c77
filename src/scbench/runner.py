"""Scan campaign execution.

A campaign runs every (tool, contract) pair exactly once. Replay and stub
tools are answered inline from a fixture or payload loaded once per tool;
command tools spawn one process group per task under a bounded worker
pool. Determinism is defined on the *set* of records, never their order,
and individual task failures are recorded, not fatal.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, as_completed, wait
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .adapters import (Findings, ReplayFixture, merge_finding, parse_json_output,
                       parse_text_output, resolve_replay_fixture)
from .corpus import ContractCase
from .errors import ScbenchError
# the records layer stays reachable through the campaign's module
from .records import RecordSet, ScanRecord, read_records, write_records
from .taxonomy import Registry, ToolDescriptor

__all__ = ["RecordSet", "ScanRecord", "execute_campaign", "read_records", "run_scan",
           "write_records"]

logger = logging.getLogger(__name__)

# the only substitutions in a command template; other braces are literal
_PLACEHOLDER_RE = re.compile(r"\{(input|solc)\}")

_SPAWNED = ("json", "text")  # adapter kinds that run a process per task
# spawned tasks in flight per worker: every worker stays busy, and a
# failing sink stops the campaign after a handful
_WINDOW_PER_WORKER = 2
# A command runs in a process group of its own, so that a timeout kills its
# descendants too. Before Python 3.11 only a new session does that, which
# rules out vfork and costs about 1 ms more per spawn.
_OWN_GROUP = ({"process_group": 0} if sys.version_info >= (3, 11)
              else {"start_new_session": True})


def _filter_to_capabilities(tool: ToolDescriptor, findings: Findings) -> Findings:
    """Logs each class outside the tool's capabilities, but keeps it."""
    for cid in findings:
        if not tool.can_detect(cid):
            logger.warning("adapter bug: %s emitted %s outside its capability set",
                           tool.name, cid)
    return findings


def _inline_scanner(
    tool: ToolDescriptor, replay_dir: str | Path | None
) -> Callable[[ContractCase], ScanRecord]:
    """Scan function of a stub or replay tool: the payload or fixture is
    loaded once, then each case is a lookup."""
    config = tool.adapter
    if config.kind == "stub":
        payload: Findings = {}
        for cid, lines in config.findings:
            merge_finding(payload, cid, lines)
        _filter_to_capabilities(tool, payload)
        return lambda case: ScanRecord(tool.name, case.id, "ok", 0, payload)
    try:
        fixture = ReplayFixture.load(resolve_replay_fixture(config, tool.name, replay_dir))
    except (ScbenchError, OSError, ValueError, TypeError) as exc:
        logger.error("replay fixture for %s unavailable: %s", tool.name, exc)
        return lambda case: ScanRecord(tool.name, case.id, "harness_error", 0)

    def replay(case: ContractCase) -> ScanRecord:
        status, duration_ms, findings = fixture.lookup(case.id)
        return ScanRecord(tool.name, case.id, status, duration_ms,
                          _filter_to_capabilities(tool, findings) if status == "ok" else {})
    return replay


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group is gone already


def run_scan(
    tool: ToolDescriptor,
    case: ContractCase,
    timeout: float | None = None,
    replay_dir: str | Path | None = None,
    raw_dir: str | Path | None = None,
) -> ScanRecord:
    """Execute one scan task and classify its outcome.

    Spawn or I/O failures on our side are ``harness_error``; a non-zero
    exit from the tool is ``tool_error``; the wall clock is capped at the
    adapter timeout, after which the tool's whole process group is killed.
    Raw output is persisted under ``raw_dir`` when given.
    """
    if tool.adapter.kind not in _SPAWNED:
        return _inline_scanner(tool, replay_dir)(case)
    return _spawn_scan(tool, case, timeout, raw_dir, set())


def _spawn_scan(tool: ToolDescriptor, case: ContractCase, timeout: float | None,
                raw_dir: str | Path | None, live: set[int]) -> ScanRecord:
    """:func:`run_scan` of a command tool; ``live`` holds the process
    groups of the campaign's running tools, for an abort to kill."""
    config = tool.adapter
    cap = timeout if timeout is not None else config.timeout

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
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True, **_OWN_GROUP)
        except (OSError, ValueError) as exc:
            logger.error("failed to spawn %s: %s", tool.name, exc)
            return ScanRecord(tool.name, case.id, "harness_error", 0)
        live.add(proc.pid)
        try:
            stdout, stderr = proc.communicate(timeout=cap)
        except BaseException as exc:  # a timeout or an interrupt
            _kill_group(proc.pid)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                return ScanRecord(tool.name, case.id, "timeout", int(cap * 1000))
            raise
        finally:
            live.discard(proc.pid)
        elapsed_ms = int((time.monotonic() - start) * 1000)

        if raw_dir is not None:
            try:
                out_dir = Path(raw_dir) / tool.name
                out_dir.mkdir(parents=True, exist_ok=True)
                raw_path = out_dir / (case.id.replace("/", "__") + ".out")
                raw_path.write_text(stdout + stderr, "utf-8")
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
                findings = parse_json_output(stdout, config.rule_map)
            else:
                findings = parse_text_output(stdout, config.rule_map,
                                             config.line_pattern)
        except (json.JSONDecodeError, re.error) as exc:
            logger.error("unparseable output from %s: %s", tool.name, exc)
            return ScanRecord(tool.name, case.id, "tool_error", elapsed_ms,
                              raw_ref=raw_ref)
        return ScanRecord(tool.name, case.id, "ok", elapsed_ms,
                          _filter_to_capabilities(tool, findings), raw_ref)


def _guarded(scan: Callable[[ContractCase], ScanRecord], tool: ToolDescriptor,
             case: ContractCase) -> ScanRecord:
    try:
        return scan(case)
    except Exception:  # record, never abort the campaign
        logger.exception("scan task crashed: %s on %s", tool.name, case.id)
        return ScanRecord(tool.name, case.id, "harness_error", 0)


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

    Stub and replay tools run inline, before the command tools; those run
    on ``parallelism`` worker threads (no pool at 1) with a bounded window
    of tasks in flight, and their records are sunk as they complete.
    ``on_record`` is the sink hook (e.g. a JSONL appender), called in this
    thread. An exception it raises, or an interrupt, aborts the campaign:
    queued tasks are cancelled and running tools killed. Nothing else does.
    """
    if parallelism < 1:
        raise ScbenchError("parallelism must be >= 1")
    records: list[ScanRecord] = []

    def sink(record: ScanRecord) -> None:
        records.append(record)
        if on_record is not None:
            on_record(record)

    jobs = []
    live: set[int] = set()  # one add or discard per task: atomic under the GIL
    for tool in tools:
        if tool.adapter.kind in _SPAWNED:
            scan = partial(_spawn_scan, tool, timeout=timeout, raw_dir=raw_dir, live=live)
            jobs += [(scan, tool, case) for case in corpus]
        else:
            scan = _inline_scanner(tool, replay_dir)
            for case in corpus:
                sink(_guarded(scan, tool, case))
    if parallelism == 1 or not jobs:
        for job in jobs:
            sink(_guarded(*job))
        return records
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        in_flight: set = set()
        try:
            for job in jobs:
                if len(in_flight) >= _WINDOW_PER_WORKER * parallelism:
                    done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        sink(future.result())
                in_flight.add(pool.submit(_guarded, *job))
            for future in as_completed(in_flight):
                sink(future.result())
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            for pgid in list(live):
                _kill_group(pgid)
            raise
    return records
