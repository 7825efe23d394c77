"""Scan campaign execution.

A campaign runs every (tool, contract) pair exactly once. Replay and stub
tools are answered inline from a fixture or payload loaded once per tool;
command tools spawn one process group per task under a bounded worker
pool. Determinism is defined on the *set* of records, never their order,
and individual task failures are recorded, not fatal.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import Logger
from .adapters import (Findings, ReplayFixture, merge_finding, parse_json_output,
                       parse_text_output, resolve_replay_fixture)
from .corpus import ContractCase
from .errors import ScbenchError
# RecordSet, read_records and write_records are not used here: their one
# reader is perfbench/traced.py, which looks them up on this module to time
# the records layer. They go when it reads them from ``records``.
from .records import RecordSet, ScanRecord, gc_paused, read_records, write_records
from .taxonomy import Registry, ToolDescriptor

# The modules that only command tools need are imported where those run,
# so that a replay or stub campaign does not load them.
if TYPE_CHECKING:
    import subprocess

__all__ = ["RecordSet", "execute_campaign", "read_records", "write_records"]

logger = Logger(__name__)

_SPAWNED = ("json", "text")  # adapter kinds that run a process per task
# spawned tasks in flight per worker: every worker stays busy, and a
# failing sink stops the campaign after a handful
_WINDOW_PER_WORKER = 2
# A command runs in a process group of its own, so that a timeout kills its
# descendants too. Before Python 3.11 only a new session does that, which
# rules out vfork and costs about 1 ms more per spawn.
_OWN_GROUP = ({"process_group": 0} if sys.version_info >= (3, 11)
              else {"start_new_session": True})


def _filter_to_capabilities(tool: ToolDescriptor, record: ScanRecord,
                            dropped: Counter) -> ScanRecord:
    """The record without the findings outside the tool's capabilities (an
    adapter bug: no metric can score them), counted per tool in ``dropped``."""
    if record.findings.keys() <= tool.capabilities:
        return record
    kept = {cid: lines for cid, lines in record.findings.items() if tool.can_detect(cid)}
    dropped[tool.name] += len(record.findings) - len(kept)
    return record._replace(findings=kept)


def _inline_scanner(
    tool: ToolDescriptor, replay_dir: str | Path | None,
    failed: list[tuple[str, str | None]],
) -> Callable[[ContractCase], ScanRecord]:
    """Scan function of a stub or replay tool: the payload or fixture is
    loaded once, then each case is a lookup. A case the fixture does not
    record, or records in a malformed entry, is a ``harness_error``;
    ``failed`` receives its id and, for a malformed entry, a message naming
    the fixture, the entry and the fault."""
    config = tool.adapter
    if config.kind == "stub":
        payload: Findings = {}
        for cid, lines in config.findings:
            merge_finding(payload, cid, lines)
        return lambda case: ScanRecord(tool.name, case.id, "ok", 0, dict(payload))
    try:
        path = resolve_replay_fixture(config, tool.name, replay_dir)
        fixture = ReplayFixture.load(path)
    except (ScbenchError, OSError, ValueError, TypeError) as exc:
        logger.error("replay fixture for %s unavailable: %s", tool.name, exc)
        fixture = ReplayFixture({})  # covers no contract

    def replay(case: ContractCase) -> ScanRecord:
        try:
            record = fixture.record(tool.name, case.id)
        except ScbenchError as exc:
            failed.append((case.id, f"replay fixture {path}: entry {case.id}: {exc}"))
        else:
            if record is not None:
                return record
            failed.append((case.id, None))
        return ScanRecord(tool.name, case.id, "harness_error", 0)
    return replay


def _replay_problems(tool: str, failed: list[tuple[str, str | None]],
                     n_cases: int) -> list[str]:
    """Messages for the failed cases of an inline tool: one for the cases
    its fixture does not record, and the first malformed entry's."""
    missed = [contract for contract, fault in failed if fault is None]
    faults = [fault for _, fault in failed if fault is not None]
    problems = faults[:1]
    if missed:
        problems.insert(0, f"replay fixture for {tool} does not cover {len(missed)} "
                           f"of {n_cases} contract(s) (first: {missed[0]})")
    return problems


def _kill_group(pgid: int) -> None:
    import signal

    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group is gone already


def _decode(data: bytes, errors: str = "strict") -> str:
    """Tool output as ``Popen(text=True)`` decodes it: the locale's
    preferred encoding (UTF-8 in UTF-8 mode) and universal newlines."""
    import locale

    text = data.decode(locale.getpreferredencoding(False), errors)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _communicate(proc: subprocess.Popen, cap: float) -> tuple[bytes, bytes]:
    """Both pipes of ``proc`` read to EOF and the tool reaped, within ``cap``
    seconds of wall clock; :class:`subprocess.TimeoutExpired` past it.

    Where ``os.pidfd_open`` works, one selector waits on the two pipes and
    on the tool's exit, so the task wakes on each of those events and never
    on a timer. Elsewhere ``Popen.communicate`` waits, which sleep-polls for
    the exit once the pipes are closed.
    """
    import selectors
    import subprocess

    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):  # not Linux, or a kernel without pidfds
        return proc.communicate(timeout=cap)
    deadline = time.monotonic() + cap
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    try:
        with selectors.PollSelector() as selector:
            for fd in (*chunks, pidfd):
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(proc.args, cap)
                for key, _ in selector.select(remaining):
                    if key.fd == pidfd:  # the tool has exited
                        selector.unregister(pidfd)
                    elif data := os.read(key.fd, 32768):
                        chunks[key.fd].append(data)
                    else:  # EOF
                        selector.unregister(key.fd)
    finally:
        os.close(pidfd)
    proc.wait()  # an exited child: reaped at once
    out, err = chunks.values()
    return b"".join(out), b"".join(err)


class _TaskDirs:
    """The input directories of one campaign's spawned tasks, under ``root``.

    A task takes an empty directory and gives it back when its tool is
    done. It is kept for the next task only when the tool exited by itself
    and left nothing beside its input; any other is removed. So a tool
    always starts in a directory that holds only its own input, and no
    more directories exist than tasks run at once.
    """

    def __init__(self, root: str):
        self._root = root
        self._free: list[str] = []  # one pop or append per task: atomic under the GIL

    def take(self) -> str:
        try:
            return self._free.pop()
        except IndexError:
            return tempfile.mkdtemp(prefix="task-", dir=self._root)

    def give_back(self, path: str, input_path: str, reusable: bool) -> None:
        if reusable:
            try:
                os.unlink(input_path)
                if not os.listdir(path):
                    self._free.append(path)
                    return
            except OSError:  # the tool removed or locked its input
                pass
        shutil.rmtree(path, ignore_errors=True)


def _command(tool: ToolDescriptor) -> tuple[tuple[str, ...], str]:
    """The tool's command template with its ``{solc}`` filled in, and the
    absolute path of the program it runs: ``argv[0]`` searched on ``PATH``,
    or taken as given when it names a path."""
    solc = str(tool.max_solidity)
    template = tuple(part.replace("{solc}", solc) for part in tool.adapter.argv)
    name = template[0] if template else ""
    program = shutil.which(name)
    if program is None:
        raise ScbenchError(f"tool {tool.name}: program {name!r} not found")
    return template, os.path.abspath(program)


def _spawn_scan(tool: ToolDescriptor, template: tuple[str, ...], program: str,
                case: ContractCase, timeout: float | None, raw_dir: str | Path | None,
                live: set[int], dirs: _TaskDirs) -> ScanRecord:
    """Execute one scan task of a command tool and classify its outcome.

    The tool runs ``program`` with the ``template`` arguments, ``{input}``
    naming a ``contract.sol`` alone in a directory taken from ``dirs``.
    Spawn or I/O failures on our side are ``harness_error``; a non-zero
    exit from the tool is ``tool_error``; the wall clock is capped at
    ``timeout`` (default: the adapter's), after which the tool's whole
    process group is killed. Raw output is persisted under ``raw_dir`` when
    given. ``live`` holds the process groups of the campaign's running
    tools, for an abort to kill.
    """
    import subprocess

    config = tool.adapter
    cap = timeout if timeout is not None else config.timeout

    task_dir = dirs.take()
    input_path = os.path.join(task_dir, "contract.sol")
    reusable = False  # the tool exited by itself: no timeout, kill or interrupt
    try:
        with open(input_path, "w", encoding="utf-8") as fh:
            fh.write(case.source)
        argv = [part.replace("{input}", input_path) for part in template]
        start = time.monotonic()
        try:
            proc = subprocess.Popen(argv, executable=program, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, **_OWN_GROUP)
        except (OSError, ValueError) as exc:
            logger.error("failed to spawn %s: %s", tool.name, exc)
            return ScanRecord(tool.name, case.id, "harness_error", 0)
        live.add(proc.pid)
        try:
            stdout, stderr = _communicate(proc, cap)
        except BaseException as exc:  # a timeout or an interrupt
            if proc.returncode is None:  # a reaped pid may name another group
                _kill_group(proc.pid)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                return ScanRecord(tool.name, case.id, "timeout", int(cap * 1000))
            raise
        finally:
            live.discard(proc.pid)
            proc.stdout.close()
            proc.stderr.close()
        elapsed_ms = int((time.monotonic() - start) * 1000)
        reusable = proc.returncode >= 0  # no signal ended it: an abort's kill, say
    finally:
        dirs.give_back(task_dir, input_path, reusable)

    raw_ref = None
    if raw_dir is not None:
        try:
            out_dir = Path(raw_dir) / tool.name
            out_dir.mkdir(parents=True, exist_ok=True)
            raw_path = out_dir / (case.id.replace("/", "__") + ".out")
            # stdout is decoded strictly below; here a bad byte is U+FFFD
            raw_path.write_text(_decode(stdout, "replace") + _decode(stderr, "replace"),
                                "utf-8")
            raw_ref = str(raw_path)
        except OSError as exc:
            logger.error("could not persist raw output for %s: %s",
                         tool.name, exc)
            return ScanRecord(tool.name, case.id, "harness_error", elapsed_ms)

    if proc.returncode != 0:
        return ScanRecord(tool.name, case.id, "tool_error", elapsed_ms,
                          raw_ref=raw_ref)
    try:
        text = _decode(stdout)
        if config.kind == "json":
            findings = parse_json_output(text, config.rule_map)
        else:
            findings = parse_text_output(text, config.rule_map,
                                         config.line_pattern)
    except ValueError as exc:  # a Unicode- or JSONDecodeError too
        logger.error("unparseable output from %s: %s", tool.name, exc)
        return ScanRecord(tool.name, case.id, "tool_error", elapsed_ms,
                          raw_ref=raw_ref)
    return ScanRecord(tool.name, case.id, "ok", elapsed_ms, findings, raw_ref)


def _guarded(scan: Callable[[ContractCase], ScanRecord], tool: ToolDescriptor,
             case: ContractCase) -> ScanRecord:
    try:
        return scan(case)
    except Exception:  # record, never abort the campaign
        logger.exception("scan task crashed: %s on %s", tool.name, case.id)
        return ScanRecord(tool.name, case.id, "harness_error", 0)


def _run_spawned(jobs: list, parallelism: int, sink: Callable[[ScanRecord], None],
                 live: set[int]) -> None:
    """Run the spawned ``jobs`` in order at ``parallelism`` 1, else on a
    pool with a window of tasks in flight, sinking each record as its task
    completes. An exception from the sink, or an interrupt, cancels the
    queued tasks and kills the running tools in ``live``; the pool's exit
    then waits for their workers."""
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, as_completed, wait

    if parallelism == 1:
        for job in jobs:
            sink(_guarded(*job))
        return
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


def execute_campaign(
    tools: Registry | Sequence[ToolDescriptor],
    corpus: Sequence[ContractCase],
    parallelism: int = 1,
    timeout: float | None = None,
    replay_dir: str | Path | None = None,
    raw_dir: str | Path | None = None,
    on_record: Callable[[ScanRecord], None] | None = None,
    problems: dict[str, list[str]] | None = None,
) -> list[ScanRecord]:
    """Run every (tool, contract) pair; returns |tools| x |corpus| records.

    A ``timeout`` that is not a finite number of seconds above 0 raises
    :class:`ScbenchError` before any task runs. So does the program of a
    command tool that is not installed: each is found first. Stub and replay
    tools then run inline, before the command tools; those run on
    ``parallelism`` worker threads (no pool at 1) with a bounded window of
    tasks in flight, and their records are sunk as they complete. Their
    input directories live under one temporary root, removed at the end.
    ``on_record`` is the sink hook (e.g. a JSONL appender), called in this
    thread. An exception it raises, or an interrupt, aborts the campaign:
    queued tasks are cancelled and running tools killed. Nothing else does.
    Findings outside a tool's capabilities are dropped, and one count per
    tool is logged at the end. A contract that a replay fixture does not
    record, or records in a malformed entry, gets a ``harness_error``
    record; ``problems``, when given, receives per such tool the messages
    that say so, and per command tool whose every task ended in a
    ``harness_error`` (its program could not start) a message naming the
    first task. The inline tools run with the cyclic garbage collector
    paused: their records hold no reference cycles.
    """
    if parallelism < 1:
        raise ScbenchError("parallelism must be >= 1")
    if timeout is not None and not 0 < timeout < math.inf:  # nan too
        raise ScbenchError(f"timeout {timeout!r} is not a positive number of seconds")
    commands = {tool.name: _command(tool) for tool in tools
                if tool.adapter.kind in _SPAWNED}
    records: list[ScanRecord] = []
    by_name = {tool.name: tool for tool in tools}
    dropped: Counter = Counter()
    harness_errors: Counter = Counter()

    def sink(record: ScanRecord) -> None:
        record = _filter_to_capabilities(by_name[record.tool], record, dropped)
        records.append(record)
        if record.status == "harness_error":
            harness_errors[record.tool] += 1
        if on_record is not None:
            on_record(record)

    with gc_paused():
        for tool in tools:
            if tool.name in commands:
                continue
            failed: list[tuple[str, str | None]] = []
            scan = _inline_scanner(tool, replay_dir, failed)
            for case in corpus:
                sink(_guarded(scan, tool, case))
            if failed and problems is not None:
                problems[tool.name] = _replay_problems(tool.name, failed, len(corpus))
    if commands and corpus:
        live: set[int] = set()  # one add or discard per task: atomic under the GIL
        with tempfile.TemporaryDirectory(prefix="scbench-",
                                         ignore_cleanup_errors=True) as root:
            dirs = _TaskDirs(root)
            jobs = []
            for tool in tools:
                if tool.name in commands:
                    scan = partial(_spawn_scan, tool, *commands[tool.name], timeout=timeout,
                                   raw_dir=raw_dir, live=live, dirs=dirs)
                    jobs += [(scan, tool, case) for case in corpus]
            _run_spawned(jobs, parallelism, sink, live)
    for name, count in sorted(dropped.items()):
        logger.warning("adapter bug: dropped %d finding(s) of %s outside its "
                       "capability set", count, name)
    if problems is not None and corpus:
        for tool in tools:
            if tool.name in commands and harness_errors[tool.name] == len(corpus):
                problems[tool.name] = [f"tool {tool.name}: all {len(corpus)} task(s) ended "
                                       f"in harness_error (first: {corpus[0].id})"]
    return records
