"""Scan campaign execution.

A campaign runs every (tool, contract) pair exactly once. Replay tools
are answered inline from a fixture loaded once per tool; command tools
spawn one process group per task from one selector loop, slowest tool
first (see :func:`_pick`). Determinism is defined on the
*set* of records, never their order, nor do ``--raw-dir`` trees or exit
codes hang on it; individual task failures are recorded, not fatal.
"""

from __future__ import annotations

import math
import os
import shlex
import shutil
import sys
import tempfile
import time
from collections import Counter, deque
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import Logger
from .adapters import (ReplayFixture, parse_json_output, parse_text_output,
                       resolve_replay_fixture)
from .corpus import ContractCase
from .errors import ScbenchError
# RecordSet, read_records and write_records are not used here: their one
# reader is perfbench/traced.py, which looks them up on this module to time
# the records layer. They go when it reads them from ``records``.
from .records import RecordSet, ScanRecord, gc_paused, read_records, write_records
from .taxonomy import Registry, ToolDescriptor

# The modules that only command tools need are imported where those run,
# so that a replay campaign does not load them.
if TYPE_CHECKING:
    import selectors
    import subprocess

__all__ = ["RecordSet", "execute_campaign", "read_records", "write_records"]

logger = Logger(__name__)

_SPAWNED = ("json", "text")  # adapter kinds that run a process per task
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


def _replay(tool: ToolDescriptor, replay_dir: str | Path | None,
            corpus: Sequence[ContractCase], sink: Callable[[ScanRecord], None]) -> list[str]:
    """Sink each case's record from ``tool``'s fixture, loaded once: a
    ``harness_error`` for a case it does not record, or records in a
    malformed entry. Returns the messages that say so: one for the missed
    cases, and the first malformed entry's, naming the fixture."""
    path = resolve_replay_fixture(tool.adapter, tool.name, replay_dir)
    fixture = ReplayFixture.load(path)
    missed, fault = [], None
    for case in corpus:
        try:
            record = fixture.record(tool.name, case.id)
            if record is None:
                missed.append(case.id)
        except ScbenchError as exc:
            record = None
            fault = fault or f"replay fixture {path}: entry {case.id}: {exc}"
        sink(record or ScanRecord(tool.name, case.id, "harness_error", 0))
    problems = [fault] if fault else []
    if missed:
        problems.insert(0, f"replay fixture for {tool.name} does not cover {len(missed)} "
                           f"of {len(corpus)} contract(s) (first: {missed[0]})")
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
        self._free: list[str] = []

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


def _command(tool: ToolDescriptor, timeout: float | None,
             raw_dir: str | Path | None) -> tuple:
    """A command tool's invocation, once per campaign: the tool, its template
    split with ``{solc}`` filled in, the absolute path of ``argv[0]`` (found
    on ``PATH`` unless it names a path), the cap of a task in seconds, and
    the directory for its raw output under ``raw_dir``, when given."""
    solc = str(tool.max_solidity)
    template = tuple(part.replace("{solc}", solc) for part in shlex.split(tool.adapter.command))
    name = template[0] if template else ""
    program = shutil.which(name)
    if program is None:
        raise ScbenchError(f"tool {tool.name}: program {name!r} not found")
    raw = None if raw_dir is None else Path(raw_dir) / tool.name
    return tool, template, os.path.abspath(program), timeout or tool.adapter.timeout, raw


class _Task:
    """One scan task of a command tool, from its spawn to its record.

    ``command`` is the tool's invocation (:func:`_command`): the tool runs
    ``program`` with the ``template`` arguments, ``{input}`` naming a
    ``contract.sol`` that holds ``case`` alone in a directory taken from
    ``dirs``, for at most ``cap`` seconds, and its raw output is kept under
    ``raw`` when given. Its pipes and, where ``os.pidfd_open`` works, a
    pidfd of it are registered in ``selector``; ``waiting`` holds those not
    yet at EOF or exit.
    """

    def __init__(self, command: tuple, case: ContractCase, dirs: _TaskDirs,
                 selector: selectors.BaseSelector):
        self.tool, self.template, self.program, self.cap, self.raw = command
        self.case, self.dirs, self.selector = case, dirs, selector
        self.dir = self.proc = self.pidfd = None  # until started
        self.waiting: set[int] = set()

    def start(self) -> ScanRecord | None:
        """Spawn the tool on its case and register its descriptors; a
        ``harness_error`` record when it cannot be spawned."""
        import selectors
        import subprocess

        self.dir = self.dirs.take()
        self.input = os.path.join(self.dir, "contract.sol")
        with open(self.input, "w", encoding="utf-8") as fh:
            fh.write(self.case.source)
        argv = [part.replace("{input}", self.input) for part in self.template]
        self.began = time.monotonic()
        self.deadline = self.began + self.cap
        try:
            self.proc = subprocess.Popen(argv, executable=self.program, stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE, **_OWN_GROUP)
        except (OSError, ValueError) as exc:
            logger.error("failed to spawn %s: %s", self.tool.name, exc)
            return ScanRecord(self.tool.name, self.case.id, "harness_error", 0)
        self.chunks = {self.proc.stdout.fileno(): [], self.proc.stderr.fileno(): []}
        try:
            self.pidfd = os.pidfd_open(self.proc.pid)
        except (AttributeError, OSError):  # not Linux, or a kernel without pidfds
            pass
        for fd in (*self.chunks, self.pidfd):
            if fd is not None:
                self.selector.register(fd, selectors.EVENT_READ, self)
                self.waiting.add(fd)
        return None

    def end(self) -> ScanRecord:
        """Its case's record once nothing is ``waiting``, or a ``timeout``
        at the cap, which kills the tool's process group. I/O failures on our
        side are ``harness_error``; a non-zero exit is ``tool_error``."""
        import subprocess

        tool, config, case = self.tool, self.tool.adapter, self.case
        timed_out = bool(self.waiting)
        if not timed_out:  # the tool has exited, or has no pidfd to say so
            try:
                self.proc.wait(max(self.deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                timed_out = True
        elapsed_ms = int((time.monotonic() - self.began) * 1000)
        self.close(kill=timed_out)
        if timed_out:
            return ScanRecord(tool.name, case.id, "timeout", int(self.cap * 1000))
        stdout, stderr = (b"".join(chunks) for chunks in self.chunks.values())

        raw_ref = None
        if self.raw is not None:
            try:
                raw_path = self.raw / (case.id.replace("/", "__") + ".out")
                # stdout is decoded strictly below; here a bad byte is U+FFFD
                raw_path.write_text(_decode(stdout, "replace") + _decode(stderr, "replace"),
                                    "utf-8")
                raw_ref = str(raw_path)
            except OSError as exc:
                logger.error("could not persist raw output for %s: %s",
                             tool.name, exc)
                return ScanRecord(tool.name, case.id, "harness_error", elapsed_ms)

        if self.proc.returncode != 0:
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

    def close(self, kill: bool) -> None:
        """Reap the tool, first killing its process group if ``kill``, close
        the task's descriptors and give back its directory: for reuse only
        when the tool exited by itself. Once closed, it does nothing."""
        if self.dir is None:
            return
        proc = self.proc
        if proc is not None:
            for fd in self.waiting:
                self.selector.unregister(fd)
            if kill and proc.returncode is None:  # a reaped pid may name another group
                _kill_group(proc.pid)
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
            if self.pidfd is not None:
                os.close(self.pidfd)
        self.dirs.give_back(self.dir, self.input, not kill and proc.returncode >= 0)
        self.dir = None


def _guarded(task: _Task, step: Callable[[], ScanRecord | None]) -> ScanRecord | None:
    """``step()`` of ``task`` (its start or end), or a ``harness_error`` if it crashes."""
    try:
        return step()
    except Exception:  # record, never abort the campaign
        logger.exception("scan task crashed: %s on %s", task.tool.name, task.case.id)
        return ScanRecord(task.tool.name, task.case.id, "harness_error", 0)


def _pick(queues: dict[str, deque], statuses: dict[str, Counter],
          seconds: Counter) -> str | None:
    """The tool whose pending task starts next, so that a slow or hung task
    starts early and overlaps the rest (Graham's longest processing time
    first): one with no ended task in ``statuses``, the fewest started (the
    longest queue: all start equally long) first, else the largest mean of
    ``seconds`` per ended task. Ties go in ``queues`` order."""
    def rank(name: str) -> tuple:
        ended = sum(statuses[name].values())
        return (1, -seconds[name] / ended) if ended else (0, -len(queues[name]))
    return min((name for name, queue in queues.items() if queue), key=rank, default=None)


def _run_spawned(commands: dict[str, tuple], corpus: Sequence[ContractCase],
                 parallelism: int, sink: Callable[[ScanRecord], None],
                 dirs: _TaskDirs) -> tuple[dict, Counter]:
    """Run each ``commands`` tool on each case of ``corpus`` (per tool, in
    order; the next from the tool :func:`_pick` names), at most
    ``parallelism`` at once, from one selector that wakes on a tool's
    output, EOF or exit, or at the nearest cap. Returns the count per
    status of each tool's tasks and their seconds from spawn to end: a
    ``timeout`` counts at its cap, one that failed to start at 0. Each
    record is sunk when its task ends, before another starts. An
    exception, from the sink or an interrupt, kills and reaps every
    running tool, gives back its directory and starts no other task."""
    import selectors

    queues = {name: deque(corpus) for name in commands}
    running: list[_Task] = []
    statuses, seconds = {name: Counter() for name in queues}, Counter()
    with selectors.DefaultSelector() as selector:
        try:
            while True:
                while len(running) < parallelism and (
                        name := _pick(queues, statuses, seconds)) is not None:
                    running.append(task := _Task(commands[name], queues[name].popleft(),
                                                 dirs, selector))
                    if (record := _guarded(task, task.start)) is not None:
                        task.close(kill=True)  # it did not start
                        running.remove(task)
                        statuses[name][record.status] += 1
                        sink(record)
                if not running:
                    return statuses, seconds
                wait = min(task.deadline for task in running) - time.monotonic()
                for key, _ in selector.select(max(wait, 0)):
                    task, fd = key.data, key.fd
                    if fd != task.pidfd and (data := os.read(fd, 32768)):
                        task.chunks[fd].append(data)
                    else:  # EOF, or the tool's exit
                        selector.unregister(fd)
                        task.waiting.discard(fd)
                now = time.monotonic()
                for task in [task for task in running
                             if not task.waiting or task.deadline <= now]:
                    record = _guarded(task, task.end)
                    task.close(kill=True)  # only a crashed end has left it open
                    running.remove(task)
                    statuses[task.tool.name][record.status] += 1
                    seconds[task.tool.name] += (task.cap if record.status == "timeout"
                                                else time.monotonic() - task.began)
                    sink(record)
        except BaseException:
            for task in running:
                task.close(kill=True)
            raise


def _check_open_files(parallelism: int) -> None:
    """Raise :class:`ScbenchError` when ``parallelism`` running tools cannot
    fit under the soft open-file limit beside the descriptors open now.
    Each running tool holds two pipe ends and a pidfd. The last one's spawn
    holds six (both ends of its two pipes and of its exec-error pipe), and
    the selector one."""
    import resource

    soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    try:
        in_use = len(os.listdir("/dev/fd")) - 1  # less the listing's own
    except OSError:  # no way to count them here
        return
    need = 3 * (parallelism - 1) + 6 + 1
    if soft != resource.RLIM_INFINITY and in_use + need > soft:
        raise ScbenchError(f"--jobs {parallelism} needs {need} file descriptors beside "
                           f"the {in_use} open, over the soft open-file limit of {soft} "
                           f"(ulimit -n)")


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
    :class:`ScbenchError` before any task runs. So does a command tool whose
    program is not installed or whose ``raw_dir`` directory cannot be made
    (each invocation is resolved first, once), and a ``parallelism`` whose
    running tools would not fit under the soft open-file limit. Replay tools
    then run inline, each fixture loaded at its tool's turn, before any
    command tool starts: one that cannot be found, read or parsed as a JSON
    object raises :class:`ScbenchError` too. The command tools run from one
    selector in this thread, at most ``parallelism`` at once, the next task
    from the slowest tool so far (:func:`_pick`), which no record, raw
    output or problem depends on. Each record is sunk when its task ends,
    and each command tool's task count, statuses and mean time are logged
    (info) at the end. Their input directories live under one temporary
    root, removed at the end. ``on_record`` is the sink hook (e.g. a JSONL
    appender). An exception it raises, or an interrupt, aborts the
    campaign: running tools are killed and no other task starts. Nothing
    else does once tasks run. Findings outside a tool's capabilities are
    dropped, and one count per tool is logged at the end. A contract that a
    replay fixture does not record, or records in a malformed entry, gets a
    ``harness_error`` record; ``problems``, when given, receives per such
    tool the messages that say so, and per command tool with no ``ok``
    task (its program could not start, failed or hung on every contract)
    a message naming its count per status and the first task. The inline
    tools run with the cyclic garbage collector paused: their records
    hold no reference cycles.
    """
    if parallelism < 1:
        raise ScbenchError("parallelism must be >= 1")
    if timeout is not None and not 0 < timeout < math.inf:  # nan too
        raise ScbenchError(f"timeout {timeout!r} is not a positive number of seconds")
    commands = {tool.name: _command(tool, timeout, raw_dir) for tool in tools
                if tool.adapter.kind in _SPAWNED}
    if commands:
        _check_open_files(parallelism)
    if raw_dir is not None:
        for *_, raw in commands.values():  # once every other check has passed
            try:
                raw.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ScbenchError(f"cannot write raw output {raw}: {exc.strerror}") from None
    records: list[ScanRecord] = []
    by_name = {tool.name: tool for tool in tools}
    dropped: Counter = Counter()

    def sink(record: ScanRecord) -> None:
        record = _filter_to_capabilities(by_name[record.tool], record, dropped)
        records.append(record)
        if on_record is not None:
            on_record(record)

    with gc_paused():
        for tool in tools:
            if tool.name not in commands:
                found = _replay(tool, replay_dir, corpus, sink)
                if found and problems is not None:
                    problems[tool.name] = found
    if commands and corpus:
        with tempfile.TemporaryDirectory(prefix="scbench-",
                                         ignore_cleanup_errors=True) as root:
            statuses, seconds = _run_spawned(commands, corpus, parallelism, sink,
                                             _TaskDirs(root))
        for name, counts in statuses.items():
            ended = sum(counts.values())  # every task of the tool
            tally = ", ".join(f"{n} {status}" for status, n in sorted(counts.items()))
            logger.info("%s: %d task(s), %s, mean %.1f ms", name, ended, tally,
                        1000 * seconds[name] / ended)
            if problems is not None and not counts["ok"]:
                problems[name] = [f"tool {name}: none of {ended} task(s) ended ok "
                                  f"({tally}; first: {corpus[0].id})"]
    for name, count in sorted(dropped.items()):
        logger.warning("adapter bug: dropped %d finding(s) of %s outside its "
                       "capability set", count, name)
    return records
