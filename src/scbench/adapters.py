"""Adapter configuration and output parsing.

An adapter tells the runner how to obtain findings for one tool:

* ``replay`` — look the contract up in a pre-recorded fixture file
  (deterministic, no process spawn); the fixture is a JSON object keyed
  by contract id.
* ``json`` — spawn ``command`` and parse stdout as
  ``{"findings": [{"check": <rule id>, "line": <int?>}, ...]}``.
* ``text`` — spawn ``command`` and scan stdout lines for rule-map keys.

Native rule ids are mapped to taxonomy classes through ``rule_map``.
"""

from __future__ import annotations

import json
import math
import re
import shlex
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from . import Logger
from .errors import ScbenchError
from .taxonomy import CLASS_IDS

if TYPE_CHECKING:
    from .records import ScanRecord

logger = Logger(__name__)

ADAPTER_KINDS = ("replay", "json", "text")

DEFAULT_TIMEOUT = 300.0  # seconds per scan task

# findings: class id -> set of flagged lines (possibly empty)
Findings = dict[str, frozenset[int]]


class AdapterConfig(namedtuple("AdapterConfig", "kind command timeout rule_map fixture "
                                              "line_pattern")):
    """How to run one tool and turn its output into taxonomy findings.

    ``command`` is a template with ``{input}`` and ``{solc}`` that splits
    into arguments as a shell would; ``fixture`` (replay) a file, or a
    directory resolved per tool; ``line_pattern`` (text) a regex with one
    group, the line number; ``timeout`` positive seconds, a float. A
    ``rule_map`` left out is a new empty dict. The fields are checked when
    it is built, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, kind: str = "replay", command: str | None = None,
                timeout: float = DEFAULT_TIMEOUT, rule_map: Mapping[str, str] | None = None,
                fixture: str | None = None, line_pattern: str | None = None) -> "AdapterConfig":
        timeout = float(timeout)
        if not 0 < timeout < math.inf:  # nan too
            raise ScbenchError(f"adapter timeout {timeout!r} is not a positive number "
                               f"of seconds")
        if kind not in ADAPTER_KINDS:
            raise ScbenchError(f"unknown adapter kind {kind!r}")
        if kind in ("json", "text") and not command:
            raise ScbenchError(f"{kind} adapter requires a command")
        if kind == "replay" and command:
            raise ScbenchError("replay adapter takes a fixture, not a command")
        rule_map = {} if rule_map is None else rule_map
        bad = set(rule_map.values()).difference(CLASS_IDS)
        if bad:
            raise ScbenchError(f"rule_map targets outside V1..V10: {sorted(bad)}")
        if fixture is not None and type(fixture) is not str:
            raise ScbenchError(f"fixture {fixture!r} is not a path")
        if line_pattern is not None:
            try:
                groups = re.compile(line_pattern).groups
            except re.error as exc:
                raise ScbenchError(f"line_pattern {line_pattern!r} is not a regex: "
                                   f"{exc}") from None
            if groups != 1:  # parse_text_output reads group 1
                raise ScbenchError(f"line_pattern {line_pattern!r} has {groups} groups, "
                                   f"not 1")
        try:
            shlex.split(command or "")
        except ValueError as exc:  # an unterminated quote or escape
            raise ScbenchError(f"command template {command!r} cannot be split: "
                               f"{exc}") from None
        return tuple.__new__(cls, (kind, command, timeout, rule_map, fixture, line_pattern))

    @classmethod
    def _make(cls, iterable) -> "AdapterConfig":
        return cls(*iterable)


def merge_finding(findings: Findings, class_id: str, lines=()) -> None:
    findings[class_id] = findings.get(class_id, frozenset()) | frozenset(lines)


def parse_json_output(stdout: str, rule_map: Mapping[str, str]) -> Findings:
    """Parse the reference JSON schema and map rule ids to classes.

    Unknown rule ids are logged and dropped; they cannot be scored. Output
    that is not a JSON object, ``findings`` that are not a list of objects,
    or a ``line`` that is neither absent, an integer nor a list of integers,
    raises :class:`ValueError`.
    """
    doc = json.loads(stdout)
    if type(doc) is not dict:
        raise ValueError(f"top level is a {type(doc).__name__}, not an object")
    items = doc.get("findings", [])
    if type(items) is not list or not all(type(item) is dict for item in items):
        raise ValueError("findings are not a list of objects")
    findings: Findings = {}
    for item in items:
        rule = item.get("check")
        class_id = rule_map.get(rule) if type(rule) is str else None
        if class_id is None:
            logger.warning("adapter emitted unmapped rule id %r", rule)
            continue
        line = item.get("line")
        if line is None:
            lines = ()
        elif type(line) is int:
            lines = (line,)
        elif type(line) is list and all(type(n) is int for n in line):
            lines = line
        else:
            raise ValueError(f"line {line!r} of {rule!r} is not an integer or a list of them")
        merge_finding(findings, class_id, lines)
    return findings


def parse_text_output(
    stdout: str,
    rule_map: Mapping[str, str],
    line_pattern: str | None = None,
) -> Findings:
    """Scan output lines for rule-map keys (plain substring match)."""
    pattern = re.compile(line_pattern) if line_pattern else None
    findings: Findings = {}
    for out_line in stdout.splitlines():
        for rule, class_id in rule_map.items():
            if rule in out_line:
                lines: list[int] = []
                if pattern:
                    m = pattern.search(out_line)
                    if m:
                        lines = [int(m.group(1))]
                merge_finding(findings, class_id, lines)
    return findings


class ReplayFixture:
    """Pre-recorded results for one tool, keyed by contract id."""

    def __init__(self, entries: Mapping[str, Mapping]):
        # imported here: ``metrics``, ``report`` and ``score`` load this
        # module through the registry, and read no replay record
        from . import records

        self._records = records
        self._entries = dict(entries)
        self._share = {}.setdefault  # one object per distinct line set

    @classmethod
    def load(cls, path: str | Path) -> "ReplayFixture":
        """The fixture in the JSON object at ``path``; a file that cannot be
        read or decoded, or holds no object, raises :class:`ScbenchError`."""
        try:
            entries = json.loads(Path(path).read_text("utf-8"))
            if type(entries) is not dict:
                raise ValueError(f"top level is a {type(entries).__name__}, not an object")
        except (OSError, ValueError) as exc:  # a Unicode- or JSONDecodeError too
            raise ScbenchError(f"cannot read replay fixture {path}: "
                               f"{getattr(exc, 'strerror', None) or exc}") from None
        return cls(entries)

    def record(self, tool: str, contract_id: str) -> ScanRecord | None:
        """The record of ``tool``'s scan of a contract, or None for an id
        the fixture does not record. A scan that did not end ``ok`` keeps
        no findings. A malformed entry raises :class:`ScbenchError`, whatever
        its status: one that is not a mapping (``null`` too), lacks a
        finding's class, or holds a bad status, duration or line. Equal
        line sets of the fixture's records are one object."""
        if contract_id not in self._entries:
            return None
        entry = self._entries[contract_id]
        try:
            findings: Findings = {}
            for f in entry.get("findings", ()):
                merge_finding(findings, f["class"], f.get("lines", ()))
            status, duration_ms = entry.get("status", "ok"), entry.get("duration_ms", 0)
        except KeyError as exc:
            raise ScbenchError(f"missing field {exc}") from None
        except (AttributeError, TypeError) as exc:
            raise ScbenchError(str(exc)) from None
        if status != "ok" and findings:
            self._records.check_findings(findings)  # the record checks only those it keeps
            findings = {}
        record = self._records.ScanRecord(tool, contract_id, status, duration_ms, findings)
        for cid, lines in findings.items():  # checked by now
            findings[cid] = self._share(lines, lines)
        return record


def resolve_replay_fixture(config: AdapterConfig, tool_name: str,
                           replay_dir: str | Path | None) -> Path:
    """Fixture resolution order: explicit config path, then <dir>/<tool>.json."""
    if config.fixture:
        p = Path(config.fixture)
        if p.is_dir():
            return p / f"{tool_name}.json"
        return p
    if replay_dir is not None:
        return Path(replay_dir) / f"{tool_name}.json"
    raise ScbenchError(
        f"replay adapter for {tool_name} has no fixture and no --replay dir was given"
    )
