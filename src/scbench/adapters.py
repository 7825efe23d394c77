"""Adapter configuration and output parsing.

An adapter tells the runner how to obtain findings for one tool:

* ``replay`` — look the contract up in a pre-recorded fixture file
  (deterministic, no process spawn); the fixture is a JSON object keyed
  by contract id.
* ``stub`` — return the findings configured inline (test plumbing).
* ``json`` — spawn ``command`` and parse stdout as
  ``{"findings": [{"check": <rule id>, "line": <int?>}, ...]}``.
* ``text`` — spawn ``command`` and scan stdout lines for rule-map keys.

Native rule ids are mapped to taxonomy classes through ``rule_map``.
"""

from __future__ import annotations

import json
import logging
import math
import re
import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ScbenchError
from .records import ScanRecord, check_findings

logger = logging.getLogger(__name__)

ADAPTER_KINDS = ("replay", "stub", "json", "text")

DEFAULT_TIMEOUT = 300.0  # seconds per scan task

# findings: class id -> set of flagged lines (possibly empty)
Findings = dict[str, frozenset[int]]

_CLASS_IDS = frozenset(f"V{i}" for i in range(1, 11))


@dataclass(frozen=True)
class AdapterConfig:
    """How to run one tool and turn its output into taxonomy findings."""

    kind: str = "replay"
    command: str | None = None       # template with {input} and {solc}
    timeout: float = DEFAULT_TIMEOUT
    rule_map: Mapping[str, str] = field(default_factory=dict)
    fixture: str | None = None       # replay: file, or dir resolved per tool
    findings: tuple[tuple[str, tuple[int, ...]], ...] = ()  # stub payload
    line_pattern: str | None = None  # text: regex with one integer group
    # the command template split into arguments, once per tool
    argv: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ADAPTER_KINDS:
            raise ScbenchError(f"unknown adapter kind {self.kind!r}")
        if self.kind in ("json", "text") and not self.command:
            raise ScbenchError(f"{self.kind} adapter requires a command")
        if self.kind == "replay" and self.command:
            raise ScbenchError("replay adapter takes a fixture, not a command")
        bad = set(self.rule_map.values()) - _CLASS_IDS
        if bad:
            raise ScbenchError(f"rule_map targets outside V1..V10: {sorted(bad)}")
        try:
            argv = tuple(shlex.split(self.command)) if self.command else ()
        except ValueError as exc:  # an unterminated quote or escape
            raise ScbenchError(f"command template {self.command!r} cannot be split: "
                               f"{exc}") from None
        object.__setattr__(self, "argv", argv)

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "AdapterConfig":
        timeout = float(raw.get("timeout", DEFAULT_TIMEOUT))
        if not 0 < timeout < math.inf:  # nan too
            raise ValueError(f"adapter timeout {timeout!r} is not a positive number "
                             f"of seconds")
        return cls(
            kind=raw.get("kind", "replay"),
            command=raw.get("command"),
            timeout=timeout,
            rule_map=dict(raw.get("rule_map", {})),
            fixture=raw.get("fixture"),
            findings=tuple(
                (f["class"], tuple(f.get("lines", ())))
                for f in raw.get("findings", ())
            ),
            line_pattern=raw.get("line_pattern"),
        )


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
        self._entries = dict(entries)

    @classmethod
    def load(cls, path: str | Path) -> "ReplayFixture":
        return cls(json.loads(Path(path).read_text("utf-8")))

    def record(self, tool: str, contract_id: str) -> ScanRecord | None:
        """The record of ``tool``'s scan of a contract, or None for an id
        the fixture does not record. A scan that did not end ``ok`` keeps
        no findings. A malformed entry raises :class:`ScbenchError`, whatever
        its status: one that is not a mapping (``null`` too), lacks a
        finding's class, or holds a bad status, duration or line."""
        if contract_id not in self._entries:
            return None
        entry = self._entries[contract_id]
        try:
            findings: Findings = {}
            for f in entry.get("findings", ()):
                merge_finding(findings, f["class"], f.get("lines", ()))
            status, duration_ms = entry.get("status", "ok"), int(entry.get("duration_ms", 0))
        except KeyError as exc:
            raise ScbenchError(f"missing field {exc}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ScbenchError(str(exc)) from None
        if status != "ok" and findings:
            check_findings(findings)  # the record checks only those it keeps
            findings = {}
        return ScanRecord(tool, contract_id, status, duration_ms, findings)


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
