"""Vulnerability taxonomy, tool registry, and the Solidity version scale.

The ten-class taxonomy and the marker-alias table ship as data
(``data/aliases.json``); the capability matrix for registered analyzers
ships as a declarative registry (``data/registry.json``). Everything here
is immutable after load and safe for concurrent reads.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from .adapters import AdapterConfig
from .errors import ScbenchError, UnknownMarker, UnsupportedVersion

CLASS_IDS = tuple(f"V{i}" for i in range(1, 11))

METHOD_TAGS = frozenset({"SA", "SE", "FV", "FZ", "ML", "IR"})

# Version scale endpoints: 0.4.x scores 0, 0.8.x scores 1.
SCALE_LOW = 4
SCALE_HIGH = 8

_VERSION_RE = re.compile(r"^v?0\.(\d+)(?:\.(\d+))?$")


@dataclass(frozen=True)
class VulnClass:
    """One of the ten vulnerability classes (V1..V10)."""

    id: str
    name: str
    dir_name: str
    aliases: frozenset[str]

    def __str__(self) -> str:
        return self.id


@dataclass(frozen=True)
class VersionId:
    """A Solidity compiler version ``0.<minor>[.<patch>]``."""

    minor: int
    patch: int | None = None

    @classmethod
    def parse(cls, text: str) -> "VersionId":
        m = _VERSION_RE.match(text.strip().lower().replace(".x", ""))
        if not m:
            raise ScbenchError(f"unparseable Solidity version: {text!r}")
        minor = int(m.group(1))
        patch = int(m.group(2)) if m.group(2) is not None else None
        if minor < SCALE_LOW:
            raise UnsupportedVersion(
                f"version 0.{minor} predates the supported scale (>= 0.4)"
            )
        return cls(minor, patch)

    def __str__(self) -> str:
        return f"0.{self.minor}" + (f".{self.patch}" if self.patch is not None else ".x")


def compat_score(version: VersionId) -> float:
    """Position of a version on the supported scale, clamped to [0, 1].

    Patch numbers are ignored: scoring happens at x-series granularity,
    so 0.4.19 and 0.4.24 both map to 0. Minors above the scale top clamp
    to 1 so the scale can outlive the study window it was drawn from.
    """
    if version.minor < SCALE_LOW:
        raise UnsupportedVersion(
            f"version {version} lies below the scale floor 0.{SCALE_LOW}"
        )
    return min(1.0, max(0.0, (version.minor - SCALE_LOW) / (SCALE_HIGH - SCALE_LOW)))


@dataclass(frozen=True)
class ToolDescriptor:
    """A registered analyzer: what it detects and how it is invoked."""

    name: str
    methods: frozenset[str]
    capabilities: frozenset[str]  # class ids within V1..V10
    max_solidity: VersionId
    adapter: AdapterConfig

    def __post_init__(self):
        if not self.capabilities:
            raise ScbenchError(f"tool {self.name}: empty capability set")
        bad = self.capabilities - set(CLASS_IDS)
        if bad:
            raise ScbenchError(f"tool {self.name}: unknown classes {sorted(bad)}")
        bad_methods = self.methods - METHOD_TAGS
        if bad_methods:
            raise ScbenchError(f"tool {self.name}: unknown methods {sorted(bad_methods)}")

    def can_detect(self, class_id: str) -> bool:
        return class_id in self.capabilities


class Taxonomy:
    """The ten-class taxonomy plus marker-alias resolution."""

    def __init__(self, classes: Iterable[VulnClass]):
        self.classes: tuple[VulnClass, ...] = tuple(classes)
        if len(self.classes) != 10:
            raise ScbenchError(f"expected 10 classes, got {len(self.classes)}")
        if [c.id for c in self.classes] != list(CLASS_IDS):
            raise ScbenchError("class ids must be V1..V10 in order")
        self._by_alias: dict[str, VulnClass] = {}
        for c in self.classes:
            for alias in c.aliases:
                key = alias.upper()
                if key in self._by_alias:
                    raise ScbenchError(f"alias {alias!r} maps to two classes")
                self._by_alias[key] = c

    def __iter__(self):
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def by_dir(self, dir_name: str) -> VulnClass | None:
        for c in self.classes:
            if c.dir_name == dir_name:
                return c
        return None

    def class_for_marker(self, marker: str) -> VulnClass:
        """Resolve an annotation marker (case-insensitive) to its class."""
        if not marker:
            raise UnknownMarker("empty marker")
        cls = self._by_alias.get(marker.upper())
        if cls is None:
            raise UnknownMarker(f"marker {marker!r} matches no class alias")
        return cls

    @classmethod
    def load(cls) -> "Taxonomy":
        """The shipped taxonomy, from ``data/aliases.json``."""
        text = resources.files("scbench.data").joinpath("aliases.json").read_text("utf-8")
        raw = json.loads(text)
        return cls(
            VulnClass(
                id=entry["id"],
                name=entry["name"],
                dir_name=entry["dir"],
                aliases=frozenset(a.upper() for a in entry["aliases"]),
            )
            for entry in raw["classes"]
        )


@dataclass(frozen=True)
class Registry:
    """Ordered collection of tool descriptors loaded from the registry file."""

    tools: tuple[ToolDescriptor, ...] = field(default_factory=tuple)

    def __post_init__(self):
        names = [t.name for t in self.tools]
        if len(set(names)) != len(names):
            raise ScbenchError("duplicate tool names in registry")

    def __iter__(self):
        return iter(self.tools)

    def __len__(self) -> int:
        return len(self.tools)

    def names(self) -> list[str]:
        return [t.name for t in self.tools]

    def get(self, name: str) -> ToolDescriptor:
        for t in self.tools:
            if t.name == name:
                return t
        raise ScbenchError(f"tool {name!r} not in registry")

    def subset(self, names: Iterable[str]) -> "Registry":
        return Registry(tuple(self.get(n) for n in names))

    @classmethod
    def load(cls, path: str | Path | None = None) -> "Registry":
        """The registry file at ``path``; without one (or with an empty
        path), the shipped ``data/registry.json``."""
        if not path:
            text = resources.files("scbench.data").joinpath("registry.json").read_text("utf-8")
        else:
            text = Path(path).read_text("utf-8")
        raw = json.loads(text)
        tools = []
        for entry in raw["tools"]:
            try:
                adapter = AdapterConfig.from_mapping(entry.get("adapter", {}))
            except ScbenchError as exc:
                raise ScbenchError(f"tool {entry['name']}: {exc}") from None
            tools.append(
                ToolDescriptor(
                    name=entry["name"],
                    methods=frozenset(entry.get("methods", ())),
                    capabilities=frozenset(entry["capabilities"]),
                    max_solidity=VersionId.parse(entry["max_solidity"]),
                    adapter=adapter,
                )
            )
        return cls(tuple(tools))


@functools.cache
def default_taxonomy() -> Taxonomy:
    """The one taxonomy, loaded at its first use: ``--help`` never reads it."""
    return Taxonomy.load()
