"""Contract corpus loading, annotation parsing, curation, and statistics.

A corpus is a list of :class:`ContractCase`. The labelled layout is
``<root>/<class_dir>/<name>.sol`` plus ``<root>/safe/``; scaled corpora
are flat directories or a CSV export of (address, source). An optional
``metadata.csv`` sidecar (id, ISO-8601 timestamp, wei value) feeds the
time-series reports.
"""

from __future__ import annotations

import csv
import hashlib
import re
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import AnnotationMismatch, ScbenchError, UnknownMarker
from ..taxonomy import default_taxonomy
from .lexer import BACKEND, _loc, _pragma, _squeeze, _strip, normalize_source, strip_comments

# ``BACKEND`` has no reader in ``scbench``: the set-up probe of
# ``perfbench/workload.py`` imports it, so it stays until the benchmark
# stops asking for it.
__all__ = [
    "BACKEND",
    "BUCKETS",
    "ContractCase",
    "ClassStat",
    "CorpusStats",
    "dedup",
    "load_csv_corpus",
    "load_flat",
    "load_labelled",
    "load_metadata",
    "normalize_source",
    "parse_annotations",
    "pragma_filter",
    "scan_problems",
    "stats",
    "strip_comments",
]

# time-series period widths over the metadata timestamps (``report``)
BUCKETS = ("month", "quarter", "year")

_HEADER_RE = re.compile(r"@vulnerable_at_lines\s*:\s*([0-9][0-9,\s]*)")
_MARKER_RE = re.compile(r"<yes>\s*<report>\s*([A-Za-z0-9_\-]+)")


@dataclass(frozen=True)
class ContractCase:
    """One corpus entry: source text plus its ground-truth labels."""

    id: str
    source: str
    expected: Mapping[str, frozenset[int]] = field(default_factory=dict)
    created_at: datetime | None = None
    tx_value: int | None = None  # wei
    # Derived from the comment-stripped source. The loaders pass them from
    # the scan that parses the annotations; otherwise one scan fills them.
    loc: int | None = field(default=None, compare=False)
    pragma: bool | None = field(default=None, compare=False)
    checksum: str | None = field(default=None, compare=False)  # dedup key

    def __post_init__(self):
        if self.checksum is None:
            stripped = strip_comments(self.source, strict=False)
            for name, value in _derived(stripped).items():
                object.__setattr__(self, name, value)

    @property
    def safe(self) -> bool:
        return not self.expected


def _derived(stripped: str) -> dict:
    """The :class:`ContractCase` fields computed from its stripped source.

    The checksum is a dedup key, not a security boundary, so MD5 will do.
    """
    return {
        "loc": _loc(stripped),
        "pragma": _pragma(stripped),
        "checksum": hashlib.md5(_squeeze(stripped).encode("utf-8")).hexdigest(),
    }


def parse_annotations(source: str) -> dict[str, frozenset[int]]:
    """Extract ground-truth labels from an annotated contract.

    Inline ``<yes> <report> MARKER`` comments label the first non-comment
    line below them; a ``@vulnerable_at_lines`` header contributes extra
    line numbers. Header lines fold into the single inline class when
    there is exactly one; otherwise unattributable header lines trigger an
    :class:`AnnotationMismatch` warning, as does any header whose line set
    disagrees with the inline markers.
    """
    return _annotations(source, strip_comments(source, strict=False))


def _annotations(source: str, stripped: str) -> dict[str, frozenset[int]]:
    taxonomy = default_taxonomy()
    stripped_lines = stripped.splitlines()
    raw_lines = source.splitlines()

    inline: dict[str, set[int]] = {}
    for idx, raw in enumerate(raw_lines):
        # the pattern starts with the literal "<yes>", so this test is exact
        m = "<yes>" in raw and _MARKER_RE.search(raw)
        if not m:
            continue
        try:
            cls = taxonomy.class_for_marker(m.group(1))
        except UnknownMarker as exc:
            raise UnknownMarker(f"line {idx + 1}: {exc}") from None
        target = None
        for k in range(idx + 1, len(stripped_lines)):
            if stripped_lines[k].strip():
                target = k + 1  # line numbers are 1-based
                break
        if target is None:
            warnings.warn(
                AnnotationMismatch(
                    f"marker {m.group(1)!r} on line {idx + 1} has no "
                    "following statement"
                )
            )
            continue
        inline.setdefault(cls.id, set()).add(target)

    header: set[int] = set()
    hm = _HEADER_RE.search(source)
    if hm:
        header = {int(tok) for tok in hm.group(1).split(",") if tok.strip()}

    result = {cid: set(lines) for cid, lines in inline.items()}
    if header:
        inline_union = set().union(*inline.values()) if inline else set()
        if len(result) == 1:
            if header != inline_union:
                warnings.warn(
                    AnnotationMismatch(
                        f"header lines {sorted(header)} disagree with inline "
                        f"marker lines {sorted(inline_union)}"
                    )
                )
            (only,) = result
            result[only] |= header
        elif not result:
            warnings.warn(
                AnnotationMismatch(
                    f"header declares lines {sorted(header)} but no inline "
                    "markers are present"
                )
            )
        else:
            stray = header - inline_union
            if stray:
                warnings.warn(
                    AnnotationMismatch(
                        f"header lines {sorted(stray)} match no inline marker "
                        "in a multi-class file"
                    )
                )

    return {cid: frozenset(lines) for cid, lines in result.items()}


def dedup(cases: Iterable[ContractCase]) -> tuple[list[ContractCase], int]:
    """Drop cases whose normalized source repeats an earlier checksum."""
    seen: set[str] = set()
    kept: list[ContractCase] = []
    removed = 0
    for case in cases:
        if case.checksum in seen:
            removed += 1
        else:
            seen.add(case.checksum)
            kept.append(case)
    return kept, removed


def pragma_filter(cases: Iterable[ContractCase]) -> list[ContractCase]:
    """Keep only cases with a ``pragma solidity`` directive outside comments."""
    return [case for case in cases if case.pragma]


@dataclass(frozen=True)
class ClassStat:
    class_id: str
    name: str
    count: int
    loc: int


@dataclass(frozen=True)
class CorpusStats:
    per_class: tuple[ClassStat, ...]
    safe_count: int
    safe_loc: int

    @property
    def total_cases(self) -> int:
        return sum(s.count for s in self.per_class) + self.safe_count

    @property
    def total_loc(self) -> int:
        return sum(s.loc for s in self.per_class) + self.safe_loc


def stats(cases: Iterable[ContractCase]) -> CorpusStats:
    """Per-class case counts and LoC; a multi-label case counts once per class."""
    taxonomy = default_taxonomy()
    counts = {c.id: 0 for c in taxonomy}
    locs = {c.id: 0 for c in taxonomy}
    safe_count = 0
    safe_loc = 0
    for case in cases:
        if case.safe:
            safe_count += 1
            safe_loc += case.loc
        for cid in case.expected:
            counts[cid] += 1
            locs[cid] += case.loc
    return CorpusStats(
        per_class=tuple(
            ClassStat(c.id, c.name, counts[c.id], locs[c.id]) for c in taxonomy
        ),
        safe_count=safe_count,
        safe_loc=safe_loc,
    )


# ---------------------------------------------------------------------------
# loading

def load_metadata(path: str | Path) -> dict[str, tuple[datetime | None, int | None]]:
    """Sidecar rows: contract id, ISO-8601 timestamp, wei value."""
    meta: dict[str, tuple[datetime | None, int | None]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            created = row.get("created_at") or None
            ts = datetime.fromisoformat(created.replace("Z", "+00:00")) if created else None
            value = row.get("tx_value_wei")
            meta[row["id"]] = (ts, int(value) if value else None)
    return meta


def _sidecar(directory: Path, metadata: str | Path | None):
    """The metadata of a corpus directory: ``metadata`` when given, else the
    directory's own ``metadata.csv`` when it has one, else none."""
    if metadata:
        return load_metadata(metadata)
    own = directory / "metadata.csv"
    return load_metadata(own) if own.is_file() else {}


def _load_case(case_id: str, source: str, meta, origin: str) -> ContractCase:
    """One comment-stripping scan gives the labels and every derived field.
    ``origin`` names the source (its file) in a label error."""
    stripped = strip_comments(source, strict=False)
    created_at, tx_value = meta.get(case_id, (None, None))
    try:
        expected = _annotations(source, stripped)
    except UnknownMarker as exc:
        raise UnknownMarker(f"{origin}: {exc}") from None
    return ContractCase(case_id, source, expected, created_at, tx_value,
                        **_derived(stripped))


def load_labelled(root: str | Path, metadata: str | Path | None = None) -> list[ContractCase]:
    """Load ``<root>/<class_dir>/*.sol`` (including ``safe/``), sorted by id."""
    root = Path(root)
    if not root.is_dir():
        raise ScbenchError(f"corpus root {root} is not a directory")
    meta = _sidecar(root, metadata)
    cases = []
    for path in sorted(root.glob("*/*.sol"), key=lambda p: p.parts):
        rel = path.relative_to(root).as_posix()
        cases.append(_load_case(rel.removesuffix(".sol"), path.read_text("utf-8"),
                                meta, rel))
    return cases


def load_flat(directory: str | Path, metadata: str | Path | None = None) -> list[ContractCase]:
    """Load a flat directory of ``*.sol`` files (scaled-corpus layout)."""
    directory = Path(directory)
    meta = _sidecar(directory, metadata)
    return [
        _load_case(path.stem, path.read_text("utf-8"), meta, path.name)
        for path in sorted(directory.glob("*.sol"), key=lambda p: p.parts)
    ]


def load_csv_corpus(path: str | Path, metadata: str | Path | None = None) -> list[ContractCase]:
    """Load a CSV export with ``address`` and ``source`` columns."""
    meta = load_metadata(metadata) if metadata else {}
    with open(path, newline="", encoding="utf-8") as fh:
        return [_load_case(row["address"], row["source"], meta,
                           f"{path} row {row['address']}")
                for row in csv.DictReader(fh)]


def scan_problems(root: str | Path) -> list[str]:
    """Validation sweep over a labelled corpus; returns human-readable issues.

    Checks alias totality, annotation line bounds, directory/label
    agreement, missing pragma directives, and annotation mismatches.
    """
    taxonomy = default_taxonomy()
    root = Path(root)
    problems: list[str] = []
    for path in sorted(root.glob("*/*.sol"), key=lambda p: p.parts):
        rel = path.relative_to(root).as_posix()
        source = path.read_text("utf-8")
        stripped, lex_error = _strip(source)
        if lex_error is not None:
            line = source.count("\n", 0, lex_error.position) + 1
            problems.append(f"{rel}: line {line}: {lex_error}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                expected = _annotations(source, stripped)
            except ScbenchError as exc:
                problems.append(f"{rel}: {exc}")
                continue
        for w in caught:
            problems.append(f"{rel}: {w.message}")
        n_lines = len(source.splitlines())
        for cid, lines in expected.items():
            past_end = [ln for ln in lines if ln > n_lines]
            if past_end:
                problems.append(
                    f"{rel}: {cid} annotates lines {sorted(past_end)} beyond "
                    f"the {n_lines}-line source"
                )
        dir_name = path.parent.name
        dir_class = taxonomy.by_dir(dir_name)
        if dir_name == "safe":
            if expected:
                problems.append(f"{rel}: file under safe/ carries labels "
                                f"{sorted(expected)}")
        elif dir_class is not None and dir_class.id not in expected:
            problems.append(
                f"{rel}: directory says {dir_class.id} but labels are "
                f"{sorted(expected) or 'empty'}"
            )
        if not _pragma(stripped):
            problems.append(f"{rel}: no pragma solidity directive")
    return problems
