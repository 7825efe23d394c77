"""Contract corpus loading, annotation parsing, curation, and statistics.

A corpus is a list of :class:`ContractCase`. The labelled layout is
``<root>/<class_dir>/<name>.sol`` plus ``<root>/safe/``; scaled corpora
are flat directories. A load reads each file (bytes, UTF-8, CRLF and lone
CR turned into LF) and then scans it (:func:`scan_case`): one
comment-stripping pass yields all four derived fields, the labels, LoC,
pragma flag and checksum. A load with ``scan=False`` (``run``, which
needs only ids and sources) runs no pass. Lines, labels and LoC follow
the line model of :mod:`.lexer`: a line is LF-delimited.

A scan (:func:`_derive`) has no side effect: it returns the fields,
faults and annotation mismatches it found. A load warns each mismatch,
naming its file, then raises the last fault of a file left with no
fields; :func:`scan_case` warns them unprefixed; :func:`scan_problems`
lists them.

Every command that scans (``corpus stats``, ``dedup`` and ``validate``,
``metrics`` and ``report``; not ``run``) reads the corpus through one
walk (:func:`_scans`), which reads, scans and caches each file, in the
layout :func:`_files` picks. It goes through the scan cache of
:mod:`.cache`, one file per corpus root under
``$XDG_CACHE_HOME/scbench`` (``~/.cache/scbench`` by default). It is keyed
by each contract's text and the scanner's own: a contract whose text
equals the cached one is not scanned, and a changed text or scanner
scans again. Only a clean contract is cached, one with no fault and no
mismatch, so the others are scanned, and report, at every load.
Deleting the directory clears the cache.

An optional ``metadata.csv`` sidecar (id, ISO-8601 timestamp, wei value)
feeds the time series of a report, its only reader; no corpus load
reads it (:func:`load_sidecar`).
"""

from __future__ import annotations

import csv
import os
import re
import warnings
from collections import namedtuple
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from ..errors import AnnotationMismatch, ScbenchError, SourceLexError, UnknownMarker
from ..taxonomy import default_taxonomy
from .lexer import (BACKEND, _checksum, _line, _loc, _pragma, _strip,
                    normalize_source, strip_comments)

if TYPE_CHECKING:
    from datetime import datetime

# ``BACKEND`` has no reader in ``scbench``: the set-up probe of
# ``perfbench/workload.py`` imports it, so it stays until the benchmark
# stops asking for it.
__all__ = [
    "BACKEND",
    "ContractCase",
    "ClassStat",
    "CorpusStats",
    "dedup",
    "load_directory",
    "load_flat",
    "load_labelled",
    "load_metadata",
    "load_sidecar",
    "normalize_source",
    "pragma_filter",
    "scan_case",
    "scan_problems",
    "stats",
    "strip_comments",
]

# a header with its entries, and a marker, each stay within their line
_HEADER_RE = re.compile(r"@vulnerable_at_lines[^\S\n]*:[^\S\n]*([0-9](?:[0-9,]|[^\S\n])*)")
_MARKER_RE = re.compile(r"<yes>[^\S\n]*<report>[^\S\n]*([A-Za-z0-9_\-]+)")
_CODE_RE = re.compile(r"\S")
_LF_RE = re.compile("\n")


class ContractCase(namedtuple("ContractCase", "id source expected loc pragma checksum")):
    """One corpus entry: source text plus its ground-truth labels
    (``expected``; a new empty dict when left out). ``loc``, ``pragma``
    and ``checksum`` (the dedup key) derive from the comment-stripped
    source. :func:`scan_case` derives all four fields, the labels with
    them, from one scan; a load that scans nothing leaves all four None.
    The derived fields take no part in equality, which holds only between
    cases."""

    __slots__ = ()

    def __new__(cls, id: str, source: str,
                expected: Mapping[str, frozenset[int]] | None = None,
                loc: int | None = None, pragma: bool | None = None,
                checksum: str | None = None) -> "ContractCase":
        return tuple.__new__(cls, (id, source, {} if expected is None else expected,
                                   loc, pragma, checksum))

    def __eq__(self, other):
        return type(other) is type(self) and self[:3] == other[:3]

    def __ne__(self, other):
        return not self == other

    @property
    def safe(self) -> bool:
        return not self.expected


def scan_case(case_id: str, source: str) -> ContractCase:
    """The case of ``source`` with its four derived fields from one
    comment-stripping scan. Each annotation mismatch is warned; a label
    error, naming ``case_id``, raises."""
    fields, faults, notes = _derive(source, case_id)
    for note in notes:
        warnings.warn(AnnotationMismatch(note))
    if fields is None:
        raise faults[-1]
    return ContractCase._make((case_id, source, *fields))


def _derive(source: str, origin: str) -> tuple[tuple | None, list[ScbenchError], list[str]]:
    """The labels, LoC, pragma flag and checksum of ``source`` from one
    scan, its faults, and its annotation mismatches. The faults are the
    error a strict scan raises, then the label error (naming ``origin``),
    which leaves no fields but keeps the mismatches found before it."""
    stripped, lex_error = _strip(source)
    faults = [] if lex_error is None else [lex_error]
    notes: list[str] = []
    try:
        expected = _annotations(source, stripped, notes)
    except ScbenchError as exc:
        faults.append(type(exc)(f"{origin}: {exc}"))
        return None, faults, notes
    return (expected, _loc(stripped), _pragma(stripped), _checksum(stripped)), faults, notes


def _derived(case: ContractCase, field: str):
    """``field`` of ``case``; one its load did not derive (``scan=False``)
    is an error, never a None that would count as a value."""
    value = getattr(case, field)
    if value is None:
        raise ScbenchError(f"case {case.id}: {field} was not derived; "
                           "load the corpus with a scan")
    return value


def _annotations(source: str, stripped: str, notes: list[str]) -> dict[str, frozenset[int]]:
    """The ground-truth labels of ``source``, given its comment-stripped
    text; each annotation mismatch is appended to ``notes``.

    Lines are those of :mod:`.lexer`: LF-delimited. An inline ``<yes>
    <report> MARKER`` comment labels the first line below its own that
    holds code once comments are stripped; only the first marker on a
    line counts, and one with no such line below is a mismatch. A
    ``@vulnerable_at_lines`` header contributes extra line numbers. Header
    lines fold into the single inline class when there is exactly one;
    otherwise unattributable header lines are a mismatch, as is any header
    whose line set disagrees with the inline markers. An unknown marker,
    or a header entry that is not a line number, raises.
    """
    taxonomy = default_taxonomy()
    inline: dict[str, set[int]] = {}
    line = 0  # the line of the last marker that counted
    below = 0  # the offset in ``stripped`` of the line after ``line``
    idx, at = 1, 0  # the line of offset ``at`` in ``source``
    for m in _MARKER_RE.finditer(source):
        idx += source.count("\n", at, m.start())  # each LF is counted once
        at = m.start()
        if idx == line:
            continue
        try:
            cls = taxonomy.class_for_marker(m.group(1))
        except UnknownMarker as exc:
            raise UnknownMarker(f"line {idx}: {exc}") from None
        # ``stripped`` keeps every LF of ``source``: step past the marker
        # line's, which only the last line lacks (``below`` is then 0)
        lf = next(islice(_LF_RE.finditer(stripped, below), idx - line - 1, None), None)
        below = lf.end() if lf else 0
        line = idx
        code = _CODE_RE.search(stripped, below) if below else None
        if code is None:
            notes.append(f"marker {m.group(1)!r} on line {idx} has no following statement")
            continue
        target = idx + 1 + stripped.count("\n", below, code.start())
        inline.setdefault(cls.id, set()).add(target)

    header: set[int] = set()
    hm = _HEADER_RE.search(source)
    if hm:
        # the entries hold ASCII digits and blanks; stripped first, since
        # int() refuses a trailing "\x1c" that str.strip() takes
        for tok in filter(None, map(str.strip, hm.group(1).split(","))):
            if not tok.isdigit():  # "3 5"
                raise ScbenchError(f"line {_line(source, hm.start())}: "
                                   f"@vulnerable_at_lines entry {tok!r} is not a line number")
            header.add(int(tok))

    if header:
        inline_union = set().union(*inline.values()) if inline else set()
        if len(inline) == 1:
            if header != inline_union:
                notes.append(f"header lines {sorted(header)} disagree with inline "
                             f"marker lines {sorted(inline_union)}")
            (only,) = inline
            inline[only] |= header
        elif not inline:
            notes.append(f"header declares lines {sorted(header)} but no inline "
                         "markers are present")
        else:
            stray = header - inline_union
            if stray:
                notes.append(f"header lines {sorted(stray)} match no inline marker "
                             "in a multi-class file")

    return {cid: frozenset(lines) for cid, lines in inline.items()}


def dedup(cases: Iterable[ContractCase]) -> tuple[list[ContractCase], int]:
    """Drop cases whose normalized source repeats an earlier checksum."""
    seen: set[str] = set()
    kept: list[ContractCase] = []
    removed = 0
    for case in cases:
        checksum = _derived(case, "checksum")
        if checksum in seen:
            removed += 1
        else:
            seen.add(checksum)
            kept.append(case)
    return kept, removed


def pragma_filter(cases: Iterable[ContractCase]) -> list[ContractCase]:
    """Keep only cases with a ``pragma solidity`` directive outside comments."""
    return [case for case in cases if _derived(case, "pragma")]


class ClassStat(NamedTuple):
    class_id: str
    name: str
    count: int
    loc: int


class CorpusStats(NamedTuple):
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
        expected, loc = _derived(case, "expected"), _derived(case, "loc")
        if not expected:
            safe_count += 1
            safe_loc += loc
        for cid in expected:
            counts[cid] += 1
            locs[cid] += loc
    per_class = tuple(ClassStat(c.id, c.name, counts[c.id], locs[c.id]) for c in taxonomy)
    return CorpusStats(per_class, safe_count, safe_loc)


# ---------------------------------------------------------------------------
# loading

def load_metadata(path: str | Path) -> dict[str, tuple[datetime | None, int | None]]:
    """Sidecar rows: contract id, ISO-8601 timestamp, wei value. A file that
    cannot be read, a header without ``id``, a bad timestamp or value, or an
    id on two rows raises :class:`ScbenchError` naming the file (and the
    line). ``datetime`` is imported here, as no other corpus reader needs it."""
    from datetime import datetime

    meta: dict[str, tuple[datetime | None, int | None]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is not None and "id" not in reader.fieldnames:
                raise ScbenchError(f"{path}:1: no 'id' column")
            for row in reader:
                if row["id"] in meta:
                    raise ScbenchError(f"{path}:{reader.line_num}: id {row['id']!r} "
                                       "repeats an earlier row")
                created, value = row.get("created_at"), row.get("tx_value_wei")
                try:
                    ts = datetime.fromisoformat(created.replace("Z", "+00:00")) \
                        if created else None
                    meta[row["id"]] = (ts, int(value) if value else None)
                except ValueError as exc:
                    raise ScbenchError(f"{path}:{reader.line_num}: {exc}") from None
    except OSError as exc:
        raise ScbenchError(f"cannot read metadata {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ScbenchError(f"{path}: {exc}") from None
    return meta


def load_sidecar(directory: str | Path, metadata: str | Path | None = None):
    """The metadata of a corpus directory (see :func:`load_metadata`): the
    file ``metadata`` when given, else the directory's own ``metadata.csv``
    when it has one, else none."""
    if metadata:
        return load_metadata(metadata)
    own = os.path.join(directory, "metadata.csv")
    return load_metadata(own) if os.path.isfile(own) else {}


def _entries(directory: str) -> list[os.DirEntry]:
    """The entries of ``directory``; one that cannot be listed is a
    :class:`ScbenchError`, never an empty listing."""
    try:
        with os.scandir(directory) as it:
            return list(it)
    except OSError as exc:
        raise ScbenchError(f"cannot list {directory}: {exc.strerror or exc}") from None


def _is_dir(entry: os.DirEntry) -> bool:
    try:
        return entry.is_dir()  # follows a symlink
    except OSError:
        return False


def _sources(directory: str) -> list[tuple[str, str]]:
    """``(name, path)`` of each ``*.sol`` entry of ``directory``, sorted by
    name."""
    return sorted((e.name, e.path) for e in _entries(directory) if e.name.endswith(".sol"))


def _class_dirs(root: str) -> list[str]:
    """The names of the subdirectories of ``root``, hidden or symlinked,
    sorted."""
    return sorted(e.name for e in _entries(root) if _is_dir(e))


def _labelled_files(root: str) -> Iterator[tuple[str, str]]:
    """``(class_dir/name.sol, path)`` of each ``<root>/<class_dir>/*.sol``.

    The files and their order are those of ``sorted(Path(root).glob("*/*.sol"),
    key=lambda p: p.parts)``: every class directory, hidden or symlinked,
    sorted by name, and in each its entries named ``*.sol``, sorted by name.
    A directory that cannot be listed is a :class:`ScbenchError`.
    """
    for class_dir in _class_dirs(root):
        for name, path in _sources(os.path.join(root, class_dir)):
            yield f"{class_dir}/{name}", path


def _read_source(path: str, origin: str) -> str:
    """The file's text as ``Path.read_text("utf-8")`` gives it: UTF-8 with
    universal newlines, read with ``os.read`` and no file object. A file
    that cannot be read or decoded is a :class:`ScbenchError` naming
    ``origin`` (and the line of a bad byte)."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ScbenchError(f"{origin}: {exc.strerror or exc}") from None
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ScbenchError(f"{origin}: line {line}: not UTF-8: {exc.reason} "
                           f"(byte {data[exc.start]:#04x})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_labelled(root: str | Path, scan: bool = True) -> list[ContractCase]:
    """Load ``<root>/<class_dir>/*.sol`` (including ``safe/``), sorted by id,
    scanned unless ``scan`` is false (see :func:`_load`)."""
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise ScbenchError(f"corpus root {root} is not a directory")
    return _load(root, _labelled_files(root), scan)


def _load(root: str, files: Iterable[tuple[str, str]], scan: bool) -> list[ContractCase]:
    """The case of each ``(origin, path)`` of ``files``, its id ``origin``
    less ``.sol``: with its derived fields (see :func:`scan_case`), read
    through the scan cache of ``root`` (see :func:`_scans`), or with none
    when ``scan`` is false. Each annotation mismatch is warned, naming its
    file; a file left with no fields then raises its last fault, and the
    cache is not written."""
    if not scan:
        return [ContractCase._make((origin[:-4] or origin, _read_source(path, origin),
                                    None, None, None, None)) for origin, path in files]
    cases = []
    for origin, text, fields, faults, notes in _scans(root, files):
        for note in notes:
            warnings.warn(AnnotationMismatch(f"{origin}: {note}"))
        if fields is None:
            raise faults[-1]
        cases.append(ContractCase._make((origin[:-4] or origin, text, *fields)))
    return cases


def _scans(root: str, files: Iterable[tuple[str, str]]) -> Iterator[tuple]:
    """``(origin, text, fields, faults, notes)`` of each ``(origin, path)``
    of ``files``: its text, the fields, faults and mismatches of its scan
    (see :func:`_derive`), or a read error as its only fault. A contract
    whose text the scan cache of ``root`` holds (see :mod:`.cache`) is not
    scanned; each scan with no fault and no mismatch is kept there, and
    the cache is saved once the walk ends."""
    from .cache import ScanCache

    cache = ScanCache(root)
    for origin, path in files:
        try:
            text, fields = cache.get(origin, _read_source(path, origin))
        except ScbenchError as exc:
            yield origin, None, None, [exc], []
            continue
        faults, notes = [], []
        if fields is None:
            fields, faults, notes = _derive(text, origin)
            if not faults and not notes:
                cache.put(origin, text, fields)
        yield origin, text, fields, faults, notes
    cache.save()


def _files(directory: str) -> Iterable[tuple[str, str]]:
    """``(origin, path)`` of each contract of a corpus directory in its
    layout: labelled (:func:`_labelled_files`) when a subdirectory holds a
    ``*.sol`` entry, else flat (:func:`_sources`). A subdirectory that
    cannot be listed holds none: in a flat corpus it is no part of the
    corpus (a ``lost+found``, say). The search stops at the first
    subdirectory that holds one."""
    if not os.path.isdir(directory):
        raise ScbenchError(f"{directory} is not a directory")
    for class_dir in _class_dirs(directory):
        try:
            if _sources(os.path.join(directory, class_dir)):
                return _labelled_files(directory)
        except ScbenchError:
            continue
    return _sources(directory)


def load_directory(directory: str | Path, scan: bool = True) -> list[ContractCase]:
    """Load a corpus directory in its layout (see :func:`_files`), as
    :func:`load_labelled` or :func:`load_flat` would."""
    directory = os.fspath(directory)
    return _load(directory, _files(directory), scan)


def load_flat(directory: str | Path, scan: bool = True) -> list[ContractCase]:
    """Load a flat directory of ``*.sol`` files (scaled-corpus layout); a
    case's id is its file name less ``.sol``, as ``Path.stem`` gives it."""
    directory = os.fspath(directory)
    return _load(directory, _sources(directory), scan)


def scan_problems(root: str | Path) -> list[str]:
    """Validation sweep over a corpus in the layout :func:`_files` picks;
    returns human-readable issues.

    Lists each contract's read, lex and label errors, then checks alias
    totality, annotation line bounds, missing pragma directives,
    annotation mismatches and, in a labelled layout, directory/label
    agreement. It reads through the walk of every scanning load
    (:func:`_scans`), so a clean contract that the scan cache holds is not
    scanned, and no contract is scanned twice.
    """
    root = os.fspath(root)
    taxonomy = default_taxonomy()
    problems: list[str] = []
    for rel, source, fields, faults, notes in _scans(root, _files(root)):
        problems.extend(f"{rel}: line {_line(source, fault.position)}: {fault}"
                        if isinstance(fault, SourceLexError) else str(fault)
                        for fault in faults)
        if fields is None:  # a contract whose labels raise drops its mismatches
            continue
        problems.extend(f"{rel}: {note}" for note in notes)
        expected, _, pragma, _ = fields
        # the last line need not end in LF
        n_lines = source.count("\n") + (source[-1:] not in ("", "\n"))
        for cid, lines in expected.items():
            past_end = [ln for ln in lines if ln > n_lines]
            if past_end:
                problems.append(f"{rel}: {cid} annotates lines {sorted(past_end)} "
                                f"beyond the {n_lines}-line source")
        # a flat file's name has no "/", so it names no class directory
        dir_name = rel.partition("/")[0]
        dir_class = taxonomy.by_dir(dir_name)
        if dir_name == "safe":
            if expected:
                problems.append(f"{rel}: file under safe/ carries labels "
                                f"{sorted(expected)}")
        elif dir_class is not None and dir_class.id not in expected:
            problems.append(f"{rel}: directory says {dir_class.id} but labels are "
                            f"{sorted(expected) or 'empty'}")
        if not pragma:
            problems.append(f"{rel}: no pragma solidity directive")
    return problems
