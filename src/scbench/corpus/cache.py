"""The scan cache: the derived fields of each clean contract, kept between
commands.

A corpus root has one file under ``$XDG_CACHE_HOME/scbench`` (or
``~/.cache/scbench``), named after the root's absolute path, holding the
entries of the root's last load: per contract its text and the four
fields one scan derives from it, the labels, LoC, pragma flag and
checksum. The file is UTF-8: one line of JSON (the root, the scanner
fingerprint, and per contract the length of its text and its fields),
then the texts back to back, so they are neither escaped nor parsed, and
each is read as it is cut. An entry is used only when the file's text
equals the cached text, and the whole file only when its scanner
fingerprint equals the running one: the Python version and the exact
text of the modules and data the scan reads. So an edited contract, or
an edited scanner, is scanned again, and no digest can collide. Only a
clean contract has an entry: it lexes without error, and its labels
raise nothing and warn of no mismatch; every other contract is scanned
at every load, so its messages repeat. A cache file that cannot be read,
decoded or written, or that another scanner wrote, changes no output:
the load scans as without it. The file of a root that is gone is deleted
by the first write of a new root's file, once a day has passed since its
own last write. Deleting the directory clears the cache.
"""

from __future__ import annotations

import json
import os
import sys
import time

# what a scan reads, relative to the package: its text is the fingerprint
_SCANNER = ("corpus/lexer.py", "corpus/__init__.py", "corpus/cache.py", "taxonomy.py",
            "data/aliases.json")
_SUFFIX = ".scan"
# a cache file unwritten this long, whose root is not a directory here, is
# deleted when the file of a new root is written: a root on a drive not
# mounted now, or on another machine that shares the directory, keeps its
# file until then
_STALE_S = 24 * 3600


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _directory() -> str | None:
    """The cache directory, or None where no absolute one is known. A
    relative ``XDG_CACHE_HOME`` is ignored, as the XDG spec asks."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "scbench") if os.path.isabs(base) else None


def _file_name(root: str) -> str:
    """The cache file name of an absolute ``root``: its path with ``%``
    and ``/`` escaped, so the name gives the root back (:func:`_root_of`)."""
    return root.replace("%", "%25").replace("/", "%2F") + _SUFFIX


def _root_of(name: str) -> str:
    return name[:-len(_SUFFIX)].replace("%2F", "/").replace("%25", "%")


def _fingerprint() -> list[str]:
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [sys.version] + [_read(os.path.join(package, name)).decode("utf-8", "surrogateescape")
                            for name in _SCANNER]


def _entries(fh, root: str, scanner: list[str]) -> dict[str, list]:
    """The entries of the cache file open as ``fh``, each
    ``[text, labels, loc, pragma, checksum]`` with its text read after the
    JSON line, or none when the file was written for another root or
    scanner, or is not in the cache's shape: an entry of another length,
    or with a field of another type (null, a string LoC, a number for the
    pragma flag), labels included."""
    meta = json.loads(fh.readline())
    if not (type(meta) is dict and meta.get("root") == root and meta.get("scanner") == scanner
            and type(meta.get("entries")) is dict):
        return {}
    entries = meta["entries"]
    for entry in entries.values():
        # its text's length, labels, LoC, pragma flag and checksum; a bool
        # is no int here
        if type(entry) is not list or list(map(type, entry)) != [int, dict, int, bool, str]:
            return {}
        entry[0] = fh.read(entry[0])  # a text cut short or askew matches no file
    # the labels map each class to a list of line numbers; one set of types
    # over all entries is checked faster than a set per entry
    labels = [lines for entry in entries.values() for lines in entry[1].values()]
    if {type(lines) for lines in labels} - {list} or {
            type(line) for lines in labels for line in lines} - {int}:
        return {}
    return entries


def _sweep(directory: str) -> None:
    """Delete the stale cache files in ``directory`` (see :data:`_STALE_S`)."""
    before = time.time() - _STALE_S
    with os.scandir(directory) as it:
        stale = [e.path for e in it if e.name.endswith(_SUFFIX)
                 and e.stat().st_mtime < before and not os.path.isdir(_root_of(e.name))]
    for path in stale:
        os.unlink(path)


class ScanCache:
    """The cache file of one corpus root, for one load: :meth:`get` each
    contract, :meth:`put` each clean scan of one it missed, then
    :meth:`save`, which rewrites the file with the entries of this load
    when they differ from those read."""

    def __init__(self, root: str):
        self._root = os.path.abspath(root)
        self._path = self._scanner = None
        self._old: dict[str, list] = {}
        self._new: dict[str, list] = {}
        self._changed = self._found = False
        directory = _directory()
        if directory is None:
            return
        try:
            self._scanner = _fingerprint()
            self._path = os.path.join(directory, _file_name(self._root))
            fh = open(self._path, encoding="utf-8", newline="")
        except (OSError, ValueError):  # no scanner text, no file, a name too long
            return
        self._found = True
        with fh:
            try:
                self._old = _entries(fh, self._root, self._scanner)
            except (OSError, ValueError, RecursionError):  # a corrupt file, not UTF-8
                pass

    def get(self, rel: str, source: str):
        """``(text, derived)`` of the contract ``rel`` read as ``source``.
        ``text`` is the cached copy of ``source`` when the entry holds one,
        so that a load keeps one copy, else ``source``. ``derived`` is the
        entry's labels, LoC, pragma flag and checksum, or None when there
        is no entry for ``rel`` or it holds another text."""
        entry = self._old.get(rel)
        if entry is None or entry[0] != source:
            return source, None
        self._new[rel] = entry
        text, labels, *rest = entry
        return text, ({cid: frozenset(lines) for cid, lines in labels.items()}, *rest)

    def put(self, rel: str, source: str, derived) -> None:
        """Keep a clean scan of ``source``: its labels, LoC, pragma flag
        and checksum (``derived``)."""
        labels, *rest = derived
        self._new[rel] = [source, {cid: sorted(lines) for cid, lines in labels.items()}, *rest]
        self._changed = True

    def save(self) -> None:
        """Rewrite the cache file, when this load changed its entries, by
        way of a temporary file. The first file of a root also deletes the
        stale files of other roots (:data:`_STALE_S`). A directory or file
        that cannot be written leaves the cache as it was."""
        if self._path is None or not self._changed and len(self._new) == len(self._old):
            return
        directory = os.path.dirname(self._path)
        tmp = f"{self._path}.{os.getpid()}.tmp"
        try:
            os.makedirs(directory, 0o700, exist_ok=True)
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                entries = {rel: [len(text), *fields] for rel, (text, *fields) in self._new.items()}
                meta = {"root": self._root, "scanner": self._scanner, "entries": entries}
                fh.write(json.dumps(meta, separators=(",", ":")) + "\n")
                fh.writelines(text for text, *_ in self._new.values())
            os.replace(tmp, self._path)
            if not self._found:
                _sweep(directory)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
