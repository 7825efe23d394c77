"""Seeded xN replica of the shipped labelled corpus.

Every shipped case ``<class_dir>/<name>.sol`` is copied ``scale`` times as
``<class_dir>/<name>_x<k>.sol``.  A copy renames its first ``contract``
identifier in place, so its checksum is new while every line number (and
so every annotation) stays valid.  The seed picks three small shares:

* near-duplicates: copy ``k`` repeats copy ``k - 1`` up to a comment or
  whitespace, so ``dedup`` removes it;
* copies whose ``pragma solidity`` line is commented out, which
  ``pragma_filter`` drops and ``validate`` reports;
* replay entries set to ``timeout`` or ``tool_error``, per tool.

Creating tens of thousands of files is slow and erratic on some
filesystems, so the seed-independent file variants live in a pool that is
written once per checkout (:func:`ensure_pool`).  A seeded replica
(:func:`build`) hard-links its sources from the pool and writes its own
``metadata.csv`` and one replay fixture per tool.  It returns the plan of
what it planted, from which the benchmark derives the expected outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import re
import shutil
from datetime import datetime, timedelta
from pathlib import Path

NEAR_DUP_SHARE = 0.02
PRAGMA_OFF_SHARE = 0.01
TIMEOUT_SHARE = 0.003
TOOL_ERROR_SHARE = 0.004
TIMEOUT_MS = 300_000

_CONTRACT_RE = re.compile(r"\bcontract\s+([A-Za-z_][A-Za-z0-9_]*)")
_PRAGMA_LINE_RE = re.compile(r"^pragma solidity", re.MULTILINE)


def _shipped_cases(src_root: Path) -> list[tuple[str, str]]:
    """(id, source) of every shipped case, in load order."""
    return [(p.relative_to(src_root).with_suffix("").as_posix(), p.read_text("utf-8"))
            for p in sorted(src_root.glob("*/*.sol"))]


def _variants(source: str, k: int) -> dict[str, str]:
    """The three forms copy ``k`` of a case can take."""
    m = _CONTRACT_RE.search(source)
    if m is None or _PRAGMA_LINE_RE.search(source) is None:
        raise ValueError("a shipped case lacks a contract identifier or pragma line")

    def renamed(j: int) -> str:
        return source[:m.end(1)] + f"X{j}" + source[m.end(1):]

    plain = renamed(k)
    out = {"plain": plain,
           "nopragma": _PRAGMA_LINE_RE.sub("// pragma solidity", plain, count=1)}
    if k > 0:
        twin = renamed(k - 1).rstrip("\n")
        out["neardup"] = (twin + " // near-duplicate\n" if k % 2
                          else twin.replace("{", "{  ", 1) + "\n")
    return out


def pool_key(src_root: Path, scale: int) -> str:
    """Identifies a pool: this builder, the shipped sources and the scale."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(str(scale).encode())
    for cid, source in _shipped_cases(src_root):
        h.update(cid.encode() + b"\0" + source.encode())
    return h.hexdigest()


def ensure_pool(src_root: Path, pool_root: Path, scale: int) -> Path:
    """Return ``pool_root/x<scale>``, writing it first if it is absent or stale.

    Layout: ``<variant>/<class_dir>/<name>_x<k>.sol``.  The pool is written
    to a temporary sibling and renamed into place, so a half-written pool
    is never used.
    """
    pool = pool_root / f"x{scale}"
    key = pool_key(src_root, scale)
    marker = pool / "KEY"
    if marker.is_file() and marker.read_text() == key:
        return pool
    for stale in pool_root.glob(f".x{scale}.*"):
        shutil.rmtree(stale)
    tmp = pool_root / f".x{scale}.{os.getpid()}"
    for cid, source in _shipped_cases(src_root):
        for k in range(scale):
            for variant, text in _variants(source, k).items():
                path = tmp / variant / f"{cid}_x{k:03d}.sol"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, "utf-8")
    (tmp / "KEY").write_text(key)
    shutil.rmtree(pool, ignore_errors=True)
    os.rename(tmp, pool)
    return pool


def build(src_root: Path, replay_src: Path, pool: Path, out: Path, scale: int,
          seed: int) -> dict:
    """Write ``out/corpus`` (with ``metadata.csv``) and ``out/replay``."""
    rng = random.Random(seed)
    corpus_dir = out / "corpus"
    replay_dir = out / "replay"
    replay_dir.mkdir(parents=True)

    with open(src_root / "metadata.csv", newline="", encoding="utf-8") as fh:
        shipped_meta = {row["id"]: row for row in csv.DictReader(fh)}

    origin: dict[str, str] = {}   # copy id -> shipped id
    near_dups: list[str] = []
    pragma_off: list[str] = []
    meta_rows = []
    for path in sorted(src_root.glob("*/*.sol")):
        shipped_id = path.relative_to(src_root).with_suffix("").as_posix()
        (corpus_dir / path.parent.name).mkdir(parents=True, exist_ok=True)
        created = datetime.fromisoformat(shipped_meta[shipped_id]["created_at"])
        value = shipped_meta[shipped_id]["tx_value_wei"]
        previous_plain = False
        for k in range(scale):
            copy_id = f"{shipped_id}_x{k:03d}"
            roll = rng.random()
            if previous_plain and roll < NEAR_DUP_SHARE:
                variant = "neardup"
                near_dups.append(copy_id)
            elif roll < NEAR_DUP_SHARE + PRAGMA_OFF_SHARE:
                variant = "nopragma"
                pragma_off.append(copy_id)
            else:
                variant = "plain"
            previous_plain = variant == "plain"
            os.link(pool / variant / f"{copy_id}.sol", corpus_dir / f"{copy_id}.sol")
            origin[copy_id] = shipped_id
            shifted = created + timedelta(days=rng.randrange(365))
            meta_rows.append([copy_id, shifted.isoformat(), value])

    with open(corpus_dir / "metadata.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "created_at", "tx_value_wei"])
        writer.writerows(meta_rows)

    statuses: dict[str, dict[str, int]] = {}
    for fixture in sorted(replay_src.glob("*.json")):
        shipped = json.loads(fixture.read_text("utf-8"))
        entries = {}
        counts: dict[str, int] = {}
        for copy_id, shipped_id in origin.items():
            roll = rng.random()
            if roll < TIMEOUT_SHARE:
                entry = {"status": "timeout", "duration_ms": TIMEOUT_MS, "findings": []}
            elif roll < TIMEOUT_SHARE + TOOL_ERROR_SHARE:
                entry = {"status": "tool_error",
                         "duration_ms": shipped[shipped_id]["duration_ms"],
                         "findings": []}
            else:
                entry = shipped[shipped_id]
            status = entry.get("status", "ok")
            counts[status] = counts.get(status, 0) + 1
            entries[copy_id] = entry
        (replay_dir / fixture.name).write_text(json.dumps(entries) + "\n", "utf-8")
        statuses[fixture.stem] = counts

    return {
        "ids": list(origin),
        "near_duplicates": near_dups,
        "pragma_off": pragma_off,
        "statuses": statuses,
    }

