"""Comment stripping and the forms of Solidity source derived from it.

One scan removes comments and keeps line structure (:func:`strip_comments`).
The checksum form, the LoC count and pragma detection are all computed from
that scan's output, so a caller holding the stripped text never rescans.

The scan tracks string literals so that comment delimiters inside strings
survive. Errors do not abort it: an unterminated block comment swallows the
rest of the file, an unterminated string keeps it as content, and the error
kind plus offset are returned for strict callers to raise on.
"""

from __future__ import annotations

import re

from ..errors import SourceLexError, UnterminatedBlockComment, UnterminatedString

BACKEND = "python"

_OK = 0
_ERR_BLOCK_COMMENT = 1
_ERR_STRING = 2
_ERRORS = {_ERR_BLOCK_COMMENT: UnterminatedBlockComment, _ERR_STRING: UnterminatedString}

_PRAGMA_RE = re.compile(r"pragma\s+solidity")


def _scan(src: str) -> tuple[str, int, int]:
    """Remove comments; newlines spanned by a block comment are re-emitted
    so line numbering stays intact. Returns (text, error kind, offset)."""
    out: list[str] = []
    n = len(src)
    i = 0
    run = 0  # start of the pending verbatim copy
    err = _OK
    err_pos = -1

    while i < n:
        ch = src[i]

        if ch == '"' or ch == "'":
            j = i + 1
            while j < n:
                cj = src[j]
                if cj == "\\":
                    j += 2
                elif cj == ch:
                    break
                else:
                    j += 1
            if j < n:
                i = j + 1
            else:
                err, err_pos = _ERR_STRING, i
                i = n
            continue

        if ch == "/" and i + 1 < n:
            nxt = src[i + 1]
            if nxt == "/":
                out.append(src[run:i])
                j = src.find("\n", i + 2)
                # the newline (if any) is not part of the comment
                run = i = n if j < 0 else j
                continue
            if nxt == "*":
                out.append(src[run:i])
                close = src.find("*/", i + 2)
                if close < 0:
                    if err == _OK:
                        err, err_pos = _ERR_BLOCK_COMMENT, i
                    out.append("\n" * src.count("\n", i + 2, n))
                    run = i = n
                    continue
                out.append("\n" * src.count("\n", i + 2, close))
                run = i = close + 2
                continue

        i += 1

    out.append(src[run:n])
    return "".join(out), err, err_pos


def _strip(source: str) -> tuple[str, SourceLexError | None]:
    """Lenient :func:`strip_comments`, plus the error a strict one raises."""
    out, err, pos = _scan(source)
    return out, _ERRORS[err](pos) if err else None


def strip_comments(source: str, strict: bool = True) -> str:
    """Comments removed, line structure kept (for LoC and line lookups)."""
    out, error = _strip(source)
    if strict and error is not None:
        raise error
    return out


def _squeeze(stripped: str) -> str:
    """Checksum form of comment-stripped text: all whitespace removed.

    Whitespace removal can butt two slashes into a fresh comment delimiter
    (``a / /*c*/ b``), so the text is rescanned until stable; that keeps
    normalization idempotent. Without ``//`` or ``/*`` a rescan changes
    nothing, so it is skipped.
    """
    out = "".join(stripped.split())
    while "//" in out or "/*" in out:
        # delimiters synthesized by the fold are canonicalized leniently;
        # the caller's source was already error-checked
        nxt = "".join(_scan(out)[0].split())
        if nxt == out:
            break
        out = nxt
    return out


def _loc(stripped: str) -> int:
    """Non-blank lines of comment-stripped text."""
    return sum(1 for line in stripped.splitlines() if line.strip())


def _pragma(stripped: str) -> bool:
    """True iff comment-stripped text holds a ``pragma solidity`` directive."""
    return _PRAGMA_RE.search(stripped) is not None


def normalize_source(source: str, strict: bool = True) -> str:
    """Checksum form: comments and all whitespace removed.

    String literal contents (other than whitespace) are preserved, so
    ``s = "//x";`` normalizes to ``s="//x";``.
    """
    return _squeeze(strip_comments(source, strict))


def count_loc(source: str) -> int:
    """Lines that remain non-blank once comments (and the annotation
    markers they carry) are removed."""
    return _loc(strip_comments(source, strict=False))


def has_pragma(source: str) -> bool:
    """True iff a ``pragma solidity`` directive survives comment removal."""
    return _pragma(strip_comments(source, strict=False))
