"""Comment stripping and the forms of Solidity source derived from it.

One scan removes comments and keeps line structure (:func:`strip_comments`).
The checksum form, the LoC count and pragma detection are all computed from
that scan's output, so a caller holding the stripped text never rescans.

The scan is one compiled regular expression, searched from the end of each
match. It matches string literals (with backslash escapes) and skips them,
so comment delimiters inside strings survive, and it cuts line and block
comments. A lone quote or ``/*`` marks an unterminated literal or comment.
Errors do not abort the scan: an unterminated block comment swallows the
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
# In this order: the two string literals, the two comments, and the lone
# quotes and ``/*`` that match only where no literal or comment closes.
# Every alternative starts with a literal character, so the engine can skip
# plain code without trying them (a ``["']`` class would defeat that).
_TOKEN_RE = re.compile(
    r""""[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*'"""
    r"|//[^\n]*|/\*.*?\*/"
    r"""|"|'|/\*""",
    re.DOTALL,
)


def _scan(src: str) -> tuple[str, int, int]:
    """Remove comments; newlines spanned by a block comment are re-emitted
    so line numbering stays intact. Returns (text, error kind, offset)."""
    out: list[str] = []
    run = 0  # start of the pending verbatim copy
    m = _TOKEN_RE.search(src)
    while m is not None:
        tok = m.group()
        if len(tok) == 1:  # lone quote: the tail stays verbatim
            out.append(src[run:])
            return "".join(out), _ERR_STRING, m.start()
        if tok[0] == "/":
            out.append(src[run:m.start()])
            if tok == "/*":  # lone opener: only the tail's newlines stay
                out.append("\n" * src.count("\n", m.end()))
                return "".join(out), _ERR_BLOCK_COMMENT, m.start()
            if tok[1] == "*":
                out.append("\n" * tok.count("\n"))
            run = m.end()
        m = _TOKEN_RE.search(src, m.end())
    out.append(src[run:])
    return "".join(out), _OK, -1


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
        # delimiters synthesized by the fold are canonicalized leniently (the
        # caller's source was already error-checked); a whitespace-free text
        # holds no newline for a cut block comment to re-emit, so the rescan
        # needs no second fold and is stable when it cuts nothing
        nxt = _scan(out)[0]
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
