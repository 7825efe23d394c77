"""Independent reference implementations used only to check the package.

Everything here is deliberately written with a different structure (and,
for the numeric oracles, different precision) than the production code, so
agreement between the two is meaningful.
"""

from __future__ import annotations

import hashlib
import re
import warnings

import mpmath as mp

from scbench.errors import AnnotationMismatch, UnknownMarker
from scbench.taxonomy import default_taxonomy

_TOKEN = re.compile(r'"|\'|/\*|//')
# LF, VT, FF, CR, NEL, LS and PS end a ``//`` comment
_COMMENT_ENDS = "\n\x0b\x0c\r\x85\u2028\u2029"


def lexer_oracle(src: str, drop_ws: bool) -> str:
    """Token-stream comment/whitespace stripper.

    Walks the source by regex-searching the next interesting token rather
    than scanning char by char. Same grammar as the package lexer:
    backslash escapes inside strings, a ``//`` comment that ends before
    any Solidity line break, no nested block comments, lenient
    recovery (unterminated comment swallows the tail, unterminated string
    keeps it).
    """
    return _token_walk(src, drop_ws)[0]


def lexer_error_oracle(src: str) -> tuple[str, int] | None:
    """(kind, offset) of the first unterminated construct, kind being
    ``"string"`` or ``"block comment"``; None when every one closes."""
    return _token_walk(src, False)[1]


def _token_walk(src: str, drop_ws: bool) -> tuple[str, tuple[str, int] | None]:
    kept: list[str] = []
    error = None
    pos = 0
    n = len(src)
    while pos < n:
        m = _TOKEN.search(src, pos)
        if not m:
            kept.append(src[pos:])
            break
        kept.append(src[pos:m.start()])
        tok = m.group()
        if tok in ('"', "'"):
            j = m.start() + 1
            while j < n and src[j] != tok:
                j = j + 2 if src[j] == "\\" else j + 1
            if j >= n and error is None:
                error = ("string", m.start())
            end = min(j + 1, n)
            kept.append(src[m.start():end])
            pos = end
        elif tok == "//":
            # the comment ends before the first Solidity line break
            ends = [i for i in (src.find(c, m.end()) for c in _COMMENT_ENDS) if i >= 0]
            pos = min(ends, default=n)
        else:  # /*
            close = src.find("*/", m.end())
            if close < 0:
                if error is None:
                    error = ("block comment", m.start())
                kept.append("\n" * src.count("\n", m.end()) if not drop_ws else "")
                pos = n
            else:
                if not drop_ws:
                    kept.append("\n" * src.count("\n", m.end(), close))
                pos = close + 2
    text = "".join(kept)
    if drop_ws:
        text = "".join(c for c in text if not c.isspace())
    return text, error


def normalize_oracle(src: str) -> str:
    """Fixed point of the single normalization pass, mirroring the package
    contract that normalizing twice changes nothing."""
    out = lexer_oracle(src, True)
    while True:
        nxt = lexer_oracle(out, True)
        if nxt == out:
            return out
        out = nxt



_HEADER = re.compile(r"@vulnerable_at_lines[^\S\n]*:[^\S\n]*([0-9](?:[0-9,]|[^\S\n])*)")
_MARKER = re.compile(r"<yes>\s*<report>\s*([A-Za-z0-9_\-]+)")


def case_fields_oracle(source: str) -> tuple[dict, int, bool, str, list[str]]:
    """Labels, LoC, pragma flag and checksum of ``source``, and the
    ``AnnotationMismatch`` messages on the way, over the token-walk
    oracle's stripped and normalized text. Lines are LF-delimited: each
    stripped character is mapped to its line by the LFs before it, and a
    line holds code when a non-whitespace character maps to it. Markers
    are searched line by line in ``source`` split at LF. An unknown marker
    raises ``UnknownMarker``."""
    stripped = lexer_oracle(source, False)
    code_lines: set[int] = set()
    line = 1
    for ch in stripped:
        if ch == "\n":
            line += 1
        elif not ch.isspace():
            code_lines.add(line)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = _annotations_by_line(source, code_lines)
    pragma = re.search(r"pragma\s+solidity", stripped) is not None
    checksum = hashlib.md5(normalize_oracle(source).encode("utf-8")).hexdigest()
    return labels, len(code_lines), pragma, checksum, [str(w.message) for w in caught]


def _annotations_by_line(source: str, code_lines: set[int]) -> dict[str, frozenset[int]]:
    taxonomy = default_taxonomy()
    inline: dict[str, set[int]] = {}
    for idx, raw in enumerate(source.split("\n"), 1):
        m = _MARKER.search(raw)
        if not m:
            continue
        try:
            cls = taxonomy.class_for_marker(m.group(1))
        except UnknownMarker as exc:
            raise UnknownMarker(f"line {idx}: {exc}") from None
        target = min((ln for ln in code_lines if ln > idx), default=None)
        if target is None:
            warnings.warn(AnnotationMismatch(
                f"marker {m.group(1)!r} on line {idx} has no following statement"))
            continue
        inline.setdefault(cls.id, set()).add(target)

    header: set[int] = set()
    hm = _HEADER.search(source)
    if hm:
        header = {int(tok.strip()) for tok in hm.group(1).split(",") if tok.strip()}
    result = {cid: set(lines) for cid, lines in inline.items()}
    if header:
        inline_union = set().union(*inline.values()) if inline else set()
        if len(result) == 1:
            if header != inline_union:
                warnings.warn(AnnotationMismatch(
                    f"header lines {sorted(header)} disagree with inline "
                    f"marker lines {sorted(inline_union)}"))
            (only,) = result
            result[only] |= header
        elif not result:
            warnings.warn(AnnotationMismatch(
                f"header declares lines {sorted(header)} but no inline markers are present"))
        else:
            stray = header - inline_union
            if stray:
                warnings.warn(AnnotationMismatch(
                    f"header lines {sorted(stray)} match no inline marker "
                    "in a multi-class file"))
    return {cid: frozenset(lines) for cid, lines in result.items()}


def ewm_oracle(matrix) -> list[float]:
    """Entropy weights at 50 significant digits, straight from the
    definitions: range-normalize, column proportions, entropy with
    k = 1/ln(m), weights proportional to 1 - E."""
    with mp.workdps(50):
        # mpf(float(v)) converts the binary float64 exactly
        rows = [[mp.mpf(float(v)) for v in row] for row in matrix]
        m = len(rows)
        n = len(rows[0])
        cols = [[rows[i][j] for i in range(m)] for j in range(n)]
        std_cols = []
        for col in cols:
            lo, hi = min(col), max(col)
            if hi == lo:
                std_cols.append([mp.mpf(0)] * m)
            else:
                std_cols.append([(v - lo) / (hi - lo) for v in col])
        k = 1 / mp.log(m)
        divergence = []
        for col in std_cols:
            total = mp.fsum(col)
            if total == 0:
                divergence.append(mp.mpf(0))
                continue
            ent = -k * mp.fsum(
                (v / total) * mp.log(v / total) for v in col if v > 0
            )
            divergence.append(1 - ent)
        dsum = mp.fsum(divergence)
        if dsum == 0:
            return [1.0 / n] * n
        return [float(d / dsum) for d in divergence]


def consistent_ahp_oracle(v) -> list[float]:
    """For a judgment matrix built as a_ij = v_i / v_j the principal
    eigenvector is v itself; normalize it exactly."""
    with mp.workdps(50):
        vv = [mp.mpf(float(x)) for x in v]
        total = mp.fsum(vv)
        return [float(x / total) for x in vv]


def score_campaign_oracle(records, registry, corpus):
    """The scores of a campaign as the record-object design computed them:
    the records indexed tool -> contract -> ScanRecord, then per tool one
    walk of the corpus that looks each contract's record up and tests its
    findings' class ids against the tool's capabilities and the contract's
    labels, then the cells turned into metric sets."""
    from scbench.errors import EmptyMatrix, MissingRecord, NoValidRuns, ScbenchError
    from scbench.metrics import ConfusionMatrix, TimingSummary, ToolScores, prf
    from scbench.taxonomy import CLASS_IDS, default_taxonomy

    if not any(case.expected for case in corpus):
        raise ScbenchError("no contract in the corpus carries a vulnerability "
                           "label, so precision and recall cannot be scored")
    by_tool = {}
    for rec in records:
        by_tool.setdefault(rec.tool, {})[rec.contract] = rec
    names = {cls.id: cls.name for cls in default_taxonomy()}
    walks = []
    for tool in registry:
        by_contract = by_tool.get(tool.name, {})
        cells = {cid: [0, 0, 0, 0] for cid in CLASS_IDS if tool.can_detect(cid)}
        flagged = {cid: [] for cid in cells}
        total_ms = ok = 0
        for case in corpus:
            try:
                rec = by_contract[case.id]
            except KeyError:
                raise MissingRecord(f"no record for ({tool.name}, {case.id})") from None
            if rec.status != "ok":
                continue
            total_ms += rec.duration_ms
            ok += 1
            for cid in rec.findings:
                try:
                    flagged[cid].append(case.id)
                except KeyError:
                    raise ScbenchError(f"record for ({tool.name}, {case.id}) flags {cid!r}, "
                                       f"which {tool.name} does not detect") from None
            if case.safe:
                for cid, cell in cells.items():
                    cell[1 if cid in rec.findings else 3] += 1
            else:
                for cid in case.expected:
                    if cid in cells:
                        cells[cid][0 if cid in rec.findings else 2] += 1
        walks.append((cells, flagged, total_ms, ok))
    scores = {}
    for tool, (cells, flagged, total_ms, ok) in zip(registry, walks):
        if not ok:
            raise NoValidRuns(f"{tool.name} has no ok-status runs")
        classes = {}
        for cid, cell in cells.items():
            try:
                classes[cid] = prf(ConfusionMatrix(*cell))
            except EmptyMatrix:
                raise EmptyMatrix(
                    f"{tool.name}: no evaluated case for {cid} ({names[cid]}): "
                    "none of its vulnerable or safe contracts has an ok scan") from None
        scores[tool.name] = ToolScores(classes, TimingSummary(total_ms / 1000.0, ok), flagged)
    return scores
