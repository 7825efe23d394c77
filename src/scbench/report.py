"""Report assembly: table rendering, finding distributions, time series.

Every emitter is a pure function of its inputs with sorted, byte-stable
output, so re-running a report over the same records reproduces it
exactly.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
from datetime import datetime
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import BUCKETS
from .errors import MissingMetadata, ScbenchError
from .mcdm import ScoreTable, WeightVector
from .metrics import INDICATOR_COLUMNS, IndicatorMatrix, ToolScores
from .tables import to_csv, to_markdown
from .taxonomy import CLASS_IDS, Registry, default_taxonomy

if TYPE_CHECKING:
    from .corpus import ContractCase


def _round3(value: float) -> float:
    return round(float(value), 3)


# ---------------------------------------------------------------------------
# table shapes

def metrics_grid(scores: Mapping[str, ToolScores]) -> tuple[list[str], list[list]]:
    """Tool x class grid of the four classification metrics; unsupported
    (tool, class) cells, undefined precision or recall, and the F1 of a
    cell with neither render as "-" and stay out of the row's average."""
    taxonomy = default_taxonomy()
    header = ["Tool", "Metric", *(c.name for c in taxonomy), "Average"]
    rows: list[list] = []
    for tool, tool_scores in scores.items():
        cells = {
            cid: {"Accuracy": ms.accuracy,
                  "Precision": ms.precision if ms.precision_defined else None,
                  "Recall": ms.recall if ms.recall_defined else None,
                  "F1-score": ms.f1 if ms.precision_defined or ms.recall_defined else None}
            for cid, ms in tool_scores.classes.items()
        }
        for metric in ("Accuracy", "Precision", "Recall", "F1-score"):
            row: list = [tool, metric]
            values = []
            for cls in taxonomy:
                v = cells.get(cls.id, {}).get(metric)
                if v is None:
                    row.append("-")
                else:
                    row.append(_round3(v))
                    values.append(v)
            row.append(_round3(sum(values) / len(values)) if values else "-")
            rows.append(row)
    return header, rows


def timing_table(scores: Mapping[str, ToolScores],
                 indicators: IndicatorMatrix) -> tuple[list[str], list[list]]:
    """Timing per tool, with the efficiency of its indicator row."""
    header = ["Tool", "TotalSeconds", "ValidRuns", "AvgSeconds", "Efficiency"]
    rows = []
    for t, s in scores.items():
        _, efficiency, _, _ = indicators.row(t)
        rows.append([t, _round3(s.timing.total_seconds), s.timing.valid_count,
                     _round3(s.timing.avg_seconds), _round3(efficiency)])
    return header, rows


def capability_table(registry: Registry,
                     indicators: IndicatorMatrix) -> tuple[list[str], list[list]]:
    """Version and class coverage per tool, with the compatibility and
    usability of its indicator row."""
    header = ["Tool", "MaxSolidity", "Compatibility", "Coverage", "Usability"]
    rows = []
    for t in registry:
        _, _, compatibility, usability = indicators.row(t.name)
        rows.append([t.name, str(t.max_solidity), _round3(compatibility),
                     len(t.capabilities), _round3(usability)])
    return header, rows


def weights_table(weights: Iterable[WeightVector]) -> tuple[list[str], list[list]]:
    header = ["Method", *[c.capitalize() for c in INDICATOR_COLUMNS]]
    rows = [[w.method, *(_round3(v) for v in w.values)] for w in weights]
    return header, rows


def score_table_rows(table: ScoreTable) -> tuple[list[str], list[list]]:
    header = ["Rank", "Tool", "Score", "Method"]
    rows = [[r.rank, r.tool, r.score, table.method] for r in table.rows]
    return header, rows


def indicators_table(matrix: IndicatorMatrix) -> tuple[list[str], list[list]]:
    header = ["Tool", *[c.capitalize() for c in INDICATOR_COLUMNS]]
    rows = [
        [t, *(_round3(v) for v in row)]
        for t, row in zip(matrix.tools, matrix.values)
    ]
    return header, rows


def load_indicators_csv(path: str | Path) -> IndicatorMatrix:
    """Read a tools x indicators CSV as written by :func:`indicators_table`
    or the bundled reference export (lower-case column names accepted). A
    file that cannot be read, a missing column, a cell that is not a number
    in [0, 1] or a tool named on two rows raises :class:`ScbenchError` naming
    the file (and the line)."""
    tools = {}  # tool -> the line of its row
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                lowered = {k.lower(): v for k, v in row.items() if k is not None}
                try:
                    tool = lowered["tool"]
                    values = [float(lowered[c]) for c in INDICATOR_COLUMNS]
                except KeyError as exc:
                    raise ScbenchError(f"{path}:1: no {exc} column") from None
                except (TypeError, ValueError) as exc:  # a short row, or a word
                    raise ScbenchError(f"{path}:{reader.line_num}: {exc}") from None
                for column, value in zip(INDICATOR_COLUMNS, values):
                    if not math.isfinite(value):
                        raise ScbenchError(f"{path}:{reader.line_num}: {column} "
                                           f"{lowered[column]!r} is not a finite number")
                    if not 0 <= value <= 1:
                        raise ScbenchError(f"{path}:{reader.line_num}: {column} "
                                           f"{value} is outside [0, 1]")
                if tool in tools:
                    raise ScbenchError(f"{path}:{reader.line_num}: tool {tool!r} "
                                       f"repeats row {tools[tool]}")
                tools[tool] = reader.line_num
                rows.append(values)
    except OSError as exc:
        raise ScbenchError(f"cannot read indicators {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ScbenchError(f"{path}: {exc}") from None
    if not tools:
        raise ScbenchError(f"no indicator rows in {path}")
    return IndicatorMatrix(tuple(tools), rows)


# ---------------------------------------------------------------------------
# distribution and time-series aggregations

def distribution_table(registry: Registry,
                       scores: Mapping[str, ToolScores]) -> tuple[list[str], list[list]]:
    """Per (tool, class): how many contracts the tool flagged. Classes the
    tool cannot detect read 0 and are marked incapable."""
    rows = []
    for tool in registry:
        flagged = scores[tool.name].flagged
        for cid in CLASS_IDS:
            rows.append([tool.name, cid, len(flagged.get(cid, ())),
                         "" if tool.can_detect(cid) else "yes"])
    return ["Tool", "Class", "Count", "Incapable"], rows


def _bucket_label(ts: datetime, bucket: str) -> str:
    if bucket == "month":
        return f"{ts.year}-{ts.month:02d}"
    if bucket == "quarter":
        return f"{ts.year}Q{(ts.month - 1) // 3 + 1}"
    if bucket == "year":
        return str(ts.year)
    raise ScbenchError(f"unknown bucket {bucket!r}; pick one of {BUCKETS}")


def check_series_tools(tools: Iterable[str], known: Sequence[str], kind: str = "scored") -> None:
    """Raise :class:`ScbenchError` naming the first of ``tools`` that is
    not one of the ``known`` tools, which are listed as ``kind``: before
    a campaign is read, the registered ones."""
    for tool in tools:
        if tool not in known:
            raise ScbenchError(f"time series tool {tool!r} is not a scored tool "
                               f"({kind}: {', '.join(known)})")


def time_series(
    scores: Mapping[str, ToolScores],
    corpus: Sequence[ContractCase],
    bucket: str = "quarter",
    tools: Sequence[str] | None = None,
) -> tuple[list[str], list[list]]:
    """Per class and creation period: how many contracts were flagged, and
    their summed transaction value (wei).

    A contract counts for a class when any selected tool flagged it (union
    over tools; all scored tools by default). A selected tool that was not
    scored raises :class:`ScbenchError`; flagged contracts without a
    creation timestamp abort with :class:`MissingMetadata`; absent
    transaction values contribute zero.
    """
    if tools is not None:
        check_series_tools(tools, list(scores))
    selected = [scores[t] for t in tools] if tools is not None else scores.values()
    by_id = {case.id: case for case in corpus}
    flagged = {cid: set().union(*(s.flagged.get(cid, ()) for s in selected))
               for cid in CLASS_IDS}
    missing = {c for contracts in flagged.values() for c in contracts
               if by_id[c].created_at is None}
    if missing:
        raise MissingMetadata(missing)
    rows = []
    for cid, contracts in flagged.items():
        counts: dict[str, list[int]] = {}
        for contract in contracts:
            case = by_id[contract]
            period = counts.setdefault(_bucket_label(case.created_at, bucket), [0, 0])
            period[0] += 1
            period[1] += case.tx_value or 0
        rows.extend([cid, label, *counts[label]] for label in sorted(counts))
    return ["Class", "Period", "Count", "ValueWei"], rows


# ---------------------------------------------------------------------------
# bundle

def write_table(
    out_dir: Path, name: str, header: Sequence[str], rows: list[list]
) -> dict:
    csv_path = out_dir / f"{name}.csv"
    md_path = out_dir / f"{name}.md"
    csv_path.write_text(to_csv(header, rows), "utf-8")
    md_path.write_text(to_markdown(header, rows), "utf-8")
    return {"name": name, "csv": csv_path.name, "markdown": md_path.name,
            "rows": len(rows)}


def check_out_dir(out_dir: str | Path) -> None:
    """Raise :class:`ScbenchError` as :func:`write_bundle` would, unless
    the directory ``out_dir`` can be made: no component of it is a file,
    and the nearest one that exists can be written. So a command can fail
    before it reads its inputs."""
    out = nearest = Path(out_dir)
    while not nearest.exists() and nearest != nearest.parent:
        nearest = nearest.parent
    code = (errno.EEXIST if nearest == out and not nearest.is_dir()
            else errno.ENOTDIR if not nearest.is_dir()
            else errno.EACCES if not os.access(nearest, os.W_OK | os.X_OK) else None)
    if code:
        raise ScbenchError(f"cannot write bundle {out}: {os.strerror(code)}")


def write_bundle(out_dir: str | Path, tables: Mapping[str, tuple], notes: list[str]) -> Path:
    """Write every table as CSV + Markdown plus a JSON manifest. A directory
    that cannot be made or written raises :class:`ScbenchError`."""
    out = Path(out_dir)
    manifest = {"tables": [], "notes": notes}
    manifest_path = out / "manifest.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in sorted(tables):
            header, rows = tables[name]
            manifest["tables"].append(write_table(out, name, header, rows))
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                 "utf-8")
    except OSError as exc:
        raise ScbenchError(f"cannot write bundle {out}: {exc.strerror}") from None
    return manifest_path
