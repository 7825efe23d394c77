"""Report assembly: table rendering, finding distributions, time series.

Every emitter is a pure function of its inputs with sorted, byte-stable
output, so re-running a report over the same records reproduces it
exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
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
    from .records import RecordSet


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
    or the bundled reference export (lower-case column names accepted)."""
    tools = []
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            lowered = {k.lower(): v for k, v in row.items()}
            tools.append(lowered["tool"])
            rows.append([float(lowered[c]) for c in INDICATOR_COLUMNS])
    if not tools:
        raise ScbenchError(f"no indicator rows in {path}")
    return IndicatorMatrix(tuple(tools), rows)


# ---------------------------------------------------------------------------
# distribution and time-series aggregations

def class_distribution(
    records: RecordSet, registry: Registry
) -> list[dict]:
    """Per (tool, class): how many contracts the tool flagged. Classes the
    tool cannot detect stay at 0 and carry an ``incapable`` flag."""
    rows = []
    for tool in registry:
        counts = {cid: 0 for cid in CLASS_IDS}
        for rec in records.for_tool(tool.name):
            for cid in rec.findings:
                if cid in counts:
                    counts[cid] += 1
        for cid in CLASS_IDS:
            rows.append({
                "tool": tool.name,
                "class": cid,
                "count": counts[cid] if tool.can_detect(cid) else 0,
                "incapable": not tool.can_detect(cid),
            })
    return rows


def _bucket_label(ts: datetime, bucket: str) -> str:
    if bucket == "month":
        return f"{ts.year}-{ts.month:02d}"
    if bucket == "quarter":
        return f"{ts.year}Q{(ts.month - 1) // 3 + 1}"
    if bucket == "year":
        return str(ts.year)
    raise ScbenchError(f"unknown bucket {bucket!r}; pick one of {BUCKETS}")


@dataclass(frozen=True)
class TimeSeries:
    """Per class: flagged-contract counts and summed transaction value
    (wei) per period."""

    counts: Mapping[str, Mapping[str, int]]
    values_wei: Mapping[str, Mapping[str, int]]


def time_series(
    records: RecordSet,
    corpus: Sequence[ContractCase],
    bucket: str = "quarter",
    tools: Sequence[str] | None = None,
) -> TimeSeries:
    """Bucket flagged contracts by creation time, per class.

    A contract counts for a class when any selected tool flagged it (union
    over tools). Flagged contracts without a creation timestamp abort with
    :class:`MissingMetadata`; absent transaction values contribute zero.
    """
    selected = set(tools) if tools is not None else None
    by_id = {c.id: c for c in corpus}
    flagged: dict[str, set[str]] = {cid: set() for cid in CLASS_IDS}
    for rec in records:
        if selected is not None and rec.tool not in selected:
            continue
        for cid in rec.findings:
            if cid in flagged and rec.contract in by_id:
                flagged[cid].add(rec.contract)

    missing = {
        contract
        for contracts in flagged.values()
        for contract in contracts
        if by_id[contract].created_at is None
    }
    if missing:
        raise MissingMetadata(missing)

    counts: dict[str, dict[str, int]] = {cid: {} for cid in CLASS_IDS}
    values: dict[str, dict[str, int]] = {cid: {} for cid in CLASS_IDS}
    for cid, contracts in flagged.items():
        for contract in sorted(contracts):
            case = by_id[contract]
            label = _bucket_label(case.created_at, bucket)
            counts[cid][label] = counts[cid].get(label, 0) + 1
            values[cid][label] = values[cid].get(label, 0) + (case.tx_value or 0)
    return TimeSeries(counts=counts, values_wei=values)


def time_series_rows(series: TimeSeries) -> tuple[list[str], list[list]]:
    header = ["Class", "Period", "Count", "ValueWei"]
    rows = []
    for cid in CLASS_IDS:
        for period in sorted(series.counts[cid]):
            rows.append([cid, period, series.counts[cid][period],
                         series.values_wei[cid][period]])
    return header, rows


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


def write_bundle(out_dir: str | Path, tables: Mapping[str, tuple], notes: list[str]) -> Path:
    """Write every table as CSV + Markdown plus a JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"tables": [], "notes": notes}
    for name in sorted(tables):
        header, rows = tables[name]
        manifest["tables"].append(write_table(out, name, header, rows))
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
    return manifest_path
