"""Report assembly: table rendering, finding distributions, time series.

Every emitter is a pure function of its inputs with sorted, byte-stable
output, so re-running a report over the same records reproduces it
exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import BUCKETS, ContractCase, CorpusStats
from .errors import MissingMetadata, NotApplicable, ScbenchError
from .mcdm import ScoreTable, WeightVector
from .metrics import (INDICATOR_COLUMNS, IndicatorMatrix, confusion,
                      efficiency_scores, prf, timing, usability_score)
from .records import RecordSet
from .taxonomy import CLASS_IDS, Registry, Taxonomy, compat_score, default_taxonomy

WEI_PER_ETHER = 10**18


def _round3(value: float) -> float:
    return round(float(value), 3)


# ---------------------------------------------------------------------------
# generic table plumbing

def to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_markdown(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = ["| " + " | ".join(str(h) for h in header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table shapes

def stats_table(stats: CorpusStats) -> tuple[list[str], list[list]]:
    header = ["Type", "Number", "LoC"]
    rows: list[list] = [
        [s.name, s.count, s.loc] for s in stats.per_class
    ]
    rows.append(["Safe contracts", stats.safe_count, stats.safe_loc])
    rows.append(["Total", stats.total_cases, stats.total_loc])
    return header, rows


def metrics_grid(
    records: RecordSet,
    registry: Registry,
    corpus: Sequence[ContractCase],
    taxonomy: Taxonomy | None = None,
) -> tuple[list[str], list[list]]:
    """Tool x class grid of the four classification metrics; unsupported
    (tool, class) cells render as "-"."""
    taxonomy = taxonomy or default_taxonomy()
    header = ["Tool", "Metric", *(c.name for c in taxonomy), "Average"]
    rows: list[list] = []
    for tool in registry:
        cells: dict[str, dict[str, float]] = {}
        for cls in taxonomy:
            try:
                cm = confusion(records, tool, cls.id, corpus)
            except NotApplicable:
                continue
            ms = prf(cm)
            cells[cls.id] = {
                "Accuracy": ms.accuracy,
                "Precision": ms.precision if ms.precision_defined else None,
                "Recall": ms.recall if ms.recall_defined else None,
                "F1-score": ms.f1,
            }
        for metric in ("Accuracy", "Precision", "Recall", "F1-score"):
            row: list = [tool.name, metric]
            values = []
            for cls in taxonomy:
                cell = cells.get(cls.id)
                if cell is None:
                    row.append("-")
                    continue
                v = cell[metric]
                if v is None:
                    row.append("-")
                else:
                    row.append(_round3(v))
                    values.append(v)
            row.append(_round3(sum(values) / len(values)) if values else "-")
            rows.append(row)
    return header, rows


def timing_table(
    records: RecordSet, registry: Registry
) -> tuple[list[str], list[list]]:
    header = ["Tool", "TotalSeconds", "ValidRuns", "AvgSeconds", "Efficiency"]
    summaries = {}
    for tool in registry:
        summaries[tool.name] = timing(records, tool.name)
    s_e = efficiency_scores({t: s.avg_seconds for t, s in summaries.items()})
    rows = [
        [t, _round3(s.total_seconds), s.valid_count,
         _round3(s.avg_seconds), _round3(s_e[t])]
        for t, s in summaries.items()
    ]
    return header, rows


def capability_table(registry: Registry) -> tuple[list[str], list[list]]:
    header = ["Tool", "MaxSolidity", "Compatibility", "Coverage", "Usability"]
    rows = [
        [t.name, str(t.max_solidity), _round3(compat_score(t.max_solidity)),
         len(t.capabilities), _round3(usability_score(t))]
        for t in registry
    ]
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
    return IndicatorMatrix(tuple(tools), np.array(rows, dtype=float))


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
            if rec.status != "ok":
                continue
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

    def value_ether(self, class_id: str, period: str) -> float:
        return self.values_wei[class_id][period] / WEI_PER_ETHER


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
    for rec in records.records:
        if rec.status != "ok":
            continue
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
