"""Table text: CSV and Markdown from a header and rows, the corpus
statistics table, and the weight and score tables of ``score``. Kept
apart from ``report``, so the corpus commands render without importing
a scoring module, and ``score`` without ``report``, ``metrics`` and
``taxonomy``."""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .corpus import CorpusStats
    from .mcdm import ScoreTable, WeightVector


def round3(value: float) -> float:
    """A table cell's value: rounded half-to-even at three decimals."""
    return round(float(value), 3)


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


def stats_table(stats: CorpusStats) -> tuple[list[str], list[list]]:
    header = ["Type", "Number", "LoC"]
    rows: list[list] = [
        [s.name, s.count, s.loc] for s in stats.per_class
    ]
    rows.append(["Safe contracts", stats.safe_count, stats.safe_loc])
    rows.append(["Total", stats.total_cases, stats.total_loc])
    return header, rows


def weights_table(weights: Iterable[WeightVector]) -> tuple[list[str], list[list]]:
    from .mcdm import INDICATOR_COLUMNS  # loaded by whoever has the weights

    header = ["Method", *[c.capitalize() for c in INDICATOR_COLUMNS]]
    rows = [[w.method, *(round3(v) for v in w.values)] for w in weights]
    return header, rows


def score_table_rows(table: ScoreTable) -> tuple[list[str], list[list]]:
    header = ["Rank", "Tool", "Score", "Method"]
    rows = [[r.rank, r.tool, r.score, table.method] for r in table.rows]
    return header, rows
