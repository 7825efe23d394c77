"""Table text: CSV and Markdown from a header and rows, and the corpus
statistics table. Kept apart from ``report``, so the corpus commands
render without importing the scoring modules (``report`` pulls in
``mcdm`` and ``metrics``)."""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .corpus import CorpusStats


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
