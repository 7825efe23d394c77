"""Classification metrics and the four per-tool quality indicators.

All ratios are computed in double precision; rendering rounds half-to-even
at three decimals. Scans that did not finish cleanly are excluded from
confusion matrices (mirroring the valid-run count used for timing); a
strict mode that scores them as all-negative predictions is available but
off by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import ContractCase
from .errors import (EmptyMatrix, NoSupportedClasses, NotApplicable,
                     NoValidRuns, ScbenchError)
from .records import RecordSet
from .taxonomy import Registry, Taxonomy, ToolDescriptor, compat_score, default_taxonomy

INDICATOR_COLUMNS = ("functional", "efficiency", "compatibility", "usability")

SELECTED_CLASS_COUNT = 10  # denominator of the coverage score


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ScbenchError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    f1: float
    precision_defined: bool = True
    recall_defined: bool = True


@dataclass(frozen=True)
class TimingSummary:
    total_seconds: float
    valid_count: int

    @property
    def avg_seconds(self) -> float:
        return self.total_seconds / self.valid_count


def prf(cm: ConfusionMatrix) -> MetricSet:
    """Accuracy, precision, recall, F1 with degenerate-denominator flags.

    An undefined precision or recall renders as 0 with its flag cleared so
    tables can print "-" without poisoning averages silently.
    """
    if cm.total == 0:
        raise EmptyMatrix("no evaluated cases")
    p_def = (cm.tp + cm.fp) > 0
    r_def = (cm.tp + cm.fn) > 0
    precision = cm.tp / (cm.tp + cm.fp) if p_def else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if r_def else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricSet(
        accuracy=(cm.tp + cm.tn) / cm.total,
        precision=precision,
        recall=recall,
        f1=f1,
        precision_defined=p_def,
        recall_defined=r_def,
    )


def confusion(
    records: RecordSet,
    tool: ToolDescriptor,
    class_id: str,
    corpus: Sequence[ContractCase],
    strict_negatives: bool = False,
) -> ConfusionMatrix:
    """Contract-level confusion counts for one (tool, class).

    The evaluated population is the class's vulnerable cases plus the safe
    cases; contracts vulnerable only to other classes stay out of this
    class's denominator. Tools are never scored on classes they do not
    claim: that raises :class:`NotApplicable` rather than returning a
    zero-filled matrix, which would silently deflate averages.
    """
    if not tool.can_detect(class_id):
        raise NotApplicable(f"{tool.name} does not detect {class_id}")
    tp = fp = fn = tn = 0
    for case in corpus:
        vulnerable = class_id in case.expected
        if not vulnerable and not case.safe:
            continue
        rec = records.get(tool.name, case.id)
        if rec.status != "ok":
            if not strict_negatives:
                continue
            predicted = False
        else:
            predicted = class_id in rec.findings
        if vulnerable and predicted:
            tp += 1
        elif vulnerable:
            fn += 1
        elif predicted:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


def per_class_metrics(
    records: RecordSet,
    tool: ToolDescriptor,
    corpus: Sequence[ContractCase],
    taxonomy: Taxonomy | None = None,
    strict_negatives: bool = False,
) -> dict[str, MetricSet]:
    """MetricSet per supported class (classes with no evaluated cases skip)."""
    taxonomy = taxonomy or default_taxonomy()
    out: dict[str, MetricSet] = {}
    for cls in taxonomy:
        if not tool.can_detect(cls.id):
            continue
        cm = confusion(records, tool, cls.id, corpus, strict_negatives)
        try:
            out[cls.id] = prf(cm)
        except EmptyMatrix:
            continue
    return out


def functional_score(metric_sets: Iterable[MetricSet]) -> float:
    """Harmonic mean of the average precision and average recall over the
    supported classes only, so broad but shallow coverage is not rewarded
    twice (coverage has its own indicator)."""
    sets = list(metric_sets)
    if not sets:
        raise NoSupportedClasses("no class metrics to aggregate")
    p_avg = sum(m.precision for m in sets) / len(sets)
    r_avg = sum(m.recall for m in sets) / len(sets)
    if p_avg + r_avg == 0:
        return 0.0
    return 2 * p_avg * r_avg / (p_avg + r_avg)


def timing(records: RecordSet, tool_name: str) -> TimingSummary:
    """Total and average seconds over cleanly finished scans only."""
    durations = [r.duration_ms for r in records.for_tool(tool_name)
                 if r.status == "ok"]
    if not durations:
        raise NoValidRuns(f"{tool_name} has no ok-status runs")
    return TimingSummary(total_seconds=sum(durations) / 1000.0,
                         valid_count=len(durations))


def efficiency_scores(avg_seconds: Mapping[str, float]) -> dict[str, float]:
    """Inverted min-max normalization of average scan time.

    The fastest tool scores exactly 1, the slowest exactly 0; when all
    averages coincide (including the single-tool case) everyone scores 1.
    """
    values = list(avg_seconds.values())
    lo, hi = min(values), max(values)
    if hi == lo:
        return {name: 1.0 for name in avg_seconds}
    return {name: 1.0 - (t - lo) / (hi - lo) for name, t in avg_seconds.items()}


def usability_score(tool: ToolDescriptor,
                    selected: int = SELECTED_CLASS_COUNT) -> float:
    """Fraction of the evaluated vulnerability classes the tool covers."""
    return len(tool.capabilities) / selected


@dataclass(frozen=True)
class IndicatorMatrix:
    """tools x (functional, efficiency, compatibility, usability)."""

    tools: tuple[str, ...]
    values: np.ndarray  # shape (len(tools), 4), each value in [0, 1]

    def __post_init__(self):
        if self.values.shape != (len(self.tools), len(INDICATOR_COLUMNS)):
            raise ScbenchError("indicator matrix shape mismatch")

    def row(self, tool: str) -> np.ndarray:
        return self.values[self.tools.index(tool)]


def indicator_matrix(
    records: RecordSet,
    registry: Registry,
    corpus: Sequence[ContractCase],
    taxonomy: Taxonomy | None = None,
) -> IndicatorMatrix:
    """Assemble the four indicators per tool from a finished campaign."""
    taxonomy = taxonomy or default_taxonomy()
    avg_seconds = {}
    for tool in registry:
        try:
            avg_seconds[tool.name] = timing(records, tool.name).avg_seconds
        except NoValidRuns as exc:
            raise ScbenchError(f"{tool.name}: {exc}") from exc
    s_e = efficiency_scores(avg_seconds)
    rows = []
    for tool in registry:
        try:
            s_f = functional_score(
                per_class_metrics(records, tool, corpus, taxonomy).values()
            )
        except NoSupportedClasses as exc:
            raise ScbenchError(f"{tool.name}: {exc}") from exc
        rows.append([
            s_f,
            s_e[tool.name],
            compat_score(tool.max_solidity),
            usability_score(tool),
        ])
    return IndicatorMatrix(tuple(registry.names()), np.array(rows, dtype=float))
