"""Classification metrics and the four per-tool quality indicators.

All ratios are computed in double precision; rendering rounds half-to-even
at three decimals. Scans that did not finish cleanly are excluded from
confusion matrices (mirroring the valid-run count used for timing).
:func:`score_campaign` scores a campaign once; every scoring table is
rendered from its result.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .errors import (EmptyMatrix, NoSupportedClasses, NotApplicable,
                     NoValidRuns, ScbenchError)
from .taxonomy import CLASS_IDS, Registry, ToolDescriptor, compat_score, default_taxonomy

if TYPE_CHECKING:
    from .corpus import ContractCase
    from .records import RecordSet

INDICATOR_COLUMNS = ("functional", "efficiency", "compatibility", "usability")


class ConfusionMatrix(namedtuple("ConfusionMatrix", "tp fp fn tn")):
    """Contract-level counts, checked non-negative when it is built, by
    ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, tp: int, fp: int, fn: int, tn: int) -> "ConfusionMatrix":
        if min(tp, fp, fn, tn) < 0:
            raise ScbenchError("confusion matrix counts must be non-negative")
        return tuple.__new__(cls, (tp, fp, fn, tn))

    @classmethod
    def _make(cls, iterable) -> "ConfusionMatrix":
        return cls(*iterable)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class MetricSet(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float
    precision_defined: bool = True
    recall_defined: bool = True


class TimingSummary(NamedTuple):
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
            continue
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


def per_class_metrics(records: RecordSet, tool: ToolDescriptor,
                      corpus: Sequence[ContractCase]) -> dict[str, MetricSet]:
    """MetricSet per supported class; a class with no evaluated case (every
    scan of its population failed) raises :class:`EmptyMatrix`."""
    out: dict[str, MetricSet] = {}
    for cls in default_taxonomy():
        if not tool.can_detect(cls.id):
            continue
        try:
            out[cls.id] = prf(confusion(records, tool, cls.id, corpus))
        except EmptyMatrix:
            raise EmptyMatrix(
                f"{tool.name}: no evaluated case for {cls.id} ({cls.name}): "
                "none of its vulnerable or safe contracts has an ok scan") from None
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


def usability_score(tool: ToolDescriptor) -> float:
    """Fraction of the ten vulnerability classes the tool covers."""
    return len(tool.capabilities) / len(CLASS_IDS)


class IndicatorMatrix(namedtuple("IndicatorMatrix", "tools values")):
    """tools x (functional, efficiency, compatibility, usability): a row of
    ``values`` per tool, each value in [0, 1]. Any nested numeric sequence
    (an ndarray too) becomes rows of floats, checked for shape, when it is
    built, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, tools: tuple[str, ...], values) -> "IndicatorMatrix":
        values = tuple(tuple(float(v) for v in row) for row in values)
        if [len(row) for row in values] != [len(INDICATOR_COLUMNS)] * len(tools):
            raise ScbenchError("indicator matrix shape mismatch")
        return tuple.__new__(cls, (tools, values))

    @classmethod
    def _make(cls, iterable) -> "IndicatorMatrix":
        return cls(*iterable)

    def row(self, tool: str) -> tuple[float, ...]:
        return self.values[self.tools.index(tool)]


class ToolScores(NamedTuple):
    """One tool's scores from a campaign: a MetricSet per supported class
    and its timing over cleanly finished scans."""

    classes: Mapping[str, MetricSet]
    timing: TimingSummary

    @property
    def functional(self) -> float:
        return functional_score(self.classes.values())


def score_campaign(records: RecordSet, registry: Registry,
                   corpus: Sequence[ContractCase]) -> dict[str, ToolScores]:
    """Score every registered tool once, in registry order: one confusion
    matrix per supported (tool, class) cell and one timing summary per tool.
    A tool with no ok run or an empty cell raises, naming the tool; so does
    a record for a contract outside the corpus, whose scan would otherwise
    count in the timings but in no confusion matrix, and a recorded tool
    with no record for a corpus contract. A corpus without a single label
    raises too: every contract in it would count as safe."""
    if not any(case.expected for case in corpus):
        raise ScbenchError("no contract in the corpus carries a vulnerability "
                           "label, so precision and recall cannot be scored")
    known = {case.id for case in corpus}
    for rec in records:
        if rec.contract not in known:
            raise ScbenchError(f"records name contract {rec.contract!r} (tool "
                               f"{rec.tool}), which is not in the corpus")
    for tool in registry:
        for case in corpus:
            records.get(tool.name, case.id)  # raises at the first one missing
    return {
        tool.name: ToolScores(timing=timing(records, tool.name),
                              classes=per_class_metrics(records, tool, corpus))
        for tool in registry
    }


def indicator_matrix(
    registry: Registry,
    functional: Mapping[str, float],
    timings: Mapping[str, TimingSummary],
) -> IndicatorMatrix:
    """Assemble the four indicators per tool, in registry order, from each
    tool's functional score and timing summary. This is the one place that
    computes efficiency, compatibility and usability; the report tables
    read them from its rows."""
    s_e = efficiency_scores({t: timings[t].avg_seconds for t in registry.names()})
    rows = [
        [functional[tool.name], s_e[tool.name],
         compat_score(tool.max_solidity), usability_score(tool)]
        for tool in registry
    ]
    return IndicatorMatrix(tuple(registry.names()), rows)
