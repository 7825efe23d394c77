"""Classification metrics and the four per-tool quality indicators.

All ratios are computed in double precision; rendering rounds half-to-even
at three decimals. Scans that did not finish cleanly are excluded from
confusion matrices (mirroring the valid-run count used for timing).
:func:`score_campaign` scores a campaign once, from its outcome table;
every scoring table is rendered from its result.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .errors import (EmptyMatrix, MissingRecord, NoSupportedClasses, NoValidRuns,
                     ScbenchError)
from .mcdm import IndicatorMatrix
from .taxonomy import CLASS_IDS, Registry, ToolDescriptor, compat_score, default_taxonomy

if TYPE_CHECKING:
    from .records import Outcomes


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


class ToolScores(NamedTuple):
    """One tool's scores from a campaign: a MetricSet per supported class,
    its timing over cleanly finished scans, and per supported class the
    ids of the contracts whose ok scan flagged that class, in corpus
    order."""

    classes: Mapping[str, MetricSet]
    timing: TimingSummary
    flagged: Mapping[str, Sequence[str]]

    @property
    def functional(self) -> float:
        return functional_score(self.classes.values())


def _walk(tool: ToolDescriptor, outcomes: Outcomes, labels: Sequence[frozenset[str] | None]):
    """One pass over the corpus for one tool: per supported class, in
    taxonomy order, the (tp, fp, fn, tn) counts and the ids of the
    contracts flagged, then the summed milliseconds and the count of ok
    scans. ``labels`` holds each contract's expected classes, None for a
    safe one. A class's population is its vulnerable cases plus the safe
    ones, so a contract vulnerable only to other classes stays out of its
    cell; a scan that did not end ok is in no cell. The first corpus
    contract without a record, or with a finding of a class the tool does
    not detect, raises."""
    corpus = outcomes.corpus
    scans, total_ms, missing = outcomes.ok_scans(tool.name)
    cells = {cid: [0, 0, 0, 0] for cid in CLASS_IDS if tool.can_detect(cid)}
    flagged = {cid: [] for cid in cells}
    for at, classes in scans:
        if classes:
            if at > missing:
                break
            for cid in classes:
                try:
                    flagged[cid].append(corpus[at].id)
                except KeyError:
                    raise ScbenchError(f"record for ({tool.name}, {corpus[at].id}) flags "
                                       f"{cid!r}, which {tool.name} does not detect") from None
    if missing < len(corpus):
        raise MissingRecord(f"no record for ({tool.name}, {corpus[missing].id})")
    for (label, classes), count in Counter((labels[at], classes) for at, classes in scans).items():
        if label is None:
            for cid, cell in cells.items():
                cell[1 if cid in classes else 3] += count
        else:
            for cid in label:
                if cid in cells:
                    cells[cid][0 if cid in classes else 2] += count
    return cells, flagged, total_ms, len(scans)


def score_campaign(outcomes: Outcomes, registry: Registry) -> dict[str, ToolScores]:
    """Score every registered tool once, in registry order, from one walk
    of the outcome table per tool (:func:`_walk`). A recorded tool with no
    record for a corpus contract raises, and so does one with a finding of
    a class it does not detect, and then, tool by tool, a tool with no ok
    run or an empty cell. A corpus without a single label raises first:
    every contract in it would count as safe."""
    corpus = outcomes.corpus
    if not any(case.expected for case in corpus):
        raise ScbenchError("no contract in the corpus carries a vulnerability "
                           "label, so precision and recall cannot be scored")
    labels = [None if case.safe else frozenset(case.expected) for case in corpus]
    walks = [_walk(tool, outcomes, labels) for tool in registry]
    names = {cls.id: cls.name for cls in default_taxonomy()}
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
