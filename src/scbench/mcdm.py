"""Multi-criteria scoring: the tools x indicators matrix it weighs,
entropy weights, AHP weights, weighted sum.

All criteria here are benefit-type (higher is better). Matrices are tiny
(a dozen tools by four criteria), so the routines favour clarity and
determinism over vectorized cleverness.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from operator import mul
from pathlib import Path
from typing import NamedTuple, Sequence

from . import Frozen, Logger
from .errors import (DimensionMismatch, NonConvergence, NotReciprocal,
                     ScbenchError)

logger = Logger(__name__)

# the criteria, in the column order of every indicator matrix and weight
INDICATOR_COLUMNS = ("functional", "efficiency", "compatibility", "usability")

RECIPROCITY_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
POWER_RESIDUAL = 1e-12
POWER_MAX_ITER = 100_000

# Saaty random-index constants; n=1,2 are consistent by construction.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
                6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

CONSISTENCY_LIMIT = 0.1

Matrix = Sequence[Sequence[float]]  # rows; an ndarray qualifies too


class IndicatorMatrix(namedtuple("IndicatorMatrix", "tools values")):
    """tools x (functional, efficiency, compatibility, usability): a row of
    ``values`` per tool, each value in [0, 1]. Any nested numeric sequence
    (an ndarray too) becomes rows of floats, checked for shape and range,
    when it is built, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, tools: tuple[str, ...], values) -> "IndicatorMatrix":
        values = tuple(tuple(float(v) for v in row) for row in values)
        if [len(row) for row in values] != [len(INDICATOR_COLUMNS)] * len(tools):
            raise ScbenchError("indicator matrix shape mismatch")
        for tool, row in zip(tools, values):
            for column, value in zip(INDICATOR_COLUMNS, row):
                if not 0 <= value <= 1:
                    raise ScbenchError(f"{column} {value} of {tool} is outside [0, 1]")
        return tuple.__new__(cls, (tools, values))

    @classmethod
    def _make(cls, iterable) -> "IndicatorMatrix":
        return cls(*iterable)

    def row(self, tool: str) -> tuple[float, ...]:
        return self.values[self.tools.index(tool)]


class WeightVector(Frozen):
    """Non-negative criterion weights summing to one."""

    __slots__ = ("values", "method")

    def __init__(self, values: tuple[float, ...], method: str = ""):
        if any(v < -WEIGHT_SUM_TOL for v in values):
            raise ScbenchError(f"negative weight in {values}")
        if abs(sum(values) - 1.0) > WEIGHT_SUM_TOL:
            raise ScbenchError(f"weights sum to {sum(values)}, not 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "method", method)

    def __len__(self) -> int:
        return len(self.values)


class ConsistencyReport(NamedTuple):
    lambda_max: float
    ci: float
    ri: float
    cr: float

    @property
    def consistent(self) -> bool:
        return self.cr <= CONSISTENCY_LIMIT


class ScoreRow(NamedTuple):
    tool: str
    score: float  # 0-100 scale
    rank: int


class ScoreTable(NamedTuple):
    method: str
    rows: tuple[ScoreRow, ...]


def standardize(matrix: Matrix) -> tuple[list[list[float]], list[int]]:
    """Range-normalize each column to [0, 1].

    Constant columns carry no ranking information; they map to all-zeros
    and their indices are returned as the degeneracy flags.
    """
    m = [[float(v) for v in row] for row in matrix]
    if len({len(row) for row in m}) > 1:
        raise ScbenchError("decision matrix rows differ in length")
    if not all(math.isfinite(v) for row in m for v in row):
        raise ScbenchError("decision matrix contains non-finite values")
    columns = list(zip(*m))
    lo = [min(col) for col in columns]
    hi = [max(col) for col in columns]
    degenerate = [j for j in range(len(columns)) if hi[j] == lo[j]]
    out = [[(v - a) / (b - a) if b > a else 0.0 for v, a, b in zip(row, lo, hi)]
           for row in m]
    return out, degenerate


def ewm_weights(matrix: Matrix) -> WeightVector:
    """Entropy weights: the more dispersed a criterion's standardized
    values, the lower its entropy and the higher its weight.

    Proportions are taken over the standardized columns; 0*ln(0) counts as
    zero. A fully degenerate matrix (every column constant) falls back to
    uniform weights with a warning.
    """
    if len(matrix) < 2:
        raise ScbenchError("entropy weighting needs at least two alternatives")
    x, _ = standardize(matrix)
    k = 1.0 / math.log(len(x))
    divergence = []
    for col in zip(*x):
        col_sum = math.fsum(col)  # 0 when degenerate: no information, entropy 1
        p = [v / col_sum for v in col] if col_sum else []
        entropy = -k * math.fsum(q * math.log(q) for q in p if q > 0) if p else 1.0
        divergence.append(1.0 - entropy)
    total = math.fsum(divergence)
    if total <= 0.0:
        logger.warning("all criteria degenerate; falling back to uniform weights")
        return WeightVector((1.0 / len(divergence),) * len(divergence), "EWM")
    return WeightVector(tuple(d / total for d in divergence), "EWM")


def load_pairwise(path: str | Path) -> list[list[float]]:
    """The judgment matrix in the plain-text file at ``path``: the order n
    on the first line, then n rows of space-separated rationals like
    ``1/4``; blank lines and lines that start with ``#`` are skipped. A
    fault in the text raises :class:`ScbenchError` as ``PATH:LINE: DETAIL``,
    LINE counting every line of the file."""
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScbenchError(f"cannot read judgment matrix {path}: {reason}") from None
    lines = [(number, ln) for number, ln in enumerate(map(str.strip, text.splitlines()), 1)
             if ln and not ln.startswith("#")]
    number, rows = 1, []
    try:
        if not lines:
            raise ScbenchError("empty pairwise matrix file")
        number, order = lines[0]
        try:
            n = int(order)
        except ValueError:
            raise ScbenchError(f"first line must be the order, got {order!r}") from None
        if len(lines) != n + 1:
            raise ScbenchError(f"expected {n} matrix rows, found {len(lines) - 1}")
        from fractions import Fraction  # it loads decimal; only a judgment matrix needs it

        for number, ln in lines[1:]:
            entries = ln.split()
            if len(entries) != n:
                raise ScbenchError(f"row {ln!r} does not have {n} entries")
            try:
                rows.append([float(Fraction(tok)) for tok in entries])
            except (ValueError, ZeroDivisionError, OverflowError):  # "x", "1/0", "1e999"
                raise ScbenchError(f"row {ln!r} has an entry that is not a rational "
                                   f"number") from None
    except ScbenchError as exc:
        raise ScbenchError(f"{path}:{number}: {exc}") from None
    return rows


def load_indicators_csv(path: str | Path) -> IndicatorMatrix:
    """Read a tools x indicators CSV as written by ``report``'s
    ``indicators`` table or the bundled reference export (lower-case
    column names accepted). A file that cannot be read, a missing column, a
    cell that is not a number in [0, 1] or a tool named on two rows raises
    :class:`ScbenchError` naming the file (and the line)."""
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


def _check_reciprocal(a: Matrix) -> None:
    n = len(a)
    if not n or any(len(row) != n for row in a):
        raise NotReciprocal("judgment matrix must be square")
    if any(v <= 0 for row in a for v in row):
        raise NotReciprocal("judgment matrix entries must be positive")
    for i in range(n):
        if abs(a[i][i] - 1.0) > RECIPROCITY_TOL:
            raise NotReciprocal(f"diagonal entry a[{i}][{i}] != 1")
        for j in range(i + 1, n):
            if abs(a[j][i] - 1.0 / a[i][j]) > RECIPROCITY_TOL:
                raise NotReciprocal(f"a[{j}][{i}] != 1/a[{i}][{j}]")


def ahp_weights(
    matrix: Matrix, method: str = "AHP"
) -> tuple[WeightVector, ConsistencyReport]:
    """Principal-eigenvector weights plus the consistency check.

    Power iteration runs until the eigen residual drops below 1e-12; the
    dominant eigenvalue comes from the Rayleigh quotient. CI is
    (lambda_max - n)/(n - 1); CR is CI over the Saaty random index and is
    defined as 0 for n <= 2.
    """
    a = [[float(v) for v in row] for row in matrix]
    _check_reciprocal(a)
    n = len(a)

    w = [1.0 / n] * n
    lam = float(n)
    for _ in range(POWER_MAX_ITER):
        aw = [math.fsum(map(mul, row, w)) for row in a]
        lam = math.fsum(map(mul, w, aw)) / math.fsum(map(mul, w, w))
        residual = max(abs(x - lam * v) for x, v in zip(aw, w))
        total = math.fsum(aw)
        w = [x / total for x in aw]
        if residual < POWER_RESIDUAL:
            break
    else:
        raise NonConvergence(
            f"power iteration stalled at residual {residual:.3e}"
        )

    if n <= 2:
        report = ConsistencyReport(lambda_max=lam, ci=0.0, ri=0.0, cr=0.0)
    else:
        try:
            ri = RANDOM_INDEX[n]
        except KeyError:
            raise ScbenchError(f"no random-index constant for n={n}") from None
        ci = (lam - n) / (n - 1)
        report = ConsistencyReport(lambda_max=lam, ci=ci, ri=ri, cr=ci / ri)
    return WeightVector(tuple(w), method), report


def overall_scores(
    indicators: IndicatorMatrix,
    weights: WeightVector,
    standardize_indicators: bool = False,
) -> ScoreTable:
    """Weighted sum of the indicator columns, on a 0-100 scale.

    Scores round half-to-even at three decimals before the x100; ranks are
    descending with ties broken by tool name. ``standardize_indicators``
    range-normalizes each column first, which rewards relative rather than
    absolute indicator positions.
    """
    if len(weights) != len(INDICATOR_COLUMNS):
        raise DimensionMismatch(
            f"{len(weights)} weights vs {len(INDICATOR_COLUMNS)} criteria"
        )
    values = indicators.values
    if standardize_indicators:
        values, _ = standardize(values)
    raw = [math.fsum(map(mul, row, weights.values)) for row in values]
    scored = sorted(
        ((tool, round(round(s, 3) * 100, 1))
         for tool, s in zip(indicators.tools, raw)),
        key=lambda item: (-item[1], item[0]),
    )
    rows = tuple(
        ScoreRow(tool=t, score=s, rank=i + 1) for i, (t, s) in enumerate(scored)
    )
    return ScoreTable(method=weights.method or "weighted-sum", rows=rows)
