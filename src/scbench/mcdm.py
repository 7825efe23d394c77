"""Multi-criteria scoring: entropy weights, AHP weights, weighted sum.

All criteria here are benefit-type (higher is better). Matrices are tiny
(a dozen tools by four criteria), so the routines favour clarity and
determinism over vectorized cleverness.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import Sequence

from .errors import (DimensionMismatch, NonConvergence, NotReciprocal,
                     ScbenchError)
from .metrics import INDICATOR_COLUMNS, IndicatorMatrix

logger = logging.getLogger(__name__)

RECIPROCITY_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
POWER_RESIDUAL = 1e-12
POWER_MAX_ITER = 100_000

# Saaty random-index constants; n=1,2 are consistent by construction.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12,
                6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

CONSISTENCY_LIMIT = 0.1

Matrix = Sequence[Sequence[float]]  # rows; an ndarray qualifies too


@dataclass(frozen=True)
class WeightVector:
    """Non-negative criterion weights summing to one."""

    values: tuple[float, ...]
    method: str = ""

    def __post_init__(self):
        if any(v < -WEIGHT_SUM_TOL for v in self.values):
            raise ScbenchError(f"negative weight in {self.values}")
        if abs(sum(self.values) - 1.0) > WEIGHT_SUM_TOL:
            raise ScbenchError(f"weights sum to {sum(self.values)}, not 1")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ConsistencyReport:
    lambda_max: float
    ci: float
    ri: float
    cr: float

    @property
    def consistent(self) -> bool:
        return self.cr <= CONSISTENCY_LIMIT


@dataclass(frozen=True)
class ScoreRow:
    tool: str
    score: float  # 0-100 scale
    rank: int


@dataclass(frozen=True)
class ScoreTable:
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


def parse_pairwise(text: str) -> list[list[float]]:
    """Parse the plain-text judgment matrix format: the order n on the
    first line, then n rows of space-separated rationals like ``1/4``."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ScbenchError("empty pairwise matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ScbenchError(f"first line must be the order, got {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise ScbenchError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != n:
            raise ScbenchError(f"row {ln!r} does not have {n} entries")
        rows.append([float(Fraction(tok)) for tok in entries])
    return rows


def load_pairwise(path: str | Path) -> list[list[float]]:
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScbenchError(f"cannot read judgment matrix {path}: {reason}") from None
    return parse_pairwise(text)


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
