"""Bundled reference results for the 13 registered analyzers.

These tables capture a published benchmark of the registered tools over a
389-contract labelled corpus. They drive the validation suite and give the
CLI a ready-made indicator matrix to score. Known internal inconsistencies
in the published numbers surface through :func:`validation_notes` instead
of being silently patched.
"""

from __future__ import annotations

import csv
from importlib import resources
from pathlib import Path

from . import metrics
from .mcdm import ewm_weights
from .metrics import (INDICATOR_COLUMNS, IndicatorMatrix, MetricSet,
                      TimingSummary, functional_score)
from .taxonomy import Registry

F1_IDENTITY_TOL = 0.002
EWM_ROW_TOL = 0.02


def _read(name: str) -> list[dict]:
    text = resources.files("scbench.data.reference").joinpath(name).read_text("utf-8")
    return list(csv.DictReader(text.splitlines()))


def pairwise_path(name: str) -> Path:
    """Filesystem path of a bundled judgment matrix (``a1`` or ``a2``)."""
    res = resources.files("scbench.data.ahp").joinpath(f"{name}.txt")
    return Path(str(res))


def classification_averages() -> dict[str, MetricSet]:
    """Per-tool published averages over the supported classes."""
    return {
        row["tool"]: MetricSet(
            accuracy=float(row["accuracy"]),
            precision=float(row["precision"]),
            recall=float(row["recall"]),
            f1=float(row["f1"]),
        )
        for row in _read("classification_avg.csv")
    }


def per_class_table() -> dict[str, dict[str, MetricSet]]:
    out: dict[str, dict[str, MetricSet]] = {}
    for row in _read("classification.csv"):
        out.setdefault(row["tool"], {})[row["class"]] = MetricSet(
            accuracy=float(row["accuracy"]),
            precision=float(row["precision"]),
            recall=float(row["recall"]),
            f1=float(row["f1"]),
        )
    return out


def timing_table() -> dict[str, dict[str, float]]:
    return {
        row["tool"]: {
            "total_seconds": float(row["total_seconds"]),
            "valid_count": int(row["valid_count"]),
            "published_avg_seconds": float(row["published_avg_seconds"]),
            "published_efficiency": float(row["published_efficiency"]),
        }
        for row in _read("timing.csv")
    }


def timing_summaries() -> dict[str, TimingSummary]:
    return {
        tool: TimingSummary(row["total_seconds"], int(row["valid_count"]))
        for tool, row in timing_table().items()
    }


def published_weights() -> dict[str, tuple[float, float, float, float]]:
    return {
        row["method"]: tuple(float(row[c]) for c in INDICATOR_COLUMNS)
        for row in _read("weights.csv")
    }


def published_overall() -> dict[str, dict[str, float]]:
    return {
        row["tool"]: {m: float(row[m]) for m in ("ewm", "ahp1", "ahp2")}
        for row in _read("overall.csv")
    }


def indicator_matrix() -> IndicatorMatrix:
    """Assemble the reference tools x indicators matrix.

    Functional scores are the published average F1 values; efficiency is
    recomputed from total time over valid runs; compatibility and coverage
    come from the registry.
    """
    functional = {tool: avg.f1 for tool, avg in classification_averages().items()}
    return metrics.indicator_matrix(Registry.load(), functional, timing_summaries())


def validation_notes() -> list[str]:
    """Documented inconsistencies inside the reference tables."""
    notes: list[str] = []
    for tool, avg in sorted(classification_averages().items()):
        recomputed = functional_score([avg])
        if abs(recomputed - avg.f1) > F1_IDENTITY_TOL:
            notes.append(
                f"{tool}: published average F1 {avg.f1:.3f} disagrees with the "
                f"harmonic mean of its published average precision/recall "
                f"({recomputed:.3f}); excluded from the F1 identity check"
            )
    for tool, row in sorted(timing_table().items()):
        derived = row["total_seconds"] / row["valid_count"]
        published = row["published_avg_seconds"]
        if published > 0 and abs(derived - published) / published > 0.25:
            notes.append(
                f"{tool}: published average scan time {published:.0f}s disagrees "
                f"with total/valid = {derived:.0f}s; the derived value is used"
            )
    computed = ewm_weights(indicator_matrix().values).values
    published = published_weights()["EWM"]
    off = [
        f"{name} {p:.3f} vs {c:.3f}"
        for name, p, c in zip(INDICATOR_COLUMNS, published, computed)
        if abs(p - c) > EWM_ROW_TOL
    ]
    if off:
        notes.append(
            "EWM: published entropy weights disagree with the entropy weights "
            f"of the reference indicator matrix beyond +-{EWM_ROW_TOL} "
            f"(published vs computed: {', '.join(off)}); the computed "
            "weights are used"
        )
    return notes
