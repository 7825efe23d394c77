"""Benchmark orchestration and multi-criteria scoring for Solidity
vulnerability analyzers.

Subsystems: ``taxonomy`` (classes, tools, version scale), ``corpus``
(loading, annotation parsing, curation), ``runner`` (scan campaigns),
``metrics`` (confusion metrics and quality indicators), ``mcdm`` (entropy
and AHP weighting plus the weighted overall score), ``report`` (tables and
time series), ``cli`` (the ``scbench`` command).
"""

__version__ = "0.1.0"

# time-series period widths over the metadata timestamps: the choices of
# ``report --bucket`` and of ``report.time_series``
BUCKETS = ("month", "quarter", "year")
