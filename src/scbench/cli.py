"""Command-line entry point.

Exit codes: 0 success, 1 validation/data error, 2 usage error (argparse).

Each command imports the layers it runs, and only those, so that no start
pays for a layer the command never calls: ``--help`` loads no layer, the
``corpus`` commands load no campaign or scoring module, ``score`` no
corpus, records or runner, ``metrics`` and ``report`` no runner, and
``run`` no scoring module.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import BUCKETS
from .errors import ScbenchError

logger = logging.getLogger(__name__)


def _emit(header, rows, fmt: str, out: str | None) -> None:
    from .tables import to_csv, to_markdown

    if fmt == "md":
        text = to_markdown(header, rows)
    elif fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        text = to_csv(header, rows)
    if out:
        try:
            Path(out).write_text(text, "utf-8")
        except OSError as exc:
            raise ScbenchError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_corpus(args) -> int:
    from . import corpus as corpus_mod
    from .tables import stats_table

    if args.corpus_cmd == "stats":
        cases = corpus_mod.load_directory(args.dir, args.metadata)
        header, rows = stats_table(corpus_mod.stats(cases))
        _emit(header, rows, args.format, args.out)
        return 0
    if args.corpus_cmd == "dedup":
        cases = corpus_mod.load_directory(args.dir, args.metadata)
        cases = corpus_mod.pragma_filter(cases) if args.pragma else cases
        kept, removed = corpus_mod.dedup(cases)
        header = ["Survivors", "Removed"]
        _emit(header, [[len(kept), removed]], args.format, args.out)
        if args.list_ids:
            for case in kept:
                print(case.id)
        return 0
    if args.corpus_cmd == "validate":
        problems = corpus_mod.scan_problems(args.dir)
        for p in problems:
            print(p)
        print(f"{len(problems)} problem(s) found")
        return 1 if problems else 0
    raise ScbenchError(f"unknown corpus subcommand {args.corpus_cmd!r}")


def _cmd_run(args) -> int:
    from .corpus import load_directory
    from .records import check_records_dir, write_records
    from .runner import execute_campaign
    from .taxonomy import Registry

    registry = Registry.load(args.registry)
    if args.tools:
        registry = registry.subset(_tool_names("--tools", args.tools))
    cases = load_directory(args.corpus, args.metadata)
    check_records_dir(args.out)
    problems: dict[str, list[str]] = {}
    records = execute_campaign(
        registry,
        cases,
        parallelism=args.jobs,
        timeout=args.timeout,
        replay_dir=args.replay,
        raw_dir=args.raw_dir,
        problems=problems,
    )
    n = write_records(records, args.out)
    statuses = sorted({r.status for r in records})
    print(f"wrote {n} records to {args.out} (statuses: {', '.join(statuses)})")
    for messages in problems.values():
        for message in messages:
            print(f"error: {message}", file=sys.stderr)
    return 1 if problems else 0


def _tool_names(option: str, text: str) -> list[str]:
    """The names of a comma-separated tool list, stripped, blank entries
    dropped; a list that names no tool, or one tool twice, raises."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ScbenchError(f"{option} {text!r} names no tool")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ScbenchError(f"{option} names tool {name!r} twice")
    return names


def _score_campaign(args, series: list[str] | None = None):
    """Load the campaign and score it once: the corpus, the recorded tools,
    their scores, the indicator matrix and the four tables that ``metrics``
    prints and ``report`` bundles. The options are checked first: the
    bundle directory can be made, and each ``series`` tool is registered,
    and then recorded. The records file is folded into an outcome table as
    it is read, so no record outlives its line."""
    from . import metrics, report
    from .corpus import load_directory
    from .records import load_outcomes
    from .taxonomy import Registry

    registry = Registry.load(args.registry)
    if series:
        report.check_series_tools(series, registry.names(), "registered")
    if args.out_dir:
        report.check_out_dir(args.out_dir)
    cases = load_directory(args.corpus, args.metadata)
    outcomes = load_outcomes(args.records, cases)
    recorded = set(outcomes.tools)
    unknown = recorded - set(registry.names())
    if unknown:
        raise ScbenchError(f"records reference unregistered tools: {sorted(unknown)}")
    registry = registry.subset([n for n in registry.names() if n in recorded])
    if series:
        report.check_series_tools(series, registry.names())
    scores = metrics.score_campaign(outcomes, registry)
    indicator = metrics.indicator_matrix(
        registry, {t: s.functional for t, s in scores.items()},
        {t: s.timing for t, s in scores.items()})
    return cases, registry, scores, indicator, {
        "classification": report.metrics_grid(scores),
        "timing": report.timing_table(scores, indicator),
        "capability": report.capability_table(registry, indicator),
        "indicators": report.indicators_table(indicator),
    }


def _cmd_metrics(args) -> int:
    from . import report
    from .tables import to_markdown

    *_, tables = _score_campaign(args)
    if args.out_dir:
        manifest = report.write_bundle(args.out_dir, tables, notes=[])
        print(f"wrote {manifest}")
    else:
        for name in sorted(tables):
            header, rows = tables[name]
            print(f"# {name}")
            sys.stdout.write(to_markdown(header, rows))
            print()
    return 0


def _cmd_score(args) -> int:
    from . import mcdm, reference, report

    if args.indicators:
        indicators = report.load_indicators_csv(args.indicators)
    else:
        indicators = reference.indicator_matrix()
    if args.method == "ewm":
        weights = mcdm.ewm_weights(indicators.values)
        consistency = None
    else:
        if not args.matrix:
            print("score: --method ahp requires --matrix FILE", file=sys.stderr)
            return 2
        pairwise = mcdm.load_pairwise(args.matrix)
        weights, consistency = mcdm.ahp_weights(
            pairwise, method=f"AHP:{Path(args.matrix).stem}"
        )
        if not consistency.consistent:
            print(
                f"warning: judgment matrix fails the consistency check "
                f"(CR={consistency.cr:.3f} > {mcdm.CONSISTENCY_LIMIT})",
                file=sys.stderr,
            )
    table = mcdm.overall_scores(
        indicators, weights, standardize_indicators=args.standardize
    )
    w_header, w_rows = report.weights_table([weights])
    s_header, s_rows = report.score_table_rows(table)
    if consistency is not None:
        print(f"lambda_max={consistency.lambda_max:.4f} CI={consistency.ci:.4f} "
              f"CR={consistency.cr:.4f}")
    _emit(w_header, w_rows, args.format, None)
    _emit(s_header, s_rows, args.format, args.out)
    return 0


def _cmd_report(args) -> int:
    from . import corpus as corpus_mod
    from . import mcdm, reference, report
    from .tables import stats_table

    pairwise = mcdm.load_pairwise(args.matrix) if args.matrix else None
    series = (_tool_names("--series-tools", args.series_tools)
              if args.timeseries and args.series_tools else None)
    cases, registry, scores, indicator, tables = _score_campaign(args, series)
    ewm = mcdm.ewm_weights(indicator.values)
    tables.update({
        "stats": stats_table(corpus_mod.stats(cases)),
        "weights": report.weights_table([ewm]),
        "scores_ewm": report.score_table_rows(mcdm.overall_scores(indicator, ewm)),
        "distribution": report.distribution_table(registry, scores),
    })
    if pairwise is not None:
        ahp, _ = mcdm.ahp_weights(pairwise, method=f"AHP:{Path(args.matrix).stem}")
        tables["scores_ahp"] = report.score_table_rows(
            mcdm.overall_scores(indicator, ahp)
        )
    if args.timeseries:
        tables["timeseries"] = report.time_series(scores, cases, bucket=args.bucket,
                                                  tools=series)
    manifest = report.write_bundle(args.out_dir, tables,
                                   notes=reference.validation_notes())
    print(f"wrote {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scbench",
        description="Benchmark and score smart-contract vulnerability analyzers",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_corpus = sub.add_parser("corpus", help="corpus curation and statistics")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_cmd", required=True)
    for name, desc in (("stats", "per-class counts and LoC"),
                       ("dedup", "drop normalized-checksum duplicates"),
                       ("validate", "check annotations and layout")):
        p = corpus_sub.add_parser(name, help=desc)
        p.add_argument("dir")
        p.add_argument("--metadata", default=None)
        if name != "validate":
            p.add_argument("--format", choices=("csv", "md", "json"), default="csv")
            p.add_argument("--out", default=None)
        if name == "dedup":
            p.add_argument("--pragma", action="store_true",
                           help="also drop cases without a pragma directive")
            p.add_argument("--list-ids", action="store_true")

    p_run = sub.add_parser("run", help="execute a scan campaign")
    p_run.add_argument("--corpus", required=True)
    p_run.add_argument("--registry", default=None)
    p_run.add_argument("--tools", default=None, help="comma-separated subset")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--timeout", type=float, default=None,
                       help="seconds per scan (default: adapter setting)")
    p_run.add_argument("--replay", default=None,
                       help="directory of replay fixtures, one JSON per tool")
    p_run.add_argument("--raw-dir", default=None)
    p_run.add_argument("--metadata", default=None)
    p_run.add_argument("--out", required=True, help="JSONL output path")

    p_metrics = sub.add_parser("metrics", help="confusion metrics and indicators")
    p_metrics.add_argument("--records", required=True)
    p_metrics.add_argument("--corpus", required=True)
    p_metrics.add_argument("--registry", default=None)
    p_metrics.add_argument("--metadata", default=None)
    p_metrics.add_argument("--out-dir", default=None)

    p_score = sub.add_parser("score", help="weight criteria and rank tools")
    p_score.add_argument("--method", choices=("ewm", "ahp"), required=True)
    p_score.add_argument("--matrix", default=None,
                         help="pairwise judgment matrix file (AHP)")
    p_score.add_argument("--indicators", default=None,
                         help="tools x indicators CSV (default: bundled reference)")
    p_score.add_argument("--standardize", action="store_true",
                         help="range-normalize indicator columns before scoring")
    p_score.add_argument("--format", choices=("csv", "md", "json"), default="md")
    p_score.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="full report bundle")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--corpus", required=True)
    p_report.add_argument("--registry", default=None)
    p_report.add_argument("--metadata", default=None)
    p_report.add_argument("--matrix", default=None)
    p_report.add_argument("--timeseries", action="store_true")
    p_report.add_argument("--bucket", choices=BUCKETS, default="quarter")
    p_report.add_argument("--series-tools", default=None)
    p_report.add_argument("--out-dir", required=True)
    return parser


_DISPATCH = {
    "corpus": _cmd_corpus,
    "run": _cmd_run,
    "metrics": _cmd_metrics,
    "score": _cmd_score,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _DISPATCH[args.cmd](args)
    except ScbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
