"""In-process traced run: per-layer numbers for one workload.

The workload's command list runs in this process, each command as
``scbench.cli.main(argv)`` with its standard output captured, and each
output goes through the same checks as in a cold run.  After a warm-up
pass the list runs twice: once untraced and once with the public
functions of ``corpus``, ``runner``, ``metrics``, ``mcdm`` and ``report``
replaced, on every ``scbench`` module that holds them, by wrappers that
record a span (name, start, end, parent) around each call.  A span also
covers each ``cli.main`` call.  Nested calls are timed where the program
makes them, e.g. ``per_class_metrics`` inside ``indicator_matrix``.  The
wrappers are removed after the pass.  Spans stay in memory and are
written to a file at the end.  ``bench.trace_overhead_s`` is the wall
time of the traced pass minus that of the untraced one; at this
granularity (a few thousand spans) it is mostly run-to-run noise.

A per-layer time is the summed duration of that function's spans; a
layer's self time is the summed duration of its spans minus the parts
covered by their child spans, so ``cli.self_s`` is the command glue
(argument parsing, output formatting) between layer calls.  The three
``cli.*`` start-up numbers come from fresh interpreters instead: an empty
one, and ``-X importtime`` of ``scbench.cli``.  The lexer throughput comes
from calling ``normalize_source`` and ``strip_comments`` directly on the
curation corpus plus one large synthetic contract.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import workload as wl

PER_LAYER = {
    "corpus.load_labelled_s": "s",
    "corpus.load_metadata_s": "s",
    "corpus.stats_s": "s",
    "corpus.pragma_filter_s": "s",
    "corpus.dedup_s": "s",
    "corpus.normalize_source_mb_per_s": "MB/s",
    "corpus.strip_comments_mb_per_s": "MB/s",
    "corpus.scan_problems_s": "s",
    "corpus.cases": "count",
    "corpus.source_mb": "MB",
    "corpus.pragma_dropped": "count",
    "corpus.dedup_removed": "count",
    "corpus.problems": "count",
    "runner.replay_j1_s": "s",
    "runner.replay_j2_s": "s",
    "runner.replay_j2_over_j1": "ratio",
    "runner.write_records_s": "s",
    "runner.read_records_s": "s",
    "runner.recordset_s": "s",
    "runner.records_mb": "MB",
    "runner.spawn_j1_s": "s",
    "runner.spawn_j2_s": "s",
    "runner.spawn_j2_over_j1": "ratio",
    "runner.spawn_overhead_ms_per_task": "ms",
    "runner.status_ok": "count",
    "runner.status_timeout": "count",
    "runner.status_tool_error": "count",
    "runner.status_harness_error": "count",
    "metrics.indicator_matrix_s": "s",
    "metrics.per_class_metrics_s": "s",
    "metrics.timing_s": "s",
    "metrics.confusion_cells": "count",
    "report.metrics_grid_s": "s",
    "report.timing_table_s": "s",
    "report.class_distribution_s": "s",
    "report.time_series_s": "s",
    "report.write_bundle_s": "s",
    "report.bundle_bytes": "bytes",
    "mcdm.ewm_weights_s": "s",
    "mcdm.ahp_weights_s": "s",
    "mcdm.overall_scores_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "corpus.self_s": "s",
    "runner.self_s": "s",
    "metrics.self_s": "s",
    "report.self_s": "s",
    "mcdm.self_s": "s",
    "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
}
LAYERS = ("corpus", "runner", "metrics", "report", "mcdm", "cli")
# module -> public functions that get a span
TRACED = {
    "corpus": ("load_labelled", "load_metadata", "stats", "pragma_filter", "dedup",
               "scan_problems"),
    "runner": ("execute_campaign", "write_records", "read_records"),
    "metrics": ("indicator_matrix", "per_class_metrics", "timing", "confusion"),
    "report": ("metrics_grid", "timing_table", "class_distribution", "time_series",
               "write_bundle"),
    "mcdm": ("ewm_weights", "ahp_weights", "overall_scores"),
}
STARTUP_SAMPLES = 3
SYNTHETIC_LINES = 20_000


class Tracer:
    """Records the spans of calls made from the main thread, in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.facts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.facts, args, kwargs, result)
            return result
        return traced


def _campaign_span(args, kwargs) -> str:
    jobs = kwargs.get("parallelism", args[2] if len(args) > 2 else 1)
    kind = "replay" if kwargs.get("replay_dir", args[4] if len(args) > 4 else None) else "spawn"
    return f"runner.{kind}_j{jobs}"


def _observe_campaign(facts, args, kwargs, records) -> None:
    name = _campaign_span(args, kwargs)
    facts[f"{name}.tasks"] = len(records)
    facts[f"{name}.mean_duration_ms"] = statistics.fmean(r.duration_ms for r in records)
    if name.endswith("_j1"):
        facts.update(f"status.{r.status}" for r in records)


def _observe_size(key: str, path_of):
    def observe(facts, args, kwargs, result) -> None:
        path = Path(path_of(args, kwargs))
        size = sum(p.stat().st_size for p in path.iterdir()) if path.is_dir() \
            else path.stat().st_size
        facts[key] = max(facts[key], size)
    return observe


OBSERVE = {
    "corpus.pragma_filter": lambda f, a, k, r: f.update(pragma_dropped=len(a[0]) - len(r)),
    "corpus.dedup": lambda f, a, k, r: f.update(dedup_removed=r[1]),
    "corpus.scan_problems": lambda f, a, k, r: f.update(problems=len(r)),
    "runner.execute_campaign": _observe_campaign,
    "runner.write_records": _observe_size("records_bytes", lambda a, k: a[1]),
    "report.write_bundle": _observe_size("bundle_bytes", lambda a, k: a[0]),
    "metrics.confusion": lambda f, a, k, r: f.update(confusion_cells=1),
}


@contextmanager
def instrumented(tracer: Tracer):
    """Replace the traced functions on every ``scbench`` module holding them."""
    import scbench.cli  # noqa: F401  (imports every traced module)
    from scbench import runner

    patches = []
    for module, names in TRACED.items():
        mod = sys.modules[f"scbench.{module}"]
        for name in names:
            fn = getattr(mod, name, None)
            if fn is None:  # folded away by a later version: its time reads 0
                continue
            span = _campaign_span if name == "execute_campaign" else f"{module}.{name}"
            wrapper = tracer.wrap(span, fn, OBSERVE.get(f"{module}.{name}"))
            for holder in [m for n, m in sys.modules.items() if n.startswith("scbench")]:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
    init = runner.RecordSet.__init__
    patches.append((runner.RecordSet, "__init__", init))
    runner.RecordSet.__init__ = tracer.wrap("runner.recordset", init)
    try:
        yield
    finally:
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)


@contextmanager
def environment(extra: dict[str, str] | None):
    saved = {k: os.environ.get(k) for k in extra or {}}
    os.environ.update(extra or {})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def call(argv: list[str], env: dict[str, str] | None) -> tuple[int, str, str]:
    """``scbench.cli.main(argv)`` in process: exit code, stdout, stderr."""
    from scbench import cli

    out, err = io.StringIO(), io.StringIO()
    with environment(env), redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on --help
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def run_pass(cmds, verify, tracer: Tracer | None) -> tuple[float, list[str]]:
    """Every command once; the pass's wall time and its failed checks."""
    failures = []
    start = time.perf_counter()
    for cmd in cmds:
        if tracer is None:
            rc, out, err = call(list(cmd.args), cmd.env)
        else:
            with tracer.span(f"cli.{cmd.metric.removesuffix('_s')}"):
                rc, out, err = call(list(cmd.args), cmd.env)
        failure = verify(cmd, rc, out, err)
        if failure:
            failures.append(failure)
    return time.perf_counter() - start, failures


def synthetic_source(lines: int, seed: int) -> str:
    """One large contract, as the lexer micro-benchmark uses."""
    rng = random.Random(seed)
    atoms = [
        "    balances[msg.sender] += msg.value;",
        "    require(balances[msg.sender] >= amount); // guard",
        "    /* transfer out */ msg.sender.transfer(amount);",
        '    emit Log("state: // updated", amount);',
        "    uint rate = total / count;",
        "",
    ]
    body = [rng.choice(atoms) for _ in range(lines)]
    return "pragma solidity ^0.8.0;\ncontract Big {\n" + "\n".join(body) + "\n}\n"


def lexer_facts(inputs: wl.Inputs) -> dict[str, float]:
    """Corpus size and throughput of the two public normalization operations."""
    from scbench import corpus

    cases = corpus.load_labelled(inputs.curation.root)
    sources = [c.source for c in cases]
    source_mb = sum(len(s.encode()) for s in sources) / 1e6
    sources.append(synthetic_source(SYNTHETIC_LINES, inputs.seed))
    lexer_mb = sum(len(s.encode()) for s in sources) / 1e6
    out = {"corpus.cases": len(cases), "corpus.source_mb": source_mb}
    for name in ("normalize_source", "strip_comments"):
        fn = getattr(corpus, name)
        start = time.perf_counter()
        for s in sources:
            fn(s, strict=False)
        out[f"corpus.{name}_mb_per_s"] = lexer_mb / (time.perf_counter() - start)
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the intervals their children cover.

    Spans are recorded from one thread, so siblings never overlap and the
    covered part is the sum of the children's durations.
    """
    covered = Counter()
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += s["end"] - s["start"] - covered[s["id"]]
    return out


def startup_times(root: Path) -> dict[str, float]:
    """Median interpreter start and ``scbench.cli`` / numpy import times."""
    env = wl.child_env(root)
    empty, cli_import, numpy_import = [], [], []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        empty.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import scbench.cli"],
                              cwd=root, env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        cli_import.append(cumulative.get("scbench.cli", 0.0))
        numpy_import.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_s": statistics.median(empty),
            "cli.import_s": statistics.median(cli_import),
            "cli.import_numpy_s": statistics.median(numpy_import)}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], facts: Counter, overhead_s: float) -> dict[str, float]:
    total = Counter()
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
    m = {f"{name}_s": total[name] for name in (
        "corpus.load_labelled", "corpus.load_metadata", "corpus.stats",
        "corpus.pragma_filter", "corpus.dedup", "corpus.scan_problems",
        "runner.replay_j1", "runner.replay_j2", "runner.write_records",
        "runner.read_records", "runner.recordset", "runner.spawn_j1", "runner.spawn_j2",
        "metrics.indicator_matrix", "metrics.per_class_metrics", "metrics.timing",
        "report.metrics_grid", "report.timing_table", "report.class_distribution",
        "report.time_series", "report.write_bundle",
        "mcdm.ewm_weights", "mcdm.ahp_weights", "mcdm.overall_scores")}
    m["runner.replay_j2_over_j1"] = _ratio(total["runner.replay_j2"], total["runner.replay_j1"])
    m["runner.spawn_j2_over_j1"] = _ratio(total["runner.spawn_j2"], total["runner.spawn_j1"])
    m["runner.spawn_overhead_ms_per_task"] = (
        _ratio(total["runner.spawn_j2"] * 1000 * 2, facts["runner.spawn_j2.tasks"])
        - facts["runner.spawn_j2.mean_duration_ms"])
    for name in ("pragma_dropped", "dedup_removed", "problems"):
        m[f"corpus.{name}"] = facts[name]
    m["runner.records_mb"] = facts["records_bytes"] / 1e6
    for status in ("ok", "timeout", "tool_error", "harness_error"):
        m[f"runner.status_{status}"] = facts[f"status.{status}"]
    m["metrics.confusion_cells"] = facts["confusion_cells"]
    m["report.bundle_bytes"] = facts["bundle_bytes"]
    m.update({f"{layer}.self_s": v for layer, v in self_times(spans).items()})
    m["bench.trace_overhead_s"] = overhead_s
    return m


def run(root: Path, inputs: wl.Inputs, cmds, verify, spans_path: Path) -> dict:
    """Warm-up, untraced and traced passes over ``cmds``; ``verify(cmd, rc,
    stdout, stderr)`` returns a failure message or None."""
    os.environ.update(wl.SINGLE_THREAD_BLAS)  # before numpy is imported
    sys.path.insert(0, str(root / "src"))
    # The warm-up pass pays for the imports and the page cache, so that
    # neither measured pass does.
    _, failures = run_pass(cmds, verify, None)
    untraced_s, more = run_pass(cmds, verify, None)
    failures += more
    tracer = Tracer()
    with instrumented(tracer):
        traced_s, more = run_pass(cmds, verify, tracer)
    failures += more
    metrics = layer_metrics(tracer.spans, tracer.facts, traced_s - untraced_s)
    metrics.update(lexer_facts(inputs))
    metrics.update(startup_times(root))
    spans_path = root / spans_path
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"trace": f"{inputs.workload}-seed{inputs.seed}",
                                      "spans": tracer.spans}) + "\n")
    return {
        "inputs": inputs,
        "metrics": metrics,
        "attempted": 3 * len(cmds),
        "failures": failures,
        "detail": {"spans_file": str(spans_path.relative_to(root)),
                   "untraced_wall_s": untraced_s, "traced_wall_s": traced_s},
    }
