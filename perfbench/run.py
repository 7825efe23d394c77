#!/usr/bin/env python3
"""Pipeline benchmark for scbench.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-x3 --seed 7 --seconds 10 --trace 0

``--trace 0`` runs every user command as a cold ``python -m scbench.cli``
subprocess, one at a time, and checks its exit code and output.  It
repeats the workload's command list until ``--seconds`` have passed (at
least once) and reports the median time of each command.

A time is the wall time of the command, from its start to ``os.wait4``
returning, minus the time the hypervisor kept the machine's CPUs from
running meanwhile (the ``steal`` column of ``/proc/stat``, of the CPU
that lost most).  It counts everything the command waits for itself:
sleeps, timeouts, worker pools, I/O.  It leaves out the time other
tenants of a shared host take, which otherwise made single samples up to
1.8x slower on a shared 2-CPU host.  The raw wall time and the CPU time
(user + system) of the command and the processes it waited for are kept
in the result file beside it.

A pass of the list is split in ``PASSES`` sub-passes.  Every command runs
in every sub-pass, except the two spawn campaigns, which run in
``SPAWN_SAMPLES`` of them, and the ``--jobs 2`` replay, which runs in two.
The machine's speed drifts over seconds to minutes, and spreading the
samples of a command over the whole run keeps that drift out of its
median.  The set-up is timed ``SETUPS`` times, as the CPU time of this
process and its environment probe: once before the first sub-pass and
then between sub-passes, each time from scratch.  CPU time leaves out the
file-system waits of hard-linking a few thousand replica files, which
vary most.

The ``--jobs 2`` replay is checked (its records must equal the
``--jobs 1`` ones byte for byte), but its time is not reported.  Its two
workers and the main thread hand the GIL to each other for every task,
and its time, CPU time too, moves with the host's state in spells of 20
to 50 s.  With twelve samples per run, its median still spread 0.27
(interquartile range over median) across ten seeds.  Its samples stay in
the result file, and ``runner.replay_j2_s`` and
``runner.replay_j2_over_j1`` report it per layer.

``--trace 1`` runs the same command list in this process through
``scbench.cli.main``, once untraced and once with a span around every
call of the layers' public functions, and reports per-layer numbers (see
``traced.py``).

The workloads are defined in ``workload.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the checked commands, and ``metrics`` maps each metric name to its value
and unit.  A copy of the result, with the environment it ran in, goes to
``.bench_results/`` (spans too, for a traced run); the inputs live in
``.bench_work/`` and are removed at the end, except the seed-independent
replica pool, which later runs reuse.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import workload as wl

PASSES = 6                  # sub-passes per pass: samples of each command
SPAWN_SAMPLES = 2           # samples of each spawn campaign per pass
SETUPS = 3                  # timed set-ups per run
DEADLINE_S = 170.0          # every run must end well within 180 s
RESULTS_DIR = ".bench_results"
WORK_DIR = ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "cold_start_s": "s",
    "corpus_stats_s": "s",
    "corpus_dedup_s": "s",
    "corpus_validate_s": "s",
    "run_replay_j1_s": "s",
    "run_spawn_j1_s": "s",
    "run_spawn_j2_s": "s",
    "metrics_s": "s",
    "report_s": "s",
    "score_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A command exited or answered differently from what was planted."""


@dataclass
class Command:
    metric: str
    args: list[str]
    check: Callable[["Result"], None]
    env: dict[str, str] | None = None
    expect_rc: int = 0
    samples: int | None = None  # per pass; None: one in every sub-pass


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str


class Runner:
    """Runs cold CLI commands one at a time and keeps their samples."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.times: dict[str, list[float]] = {}    # wall minus steal
        self.walls: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.stolen: dict[str, list[float]] = {}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, cmd: Command, work: Path) -> None:
        argv = [sys.executable, "-m", "scbench.cli", *cmd.args]
        out_path, err_path = work / "stdout.txt", work / "stderr.txt"
        self.attempted += 1
        env = wl.child_env(self.root, cmd.env)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            stolen = steal_s()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, stdout=out, stderr=err, env=env)
            guard = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            guard.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                guard.cancel()
            wall = time.perf_counter() - start
            stolen = stolen_since(stolen)
        rc = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        failure = verify(cmd, rc, out_path.read_text("utf-8", "replace"),
                         err_path.read_text("utf-8", "replace"))
        if failure:
            self.failures.append(failure)
            return
        self.times.setdefault(cmd.metric, []).append(wall - stolen)
        self.stolen.setdefault(cmd.metric, []).append(stolen)
        self.walls.setdefault(cmd.metric, []).append(wall)
        self.cpu.setdefault(cmd.metric, []).append(usage.ru_utime + usage.ru_stime)


def verify(cmd: Command, rc: int, stdout: str, stderr: str) -> str | None:
    """Check one command's exit code and output; describe a failure."""
    try:
        if rc != cmd.expect_rc:
            raise CheckFailed(f"exit code {rc}, expected {cmd.expect_rc}: "
                              f"{stderr.strip()[-300:]}")
        cmd.check(Result(rc, stdout, stderr))
    except Exception as exc:  # a missing or malformed output fails the check too
        return f"{cmd.metric} ({' '.join(cmd.args[:2])}): {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# output checks

def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_stats(corpus: wl.Corpus):
    def check(r: Result) -> None:
        rows = {row[0]: row for row in _csv_rows(r.stdout)[1:]}
        _expect(rows.get("Total", [None, None])[1] == str(len(corpus.ids)),
                f"Total row {rows.get('Total')} != {len(corpus.ids)} cases")
        _expect(rows.get("Safe contracts", [None, None])[1] == str(corpus.safe_count),
                f"Safe row {rows.get('Safe contracts')} != {corpus.safe_count}")
    return check


def check_dedup(corpus: wl.Corpus):
    survivors = sorted(corpus.survivors)

    def check(r: Result) -> None:
        lines = r.stdout.splitlines()
        expected = f"{len(survivors)},{len(corpus.near_dups)}"
        _expect(lines[:2] == ["Survivors,Removed", expected],
                f"counts {lines[:2]} != {expected}")
        _expect(sorted(lines[2:]) == survivors, "listed survivor ids differ from the plan")
    return check


def check_validate(corpus: wl.Corpus):
    expected = sorted(f"{cid}.sol: no pragma solidity directive" for cid in corpus.pragma_off)

    def check(r: Result) -> None:
        lines = r.stdout.splitlines()
        _expect(lines[-1:] == [f"{len(expected)} problem(s) found"],
                f"summary {lines[-1:]} != {len(expected)} problem(s)")
        _expect(sorted(lines[:-1]) == expected, "reported problems differ from the plan")
    return check


def check_replay(corpus: wl.Corpus, out: Path, digests: dict, key: str, twin: str | None):
    tools = len(corpus.statuses)

    def check(r: Result) -> None:
        data = out.read_bytes()
        n = data.count(b"\n")
        _expect(n == tools * len(corpus.ids),
                f"{n} records != {tools} tools x {len(corpus.ids)} contracts")
        for status in ("ok", "timeout", "tool_error", "harness_error"):
            got = data.count(f'"status": "{status}"'.encode())
            _expect(got == corpus.status_total(status),
                    f"{got} {status} records != {corpus.status_total(status)} planted")
        digests[key] = hashlib.sha256(data).hexdigest()
        if twin is not None:
            _expect(digests.get(twin) == digests[key], f"{key} records differ from {twin}")
    return check


def _check_timing_csv(path: Path, corpus: wl.Corpus) -> None:
    rows = {row[0]: row for row in _csv_rows(path.read_text("utf-8"))[1:]}
    for tool, counts in corpus.statuses.items():
        got = rows.get(tool, [None, None, None])[2]
        _expect(got == str(counts.get("ok", 0)),
                f"{tool} valid runs {got} != {counts.get('ok', 0)} ok records")


def _manifest_tables(out_dir: Path) -> set[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
    return {t["name"] for t in manifest["tables"]}


def check_metrics(corpus: wl.Corpus, out_dir: Path):
    def check(r: Result) -> None:
        tables = _manifest_tables(out_dir)
        _expect(tables == {"capability", "classification", "indicators", "timing"},
                f"metrics tables {sorted(tables)}")
        _check_timing_csv(out_dir / "timing.csv", corpus)
    return check


REPORT_TABLES = {"capability", "classification", "distribution", "indicators",
                 "scores_ahp", "scores_ewm", "stats", "timeseries", "timing", "weights"}


def check_report(corpus: wl.Corpus, out_dir: Path, digests: list[str]):
    def check(r: Result) -> None:
        tables = _manifest_tables(out_dir)
        _expect(tables == REPORT_TABLES, f"report tables {sorted(tables)}")
        _check_timing_csv(out_dir / "timing.csv", corpus)
        stats = {row[0]: row for row in _csv_rows((out_dir / "stats.csv").read_text("utf-8"))[1:]}
        _expect(stats["Total"][1] == str(len(corpus.ids)), "report stats Total differs")
        digest = wl.tree_digest(out_dir)
        _expect(not digests or digests[0] == digest, "report bundle differs between rounds")
        digests.append(digest)
    return check


def check_score(tools: int, ahp: bool):
    def check(r: Result) -> None:
        lines = r.stdout.splitlines()
        ranked = [ln for ln in lines if ln[:3].strip("| ").isdigit()]
        _expect(len(ranked) == tools, f"{len(ranked)} ranked rows != {tools} tools")
        if ahp:
            _expect(lines[0].startswith("lambda_max="), "missing AHP consistency line")
    return check


def check_spawn(inputs: wl.Inputs, out: Path, outcomes: dict, key: str, twin: str | None):
    def check(r: Result) -> None:
        got = wl.spawn_outcomes(out)
        problems = wl.spawn_problems(inputs.spawn, inputs.shipped.ids, got)
        _expect(not problems, "; ".join(problems))
        outcomes[key] = got
        if twin is not None:
            _expect(outcomes.get(twin) == got, f"{key} outcomes differ from {twin}")
    return check


def check_help(r: Result) -> None:
    _expect(r.stdout.startswith("usage: scbench"), "no usage line")


# ---------------------------------------------------------------------------
# the command list of one pass

def commands(inputs: wl.Inputs, work: Path, state: dict) -> list[Command]:
    cur, camp, shipped = inputs.curation, inputs.campaign, inputs.shipped
    j1, j2 = work / "replay-j1.jsonl", work / "replay-j2.jsonl"
    s1, s2 = work / "spawn-j1.jsonl", work / "spawn-j2.jsonl"
    tables, bundle = work / "tables", work / "report"
    ahp = str(wl.AHP_MATRIX)
    registry = str(wl.SPAWN_REGISTRY)
    tools = len(camp.statuses)
    digests, outcomes = state.setdefault("records", {}), state.setdefault("spawn", {})
    return [
        Command("cold_start_s", ["--help"], check_help),
        Command("corpus_stats_s", ["corpus", "stats", str(cur.root)], check_stats(cur)),
        Command("corpus_dedup_s", ["corpus", "dedup", str(cur.root), "--pragma", "--list-ids"],
                check_dedup(cur)),
        Command("corpus_validate_s", ["corpus", "validate", str(cur.root)],
                check_validate(cur), expect_rc=1 if cur.pragma_off else 0),
        Command("run_replay_j1_s", ["run", "--corpus", str(camp.root), "--replay",
                                    str(camp.replay), "--jobs", "1", "--out", str(j1)],
                check_replay(camp, j1, digests, "j1", None)),
        Command("metrics_s", ["metrics", "--records", str(j1), "--corpus", str(camp.root),
                              "--out-dir", str(tables)], check_metrics(camp, tables)),
        Command("report_s", ["report", "--records", str(j1), "--corpus", str(camp.root),
                             "--matrix", ahp, "--timeseries", "--out-dir", str(bundle)],
                check_report(camp, bundle, state.setdefault("bundle", []))),
        # checked but not reported: score_s times the AHP command alone
        Command("score_ewm_s", ["score", "--method", "ewm", "--indicators",
                                str(tables / "indicators.csv")], check_score(tools, False)),
        Command("score_s", ["score", "--method", "ahp", "--matrix", ahp, "--indicators",
                            str(tables / "indicators.csv")], check_score(tools, True)),
        # checked, and sampled into the result file, but not reported (see the top)
        Command("run_replay_j2_s", ["run", "--corpus", str(camp.root), "--replay",
                                    str(camp.replay), "--jobs", "2", "--out", str(j2)],
                check_replay(camp, j2, digests, "j2", "j1"), samples=2),
        Command("run_spawn_j1_s", ["run", "--corpus", str(shipped.root), "--registry",
                                   registry, "--jobs", "1", "--out", str(s1)],
                check_spawn(inputs, s1, outcomes, "j1", None), env=inputs.spawn.env,
                samples=SPAWN_SAMPLES),
        Command("run_spawn_j2_s", ["run", "--corpus", str(shipped.root), "--registry",
                                   registry, "--jobs", "2", "--out", str(s2)],
                check_spawn(inputs, s2, outcomes, "j2", "j1"), env=inputs.spawn.env,
                samples=SPAWN_SAMPLES),
    ]


# ---------------------------------------------------------------------------
# running a workload

def steal_s() -> list[float]:
    """Per CPU, the seconds the hypervisor has kept it from running (the
    ``steal`` column of ``/proc/stat``); empty where that is not known."""
    try:
        with open("/proc/stat") as f:
            rows = [line.split() for line in f if line.startswith("cpu")][1:]
        return [int(row[8]) / os.sysconf("SC_CLK_TCK") for row in rows]
    except (OSError, IndexError, ValueError):
        return []


def stolen_since(before: list[float]) -> float:
    """The largest steal of one CPU since ``before``.  A command waits at
    most that long for the hypervisor; summing the CPUs would count twice
    what two busy CPUs lose at the same time."""
    return max((b - a for a, b in zip(before, steal_s())), default=0.0)


def cpu_s() -> float:
    """CPU time of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def set_up(root: Path, work: Path, args) -> tuple[wl.Inputs, float]:
    """Build the run's inputs; return them and the CPU time it took."""
    start = cpu_s()
    inputs = wl.set_up(root, root / WORK_DIR / "pool", work, args.workload, args.seed)
    return inputs, cpu_s() - start


def sub_passes(cmds: list[Command]) -> list[list[Command]]:
    """Every command in each sub-pass, except those with a ``samples``
    count, which run in that many sub-passes spread over the pass."""
    def runs_in(cmd: Command, p: int) -> bool:
        n = cmd.samples or PASSES
        return p in {int((k + 0.5) * PASSES / n) for k in range(n)}
    return [[c for c in cmds if runs_in(c, p)] for p in range(PASSES)]


def run_cold(root: Path, work_root: Path, args, started: float) -> dict:
    work = work_root / "inputs"
    inputs, first = set_up(root, work, args)
    setup_times = [first]
    runner = Runner(root, started + DEADLINE_S)
    state: dict = {}
    passes = sub_passes(commands(inputs, work, state))
    setup_after = {(k + 1) * PASSES // SETUPS - 1 for k in range(SETUPS - 1)}
    measure_start = time.monotonic()
    rounds = 0
    while True:
        shutil.rmtree(work / "report", ignore_errors=True)
        for p, sub in enumerate(passes):
            for cmd in sub:
                runner.run(cmd, work)
            if rounds == 0 and p in setup_after:
                spare = work_root / f"setup-{p}"
                setup_times.append(set_up(root, spare, args)[1])
                shutil.rmtree(spare)
        rounds += 1
        elapsed = time.monotonic() - measure_start
        per_round = elapsed / rounds
        if elapsed >= args.seconds or time.monotonic() + per_round > started + DEADLINE_S:
            break
    metrics = {"setup_s": statistics.median(setup_times)}
    for name in END_TO_END:
        if name in runner.times:
            metrics[name] = statistics.median(runner.times[name])
    metrics["peak_rss_mb"] = runner.peak_rss_mb
    return {
        "inputs": inputs,
        "metrics": metrics,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "detail": {
            "rounds": rounds,
            "setup_s": setup_times,
            "samples": runner.times,
            "wall_samples": runner.walls,
            "cpu_samples": runner.cpu,
            "steal_samples": runner.stolen,
            "records_sha256": state.get("records", {}).get("j1"),
            "report_sha256": (state.get("bundle") or [None])[0],
        },
    }


def run_traced(root: Path, work_root: Path, args) -> dict:
    import traced

    work = work_root / "inputs"
    inputs, _ = set_up(root, work, args)
    state: dict = {}
    outcome = traced.run(root, inputs, commands(inputs, work, state), verify,
                         Path(RESULTS_DIR) / f"spans-{args.workload}-seed{args.seed}.json")
    outcome["detail"]["report_sha256"] = (state.get("bundle") or [None])[0]
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = Path.cwd()
    work_root = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl.repo_paths(root)
        labelled = root / "datasets" / "labelled"
        scales = set(wl.WORKLOADS[args.workload]) - {1}
        for scale in scales:
            t0 = time.perf_counter()
            wl.replica.ensure_pool(labelled, root / WORK_DIR / "pool", scale)
            print(f"replica pool x{scale} ready in {time.perf_counter() - t0:.2f}s")
        if args.trace:
            outcome = run_traced(root, work_root, args)
        else:
            outcome = run_cold(root, work_root, args, started)
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failures = outcome["failures"]
    env = outcome["inputs"].env
    detail = outcome["detail"]
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"report bundle sha256: {detail.get('report_sha256')}")
    for failure in failures:
        print(f"FAILED {failure}")
    attempted = outcome["attempted"]
    print(f"ops_failed_share: {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} checked operations)")
    if args.trace:
        import traced
        units = traced.PER_LAYER
    else:
        units = END_TO_END
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in outcome["metrics"]}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6f} {m['unit']}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"FAILED metrics not measured: {missing}")
    result = {"correct": not failures and not missing, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    results = root / RESULTS_DIR
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "failures": failures, "detail": detail},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
