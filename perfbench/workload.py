"""Workload definitions, seeded set-up, and the expected outputs.

A workload fixes which corpus each pipeline stage reads:

* the curation stage (``corpus stats``, ``corpus dedup``,
  ``corpus validate``) reads ``curation``;
* the campaign stage (replay ``run``, ``metrics``, ``report``, ``score``)
  reads ``campaign``;
* the spawn campaign (``run`` with the command-backed analyzers under
  ``perfbench/analyzers``) always reads the shipped corpus.

A scale of 1 means the shipped ``datasets/labelled`` corpus and its replay
fixtures; a larger scale means a seeded replica built by :mod:`replica`.
Set-up builds every input a run needs and records the environment.  The
expected outputs come from what the set-up planted, never from running
the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import replica

WORKLOADS = {
    # name: (curation scale, campaign scale)
    "curate-x5": (5, 1),
    "pipeline-x3": (1, 3),
}

SPAWN_REGISTRY = Path("perfbench") / "analyzers" / "registry.json"
AHP_MATRIX = Path("src") / "scbench" / "data" / "ahp" / "a1.txt"
SPAWN_TIMEOUTS = 1
SPAWN_FAILURES = 2
# substring a spawn analyzer looks for -> (tool, class it reports)
SPAWN_PATTERNS = {
    "call.value": ("GrepScan", "V1"),
    ".send(": ("GrepScan", "V3"),
    "tx.origin": ("ShScan", "V8"),
    "selfdestruct": ("ShScan", "V9"),
}

_CONTRACT_LINE_RE = re.compile(r"^contract (\S+)", re.MULTILINE)
_PROBE = (
    "import json, sys, numpy, scbench.cli\n"
    "from scbench.corpus import BACKEND\n"
    "print(json.dumps({'python': sys.version.split()[0],"
    " 'numpy': numpy.__version__, 'backend': BACKEND}))\n"
)


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


@dataclass
class Corpus:
    """A labelled corpus on disk plus what it is expected to produce."""

    root: Path
    replay: Path
    ids: list[str]
    pragma_off: frozenset[str] = frozenset()
    near_dups: frozenset[str] = frozenset()
    statuses: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def survivors(self) -> list[str]:
        return [i for i in self.ids if i not in self.pragma_off and i not in self.near_dups]

    @property
    def safe_count(self) -> int:
        return sum(1 for i in self.ids if i.startswith("safe/"))

    def status_total(self, status: str) -> int:
        return sum(counts.get(status, 0) for counts in self.statuses.values())


@dataclass
class SpawnPlan:
    """Planted outcomes and expected findings of the spawn campaign."""

    timeouts: list[str]            # contract ids
    failures: list[str]
    env: dict[str, str]            # variables the analyzers read
    findings: dict[tuple[str, str], set[str]]  # (tool, class) -> contract ids

    def statuses(self, contracts: int) -> dict[str, dict[str, int]]:
        planted = len(self.timeouts) + len(self.failures)
        return {
            "GrepScan": {"ok": contracts},
            "ShScan": {"ok": contracts - planted, "timeout": len(self.timeouts),
                       "tool_error": len(self.failures)},
        }


@dataclass
class Inputs:
    workload: str
    seed: int
    curation: Corpus
    campaign: Corpus
    shipped: Corpus
    spawn: SpawnPlan
    env: dict


def repo_paths(root: Path) -> tuple[Path, Path]:
    labelled = root / "datasets" / "labelled"
    replay = root / "datasets" / "replay" / "labelled"
    missing = [p for p in (root / "src" / "scbench" / "cli.py", labelled / "metadata.csv",
                           replay, root / AHP_MATRIX, root / SPAWN_REGISTRY)
               if not p.exists()]
    if missing:
        raise SetupError("missing from the checkout: "
                         + ", ".join(str(p.relative_to(root)) for p in missing))
    return labelled, replay


# numpy's OpenBLAS starts a spinning worker thread per CPU at import.  It
# would exceed the two threads or processes a command may use on a 2-CPU machine, and
# whether the other CPU is free for it made a cold start vary by a third.
# The matrices scbench builds are tiny, so one BLAS thread costs nothing.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1"}


def child_env(root: Path, extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_BLAS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def probe_environment(root: Path) -> dict:
    """Import the package in a fresh interpreter and report versions."""
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SetupError(f"cannot import scbench: {proc.stderr.strip()[-500:]}")
    env = json.loads(proc.stdout)
    env["nproc"] = os.cpu_count()
    env["git_sha"] = _git_sha(root)
    env["src_sha256"] = tree_digest(root / "src" / "scbench", "*.py")
    return env


def _git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_digest(directory: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative paths and bytes of every matching file."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob(pattern) if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def shipped_corpus(labelled: Path, replay: Path) -> Corpus:
    ids = [p.relative_to(labelled).with_suffix("").as_posix()
           for p in sorted(labelled.glob("*/*.sol"))]
    statuses = {}
    for fixture in sorted(replay.glob("*.json")):
        counts: dict[str, int] = {}
        for entry in json.loads(fixture.read_text("utf-8")).values():
            status = entry.get("status", "ok")
            counts[status] = counts.get(status, 0) + 1
        statuses[fixture.stem] = counts
    return Corpus(labelled, replay, ids, statuses=statuses)


def replica_corpus(labelled: Path, replay: Path, pool_root: Path, out: Path, scale: int,
                   seed: int) -> Corpus:
    pool = replica.ensure_pool(labelled, pool_root, scale)
    plan = replica.build(labelled, replay, pool, out, scale, seed)
    return Corpus(out / "corpus", out / "replay", plan["ids"],
                  frozenset(plan["pragma_off"]), frozenset(plan["near_duplicates"]),
                  plan["statuses"])


def spawn_plan(shipped: Corpus, seed: int) -> SpawnPlan:
    """Pick the contracts whose spawned scan times out or fails."""
    sources = {cid: (shipped.root / f"{cid}.sol").read_text("utf-8") for cid in shipped.ids}
    names = {}
    for cid, source in sources.items():
        m = _CONTRACT_LINE_RE.search(source)
        if m is None:
            raise SetupError(f"{cid}: no contract line for the spawn analyzers")
        names[cid] = m.group(1)
    # A timed-out task holds one worker for the whole timeout.  Taken from the
    # first quarter of the corpus, it runs early among ShScan's tasks, so at
    # --jobs 2 the other worker's remaining tasks overlap it instead of the
    # campaign ending on a tail whose length depends on the seed.
    rng = random.Random(seed)
    timeouts = sorted(rng.sample(shipped.ids[:len(shipped.ids) // 4], SPAWN_TIMEOUTS))
    failures = sorted(rng.sample([c for c in shipped.ids if c not in timeouts], SPAWN_FAILURES))
    picked = timeouts + failures
    findings: dict[tuple[str, str], set[str]] = {v: set() for v in SPAWN_PATTERNS.values()}
    for cid, source in sources.items():
        for pattern, key in SPAWN_PATTERNS.items():
            if pattern in source and not (key[0] == "ShScan" and cid in picked):
                findings[key].add(cid)
    env = {"PERFBENCH_TIMEOUT": " ".join(names[c] for c in timeouts),
           "PERFBENCH_FAIL": " ".join(names[c] for c in failures)}
    return SpawnPlan(timeouts, failures, env, findings)


def set_up(root: Path, pool_root: Path, work: Path, workload: str, seed: int) -> Inputs:
    """Build every input of one run under ``work`` (which must not exist).

    The replica pool under ``pool_root`` is seed-independent; it is written
    only when absent, so callers prepare it before timing a set-up.
    """
    curation_scale, campaign_scale = WORKLOADS[workload]
    labelled, replay = repo_paths(root)
    env = probe_environment(root)
    work.mkdir(parents=True)
    shipped = shipped_corpus(labelled, replay)
    scaled = {}
    for scale in {curation_scale, campaign_scale} - {1}:
        scaled[scale] = replica_corpus(labelled, replay, pool_root, work / f"x{scale}",
                                       scale, seed)
    scaled[1] = shipped
    env.update(workload=workload, seed=seed, curation_scale=curation_scale,
               campaign_scale=campaign_scale)
    return Inputs(workload, seed, scaled[curation_scale], scaled[campaign_scale], shipped,
                  spawn_plan(shipped, seed), env)


def spawn_outcomes(path: Path) -> dict[tuple[str, str], tuple]:
    """(tool, contract) -> (status, findings) of a spawn campaign's records.

    Durations are left out: they are measured, so they differ between runs.
    """
    out = {}
    for line in path.read_text("utf-8").splitlines():
        rec = json.loads(line)
        out[(rec["tool"], rec["contract"])] = (
            rec["status"], tuple((f["class"], tuple(f["lines"])) for f in rec["findings"]))
    return out


def spawn_problems(plan: SpawnPlan, contracts: list[str], got: dict) -> list[str]:
    """Differences between a spawn campaign's outcomes and the plan."""
    problems = []
    if len(got) != 2 * len(contracts):
        problems.append(f"{len(got)} records != 2 tools x {len(contracts)} contracts")
    for tool, counts in plan.statuses(len(contracts)).items():
        for status, n in counts.items():
            seen = sum(1 for (t, _), (s, _) in got.items() if t == tool and s == status)
            if seen != n:
                problems.append(f"{tool}: {seen} {status} records != {n} planted")
    for (tool, cls), expected in plan.findings.items():
        flagged = {c for (t, c), (_, found) in got.items()
                   if t == tool and any(fc == cls for fc, _ in found)}
        if flagged != expected:
            problems.append(f"{tool} {cls} findings differ from the sources")
    return problems
