from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from scbench.corpus import load_labelled
from scbench.metrics import score_campaign
from scbench.records import load_outcomes, write_records
from scbench.runner import execute_campaign
from scbench.taxonomy import Registry, default_taxonomy

REPO_ROOT = Path(__file__).resolve().parent.parent
LABELLED_DIR = REPO_ROOT / "datasets" / "labelled"
REPLAY_DIR = REPO_ROOT / "datasets" / "replay" / "labelled"
LISTING_FIXTURE = LABELLED_DIR / "reentrancy" / "reentrancy_insecure.sol"


def scored(records, registry, corpus):
    """``score_campaign`` of ``records`` over ``corpus``, the records written
    by ``write_records`` and folded back as ``metrics`` and ``report`` fold
    a records file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        write_records(records, path)
        return score_campaign(load_outcomes(path, corpus), registry)


def deny_listing(monkeypatch, directory):
    """Make ``os.scandir`` of ``directory`` fail as an unreadable directory
    does (a root-run suite can list any directory); returns its path."""
    locked = str(directory)
    scandir = os.scandir

    def denying(path="."):
        if os.fspath(path) == locked:
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", denying)
    return locked


@pytest.fixture(scope="session")
def taxonomy():
    return default_taxonomy()


@pytest.fixture(scope="session")
def registry():
    return Registry.load()


@pytest.fixture(scope="session")
def labelled_corpus():
    return load_labelled(LABELLED_DIR)


@pytest.fixture(scope="session")
def replay_records(registry, labelled_corpus):
    return execute_campaign(
        registry, labelled_corpus, parallelism=4, replay_dir=REPLAY_DIR
    )


def pytest_terminal_summary(terminalreporter):
    tr = terminalreporter
    lines = []
    for status in ("passed", "failed"):
        for rep in tr.stats.get(status, []):
            if getattr(rep, "when", "call") != "call":
                continue
            if "test_acceptance" in rep.nodeid:
                lines.append((rep.nodeid.split("::")[-1], status.upper()))
    if lines:
        tr.write_sep("=", "acceptance criteria")
        for name, status in sorted(lines):
            tr.write_line(f"{name}: {status}")
