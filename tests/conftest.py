from __future__ import annotations

from pathlib import Path

import pytest

from scbench.corpus import load_labelled
from scbench.records import RecordSet
from scbench.runner import execute_campaign
from scbench.taxonomy import Registry, default_taxonomy

REPO_ROOT = Path(__file__).resolve().parent.parent
LABELLED_DIR = REPO_ROOT / "datasets" / "labelled"
REPLAY_DIR = REPO_ROOT / "datasets" / "replay" / "labelled"
LISTING_FIXTURE = LABELLED_DIR / "reentrancy" / "reentrancy_insecure.sol"


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
    records = execute_campaign(
        registry, labelled_corpus, parallelism=4, replay_dir=REPLAY_DIR
    )
    return RecordSet(records)


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
