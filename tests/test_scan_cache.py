"""The scan cache of the corpus layer: a load through it gives what a load
without it gives, whatever the cache holds."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbench.cli import main
from scbench.corpus import lexer, load_flat, load_labelled, scan_case, scan_problems
from scbench.errors import ScbenchError
from scbench.reference import pairwise_path

from .conftest import LABELLED_DIR, REPLAY_DIR
from .test_corpus import annotated_sources
from .test_report_cli import src_env

CLEAN = "pragma solidity ^0.5.0;\n// <yes> <report> REENTRANCY\nx.call.value(1)();\n"
# each of these is scanned at every load: it warns, it does not lex, or
# (the last) its labels raise
WARNS = ("pragma solidity ^0.5.0;\n// @vulnerable_at_lines: 9\n"
         "// <yes> <report> REENTRANCY\nf();\n")
LEX_ERROR = CLEAN + 'string s = "oops; }\n'
UNKNOWN_MARKER = "pragma solidity ^0.5.0;\n// <yes> <report> FRONTRUN\nf();\n"


def cache_files(home) -> list[str]:
    directory = os.path.join(home, "scbench")
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def read_cache(path) -> tuple[dict, bytes]:
    """A cache file's JSON line and the texts after it."""
    meta, _, texts = path.read_bytes().partition(b"\n")
    return json.loads(meta), texts


def write_cache(path, meta, texts) -> None:
    path.write_bytes(json.dumps(meta).encode("ascii") + b"\n" + texts)


def cache_entries(home) -> dict:
    (name,) = cache_files(home)
    return read_cache(home / "scbench" / name)[0]["entries"]


def outcome(load, *args):
    """What a load gives: its cases as plain tuples (derived fields
    included) or its error, and the messages it warned of, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(*args)
        except ScbenchError as exc:
            result = (type(exc).__name__, str(exc))
        else:
            result = [p if isinstance(p, str) else tuple(p) for p in result]
    return result, [str(w.message) for w in caught]


def write_corpus(root, sources, layout) -> None:
    directory = os.path.join(root, "reentrancy") if layout == "labelled" else root
    os.makedirs(directory, exist_ok=True)
    for i, source in enumerate(sources):
        with open(os.path.join(directory, f"c{i}.sol"), "wb") as fh:
            fh.write(source.encode("utf-8"))


@pytest.fixture
def home(monkeypatch, tmp_path_factory):
    """An empty cache directory that the loads of the test use."""
    path = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(path))
    return path


@pytest.fixture
def scans(monkeypatch):
    """Every source the lexer kernel is called on."""
    calls = []
    kernel = lexer._scan
    monkeypatch.setattr(lexer, "_scan", lambda src: calls.append(src) or kernel(src))
    return calls


# the loads of a corpus, given the loader of its layout
LOADS = {
    "scan": lambda load, root: load(root),
    "no scan": lambda load, root: load(root, scan=False),
    "validate": lambda load, root: scan_problems(root),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(annotated_sources(), min_size=1, max_size=4),
       st.lists(st.sampled_from(sorted(LOADS)), min_size=1, max_size=4),
       st.sampled_from(["labelled", "flat"]))
def test_a_load_through_the_cache_equals_a_cold_one(sources, kinds, layout):
    """Each load (one that scans, one that scans nothing, or validation),
    with whatever the earlier loads left in the cache, and again with its
    own, equals the same load against an empty cache."""
    load = load_labelled if layout == "labelled" else load_flat
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = os.path.join(tmp, "corpus")
        write_corpus(root, sources, layout)
        warm = os.path.join(tmp, "warm")
        for i, kind in enumerate(kinds):
            mp.setenv("XDG_CACHE_HOME", os.path.join(tmp, f"cold{i}"))
            cold = outcome(LOADS[kind], load, root)
            mp.setenv("XDG_CACHE_HOME", warm)
            assert outcome(LOADS[kind], load, root) == cold
            assert outcome(LOADS[kind], load, root) == cold


def test_an_edited_contract_is_scanned_again(tmp_path, home, scans):
    write_corpus(tmp_path, [CLEAN, CLEAN.replace("x.call", "\n\nx.call")], "labelled")
    load_labelled(tmp_path)
    edited = tmp_path / "reentrancy" / "c1.sol"
    edited.write_text(CLEAN + "contract C {}\n")
    scans.clear()
    cases = load_labelled(tmp_path)
    assert len(scans) == 1
    assert tuple(cases[1]) == tuple(scan_case("reentrancy/c1", CLEAN + "contract C {}\n"))
    scans.clear()
    assert [tuple(c) for c in load_labelled(tmp_path)] == [tuple(c) for c in cases]
    assert len(scans) == 0


def test_the_cache_keeps_only_the_last_load_and_live_roots(tmp_path, home):
    first, second, third = tmp_path / "first", tmp_path / "second", tmp_path / "third"
    write_corpus(first, [CLEAN, CLEAN], "labelled")
    for root in (second, third):
        write_corpus(root, [CLEAN], "flat")
    load_labelled(first)
    (first / "reentrancy" / "c1.sol").unlink()
    load_labelled(first)
    assert sorted(cache_entries(home)) == ["reentrancy/c0.sol"]
    (old,) = cache_files(home)
    shutil.rmtree(first)
    load_flat(second)
    # the file of a root that is gone is kept while it is young
    assert old in cache_files(home) and len(cache_files(home)) == 2
    a_day_ago = time.time() - 24 * 3600 - 60
    for name in cache_files(home):
        os.utime(home / "scbench" / name, (a_day_ago, a_day_ago))
    write_corpus(second, [CLEAN, CLEAN], "flat")  # a new contract: the next load writes
    load_flat(second)  # a write of a known root sweeps nothing
    assert old in cache_files(home)
    load_flat(third)  # a new root's first write sweeps the old file
    assert old not in cache_files(home) and len(cache_files(home)) == 2


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, standard output and error of the command in a fresh
    interpreter, so that its warnings reach standard error."""
    proc = subprocess.run([sys.executable, "-m", "scbench.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("layout", ["labelled", "flat"])
def test_a_contract_that_is_not_clean_is_never_cached(tmp_path, home, layout):
    # src_env() copies the environment, so the commands use ``home``
    corpus = tmp_path / "corpus"
    where, rel = ((corpus / "reentrancy", "reentrancy/") if layout == "labelled"
                  else (corpus, ""))
    where.mkdir(parents=True)
    for name, source in (("clean", CLEAN), ("no_pragma", CLEAN.partition("\n")[2]),
                         ("warns", WARNS), ("lex", LEX_ERROR)):
        (where / f"{name}.sol").write_text(source)
    cached = [f"{rel}clean.sol", f"{rel}no_pragma.sol"]
    stats = run_cli(["corpus", "stats", str(corpus)])
    assert stats[0] == 0 and stats[2] == (f"warning: {rel}warns.sol: header lines [9] "
                                          "disagree with inline marker lines [4]\n")
    assert sorted(cache_entries(home)) == cached
    entries = cache_entries(home)
    validate = run_cli(["corpus", "validate", str(corpus)])
    assert cache_entries(home) == entries  # validate walks the files stats read
    assert validate[0] == 1 and validate[1].splitlines() == [
        f"{rel}lex.sol: line 4: unterminated string literal at offset {len(CLEAN) + 11}",
        f"{rel}no_pragma.sol: no pragma solidity directive",
        f"{rel}warns.sol: header lines [9] disagree with inline marker lines [4]",
        f"{rel}warns.sol: V1 annotates lines [9] beyond the 4-line source",
        "4 problem(s) found"]
    for argv, first in ((["corpus", "stats", str(corpus)], stats),
                        (["corpus", "validate", str(corpus)], validate)):
        assert run_cli(argv) == first
        assert cache_entries(home) == entries
    (where / "unknown.sol").write_text(UNKNOWN_MARKER)
    for argv in (["corpus", "stats", str(corpus)], ["corpus", "validate", str(corpus)]):
        first = run_cli(argv)
        assert first[0] == 1
        assert f"{rel}unknown.sol: line 2: marker 'FRONTRUN'" in first[1] + first[2]
        assert run_cli(argv) == first
        assert cache_entries(home) == entries


CURATION = [["corpus", "stats", str(LABELLED_DIR)],
            ["corpus", "dedup", "--pragma", "--list-ids", str(LABELLED_DIR)],
            ["corpus", "validate", str(LABELLED_DIR)]]


def curation_outputs(capsys) -> list[tuple[int, str, str]]:
    outputs = []
    for argv in CURATION:
        capsys.readouterr()
        rc = main(argv)
        outputs.append((rc, *capsys.readouterr()))
    return outputs


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def garble(path):
    path.write_bytes(b"\x00\xff{not json")


def reshape(path):
    """This scanner's file, its entries cut short."""
    meta, texts = read_cache(path)
    meta["entries"] = {rel: entry[:1] for rel, entry in meta["entries"].items()}
    write_cache(path, meta, texts)


def shift(path):
    """This scanner's file, the boundary of its first two texts moved by
    a byte, so the two cut from it differ from the files."""
    meta, texts = read_cache(path)
    first, second = list(meta["entries"].values())[:2]
    first[0] += 1
    second[0] -= 1
    write_cache(path, meta, texts)


def foreign(path):
    """Another scanner's file: it holds wrong fields, which must not be read."""
    meta, texts = read_cache(path)
    meta["scanner"][0] = "another Python"
    for entry in meta["entries"].values():
        entry[1:] = [{"V9": [1]}, 1, False, "0" * 32]
    write_cache(path, meta, texts)


def nulls(path):
    """This scanner's file, the LoC of its first entry null: a None that
    must not reach ``stats`` as a value."""
    meta, texts = read_cache(path)
    next(iter(meta["entries"].values()))[2] = None
    write_cache(path, meta, texts)


def string_loc(path):
    """This scanner's file, the LoC of its first entry a string, which
    ``stats`` would add to a number."""
    meta, texts = read_cache(path)
    entry = next(iter(meta["entries"].values()))
    entry[2] = str(entry[2])
    write_cache(path, meta, texts)


def string_pragma(path):
    """This scanner's file, the pragma flag of its first entry a string,
    an empty one, which ``pragma_filter`` and ``validate`` would take for
    false without a word."""
    meta, texts = read_cache(path)
    next(iter(meta["entries"].values()))[3] = ""
    write_cache(path, meta, texts)


def string_lines(path):
    """This scanner's file, the labelled lines of its first entry strings,
    which ``validate`` would compare with a line count."""
    meta, texts = read_cache(path)
    labels = next(iter(meta["entries"].values()))[1]
    for cid, lines in labels.items():
        labels[cid] = [str(line) for line in lines]
    write_cache(path, meta, texts)


def make_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("spoil", [truncate, garble, reshape, shift, foreign, nulls,
                                   string_loc, string_pragma, string_lines,
                                   make_directory])
def test_a_spoilt_cache_file_changes_no_output(home, capsys, spoil):
    cold = curation_outputs(capsys)
    (name,) = cache_files(home)
    spoil(home / "scbench" / name)
    assert curation_outputs(capsys) == cold
    assert curation_outputs(capsys) == cold


def test_a_cache_that_cannot_be_written_changes_no_output(home, capsys, monkeypatch):
    cold = curation_outputs(capsys)
    blocked = home / "file"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))  # no directory can be made in it
    assert curation_outputs(capsys) == cold
    assert blocked.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR), "--tools",
     "Slither", "--out", "{out}"],
    ["score", "--method", "ewm"]], ids=["help", "run", "score"])
def test_commands_that_derive_no_field_make_no_cache(home, tmp_path, capsys, argv):
    argv = [arg.format(out=tmp_path / "records.jsonl") for arg in argv]
    try:
        assert main(argv) == 0
    except SystemExit as exc:  # --help
        assert exc.code == 0
    assert not (home / "scbench").exists()
    assert main(CURATION[0]) == 0
    assert (home / "scbench").is_dir()


def test_a_cold_campaign_scans_each_contract_once(home, scans, tmp_path, capsys):
    """The commands of a campaign that read the shipped corpus, in campaign
    order on an empty cache: the first scans every contract for all four
    fields, and the others read them from the cache."""
    records = str(tmp_path / "records.jsonl")
    assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                 "--out", records]) == 0
    assert len(scans) == 0
    campaign = ["--records", records, "--corpus", str(LABELLED_DIR)]
    for argv in (*CURATION, ["metrics", *campaign],
                 ["report", *campaign, "--matrix", str(pairwise_path("a1")), "--timeseries",
                  "--out-dir", str(tmp_path / "bundle")]):
        assert main(argv) == 0, argv
    assert len(scans) == 389
