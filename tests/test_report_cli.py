import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from datetime import datetime, timezone

import pytest

from scbench import corpus as corpus_mod
from scbench.adapters import AdapterConfig
from scbench.cli import build_parser, main
from scbench.corpus import ContractCase
from scbench.errors import MissingMetadata, ScbenchError
from scbench.mcdm import load_indicators_csv
from scbench.reference import pairwise_path
from scbench.report import distribution_table, metrics_grid, time_series, to_csv, to_markdown
from scbench.records import ScanRecord, read_records, write_records
from scbench.tables import stats_table
from scbench.taxonomy import Registry, ToolDescriptor, VersionId, default_taxonomy

from .conftest import (LABELLED_DIR, LISTING_FIXTURE, REPLAY_DIR, REPO_ROOT, deny_listing,
                       scored)

PERFBENCH_REGISTRY = REPO_ROOT / "perfbench" / "analyzers" / "registry.json"


def make_tool(name, capabilities):
    return ToolDescriptor(
        name=name, methods=frozenset({"SA"}),
        capabilities=frozenset(capabilities),
        max_solidity=VersionId(8), adapter=AdapterConfig(),
    )


def labelled_case(idx, classes=()):
    return ContractCase(
        id=f"c{idx}",
        source="pragma solidity ^0.5.0;\ncontract C {}\n",
        expected={c: frozenset({2}) for c in classes},
    )


def dated(year, month, day, value_ether=None):
    """A metadata entry: creation time (UTC) and transaction value in wei."""
    return (datetime(year, month, day, tzinfo=timezone.utc),
            None if value_ether is None else value_ether * 10**18)


def distribution(registry, corpus, records):
    """The distribution rows of a scored campaign, by (tool, class)."""
    header, rows = distribution_table(registry, scored(records, registry, corpus))
    return {(row[0], row[1]): dict(zip(header[2:], row[2:])) for row in rows}


class TestClassDistribution:
    def test_counts_flagged_contracts(self):
        registry = Registry((make_tool("T", ("V2",)),))
        corpus = [labelled_case(i, ("V2",)) for i in range(3)] + [labelled_case(3)]
        rows = distribution(registry, corpus, [
            ScanRecord("T", f"c{i}", "ok", 1, {"V2": frozenset({2})})
            for i in range(3)
        ] + [ScanRecord("T", "c3", "ok", 1)])
        assert rows[("T", "V2")] == {"Count": 3, "Incapable": ""}
        # a class the tool cannot detect reads 0 and is marked incapable
        assert rows[("T", "V1")] == {"Count": 0, "Incapable": "yes"}
        assert len(rows) == 10

    def test_incapable_classes_render_zero_with_flag(self):
        # T flags V1, which it does not support: no row counts the finding,
        # so the records are refused rather than rendered
        registry = Registry((make_tool("T", ("V2",)),))
        corpus = [labelled_case(0, ("V1",)), labelled_case(1, ("V2",))]
        with pytest.raises(ScbenchError) as err:
            distribution(registry, corpus, [
                ScanRecord("T", "c0", "ok", 1, {"V1": frozenset({2})}),
                ScanRecord("T", "c1", "ok", 1, {"V2": frozenset({2})})])
        assert str(err.value) == "record for (T, c0) flags 'V1', which T does not detect"

    def test_empty_records_all_zero(self):
        # records with no finding, and a scan that did not end ok
        registry = Registry((make_tool("T", ("V1",)),))
        corpus = [labelled_case(0, ("V1",)), labelled_case(1)]
        rows = distribution(registry, corpus, [ScanRecord("T", "c0", "ok", 1),
                                               ScanRecord("T", "c1", "timeout", 9)])
        assert all(r["Count"] == 0 for r in rows.values())


def series(corpus, metadata, records, **kwargs):
    """The time-series rows over ``metadata`` of a campaign scored over
    ``corpus``, every recorded tool detecting each class the corpus holds."""
    classes = {cid for case in corpus for cid in case.expected}
    registry = Registry(tuple(make_tool(t, classes) for t in
                              dict.fromkeys(rec.tool for rec in records)))
    header, rows = time_series(scored(records, registry, corpus), metadata, **kwargs)
    assert header == ["Class", "Period", "Count", "ValueWei"]
    return rows


class TestTimeSeries:
    def test_same_quarter_counts_together(self):
        corpus = [labelled_case(0, ("V1",)), labelled_case(1, ("V6",))]
        metadata = {"c0": dated(2020, 1, 10, 10), "c1": dated(2020, 2, 20, 5)}
        records = [
            ScanRecord("T", "c0", "ok", 1, {"V1": frozenset({2})}),
            ScanRecord("T", "c1", "ok", 1, {"V1": frozenset({2}), "V6": frozenset({2})}),
        ]
        assert series(corpus, metadata, records) == [["V1", "2020Q1", 2, 15 * 10**18],
                                                     ["V6", "2020Q1", 1, 5 * 10**18]]

    def test_missing_timestamp_is_reported(self):
        # c0's entry has no timestamp, and c1 has no entry
        corpus = [labelled_case(0, ("V1",)), labelled_case(1, ("V6",))]
        records = [ScanRecord("T", "c0", "ok", 1, {"V1": frozenset({2})}),
                   ScanRecord("T", "c1", "ok", 1, {"V6": frozenset({2})})]
        with pytest.raises(MissingMetadata) as err:
            series(corpus, {"c0": (None, 5)}, records)
        assert err.value.contract_ids == ["c0", "c1"]

    def test_union_over_selected_tools(self):
        corpus = [labelled_case(0, ("V1",)), labelled_case(1, ("V6",))]
        metadata = {"c0": dated(2021, 5, 1, 1), "c1": dated(2021, 8, 1, 1)}
        records = [
            ScanRecord("A", "c0", "ok", 1, {"V1": frozenset({2})}),
            ScanRecord("A", "c1", "ok", 1),
            ScanRecord("B", "c0", "ok", 1, {"V1": frozenset({2})}),
            ScanRecord("B", "c1", "ok", 1, {"V6": frozenset({2})}),
        ]
        union = [["V1", "2021Q2", 1, 10**18], ["V6", "2021Q3", 1, 10**18]]
        assert series(corpus, metadata, records) == union  # distinct contracts, not hits
        assert series(corpus, metadata, records, tools=["A", "B"]) == union
        assert series(corpus, metadata, records, tools=["A"]) == union[:1]
        with pytest.raises(ScbenchError) as err:
            series(corpus, metadata, records, tools=["A", "NoSuch"])
        assert str(err.value) == "time series tool 'NoSuch' is not a scored tool (scored: A, B)"

    def test_bucket_sums_equal_total_flagged(self):
        corpus = [labelled_case(i, ("V6",)) for i in range(7)]
        metadata = {f"c{i}": dated(2019 + i % 3, 3, 1, 1) for i in range(7)}
        records = [
            ScanRecord("T", f"c{i}", "ok", 1, {"V6": frozenset({2})})
            for i in range(7)
        ]
        rows = series(corpus, metadata, records, bucket="year")
        assert [row[:3] for row in rows] == [["V6", "2019", 3], ["V6", "2020", 2],
                                             ["V6", "2021", 2]]
        assert sum(row[2] for row in rows) == 7


class TestRendering:
    def test_csv_and_markdown_shapes(self):
        header = ["A", "B"]
        rows = [[1, "x"], [2, "y"]]
        assert to_csv(header, rows) == "A,B\n1,x\n2,y\n"
        md = to_markdown(header, rows)
        assert md.splitlines()[0] == "| A | B |"
        assert "| 1 | x |" in md

    def test_stats_table_shape(self, labelled_corpus):
        from scbench.corpus import stats

        header, rows = stats_table(stats(labelled_corpus))
        assert header == ["Type", "Number", "LoC"]
        assert rows[-1][0] == "Total" and rows[-1][1] == 389
        assert rows[-2][0] == "Safe contracts" and rows[-2][1] == 17

    def test_f1_without_precision_or_recall_is_a_dash(self):
        # V2's one vulnerable case timed out and the safe case is a clean
        # ok: the V2 cell has neither precision nor recall, so no F1
        registry = Registry((make_tool("T", ("V1", "V2")),))
        corpus = [labelled_case(0, ("V1",)), labelled_case(1, ("V2",)),
                  labelled_case(2)]
        records = [ScanRecord("T", "c0", "ok", 1, {"V1": frozenset({2})}),
                   ScanRecord("T", "c1", "timeout", 9),
                   ScanRecord("T", "c2", "ok", 1)]
        scores = scored(records, registry, corpus)
        header, rows = metrics_grid(scores)
        grid = {row[1]: dict(zip(header, row)) for row in rows}
        v2 = default_taxonomy().classes[1].name
        assert [grid[m][v2] for m in ("Precision", "Recall", "F1-score")] == ["-"] * 3
        assert grid["F1-score"]["Average"] == 1.0
        assert scores["T"].functional == 0.5


# ``scbench`` modules beside ``cli`` and ``errors`` that a command loads
CORPUS_LAYERS = {"corpus", "corpus.lexer", "corpus.cache", "taxonomy", "tables"}
SCORING_LAYERS = {"mcdm", "metrics", "reference", "report"}

_LIST_LAYERS = (
    "import sys\n"
    "from scbench import cli\n"
    "try:\n"
    "    rc = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:  # --help\n"
    "    rc = exc.code\n"
    "modules = list(sys.modules)  # before this script's own ``json``\n"
    "import json\n"
    "print(json.dumps([rc, modules]))\n"
)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Paths for the import-set tests: a replay campaign of two tools, its
    metrics indicators, and where a report bundle and a run may go."""
    root = tmp_path_factory.mktemp("campaign")
    records = root / "records.jsonl"
    assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                 "--tools", "Slither,Maian", "--out", str(records)]) == 0
    assert main(["metrics", "--records", str(records), "--corpus", str(LABELLED_DIR),
                 "--out-dir", str(root / "metrics")]) == 0
    return {"records": records, "indicators": root / "metrics" / "indicators.csv",
            "bundle": root / "bundle", "out": root / "run.jsonl"}


def src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this ``src``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def modules_loaded(argv, paths, env=None) -> set[str]:
    """Every module in ``sys.modules`` after ``cli.main(argv)`` ran in a
    fresh interpreter, with ``env`` added to its environment; the command
    must succeed."""
    argv = [arg.format(**paths) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", _LIST_LAYERS, *argv],
                          env=dict(src_env(), **(env or {})),
                          capture_output=True, text=True, timeout=120)
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, (argv, proc.stderr)
    return set(modules)


def layers_loaded(argv, paths) -> set[str]:
    """The ``scbench`` modules that ``cli.main(argv)`` loads in a fresh
    interpreter, less the code-free ``data`` package."""
    return {name[len("scbench."):] for name in modules_loaded(argv, paths)
            if name.startswith("scbench.")} - {"data"}


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """Every module in ``sys.modules`` of a fresh interpreter that imports
    nothing."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    return set(proc.stdout.split())


# every command, for the checks of what it leaves out of ``sys.modules``
COMMANDS = {
    "help": ["--help"],
    "stats": ["corpus", "stats", str(LABELLED_DIR)],
    "dedup": ["corpus", "dedup", "--pragma", "--list-ids", str(LABELLED_DIR)],
    "validate": ["corpus", "validate", str(LABELLED_DIR)],
    "run": ["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
            "--tools", "Slither", "--out", "{out}"],
    "metrics": ["metrics", "--records", "{records}", "--corpus", str(LABELLED_DIR)],
    "report": ["report", "--records", "{records}", "--corpus", str(LABELLED_DIR),
               "--matrix", str(pairwise_path("a1")), "--timeseries",
               "--out-dir", "{bundle}"],
    "ewm": ["score", "--method", "ewm"],
    "ahp": ["score", "--method", "ahp", "--matrix", str(pairwise_path("a2"))],
}
# the commands that scan the corpus they read, when the scan cache misses
SCANNING = ("stats", "dedup", "validate", "metrics", "report")


# each command that reads no metadata, over a corpus ``{corpus}``
METADATA_FREE = {
    "stats": ["corpus", "stats", "{corpus}"],
    "dedup": ["corpus", "dedup", "--pragma", "--list-ids", "{corpus}"],
    "validate": ["corpus", "validate", "{corpus}"],
    "run": ["run", "--corpus", "{corpus}", "--replay", str(REPLAY_DIR), "--tools", "Slither",
            "--out", "{out}"],
    "metrics": ["metrics", "--records", "{records}", "--corpus", "{corpus}",
                "--out-dir", "{out}"],
    "report": ["report", "--records", "{records}", "--corpus", "{corpus}",
               "--matrix", str(pairwise_path("a1")), "--out-dir", "{out}"],
}


def command_outcome(capsys, argv, paths, corpus):
    """The exit code, standard output and error of ``main(argv)`` over
    ``corpus``, and the bytes it wrote to ``paths["out"]``: a file, or a
    directory's files by name."""
    out = paths["out"]
    capsys.readouterr()
    rc = main([arg.format(corpus=corpus, **paths) for arg in argv])
    stdout, stderr = capsys.readouterr()
    written = ({p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir()
               else out.read_bytes() if out.exists() else None)
    return rc, stdout, stderr, written


class TestCli:
    def test_corpus_stats_on_empty_dir(self, tmp_path, capsys):
        assert main(["corpus", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Total,0,0" in out

    def test_corpus_stats_shipped(self, capsys):
        assert main(["corpus", "stats", str(LABELLED_DIR)]) == 0
        out = capsys.readouterr().out
        assert "Total,389,"

    def test_corpus_validate_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "reentrancy"
        bad.mkdir()
        (bad / "x.sol").write_text("contract C {}\n")  # no pragma, no marker
        assert main(["corpus", "validate", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["stats", "dedup", "run", "metrics", "report"])
    def test_undecodable_contract_names_its_file(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        (corpus / "reentrancy").mkdir(parents=True)
        (corpus / "reentrancy" / "a.sol").write_bytes(
            b"pragma solidity ^0.5.0;\n// caf\xff\ncontract C {}\n")
        records = tmp_path / "records.jsonl"
        records.write_text("")
        argv = {
            "stats": ["corpus", "stats", str(corpus)],
            "dedup": ["corpus", "dedup", str(corpus)],
            "run": ["run", "--corpus", str(corpus), "--replay", str(REPLAY_DIR),
                    "--tools", "Slither", "--out", str(tmp_path / "out.jsonl")],
            "metrics": ["metrics", "--records", str(records), "--corpus", str(corpus)],
            "report": ["report", "--records", str(records), "--corpus", str(corpus),
                       "--out-dir", str(tmp_path / "bundle")],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: reentrancy/a.sol: line 2: not UTF-8: invalid start byte (byte 0xff)\n")

    def test_validate_lists_an_undecodable_contract(self, tmp_path, capsys):
        (tmp_path / "safe").mkdir()
        (tmp_path / "safe" / "a.sol").write_bytes(b"\xffpragma solidity ^0.5.0;\n")
        (tmp_path / "safe" / "b.sol").write_text("pragma solidity ^0.5.0;\n")
        assert main(["corpus", "validate", str(tmp_path)]) == 1
        assert capsys.readouterr().out == (
            "safe/a.sol: line 1: not UTF-8: invalid start byte (byte 0xff)\n"
            "1 problem(s) found\n")

    def test_validate_of_a_missing_directory_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["corpus", "validate", str(missing)]) == 1
        assert capsys.readouterr().err == f"error: {missing} is not a directory\n"

    def test_mismatch_is_warned_before_the_label_error_of_its_contract(self, tmp_path,
                                                                        capsys):
        (tmp_path / "reentrancy").mkdir()
        (tmp_path / "reentrancy" / "a.sol").write_text(
            "pragma solidity ^0.5.0;\n// <yes> <report> REENTRANCY\n"
            "// @vulnerable_at_lines: 3 5\n")
        (tmp_path / "reentrancy" / "b.sol").write_text(
            "pragma solidity ^0.5.0;\n// <yes> <report> REENTRANCY\nf();\n")
        error = ("reentrancy/a.sol: line 3: @vulnerable_at_lines entry '3 5' "
                 "is not a line number")
        for _ in range(2):  # cold, then with b.sol in the cache that validate writes
            assert main(["corpus", "stats", str(tmp_path)]) == 1
            assert capsys.readouterr() == ("", (
                "warning: reentrancy/a.sol: marker 'REENTRANCY' on line 2 has no "
                f"following statement\nerror: {error}\n"))
            assert main(["corpus", "validate", str(tmp_path)]) == 1
            assert capsys.readouterr() == (f"{error}\n1 problem(s) found\n", "")

    def test_flat_corpus_beside_a_directory_that_cannot_be_listed(self, tmp_path,
                                                                  capsys, monkeypatch):
        (tmp_path / "a.sol").write_text("pragma solidity ^0.5.0;\ncontract A {}\n")
        (tmp_path / "lost+found").mkdir()
        deny_listing(monkeypatch, tmp_path / "lost+found")
        assert main(["corpus", "stats", str(tmp_path)]) == 0
        assert "Total,1," in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["stats", "metrics", "report", "run", "dedup"])
    def test_unknown_marker_names_file_and_line(self, tmp_path, capsys, command):
        # every command that scans the corpus parses its labels: ``run``,
        # which scans nothing, gives what it gives with a known marker
        def corpus(name, marker):
            (tmp_path / name / "reentrancy").mkdir(parents=True)
            (tmp_path / name / "reentrancy" / "a.sol").write_text(
                "pragma solidity ^0.5.0;\ncontract C {\n"
                f"    // <yes> <report> {marker}\n    f();\n}}\n"
            )
            return str(tmp_path / name)

        bad, good = corpus("bad", "FRONTRUN"), corpus("good", "REENTRANCY")
        replay = tmp_path / "replay"
        replay.mkdir()
        (replay / "Slither.json").write_text('{"reentrancy/a": {"status": "ok"}}')
        records = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", good, "--replay", str(replay), "--tools", "Slither",
                     "--out", str(records)]) == 0
        argv = {
            "stats": ["corpus", "stats", "{}"],
            "metrics": ["metrics", "--records", str(records), "--corpus", "{}"],
            "report": ["report", "--records", str(records), "--corpus", "{}",
                       "--out-dir", str(tmp_path / "bundle")],
            "run": ["run", "--corpus", "{}", "--replay", str(replay), "--tools", "Slither",
                    "--out", str(records)],
            "dedup": ["corpus", "dedup", "{}", "--list-ids"],
        }[command]

        def outcome(root):
            capsys.readouterr()
            rc = main([arg.format(root) for arg in argv])
            out, err = capsys.readouterr()
            return rc, out, err, records.read_bytes()

        if command == "run":
            assert outcome(bad) == outcome(good)
            assert outcome(bad)[0] == 0
        else:
            assert outcome(bad)[:3] == (1, "", "error: reentrancy/a.sol: line 3: "
                                               "marker 'FRONTRUN' matches no class alias\n")

    @pytest.mark.parametrize("command", ["stats", "validate"])
    def test_header_numbers_are_stripped_or_named(self, tmp_path, capsys, command):
        def outcome(header):
            root = tmp_path / str(len(list(tmp_path.iterdir())))
            (root / "reentrancy").mkdir(parents=True)
            (root / "reentrancy" / "a.sol").write_text(
                "pragma solidity ^0.5.0;\ncontract C {\n    // <yes> <report> REENTRANCY\n"
                f"    f();\n}}\n// @vulnerable_at_lines: {header}\n")
            rc = main(["corpus", command, str(root)])
            return (rc, *capsys.readouterr())

        # a number that runs into "\x1c" reads as the number alone
        assert outcome("4\x1c") == outcome("4")
        assert outcome("4")[0] == 0
        problem = "reentrancy/a.sol: line 6: @vulnerable_at_lines entry '3 5' is not a line number"
        assert outcome("3 5") == ((1, "", f"error: {problem}\n") if command == "stats"
                                  else (1, f"{problem}\n1 problem(s) found\n", ""))

    def test_break_in_a_comment_above_a_marker_keeps_its_label(self, tmp_path, capsys):
        (tmp_path / "reentrancy").mkdir()
        (tmp_path / "reentrancy" / "a.sol").write_text(
            "pragma solidity ^0.5.0;\n// a\x1cb\n// <yes> <report> REENTRANCY\nf();\n")
        assert main(["corpus", "stats", str(tmp_path)]) == 0
        assert "Reentrancy,1,2\n" in capsys.readouterr().out
        assert main(["corpus", "validate", str(tmp_path)]) == 0
        assert capsys.readouterr().out == "0 problem(s) found\n"

    def test_corpus_dedup(self, tmp_path, capsys):
        d = tmp_path / "flat"
        d.mkdir()
        (d / "a.sol").write_text("pragma solidity ^0.5.0;\ncontract A {}\n")
        (d / "b.sol").write_text("pragma solidity ^0.5.0;\ncontract A {} // dup\n")
        assert main(["corpus", "dedup", str(d)]) == 0
        assert "1,1" in capsys.readouterr().out

    def test_run_and_metrics_round_trip(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert main([
            "run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
            "--jobs", "4", "--tools", "Slither,Maian", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 * 389
        capsys.readouterr()

        bundle = tmp_path / "bundle"
        assert main([
            "metrics", "--records", str(out), "--corpus", str(LABELLED_DIR),
            "--out-dir", str(bundle),
        ]) == 0
        manifest = json.loads((bundle / "manifest.json").read_text())
        names = {t["name"] for t in manifest["tables"]}
        assert {"classification", "timing", "capability", "indicators"} <= names

    def test_metrics_restricts_to_recorded_tools(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        main([
            "run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
            "--tools", "Slither,Maian", "--out", str(out),
        ])
        capsys.readouterr()
        assert main([
            "metrics", "--records", str(out), "--corpus", str(LABELLED_DIR),
        ]) == 0
        out_text = capsys.readouterr().out
        assert "Slither" in out_text and "Maian" in out_text
        assert "Mythril" not in out_text

    def test_truncated_records_name_file_and_line(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert main([
            "run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
            "--tools", "Slither", "--out", str(out),
        ]) == 0
        out.write_bytes(out.read_bytes()[:-40])  # cut into the last line
        capsys.readouterr()
        assert main([
            "metrics", "--records", str(out), "--corpus", str(LABELLED_DIR),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}:389: ")

    @pytest.mark.parametrize("argv, loaded", [
        (["--help"], set()),
        (["corpus", "stats", str(LABELLED_DIR)], CORPUS_LAYERS),
        (["corpus", "dedup", "--pragma", str(LABELLED_DIR)], CORPUS_LAYERS),
        (["corpus", "validate", str(LABELLED_DIR)], CORPUS_LAYERS),
        (["score", "--method", "ahp", "--matrix", str(pairwise_path("a1")),
          "--indicators", "{indicators}"], {"mcdm", "tables"}),
    ], ids=["help", "stats", "dedup", "validate", "score"])
    def test_command_loads_only_its_layers(self, campaign, argv, loaded):
        assert layers_loaded(argv, campaign) == {"cli", "errors", *loaded}

    @pytest.mark.parametrize("argv, absent", [
        # argparse's help formatter still loads ``textwrap``
        (COMMANDS["help"], {"logging", "traceback", "string", "json"}),
        # no corpus layer logs or reads a date
        (COMMANDS["stats"], {"logging", "datetime"}),
        (COMMANDS["dedup"], {"logging", "datetime"}),
        (COMMANDS["validate"], {"logging", "datetime"}),
        # a command that logs nothing loads no ``logging``
        (["metrics", "--records", "{records}", "--corpus", str(LABELLED_DIR)],
         {"runner", "logging", "traceback", "datetime"}),
        (["report", "--records", "{records}", "--corpus", str(LABELLED_DIR),
          "--timeseries", "--out-dir", "{bundle}"], {"runner", "logging", "traceback"}),
        # a load that scans nothing reads no scan cache
        (["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
          "--tools", "Slither", "--out", "{out}"],
         {"tables", *SCORING_LAYERS, "corpus.cache", "logging", "traceback"}),
        # the registry loads ``adapters``, which reads no record here
        (COMMANDS["ewm"], {"corpus", "records", "runner", "logging", "traceback"}),
        (COMMANDS["ahp"], {"corpus", "records", "runner", "logging", "traceback"}),
    ], ids=["help", "stats", "dedup", "validate", "metrics", "report", "run", "ewm", "ahp"])
    def test_command_skips_layers_it_does_not_run(self, campaign, argv, absent):
        # ``absent`` names ``scbench`` layers and other modules
        loaded = modules_loaded(argv, campaign)
        assert {m for m in absent if m in loaded or f"scbench.{m}" in loaded} == set()

    def test_no_command_imports_numpy(self, tmp_path):
        code = (
            "import sys\n"
            "from scbench import cli, mcdm, metrics, reference, report\n"
            "try:\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:  # --help\n"
            "    rc = exc.code\n"
            "assert rc == 0, rc\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        env = src_env()
        records = str(tmp_path / "records.jsonl")
        campaign = ["--records", records, "--corpus", str(LABELLED_DIR)]
        run = ["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
               "--jobs", "2", "--out", records]
        stats = ["corpus", "stats", str(LABELLED_DIR)]
        dedup = ["corpus", "dedup", "--pragma", "--list-ids", str(LABELLED_DIR)]
        metrics = ["metrics", *campaign]
        report = ["report", *campaign, "--matrix", str(pairwise_path("a1")),
                  "--timeseries", "--out-dir", str(tmp_path / "bundle")]
        ewm = ["score", "--method", "ewm"]
        ahp = ["score", "--method", "ahp", "--matrix", str(pairwise_path("a2"))]
        for argv in (run, ["--help"], stats, dedup, metrics, report, ewm, ahp):
            proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, (argv[0], proc.stderr)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_no_command_loads_dataclasses(self, campaign, command):
        # their import pulls in inspect, ast and dis; the value types need none
        loaded = modules_loaded(COMMANDS[command], campaign)
        assert loaded & {"dataclasses", "inspect"} == set()
        if command in ("metrics", "ewm"):  # only a judgment matrix needs fractions
            assert loaded & {"fractions", "decimal"} == set()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_command_that_scans_no_contract_loads_no_hashlib(self, campaign, bare_modules,
                                                               command, tmp_path):
        # only a scan computes a checksum: a command that reads no corpus,
        # ``run``, and a corpus command on a warm scan cache scan nothing
        assert "hashlib" not in bare_modules
        cache = {"XDG_CACHE_HOME": str(tmp_path)}
        if command in SCANNING:
            modules_loaded(COMMANDS[command], campaign, cache)  # warms the cache
        assert "hashlib" not in modules_loaded(COMMANDS[command], campaign, cache)

    @pytest.mark.parametrize("command", sorted(SCANNING))
    def test_a_cold_scanning_command_loads_hashlib(self, campaign, command, tmp_path):
        loaded = modules_loaded(COMMANDS[command], campaign, {"XDG_CACHE_HOME": str(tmp_path)})
        assert "hashlib" in loaded

    def test_warm_dedup_loads_no_hashlib(self, campaign, tmp_path):
        cache = {"XDG_CACHE_HOME": str(tmp_path)}
        assert "hashlib" in modules_loaded(COMMANDS["dedup"], campaign, cache)
        assert "hashlib" not in modules_loaded(COMMANDS["dedup"], campaign, cache)

    def test_closed_stdout_ends_quietly(self):
        argv = [sys.executable, "-m", "scbench.cli", "corpus", "dedup", str(LABELLED_DIR),
                "--list-ids"]
        with subprocess.Popen(argv, env=src_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            proc.stdout.close()  # the reader leaves before the first line
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_replay_misses_fail_the_run(self, tmp_path, capsys):
        # a flat copy renames every contract, so no fixture entry matches
        flat = tmp_path / "flat"
        flat.mkdir()
        for src in (LABELLED_DIR / "reentrancy").glob("*.sol"):
            shutil.copy(src, flat / src.name)
        n = len(list(flat.glob("*.sol")))
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(flat), "--replay", str(REPLAY_DIR),
                     "--tools", "Slither,Maian", "--out", str(out)]) == 1
        first = min(p.stem for p in flat.glob("*.sol"))
        captured = capsys.readouterr()
        assert captured.err == "".join(
            f"error: replay fixture for {tool} does not cover {n} of {n} "
            f"contract(s) (first: {first})\n" for tool in ("Slither", "Maian"))
        statuses = [json.loads(line)["status"] for line in out.read_text().splitlines()]
        assert statuses == ["harness_error"] * 2 * n
        assert "statuses: harness_error" in captured.out

    @pytest.mark.parametrize("content, detail", [
        (None, "No such file or directory"),
        ("dir", "Is a directory"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{"contract": ', "Expecting value: line 1 column 14 (char 13)"),
        (b"[]", "top level is a list, not an object"),
    ], ids=["missing", "directory", "not-utf8", "not-json", "not-an-object"])
    def test_unreadable_fixture_fails_before_any_task(self, tmp_path, capsys, content,
                                                      detail):
        replay = tmp_path / "replay"
        replay.mkdir()
        fixture = replay / "A.json"
        if content == "dir":
            fixture.mkdir()
        elif content is not None:
            fixture.write_bytes(content)
        assert self._mixed_run(tmp_path, capsys, ["--replay", str(replay)]) == (
            f"error: cannot read replay fixture {fixture}: {detail}\n")

    def test_replay_tool_without_a_fixture_fails_before_any_task(self, tmp_path, capsys):
        assert self._mixed_run(tmp_path, capsys, []) == (
            "error: replay adapter for A has no fixture and no --replay dir was given\n")

    @staticmethod
    def _mixed_run(tmp_path, capsys, options) -> str:
        """The standard error of a failed ``run`` of a command tool, then a
        replay tool A, over one contract; it must write no records and
        start no command tool."""
        started = tmp_path / "started"  # the command tool's first task makes it
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [
            {"name": "Touch", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "json", "command": f"touch {started} {{input}}"}},
            {"name": "A", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "replay"}}]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        shutil.copy(LISTING_FIXTURE, corpus / "a.sol")
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(corpus), "--registry", str(registry), *options,
                     "--out", str(out)]) == 1
        assert not out.exists() and not started.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_raw_dir_that_cannot_be_made_fails_before_any_task(self, tmp_path, capsys):
        started = tmp_path / "started"
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [
            {"name": "Touch", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "json", "command": f"touch {started} {{input}}"}}]}))
        afile = tmp_path / "afile"
        afile.write_text("")
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--registry", str(registry),
                     "--raw-dir", str(afile / "raw"), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot write raw output {afile / 'raw' / 'Touch'}: Not a directory\n")
        assert not out.exists() and not started.exists()

    def test_score_matrix_that_is_not_a_file(self, capsys):
        assert main(["score", "--method", "ahp", "--matrix", "a1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot read judgment matrix a1: "
                                "No such file or directory\n")

    def test_report_matrix_that_is_not_a_file(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--tools", "Slither,Maian", "--out", str(records)]) == 0
        capsys.readouterr()
        bundle = tmp_path / "bundle"
        assert main(["report", "--records", str(records), "--corpus", str(LABELLED_DIR),
                     "--matrix", "a1", "--out-dir", str(bundle)]) == 1
        assert capsys.readouterr().err == ("error: cannot read judgment matrix a1: "
                                           "No such file or directory\n")
        assert not bundle.exists()

    def test_report_matrix_checked_before_the_records(self, tmp_path, capsys):
        assert main(["report", "--records", str(tmp_path / "absent.jsonl"),
                     "--corpus", str(LABELLED_DIR), "--matrix", "a1",
                     "--out-dir", str(tmp_path / "bundle")]) == 1
        assert capsys.readouterr().err == ("error: cannot read judgment matrix a1: "
                                           "No such file or directory\n")

    @pytest.mark.parametrize("command", ["score", "report"])
    @pytest.mark.parametrize("text, detail", [
        ("4\n1 x 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n",
         "2: row '1 x 1 1' has an entry that is not a rational number"),
        ("# a zero denominator\n4\n1 1 1 1\n1/0 1 1 1\n1 1 1 1\n1 1 1 1\n",
         "4: row '1/0 1 1 1' has an entry that is not a rational number"),
        ("4\n1 1 1 1\n\n1/2 1\n1 1 1 1\n1 1 1 1\n", "4: row '1/2 1' does not have 4 entries"),
    ], ids=["token", "zero-denominator", "short-row"])
    def test_matrix_fault_names_the_file_and_line(self, tmp_path, capsys, command, text,
                                                  detail):
        matrix = tmp_path / "judgments.txt"
        matrix.write_text(text)
        args = {"score": ["--method", "ahp"],
                "report": ["--records", str(tmp_path / "absent.jsonl"), "--corpus",
                           str(LABELLED_DIR), "--out-dir", str(tmp_path / "bundle")]}
        assert main([command, *args[command], "--matrix", str(matrix)]) == 1
        assert capsys.readouterr() == ("", f"error: {matrix}:{detail}\n")

    def test_inconsistent_matrix_warns_in_score_and_report(self, tmp_path, capsys):
        matrix = tmp_path / "judgments.txt"
        matrix.write_text("4\n1 9 1/9 9\n1/9 1 9 1/9\n9 1/9 1 9\n1/9 9 1/9 1\n")
        warning = ("warning: judgment matrix fails the consistency check "
                   "(CR=3.612 > 0.1)\n")
        assert main(["score", "--method", "ahp", "--matrix", str(matrix)]) == 0
        assert capsys.readouterr().err == warning
        records = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--tools", "Slither,Maian", "--out", str(records)]) == 0
        capsys.readouterr()
        assert main(["report", "--records", str(records), "--corpus", str(LABELLED_DIR),
                     "--matrix", str(matrix), "--out-dir", str(tmp_path / "bundle")]) == 0
        assert capsys.readouterr().err == warning

    def test_absent_records_file_is_an_error(self, tmp_path, capsys):
        records = tmp_path / "absent.jsonl"
        assert main(["metrics", "--records", str(records),
                     "--corpus", str(LABELLED_DIR)]) == 1
        assert capsys.readouterr().err == (f"error: cannot read records {records}: "
                                           "No such file or directory\n")

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank"])
    @pytest.mark.parametrize("command", ["metrics", "report"])
    def test_records_file_that_holds_no_record_is_an_error(self, tmp_path, capsys, command,
                                                           text):
        records = tmp_path / "records.jsonl"
        records.write_text(text)
        bundle = tmp_path / "bundle"
        argv = [command, "--records", str(records), "--corpus", str(LABELLED_DIR)]
        assert main(argv + (["--out-dir", str(bundle)] if command == "report" else [])) == 1
        assert capsys.readouterr() == ("", f"error: {records}: holds no record\n")
        assert not bundle.exists()

    def test_malformed_replay_entries_fail_the_run(self, tmp_path, capsys):
        replay = tmp_path / "replay"
        replay.mkdir()
        clean = json.loads((REPLAY_DIR / "Slither.json").read_text())
        first, second = sorted(clean)[:2]
        bad = dict(clean)
        bad[first] = {"status": "ok", "duration_ms": 5, "findings": [{"lines": [3]}]}
        bad[second] = {"status": "ok", "duration_ms": "soon"}
        (replay / "Slither.json").write_text(json.dumps(bad))
        shutil.copy(REPLAY_DIR / "Maian.json", replay / "Maian.json")
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(replay),
                     "--tools", "Slither,Maian", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: replay fixture {replay / 'Slither.json'}: "
                                f"entry {first}: missing field 'class'\n")
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--tools", "Slither,Maian", "--out", str(tmp_path / "clean.jsonl")]) == 0
        got = {(r["tool"], r["contract"]): r for r in map(json.loads, out.read_text().splitlines())}
        want = {(r["tool"], r["contract"]): r
                for r in map(json.loads, (tmp_path / "clean.jsonl").read_text().splitlines())}
        for contract in (first, second):
            assert got.pop(("Slither", contract))["status"] == "harness_error"
            del want[("Slither", contract)]
        assert got == want

    def test_json_tool_line_that_is_not_an_integer_is_a_tool_error(self, tmp_path, capsys):
        # two findings of one class whose lines once merged into {"1", "2", 3}
        script = tmp_path / "tool.py"
        script.write_text("import json\nprint(json.dumps({'findings': ["
                          "{'check': 'r', 'line': '12'}, {'check': 'r', 'line': 3}]}))\n")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [{
            "name": "JsonTool", "capabilities": ["V1"], "max_solidity": "0.8",
            "adapter": {"kind": "json", "command": f"{sys.executable} {script}",
                        "rule_map": {"r": "V1"}}}]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        shutil.copy(sorted((LABELLED_DIR / "reentrancy").glob("*.sol"))[0], corpus / "a.sol")
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(corpus), "--registry", str(registry),
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            f"wrote 1 records to {out} (statuses: tool_error)\n",
            "error: tool JsonTool: none of 1 task(s) ended ok (1 tool_error; first: a)\n")
        assert json.loads(out.read_text())["status"] == "tool_error"

    def test_command_template_that_cannot_be_split_fails_before_any_task(self, tmp_path,
                                                                          capsys):
        started = tmp_path / "started"
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [{
            "name": "Broken", "capabilities": ["V1"], "max_solidity": "0.8",
            "adapter": {"kind": "json",
                        "command": f"sh -c 'touch {started}; unterminated {{input}}"}}]}))
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--registry", str(registry),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: registry {registry}: tool #1: command template ") and \
            err.endswith(" cannot be split: No closing quotation\n")
        assert not out.exists() and not started.exists()

    TEXT_ADAPTER = {"kind": "text", "command": "echo reentrancy line 3 {input}",
                    "rule_map": {"reentrancy": "V1"}}

    @pytest.mark.parametrize("fault, detail", [
        ({"max_solidity": "0.3"}, "version 0.3 predates the supported scale (>= 0.4)"),
        ({"capabilities": "V1"}, "methods and capabilities must be lists"),
        ({"methods": "SA"}, "methods and capabilities must be lists"),
        ({"name": 5}, "tool name 5 is not a string"),
        ({"adapter": {"kind": "replay", "timout": 5}},
         "AdapterConfig.__new__() got an unexpected keyword argument 'timout'"),
        ({"adapter": {**TEXT_ADAPTER, "line_pattern": "("}},
         "line_pattern '(' is not a regex: missing ), unterminated subpattern at position 0"),
        ({"adapter": {**TEXT_ADAPTER, "line_pattern": "e"}},
         "line_pattern 'e' has 0 groups, not 1"),
        ({"adapter": {"kind": "stub"}}, "unknown adapter kind 'stub'"),
        ({"metods": ["XX"]}, "unknown key 'metods'"),
    ], ids=["old-version", "capabilities-string", "methods-string", "name-number",
            "unknown-adapter-key", "pattern-not-a-regex", "pattern-without-group",
            "stub-kind", "unknown-key"])
    def test_malformed_registry_entry_fails_before_any_task(self, tmp_path, capsys, fault,
                                                            detail):
        started = tmp_path / "started"  # the second tool's first task makes it
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [
            {"name": "A", "methods": ["SA"], "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "replay"}, **fault},
            {"name": "Touch", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "json", "command": f"touch {started} {{input}}"}}]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        shutil.copy(LISTING_FIXTURE, corpus / "a.sol")
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(corpus), "--registry", str(registry),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: registry {registry}: tool #1: {detail}\n"
        assert not out.exists() and not started.exists()

    def test_repeated_tool_name_fails_before_any_task(self, tmp_path, capsys):
        entry = json.loads(PERFBENCH_REGISTRY.read_text())["tools"][0]
        assert entry["name"] == "GrepScan"
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [entry, entry]}))
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--registry", str(registry),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: registry {registry}: tool #2: name 'GrepScan' repeats tool #1\n")
        assert not out.exists()

    @pytest.mark.parametrize("verbose", [[], ["-v"]], ids=["quiet", "verbose"])
    def test_first_message_configures_logging(self, tmp_path, verbose):
        # a fresh interpreter, whose root logger has no handler yet
        script = tmp_path / "tool.py"
        script.write_text("print('{\"findings\": [{\"check\": \"nope\"}]}')\n")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [{
            "name": "T", "capabilities": ["V1"], "max_solidity": "0.8",
            "adapter": {"kind": "json", "command": f"{sys.executable} {script} {{input}}"}}]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        shutil.copy(LISTING_FIXTURE, corpus / "a.sol")
        out = tmp_path / "records.jsonl"
        proc = subprocess.run([sys.executable, "-m", "scbench.cli", *verbose, "run",
                               "--corpus", str(corpus), "--registry", str(registry),
                               "--out", str(out)],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        first, *rest = proc.stderr.splitlines()
        assert first == "WARNING scbench.adapters: adapter emitted unmapped rule id 'nope'"
        assert len(rest) == len(verbose)  # the tool's summary, at INFO
        assert all(re.fullmatch(r"INFO scbench\.runner: T: 1 task\(s\), 1 ok, "
                                r"mean \d+\.\d ms", line) for line in rest)

    def test_verbose_run_logs_each_command_tool(self, tmp_path):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [
            {"name": name, "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "json", "command": f"sh -c '{script}' sh {{input}}"}}
            for name, script in (("Echo", "echo {}"), ("Fails", "exit 3"))]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        for name in "ab":
            shutil.copy(LISTING_FIXTURE, corpus / f"{name}.sol")
        results = {}
        for verbose in ([], ["-v"]):
            out = tmp_path / f"records{len(verbose)}.jsonl"
            results[len(verbose)] = subprocess.run(
                [sys.executable, "-m", "scbench.cli", *verbose, "run", "--corpus",
                 str(corpus), "--registry", str(registry), "--out", str(out)],
                env=src_env(), capture_output=True, text=True, timeout=120)
        quiet, verbose = results[0], results[1]
        failed = "error: tool Fails: none of 2 task(s) ended ok (2 tool_error; first: a)\n"
        assert (quiet.returncode, quiet.stderr) == (1, failed)
        assert verbose.returncode == 1 and verbose.stdout == quiet.stdout.replace(
            "records0", "records1")
        logged = verbose.stderr.removesuffix(failed).splitlines()
        assert [line.partition(", mean ")[0] for line in logged] == [
            "INFO scbench.runner: Echo: 2 task(s), 2 ok",
            "INFO scbench.runner: Fails: 2 task(s), 2 tool_error"]
        assert all(line.endswith(" ms") for line in logged)

    @pytest.mark.parametrize("script, timeout, err", [
        ("exit 3", [], "2 tool_error"),
        ("sleep 30", ["--timeout", "0.2"], "2 timeout"),
        ('grep -q OK "$1" || exit 3; echo {}', [], None),
    ], ids=["tool-error", "timeout", "one-ok"])
    def test_a_command_tool_with_no_ok_task_fails_the_run(self, tmp_path, capsys, script,
                                                          timeout, err):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [
            {"name": "T", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "json", "command": f"sh -c '{script}' sh {{input}}"}}]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        (corpus / "a.sol").write_text("pragma solidity ^0.5.0;\n")
        (corpus / "b.sol").write_text("pragma solidity ^0.5.0; // OK\n")
        out = tmp_path / "records.jsonl"
        rc = main(["run", "--corpus", str(corpus), "--registry", str(registry), *timeout,
                   "--out", str(out)])
        assert len(read_records(out)) == 2
        if err is None:  # b.sol ends ok, a.sol in a tool_error
            assert (rc, capsys.readouterr().err) == (0, "")
        else:
            assert (rc, capsys.readouterr().err) == (
                1, f"error: tool T: none of 2 task(s) ended ok ({err}; first: a)\n")

    def test_missing_analyzer_program_fails_the_run(self, tmp_path, capsys):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [
            {"name": "Absent", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "json", "command": "no-such-analyzer-binary {input}"}},
            {"name": "Replay", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "replay"}}]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        for name, path in zip("ab", sorted((LABELLED_DIR / "reentrancy").glob("*.sol"))):
            shutil.copy(path, corpus / f"{name}.sol")
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(corpus), "--registry", str(registry),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: tool Absent: program 'no-such-analyzer-binary' not found\n")
        assert not out.exists()

    def test_corpus_without_a_contract_fails_the_run(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        (corpus / "README.md").write_text("no contract here\n")
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(corpus), "--replay", str(REPLAY_DIR),
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {corpus} holds no contract\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_timeout_that_is_not_positive_seconds_fails_before_any_task(
            self, tmp_path, capsys, value):
        started = tmp_path / "started"
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [{
            "name": "Touch", "capabilities": ["V1"], "max_solidity": "0.8",
            "adapter": {"kind": "json", "command": f"touch {started} {{input}}"}}]}))
        out = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--registry", str(registry),
                     "--timeout", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: timeout {float(value)!r} is not a positive number of seconds\n")
        assert not out.exists() and not started.exists()

    @pytest.mark.parametrize("command", ["run", "metrics", "report"])
    @pytest.mark.parametrize("content, message", [
        (None, "cannot read registry {}: [Errno 2] No such file or directory: '{}'"),
        ('{"tools": [', "cannot read registry {}: Expecting value: line 1 column 12 "
                        "(char 11)"),
        (json.dumps({"tools": [{"name": "T", "max_solidity": "0.8"}]}),
         "registry {}: tool #1: missing 'capabilities'"),
        (json.dumps({"tools": [{"name": "T", "capabilities": ["V1"], "max_solidity": "0.8",
                                "adapter": {"kind": "replay", "timeout": 0}}]}),
         "registry {}: tool #1: adapter timeout 0.0 is not a positive number of seconds"),
    ], ids=["missing-file", "bad-json", "missing-key", "zero-timeout"])
    def test_registry_that_cannot_be_loaded(self, tmp_path, capsys, command, content,
                                            message):
        registry = tmp_path / "registry.json"
        if content is not None:
            registry.write_text(content)
        records = tmp_path / "records.jsonl"
        write_records([ScanRecord("T", "reentrancy/reentrancy_insecure", "ok", 1)], records)
        args = {"run": ["--out", str(tmp_path / "out.jsonl")],
                "metrics": ["--records", str(records)],
                "report": ["--records", str(records), "--out-dir", str(tmp_path / "b")]}
        assert main([command, "--corpus", str(LABELLED_DIR), "--registry", str(registry),
                     *args[command]]) == 1
        assert capsys.readouterr().err == f"error: {message.format(registry, registry)}\n"
        assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "b").exists()

    @pytest.mark.parametrize("out, reason", [
        ("missing/records.jsonl", "No such file or directory"),
        ("a-file/records.jsonl", "Not a directory"),
        ("locked/records.jsonl", "Permission denied"),
        ("a-dir", "Is a directory"),
    ])
    def test_run_into_records_that_cannot_be_made_fails_before_any_task(
            self, tmp_path, capsys, monkeypatch, out, reason):
        from scbench import runner

        def no_campaign(*args, **kwargs):
            raise AssertionError("a scan task ran")

        real_access = os.access
        monkeypatch.setattr(runner, "execute_campaign", no_campaign)
        # root may write anywhere, so the unwritable directory is simulated
        monkeypatch.setattr(os, "access", lambda path, mode: (
            not path.endswith("locked") and real_access(path, mode)))
        (tmp_path / "a-file").write_text("")
        (tmp_path / "locked").mkdir()
        (tmp_path / "a-dir").mkdir()
        out = tmp_path / out
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--tools", "Slither", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write records {out}: {reason}\n"

    def test_records_that_cannot_be_written_are_an_error(self, tmp_path):
        with pytest.raises(ScbenchError) as caught:
            write_records([ScanRecord("Slither", "c", "ok", 1)], tmp_path)
        assert str(caught.value) == f"cannot write records {tmp_path}: Is a directory"

    @pytest.mark.parametrize("content, detail", [
        (None, "cannot read metadata {path}: No such file or directory"),
        ("name,created_at\nc,2020-01-01\n", "{path}:1: no 'id' column"),
        ("id,created_at\nc,notadate\n", "{path}:2: Invalid isoformat string: 'notadate'"),
        ("id,created_at,tx_value_wei\nc,,5\nd,2020-01-01,lots\n",
         "{path}:3: invalid literal for int() with base 10: 'lots'"),
        ("id,created_at\nsafe/a,2018-01-01\nsafe/b,\nsafe/a,2021-06-01\n",
         "{path}:4: id 'safe/a' repeats an earlier row"),
    ], ids=["absent", "no-id", "created_at", "tx_value_wei", "repeated-id"])
    @pytest.mark.parametrize("command", ["stats", "dedup", "run", "metrics", "report"])
    def test_metadata_that_cannot_be_loaded(self, campaign, tmp_path, capsys, command,
                                            content, detail):
        # ``report --timeseries`` names the fault; a command that reads no
        # metadata runs over a corpus whose own sidecar holds the same
        # content as over the shipped corpus
        path = tmp_path / "metadata.csv"
        if content is not None:
            path.write_text(content)
        if command == "report":
            bundle = tmp_path / "bundle"
            assert main(["report", "--records", str(campaign["records"]),
                         "--corpus", str(LABELLED_DIR), "--timeseries",
                         "--metadata", str(path), "--out-dir", str(bundle)]) == 1
            assert capsys.readouterr().err == f"error: {detail.format(path=path)}\n"
            assert not bundle.exists()
            return
        corpus = shutil.copytree(LABELLED_DIR, tmp_path / "corpus")
        (corpus / "metadata.csv").unlink()
        if content is not None:
            shutil.copy(path, corpus / "metadata.csv")
        paths = {**campaign, "out": tmp_path / "out"}
        argv = METADATA_FREE[command]
        assert (command_outcome(capsys, argv, paths, corpus)
                == command_outcome(capsys, argv, paths, LABELLED_DIR))

    @pytest.mark.parametrize("command", sorted(METADATA_FREE))
    def test_commands_without_the_time_series_never_read_the_metadata(
            self, campaign, tmp_path, capsys, monkeypatch, command):
        corpus = shutil.copytree(LABELLED_DIR, tmp_path / "corpus")
        (corpus / "metadata.csv").write_text("id,created_at\nsafe/a,notadate\n")
        paths = {**campaign, "out": tmp_path / "out"}
        argv = METADATA_FREE[command]
        clean = command_outcome(capsys, argv, paths, LABELLED_DIR)

        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(corpus_mod, "load_metadata", unread)
        assert command_outcome(capsys, argv, paths, corpus) == clean

    @pytest.mark.parametrize("command", ["stats", "dedup", "validate", "run", "metrics"])
    def test_metadata_option_is_a_usage_error_where_nothing_reads_it(
            self, campaign, tmp_path, capsys, command):
        paths = {**campaign, "out": tmp_path / "out"}
        argv = [arg.format(corpus=LABELLED_DIR, **paths) for arg in METADATA_FREE[command]]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--metadata", str(LABELLED_DIR / "metadata.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --metadata" in capsys.readouterr().err

    @pytest.mark.parametrize("content, detail", [
        (None, "cannot read indicators {path}: No such file or directory"),
        ("tool,functional,efficiency,compatibility\nA,1,1,1\n",
         "{path}:1: no 'usability' column"),
        ("Tool,Functional,Efficiency,Compatibility,Usability\nA,1,1,1,1\nB,1,high,1,1\n",
         "{path}:3: could not convert string to float: 'high'"),
        ("Tool,Functional,Efficiency,Compatibility,Usability\nA,1,1,1,1\nB,nan,1,1,1\n",
         "{path}:3: functional 'nan' is not a finite number"),
        ("tool,functional,efficiency,compatibility,usability\nA,1,1,1,1\nB,1,1,1,-inf\n",
         "{path}:3: usability '-inf' is not a finite number"),
        ("tool,functional,efficiency,compatibility,usability\nA,1,1,1,1\nB,0,1,1,1\n"
         "A,1,1,1,1\n", "{path}:4: tool 'A' repeats row 2"),
        # a functional column written in percent once ranked its tools by it
        ("tool,functional,efficiency,compatibility,usability\nA,0.5,1,1,1\n"
         "Securify,72.424,0.9,1,0.6\n", "{path}:3: functional 72.424 is outside [0, 1]"),
        # and one negative cell moved every entropy weight
        ("tool,functional,efficiency,compatibility,usability\nA,0.5,1,1,1\n"
         "B,0.5,-0.5,1,1\n", "{path}:3: efficiency -0.5 is outside [0, 1]"),
    ], ids=["absent", "column", "cell", "nan", "inf", "repeated-tool", "percent",
            "negative"])
    def test_indicators_that_cannot_be_loaded(self, tmp_path, capsys, content, detail):
        path = tmp_path / "indicators.csv"
        if content is not None:
            path.write_text(content)
        assert main(["score", "--method", "ewm", "--indicators", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {detail.format(path=path)}\n"

    @pytest.mark.parametrize("command", [
        ["corpus", "stats", str(LABELLED_DIR)],
        ["corpus", "dedup", str(LABELLED_DIR)],
        ["score", "--method", "ewm"],
    ], ids=["stats", "dedup", "score"])
    def test_table_that_cannot_be_written(self, tmp_path, capsys, command):
        out = tmp_path / "absent" / "table.csv"
        assert main([*command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: cannot write {out}: "
                                           "No such file or directory\n")

    @pytest.mark.parametrize("tools, detail", [
        # checked before the records are read, against the registered tools
        ("Slthr", "time series tool 'Slthr' is not a scored tool (registered: {registered})"),
        ("Slither,Mythril",
         "time series tool 'Mythril' is not a scored tool (scored: Slither, Maian)"),
        (" , ", "--series-tools ' , ' names no tool"),
    ], ids=["typo", "unscored", "blank"])
    def test_series_tools_that_are_not_scored(self, campaign, tmp_path, capsys, tools,
                                              detail):
        out = tmp_path / "bundle"
        assert main(["report", "--records", str(campaign["records"]),
                     "--corpus", str(LABELLED_DIR), "--timeseries", "--series-tools", tools,
                     "--out-dir", str(out)]) == 1
        registered = ", ".join(Registry.load(None).names())
        assert capsys.readouterr().err == f"error: {detail.format(registered=registered)}\n"
        assert not out.exists()

    def test_series_tools_are_parsed_as_run_tools(self, campaign, tmp_path, capsys):
        # names stripped, blank entries dropped: both scored tools, as by default
        series = []
        for extra in ([], ["--series-tools", " Slither, ,Maian "]):
            out = tmp_path / str(len(series))
            assert main(["report", "--records", str(campaign["records"]),
                         "--corpus", str(LABELLED_DIR), "--timeseries", *extra,
                         "--out-dir", str(out)]) == 0
            series.append((out / "timeseries.csv").read_text())
        capsys.readouterr()
        assert series[0] == series[1] and series[0].count("\n") > 1
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--tools", " , ", "--out", str(tmp_path / "run.jsonl")]) == 1
        assert capsys.readouterr().err == "error: --tools ' , ' names no tool\n"

    @pytest.mark.parametrize("command, below, reason", [
        ("metrics", "sub", "Not a directory"), ("report", "", "File exists"),
    ], ids=["metrics-below-a-file", "report-a-file"])
    def test_bundle_directory_that_cannot_be_made(self, campaign, tmp_path, capsys, command,
                                                  below, reason):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        assert main([command, "--records", str(campaign["records"]),
                     "--corpus", str(LABELLED_DIR), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write bundle {out}: {reason}\n"

    @pytest.mark.parametrize("argv, option", [
        (["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
          "--tools", "Slither, Maian,Slither", "--out", "{tmp}/run.jsonl"], "--tools"),
        (["report", "--records", "{tmp}/absent.jsonl", "--corpus", str(LABELLED_DIR),
          "--timeseries", "--series-tools", "Slither,Slither ", "--out-dir", "{tmp}/b"],
         "--series-tools"),
    ], ids=["run", "report"])
    def test_tool_named_twice_is_an_option_error(self, tmp_path, capsys, argv, option):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {option} names tool 'Slither' twice\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["metrics", "report"])
    def test_options_are_checked_before_the_corpus_is_read(self, tmp_path, capsys, command):
        # neither the corpus nor the records exist: the bundle directory,
        # below a file, is reported first
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "bundle"
        argv = [command, "--records", str(tmp_path / "absent.jsonl"),
                "--corpus", str(tmp_path / "no-corpus"), "--out-dir", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write bundle {out}: Not a directory\n"
        if command == "report":
            assert main([*argv[:-1], str(tmp_path / "b"), "--timeseries",
                         "--series-tools", "Slither,Slthr"]) == 1
            assert capsys.readouterr().err.startswith(
                "error: time series tool 'Slthr' is not a scored tool (registered: ")

    def test_unregistered_tool_in_records_is_error(self, tmp_path, capsys):
        rec = tmp_path / "records.jsonl"
        rec.write_text(
            '{"tool": "Mystery", "contract": "c", "status": "ok", '
            '"duration_ms": 1, "findings": [], "raw_ref": null}\n'
        )
        assert main([
            "metrics", "--records", str(rec), "--corpus", str(LABELLED_DIR),
        ]) == 1

    def test_score_ahp_with_bundled_matrix(self, capsys):
        assert main([
            "score", "--method", "ahp", "--matrix", str(pairwise_path("a1")),
        ]) == 0
        out = capsys.readouterr().out
        first_rank = next(ln for ln in out.splitlines() if ln.startswith("| 1 |"))
        assert "Slither" in first_rank

    def test_score_ewm_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "scores.csv"
        assert main([
            "score", "--method", "ewm", "--format", "csv",
            "--out", str(target),
        ]) == 0
        rows = target.read_text().splitlines()
        assert rows[0] == "Rank,Tool,Score,Method"
        assert len(rows) == 14

    def test_score_standardize_flag(self, capsys):
        from scbench.reference import pairwise_path

        assert main([
            "score", "--method", "ahp", "--matrix", str(pairwise_path("a1")),
            "--standardize",
        ]) == 0
        out = capsys.readouterr().out
        slither = next(ln for ln in out.splitlines() if "Slither" in ln)
        assert "95.9" in slither

    def test_score_accepts_metrics_emitted_indicators(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        main([
            "run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
            "--out", str(records),
        ])
        bundle = tmp_path / "bundle"
        main([
            "metrics", "--records", str(records), "--corpus", str(LABELLED_DIR),
            "--out-dir", str(bundle),
        ])
        capsys.readouterr()
        assert main([
            "score", "--method", "ewm",
            "--indicators", str(bundle / "indicators.csv"),
        ]) == 0
        assert "| 1 |" in capsys.readouterr().out

    def test_score_ahp_without_matrix_is_usage_error(self, capsys):
        assert main(["score", "--method", "ahp"]) == 2

    def test_score_ewm_with_matrix_is_usage_error(self, tmp_path, capsys):
        # before any input is read: the matrix is never opened
        assert main(["score", "--method", "ewm", "--matrix", str(tmp_path / "absent"),
                     "--indicators", str(tmp_path / "absent.csv")]) == 2
        assert capsys.readouterr() == ("", "score: --matrix requires --method ahp\n")

    def test_cli_options_are_pinned(self):
        # a new option shows up here, in review
        def options(parser, command=()):
            table = {" ".join(command): sorted(opt for action in parser._actions
                                               for opt in action.option_strings)}
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        table.update(options(sub, (*command, name)))
            return table

        common = ["--help", "-h"]
        assert options(build_parser()) == {k: sorted([*common, *v]) for k, v in {
            "": ["-v", "--verbose"],
            "corpus": [],
            "corpus stats": ["--format", "--out"],
            "corpus dedup": ["--format", "--out", "--pragma", "--list-ids"],
            "corpus validate": [],
            "run": ["--corpus", "--registry", "--tools", "--jobs", "--timeout", "--replay",
                    "--raw-dir", "--out"],
            "metrics": ["--records", "--corpus", "--registry", "--out-dir"],
            "score": ["--method", "--matrix", "--indicators", "--standardize", "--format",
                      "--out"],
            "report": ["--records", "--corpus", "--registry", "--metadata", "--matrix",
                       "--timeseries", "--bucket", "--series-tools", "--out-dir"],
        }.items()}

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["corpus"])  # missing subcommand
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", ["--series-tools", "--metadata", "--bucket"])
    def test_time_series_option_without_the_time_series_is_a_usage_error(
            self, tmp_path, capsys, option):
        bundle = tmp_path / "bundle"
        value = "year" if option == "--bucket" else "NoSuchTool"
        assert main(["report", "--records", str(tmp_path / "absent.jsonl"),
                     "--corpus", str(LABELLED_DIR), option, value,
                     "--out-dir", str(bundle)]) == 2
        assert capsys.readouterr() == ("", f"report: {option} requires --timeseries\n")
        assert not bundle.exists()

    def test_report_bundle_is_reproducible(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        main([
            "run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
            "--out", str(records),
        ])
        capsys.readouterr()
        bundles = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            assert main([
                "report", "--records", str(records),
                "--corpus", str(LABELLED_DIR), "--timeseries",
                "--out-dir", str(out_dir),
            ]) == 0
            capsys.readouterr()
            bundles.append({
                p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir())
            })
        assert bundles[0] == bundles[1]


def scoring_errors(tmp_path, capsys, records) -> set[str]:
    """stderr of ``metrics`` and ``report`` on the same records, which
    both must reject."""
    path = tmp_path / "records.jsonl"
    path.write_text("".join(r.to_json() + "\n" for r in records))
    errors = set()
    for argv in (["metrics"], ["report", "--out-dir", str(tmp_path / "bundle")]):
        assert main([*argv, "--records", str(path), "--corpus", str(tmp_path / "corpus")]) == 1
        errors.add(capsys.readouterr().err)
    return errors


class TestScoringOnce:
    @pytest.fixture
    def two_case_corpus(self, tmp_path):
        """One unsafe-suicide (V9) and one reentrancy case, copied from the
        shipped corpus; Maian detects only V9."""
        ids = []
        for class_dir in ("unsafe_suicide", "reentrancy"):
            src = sorted((LABELLED_DIR / class_dir).glob("*.sol"))[0]
            (tmp_path / "corpus" / class_dir).mkdir(parents=True)
            (tmp_path / "corpus" / class_dir / src.name).write_bytes(src.read_bytes())
            ids.append(f"{class_dir}/{src.stem}")
        return ids

    def test_empty_cell_is_the_same_error_in_metrics_and_report(
            self, tmp_path, capsys, two_case_corpus):
        suicide, reentrancy = two_case_corpus
        records = [ScanRecord("Maian", suicide, "timeout", 300_000),
                   ScanRecord("Maian", reentrancy, "ok", 1000)]
        assert scoring_errors(tmp_path, capsys, records) == {
            "error: Maian: no evaluated case for V9 (Unsafe Suicide): none of its "
            "vulnerable or safe contracts has an ok scan\n"}

    def test_no_ok_run_is_the_same_error_in_metrics_and_report(
            self, tmp_path, capsys, two_case_corpus):
        records = [ScanRecord("Maian", cid, "timeout", 300_000) for cid in two_case_corpus]
        assert scoring_errors(tmp_path, capsys, records) == {
            "error: Maian has no ok-status runs\n"}

    def test_duplicate_records_rejected(self, tmp_path, capsys, two_case_corpus):
        records = [ScanRecord("Maian", cid, "ok", 1000) for cid in two_case_corpus]
        assert scoring_errors(tmp_path, capsys, records + records[:1]) == {
            f"error: {tmp_path / 'records.jsonl'}:3: duplicate record for "
            f"(Maian, {two_case_corpus[0]})\n"}

    def test_partial_campaign_rejected(self, tmp_path, capsys, two_case_corpus):
        # Maian does not detect reentrancy, yet a missing record for it is an error
        suicide, reentrancy = two_case_corpus
        records = [ScanRecord("Maian", suicide, "ok", 1000)]
        assert scoring_errors(tmp_path, capsys, records) == {
            f"error: no record for (Maian, {reentrancy})\n"}

    def test_unlabelled_corpus_rejected(self, tmp_path, capsys, registry, replay_records):
        # every 10th shipped contract in a flat corpus, markers and header stripped
        (tmp_path / "corpus").mkdir()
        renamed = {}
        for path in sorted(LABELLED_DIR.glob("*/*.sol"))[::10]:
            name = f"{path.parent.name}__{path.stem}"
            renamed[f"{path.parent.name}/{path.stem}"] = name
            (tmp_path / "corpus" / f"{name}.sol").write_text("".join(
                line for line in path.read_text().splitlines(keepends=True)
                if "<yes>" not in line and "@vulnerable_at_lines" not in line))
        records = [rec._replace(contract=renamed[rec.contract])
                   for rec in replay_records if rec.contract in renamed]
        assert (len(renamed), len(records)) == (39, 507)
        assert scoring_errors(tmp_path, capsys, records) == {
            "error: no contract in the corpus carries a vulnerability label, "
            "so precision and recall cannot be scored\n"}

    def test_records_outside_the_corpus_rejected(self, tmp_path, capsys, two_case_corpus):
        records = [ScanRecord("Maian", cid, "ok", 1000)
                   for cid in ["arithmetic/gone", *two_case_corpus, "safe/gone"]]
        assert scoring_errors(tmp_path, capsys, records) == {
            f"error: {tmp_path / 'records.jsonl'}:1: records name contract "
            "'arithmetic/gone' (tool Maian), which is not in the corpus\n"}

    def test_finding_outside_capabilities_rejected(self, tmp_path, capsys,
                                                   two_case_corpus):
        # Maian detects only V9, and 'reentrancy' is no class id at all
        suicide, reentrancy = two_case_corpus
        records = [ScanRecord("Maian", suicide, "ok", 1000, {"V9": frozenset({3})}),
                   ScanRecord("Maian", reentrancy, "ok", 1000,
                              {"reentrancy": frozenset({3})})]
        assert scoring_errors(tmp_path, capsys, records) == {
            f"error: record for (Maian, {reentrancy}) flags 'reentrancy', "
            "which Maian does not detect\n"}

    def test_one_walk_per_recorded_tool(self, tmp_path, capsys, monkeypatch,
                                        registry, replay_records):
        from scbench import metrics

        records = tmp_path / "records.jsonl"
        write_records(replay_records, records)
        walked = []
        walk = metrics._walk

        def counted(tool, *args):
            walked.append(tool.name)
            return walk(tool, *args)

        monkeypatch.setattr(metrics, "_walk", counted)
        cells = sum(len(tool.capabilities) for tool in registry)
        assert (len(registry), cells) == (13, 62)
        for command in ("metrics", "report"):
            walked.clear()
            out = tmp_path / command
            assert main([command, "--records", str(records), "--corpus", str(LABELLED_DIR),
                         "--out-dir", str(out)]) == 0
            assert walked == registry.names()
            grid = [row.split(",") for row in
                    (out / "classification.csv").read_text().splitlines()[1:]]
            assert sum(cell != "-" for row in grid if row[1] == "Accuracy"
                       for cell in row[2:-1]) == cells
        capsys.readouterr()


class TestIndicatorCsv:
    def test_round_trip(self, tmp_path):
        from scbench.reference import indicator_matrix

        matrix = indicator_matrix()
        path = tmp_path / "ind.csv"
        header = ["tool", "functional", "efficiency", "compatibility", "usability"]
        rows = [
            [t, *map(float, row)] for t, row in zip(matrix.tools, matrix.values)
        ]
        path.write_text(to_csv(header, rows))
        loaded = load_indicators_csv(path)
        assert loaded.tools == matrix.tools
        assert len(loaded.values) == len(matrix.values)
        for got, want in zip(loaded.values, matrix.values):
            assert got == pytest.approx(want)

    def test_cell_beyond_the_header_is_ignored(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("tool,functional,efficiency,compatibility,usability\n"
                        "A,1,0.5,0.25,0,extra\n")
        assert load_indicators_csv(path).values == ((1.0, 0.5, 0.25, 0.0),)


# SHA-256 of outputs of the numpy-based scoring code that the standard
# library arithmetic replaced. Every sum of the two differs by a few ulps
# at most; the outputs, rounded to three or four decimals, must not move.
SCORE_DIGESTS = {
    ("ewm",): "aabed5bc621af41b5070a85ba643db24fe9bdf3816adac3b7c6df252752f5f42",
    ("ewm", "--standardize"):
        "60f2bb21c87c5daf452d54694900b5cf8662cde8576f23170e51c8a5204eb3f5",
    ("a1",): "8c89546defd635fffdc90522f92b67b9aa4409becf1cbb84306399275bd89301",
    ("a1", "--standardize"):
        "13487749552757ace6f78769f1c07e521a3fae25669dc147e0b89d83471002ce",
    ("a2", "--format", "json"):
        "8c0e15381d73476ab14037c685ff81a37c0aa7e86949f7950c70c969c9ec4cd9",
    ("a2", "--format", "json", "--standardize"):
        "24843f8e210124079c69949d8ced4a52759583491968df973dfe205e18bd097a",
}
SHIPPED_RECORDS_DIGEST = (
    "1c926c96df52abc64241678facda11ea86396627c8e45c8e3ff6e84b0ec53aaf")
REPORT_A1_TIMESERIES_DIGEST = (
    "e618a17ade24fd4f9561223bb2fb96e801b88f27fef3941c86d99ad2a1ddf66f")
REPORT_YEAR_TWO_TOOL_SERIES_DIGEST = (
    "fad4d5be6aeffe3eb1857b60c62d32b36faa86797ebcdd63b9067b391bb48465")
# the shipped campaign with failed scans (TestPinnedOutputs)
FAILED_SCANS_METRICS_DIGEST = (
    "ff7768c1277f8936ba7e9ab6f960de7b36370cd4dab27c7ab009148997fc95e6")
FAILED_SCANS_REPORT_DIGEST = (
    "0c5ee1d0a4596b9f2ad97d4703a91832b092523683e47b0b7f3e4aa498895fc9")


class TestPinnedOutputs:
    @pytest.mark.parametrize("variant", sorted(SCORE_DIGESTS), ids="-".join)
    def test_score_on_the_reference_matrix(self, variant, capsys):
        method, *rest = variant
        argv = (["--method", "ewm"] if method == "ewm" else
                ["--method", "ahp", "--matrix", str(pairwise_path(method))])
        assert main(["score", *argv, *rest]) == 0
        out = capsys.readouterr().out
        if method == "a1":
            assert out.startswith("lambda_max=")
        assert hashlib.sha256(out.encode()).hexdigest() == SCORE_DIGESTS[variant]

    def test_records_of_the_shipped_campaign(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--out", str(records)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(records.read_bytes()).hexdigest() == SHIPPED_RECORDS_DIGEST

    def test_report_bundle_of_the_shipped_campaign(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--out", str(records)]) == 0
        bundle = tmp_path / "bundle"
        assert main(["report", "--records", str(records), "--corpus", str(LABELLED_DIR),
                     "--matrix", str(pairwise_path("a1")), "--timeseries",
                     "--out-dir", str(bundle)]) == 0
        capsys.readouterr()
        assert bundle_digest(bundle) == REPORT_A1_TIMESERIES_DIGEST

    def test_yearly_series_of_two_tools_of_the_shipped_campaign(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--out", str(records)]) == 0
        bundle = tmp_path / "bundle"
        assert main(["report", "--records", str(records), "--corpus", str(LABELLED_DIR),
                     "--timeseries", "--bucket", "year", "--series-tools", "Slither,Mythril",
                     "--out-dir", str(bundle)]) == 0
        capsys.readouterr()
        assert bundle_digest(bundle) == REPORT_YEAR_TWO_TOOL_SERIES_DIGEST

    def test_outputs_of_a_campaign_with_failed_scans(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        assert main(["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
                     "--out", str(records)]) == 0
        # every 13th record a timeout and every 17th a tool error, findings dropped
        write_records([
            rec._replace(status="timeout", findings={}) if i % 13 == 0 else
            rec._replace(status="tool_error", findings={}) if i % 17 == 0 else rec
            for i, rec in enumerate(read_records(records), 1)], records)
        capsys.readouterr()
        assert main(["metrics", "--records", str(records), "--corpus", str(LABELLED_DIR)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == FAILED_SCANS_METRICS_DIGEST
        bundle = tmp_path / "bundle"
        assert main(["report", "--records", str(records), "--corpus", str(LABELLED_DIR),
                     "--matrix", str(pairwise_path("a1")), "--timeseries",
                     "--out-dir", str(bundle)]) == 0
        capsys.readouterr()
        assert bundle_digest(bundle) == FAILED_SCANS_REPORT_DIGEST


def bundle_digest(bundle) -> str:
    digest = hashlib.sha256()
    for path in sorted(bundle.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()
