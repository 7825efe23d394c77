import hashlib
import json
import os
import shutil
import subprocess
import sys
from datetime import datetime, timezone

import pytest

from scbench.adapters import AdapterConfig
from scbench.cli import main
from scbench.corpus import ContractCase
from scbench.errors import MissingMetadata
from scbench.metrics import score_campaign
from scbench.reference import pairwise_path
from scbench.report import (class_distribution, load_indicators_csv,
                            metrics_grid, time_series, to_csv, to_markdown)
from scbench.records import RecordSet, ScanRecord, write_records
from scbench.tables import stats_table
from scbench.taxonomy import Registry, ToolDescriptor, VersionId, default_taxonomy

from .conftest import LABELLED_DIR, REPLAY_DIR


def make_tool(name, capabilities):
    return ToolDescriptor(
        name=name, methods=frozenset({"SA"}),
        capabilities=frozenset(capabilities),
        max_solidity=VersionId(8), adapter=AdapterConfig(kind="stub"),
    )


def dated_case(idx, when, value_ether=None, classes=()):
    return ContractCase(
        id=f"c{idx}",
        source="pragma solidity ^0.5.0;\ncontract C {}\n",
        expected={c: frozenset({2}) for c in classes},
        created_at=when,
        tx_value=None if value_ether is None else value_ether * 10**18,
    )


class TestClassDistribution:
    def test_counts_flagged_contracts(self):
        registry = Registry((make_tool("T", ("V2",)),))
        records = RecordSet([
            ScanRecord("T", f"c{i}", "ok", 1, {"V2": frozenset({2})})
            for i in range(3)
        ] + [ScanRecord("T", "c3", "ok", 1)])
        rows = {(r["tool"], r["class"]): r for r in
                class_distribution(records, registry)}
        assert rows[("T", "V2")]["count"] == 3
        assert not rows[("T", "V2")]["incapable"]

    def test_incapable_classes_render_zero_with_flag(self):
        registry = Registry((make_tool("T", ("V2",)),))
        records = RecordSet([ScanRecord("T", "c0", "ok", 1)])
        rows = {(r["tool"], r["class"]): r for r in
                class_distribution(records, registry)}
        assert rows[("T", "V1")]["count"] == 0
        assert rows[("T", "V1")]["incapable"] is True

    def test_empty_records_all_zero(self):
        registry = Registry((make_tool("T", ("V1",)),))
        rows = class_distribution(RecordSet([]), registry)
        assert all(r["count"] == 0 for r in rows)


class TestTimeSeries:
    def test_same_quarter_counts_together(self):
        corpus = [
            dated_case(0, datetime(2020, 1, 10, tzinfo=timezone.utc), 10, ("V1",)),
            dated_case(1, datetime(2020, 2, 20, tzinfo=timezone.utc), 5, ("V1",)),
        ]
        records = RecordSet([
            ScanRecord("T", "c0", "ok", 1, {"V1": frozenset({2})}),
            ScanRecord("T", "c1", "ok", 1, {"V1": frozenset({2})}),
        ])
        series = time_series(records, corpus)
        assert series.counts["V1"] == {"2020Q1": 2}
        assert series.values_wei["V1"]["2020Q1"] == 15 * 10**18

    def test_missing_timestamp_is_reported(self):
        corpus = [dated_case(0, None, classes=("V1",))]
        records = RecordSet([
            ScanRecord("T", "c0", "ok", 1, {"V1": frozenset({2})})
        ])
        with pytest.raises(MissingMetadata) as err:
            time_series(records, corpus)
        assert err.value.contract_ids == ["c0"]

    def test_union_over_selected_tools(self):
        corpus = [
            dated_case(0, datetime(2021, 5, 1, tzinfo=timezone.utc), 1, ("V1",)),
        ]
        records = RecordSet([
            ScanRecord("A", "c0", "ok", 1, {"V1": frozenset({2})}),
            ScanRecord("B", "c0", "ok", 1, {"V1": frozenset({2})}),
        ])
        series = time_series(records, corpus, tools=["A", "B"])
        assert series.counts["V1"] == {"2021Q2": 1}  # distinct contracts, not hits
        excluded = time_series(records, corpus, tools=["NoSuch"])
        assert excluded.counts["V1"] == {}

    def test_bucket_sums_equal_total_flagged(self):
        corpus = [
            dated_case(i, datetime(2019 + i % 3, 3, 1, tzinfo=timezone.utc),
                       1, ("V6",))
            for i in range(7)
        ]
        records = RecordSet([
            ScanRecord("T", f"c{i}", "ok", 1, {"V6": frozenset({2})})
            for i in range(7)
        ])
        series = time_series(records, corpus, bucket="year")
        assert sum(series.counts["V6"].values()) == 7


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
        corpus = [dated_case(0, None, classes=("V1",)), dated_case(1, None, classes=("V2",)),
                  dated_case(2, None)]
        records = RecordSet([ScanRecord("T", "c0", "ok", 1, {"V1": frozenset({2})}),
                             ScanRecord("T", "c1", "timeout", 9),
                             ScanRecord("T", "c2", "ok", 1)])
        scores = score_campaign(records, registry, corpus)
        header, rows = metrics_grid(scores)
        grid = {row[1]: dict(zip(header, row)) for row in rows}
        v2 = default_taxonomy().classes[1].name
        assert [grid[m][v2] for m in ("Precision", "Recall", "F1-score")] == ["-"] * 3
        assert grid["F1-score"]["Average"] == 1.0
        assert scores["T"].functional == 0.5


# ``scbench`` modules beside ``cli`` and ``errors`` that a command loads
CORPUS_LAYERS = {"corpus", "corpus.lexer", "taxonomy", "tables"}
SCORING_LAYERS = {"mcdm", "metrics", "reference", "report"}

_LIST_LAYERS = (
    "import json, sys\n"
    "from scbench import cli\n"
    "try:\n"
    "    rc = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:  # --help\n"
    "    rc = exc.code\n"
    "print(json.dumps([rc, [n[len('scbench.'):] for n in sys.modules\n"
    "                       if n.startswith('scbench.')]]))\n"
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


def layers_loaded(argv, paths) -> set[str]:
    """The ``scbench`` modules that ``cli.main(argv)`` loads in a fresh
    interpreter, less the code-free ``data`` package; the command must
    succeed."""
    argv = [arg.format(**paths) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", _LIST_LAYERS, *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, (argv, proc.stderr)
    return set(modules) - {"data"}


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

    def test_unknown_marker_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "reentrancy"
        bad.mkdir()
        (bad / "a.sol").write_text(
            "pragma solidity ^0.5.0;\ncontract C {\n"
            "    // <yes> <report> FRONTRUN\n    f();\n}\n"
        )
        assert main(["corpus", "stats", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: reentrancy/a.sol: line 3: "
                       "marker 'FRONTRUN' matches no class alias\n")

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
          "--indicators", "{indicators}"], {"taxonomy", "tables", *SCORING_LAYERS}),
    ], ids=["help", "stats", "dedup", "validate", "score"])
    def test_command_loads_only_its_layers(self, campaign, argv, loaded):
        assert layers_loaded(argv, campaign) == {"cli", "errors", *loaded}

    @pytest.mark.parametrize("argv, absent", [
        (["metrics", "--records", "{records}", "--corpus", str(LABELLED_DIR)], {"runner"}),
        (["report", "--records", "{records}", "--corpus", str(LABELLED_DIR),
          "--timeseries", "--out-dir", "{bundle}"], {"runner"}),
        (["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
          "--tools", "Slither", "--out", "{out}"], {"tables", *SCORING_LAYERS}),
    ], ids=["metrics", "report", "run"])
    def test_command_skips_layers_it_does_not_run(self, campaign, argv, absent):
        assert layers_loaded(argv, campaign) & absent == set()

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

    def test_absent_records_file_is_an_error(self, tmp_path, capsys):
        records = tmp_path / "absent.jsonl"
        assert main(["metrics", "--records", str(records),
                     "--corpus", str(LABELLED_DIR)]) == 1
        assert capsys.readouterr().err == (f"error: cannot read records {records}: "
                                           "No such file or directory\n")

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
                     "--out", str(out)]) == 0
        assert "statuses: tool_error" in capsys.readouterr().out
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
        assert err.startswith("error: tool Broken: command template ") and \
            err.endswith(" cannot be split: No closing quotation\n")
        assert not out.exists() and not started.exists()

    def test_missing_analyzer_program_fails_the_run(self, tmp_path, capsys):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [
            {"name": "Absent", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "json", "command": "no-such-analyzer-binary {input}"}},
            {"name": "Stub", "capabilities": ["V1"], "max_solidity": "0.8",
             "adapter": {"kind": "stub"}}]}))
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
                                "adapter": {"kind": "stub", "timeout": 0}}]}),
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

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["corpus"])  # missing subcommand
        assert exc.value.code == 2

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

    def test_records_outside_the_corpus_rejected(self, tmp_path, capsys, two_case_corpus):
        records = [ScanRecord("Maian", cid, "ok", 1000)
                   for cid in ["arithmetic/gone", *two_case_corpus, "safe/gone"]]
        assert scoring_errors(tmp_path, capsys, records) == {
            "error: records name contract 'arithmetic/gone' (tool Maian), "
            "which is not in the corpus\n"}

    def test_one_confusion_matrix_per_supported_cell(self, tmp_path, capsys, monkeypatch,
                                                     registry, replay_records):
        from scbench import metrics

        records = tmp_path / "records.jsonl"
        write_records(replay_records.records, records)
        calls = []
        confusion = metrics.confusion

        def counted(records, tool, class_id, corpus):
            calls.append((tool.name, class_id))
            return confusion(records, tool, class_id, corpus)

        monkeypatch.setattr(metrics, "confusion", counted)
        cells = sum(len(tool.capabilities) for tool in registry)
        assert cells == 62
        for argv in (["metrics"], ["report", "--out-dir", str(tmp_path / "bundle")]):
            calls.clear()
            assert main([*argv, "--records", str(records),
                         "--corpus", str(LABELLED_DIR)]) == 0
            assert len(calls) == cells
            assert len(set(calls)) == cells
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
        digest = hashlib.sha256()
        for path in sorted(bundle.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert digest.hexdigest() == REPORT_A1_TIMESERIES_DIGEST
