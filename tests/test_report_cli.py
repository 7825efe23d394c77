import json
import os
import subprocess
import sys
from datetime import datetime, timezone

import pytest

from scbench.adapters import AdapterConfig
from scbench.cli import main
from scbench.corpus import ContractCase
from scbench.errors import MissingMetadata
from scbench.report import (class_distribution, load_indicators_csv,
                            stats_table, time_series, to_csv, to_markdown)
from scbench.runner import RecordSet, ScanRecord
from scbench.taxonomy import Registry, ToolDescriptor, VersionId

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
        assert series.value_ether("V1", "2020Q1") == pytest.approx(15.0)

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

    def test_help_and_replay_run_never_import_numpy(self, tmp_path):
        code = (
            "import sys\n"
            "from scbench import cli\n"
            "try:\n"
            "    rc = cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:  # --help\n"
            "    rc = exc.code\n"
            "assert rc == 0, rc\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = ["run", "--corpus", str(LABELLED_DIR), "--replay", str(REPLAY_DIR),
               "--jobs", "2", "--out", str(tmp_path / "records.jsonl")]
        for argv in (run, ["--help"]):
            proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr

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
        from scbench.reference import pairwise_path

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
        assert loaded.values == pytest.approx(matrix.values)
