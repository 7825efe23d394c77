import json
import sys

import pytest

from scbench.adapters import AdapterConfig
from scbench.corpus import ContractCase
from scbench.errors import MissingRecord, ScbenchError
from scbench.runner import (RecordSet, ScanRecord, execute_campaign,
                            read_records, run_scan, write_records)
from scbench.taxonomy import Registry, ToolDescriptor, VersionId

PY = sys.executable


def make_tool(name: str, adapter: AdapterConfig,
              capabilities=("V1", "V2")) -> ToolDescriptor:
    return ToolDescriptor(
        name=name,
        methods=frozenset({"SA"}),
        capabilities=frozenset(capabilities),
        max_solidity=VersionId(8),
        adapter=adapter,
    )


def make_case(idx: int = 0) -> ContractCase:
    return ContractCase(
        id=f"contract_{idx}",
        source="pragma solidity ^0.5.0;\ncontract C {}\n",
    )


class TestReplayAdapter:
    def test_fixture_passthrough(self, tmp_path):
        fixture = tmp_path / "Echo.json"
        fixture.write_text(json.dumps({
            "contract_0": {
                "status": "ok",
                "duration_ms": 42,
                "findings": [{"class": "V1", "lines": [17]}],
            }
        }))
        tool = make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture)))
        rec = run_scan(tool, make_case())
        assert rec.status == "ok"
        assert rec.duration_ms == 42
        assert rec.findings == {"V1": frozenset({17})}

    def test_unlisted_contract_scans_clean(self, tmp_path):
        fixture = tmp_path / "Echo.json"
        fixture.write_text("{}")
        tool = make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture)))
        rec = run_scan(tool, make_case())
        assert rec.status == "ok" and rec.findings == {}

    def test_missing_fixture_is_harness_error(self):
        tool = make_tool("Ghost", AdapterConfig(kind="replay"))
        rec = run_scan(tool, make_case())
        assert rec.status == "harness_error"

    def test_non_ok_fixture_status_drops_findings(self, tmp_path):
        fixture = tmp_path / "Echo.json"
        fixture.write_text(json.dumps({
            "contract_0": {"status": "timeout", "duration_ms": 1000,
                           "findings": [{"class": "V1", "lines": [5]}]}
        }))
        tool = make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture)))
        rec = run_scan(tool, make_case())
        assert rec.status == "timeout" and rec.findings == {}


class TestStubAdapter:
    def test_configured_findings_returned(self):
        tool = make_tool("Stub", AdapterConfig(
            kind="stub", findings=(("V1", (17,)),)
        ))
        rec = run_scan(tool, make_case())
        assert rec.status == "ok"
        assert rec.findings == {"V1": frozenset({17})}


class TestCommandAdapters:
    def test_json_adapter_parses_and_maps_rules(self, tmp_path):
        script = tmp_path / "tool.py"
        script.write_text(
            "import json, sys\n"
            "print(json.dumps({'findings': ["
            "{'check': 'reentrancy-eth', 'line': 17},"
            "{'check': 'unknown-rule', 'line': 3}]}))\n"
        )
        tool = make_tool("JsonTool", AdapterConfig(
            kind="json",
            command=f"{PY} {script} --input {{input}} --solc {{solc}}",
            rule_map={"reentrancy-eth": "V1"},
        ))
        rec = run_scan(tool, make_case(), raw_dir=tmp_path / "raw")
        assert rec.status == "ok"
        assert rec.findings == {"V1": frozenset({17})}
        assert rec.raw_ref and "JsonTool" in rec.raw_ref

    def test_text_adapter_matches_substrings(self, tmp_path):
        script = tmp_path / "tool.py"
        script.write_text(
            "print('WARNING reentrancy at line 17')\n"
            "print('note: all fine')\n"
        )
        tool = make_tool("TextTool", AdapterConfig(
            kind="text",
            command=f"{PY} {script}",
            rule_map={"reentrancy": "V1"},
            line_pattern=r"line (\d+)",
        ))
        rec = run_scan(tool, make_case())
        assert rec.findings == {"V1": frozenset({17})}

    def test_timeout_status(self, tmp_path):
        tool = make_tool("Sleeper", AdapterConfig(
            kind="json",
            command=f"{PY} -c \"import time; time.sleep(5)\"",
            timeout=0.3,
        ))
        rec = run_scan(tool, make_case())
        assert rec.status == "timeout"
        assert rec.findings == {}
        assert rec.duration_ms <= 300

    def test_nonzero_exit_is_tool_error_with_raw_preserved(self, tmp_path):
        script = tmp_path / "tool.py"
        script.write_text("import sys\nprint('partial output')\nsys.exit(1)\n")
        tool = make_tool("Crasher", AdapterConfig(
            kind="json", command=f"{PY} {script}",
        ))
        rec = run_scan(tool, make_case(), raw_dir=tmp_path / "raw")
        assert rec.status == "tool_error"
        assert rec.raw_ref is not None
        assert "partial output" in open(rec.raw_ref).read()

    def test_literal_braces_in_template_pass_through(self, tmp_path):
        script = tmp_path / "tool.py"
        script.write_text(
            "import os, sys\n"
            "if sys.argv[1:3] == ['{print $1}', '0.8.x'] and os.path.isfile(sys.argv[3]):\n"
            "    print('reentrancy at line 17')\n"
        )
        tool = make_tool("AwkLike", AdapterConfig(
            kind="text",
            command=f"{PY} {script} '{{print $1}}' {{solc}} {{input}}",
            rule_map={"reentrancy": "V1"},
            line_pattern=r"line (\d+)",
        ))
        rec = run_scan(tool, make_case())
        assert rec.status == "ok"
        assert rec.findings == {"V1": frozenset({17})}

    def test_missing_binary_is_harness_error(self):
        tool = make_tool("Ghost", AdapterConfig(
            kind="json", command="definitely-not-a-binary-xyz {input}",
        ))
        rec = run_scan(tool, make_case())
        assert rec.status == "harness_error"

    def test_unparseable_json_is_tool_error(self, tmp_path):
        tool = make_tool("Garbled", AdapterConfig(
            kind="json", command=f"{PY} -c \"print('not json')\"",
        ))
        rec = run_scan(tool, make_case())
        assert rec.status == "tool_error"


class TestCampaign:
    def _stub_registry(self):
        return Registry((
            make_tool("A", AdapterConfig(kind="stub", findings=(("V1", (1,)),))),
            make_tool("B", AdapterConfig(kind="stub", findings=())),
        ))

    def test_every_pair_enumerated(self):
        corpus = [make_case(i) for i in range(3)]
        records = execute_campaign(self._stub_registry(), corpus)
        assert len(records) == 6
        pairs = {(r.tool, r.contract) for r in records}
        assert len(pairs) == 6

    def test_zero_cases_zero_records(self):
        assert execute_campaign(self._stub_registry(), []) == []

    def test_parallelism_invariant_content(self, tmp_path):
        corpus = [make_case(i) for i in range(3)]
        seq = tmp_path / "seq.jsonl"
        par = tmp_path / "par.jsonl"
        write_records(execute_campaign(self._stub_registry(), corpus, 1), seq)
        write_records(execute_campaign(self._stub_registry(), corpus, 4), par)
        assert seq.read_bytes() == par.read_bytes()

    def test_parallelism_must_be_positive(self):
        with pytest.raises(ScbenchError):
            execute_campaign(self._stub_registry(), [], parallelism=0)

    def test_sink_receives_every_record(self):
        seen = []
        execute_campaign(self._stub_registry(), [make_case(0)],
                         on_record=seen.append)
        assert len(seen) == 2


class TestRecords:
    def test_jsonl_round_trip(self, tmp_path):
        records = [
            ScanRecord("T", "c1", "ok", 10, {"V1": frozenset({1, 2})}),
            ScanRecord("T", "c2", "timeout", 300),
        ]
        path = tmp_path / "records.jsonl"
        assert write_records(records, path) == 2
        loaded = read_records(path)
        assert loaded == sorted(records, key=lambda r: (r.tool, r.contract))

    def test_findings_require_ok_status(self):
        with pytest.raises(ScbenchError):
            ScanRecord("T", "c", "timeout", 1, {"V1": frozenset()})

    def test_unknown_status_rejected(self):
        with pytest.raises(ScbenchError):
            ScanRecord("T", "c", "weird", 1)

    def test_predicted_binarization(self):
        rs = RecordSet([
            ScanRecord("T", "c1", "ok", 5, {"V1": frozenset({17})}),
            ScanRecord("T", "c2", "timeout", 300),
        ])
        assert rs.predicted("T", "c1", "V1") is True
        assert rs.predicted("T", "c1", "V2") is False
        assert rs.predicted("T", "c2", "V1") is False  # non-ok never predicts
        with pytest.raises(MissingRecord):
            rs.predicted("T", "c3", "V1")
