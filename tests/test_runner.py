import json
import os
import sys
import threading
import time

import pytest

from scbench import runner
from scbench.adapters import AdapterConfig, ReplayFixture
from scbench.corpus import ContractCase
from scbench.errors import MissingRecord, ScbenchError
from scbench.runner import (RecordSet, ScanRecord, execute_campaign,
                            read_records, run_scan, write_records)
from scbench.taxonomy import Registry, ToolDescriptor, VersionId

from .conftest import REPLAY_DIR

PY = sys.executable


def alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to signal 0
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


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

    def test_timeout_kills_the_whole_process_group(self, tmp_path):
        pid_file = tmp_path / "grandchild.pid"
        # one background grandchild: it writes its own pid, then sleeps
        tool = make_tool("Forker", AdapterConfig(
            kind="json",
            command=f"sh -c 'sh -c \"echo \\$\\$ > {pid_file}; exec sleep 30\" & wait'",
            timeout=1.0,
        ))
        rec = run_scan(tool, make_case())
        assert rec.status == "timeout"
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 1.0
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not alive(pid), f"grandchild {pid} outlived the timeout"

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_sink_stops_queued_spawns(self, tmp_path, jobs):
        started = tmp_path / "started"
        tool = make_tool("Logger", AdapterConfig(
            kind="json", command=f"sh -c 'echo x >> {started}'",
        ))

        def sink(record):
            raise RuntimeError("sink is full")

        with pytest.raises(RuntimeError, match="sink is full"):
            execute_campaign([tool], [make_case(i) for i in range(20)],
                             parallelism=jobs, on_record=sink)
        window = 1 if jobs == 1 else runner._WINDOW_PER_WORKER * jobs
        assert len(started.read_text().splitlines()) <= window

    def test_abort_kills_running_tools(self, tmp_path):
        pid_file = tmp_path / "slow.pid"
        # contract_1 runs long; contract_0 ends at once and its record fails the sink
        tool = make_tool("Slow", AdapterConfig(
            kind="json", timeout=60.0,
            command=f"sh -c 'grep -q contract_1 {{input}} || exit 0; "
                    f"echo $$ > {pid_file}; exec sleep 30'",
        ))
        cases = [ContractCase(id=f"contract_{i}", source=f"// contract_{i}\n")
                 for i in range(2)]

        def sink(record):
            deadline = time.monotonic() + 5
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)  # until the slow tool runs
            raise RuntimeError("sink is full")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="sink is full"):
            execute_campaign([tool], cases, parallelism=2, on_record=sink)
        assert time.monotonic() - start < 10
        assert not alive(int(pid_file.read_text()))

    def test_spawn_pool_under_fast_thread_switching(self):
        tools = [make_tool(name, AdapterConfig(kind="text", command="true", timeout=10.0))
                 for name in ("T1", "T2")]
        corpus = [make_case(i) for i in range(48)]
        result = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.extend(
                execute_campaign(tools, corpus, parallelism=8)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not worker.is_alive(), "campaign did not finish"
        assert sorted((r.tool, r.contract, r.status) for r in result) == sorted(
            (t.name, c.id, "ok") for t in tools for c in corpus)

    def test_mixed_registry_identical_across_jobs(self, tmp_path):
        fixture = tmp_path / "Echo.json"
        fixture.write_text(json.dumps({
            "contract_1": {"status": "ok", "duration_ms": 7,
                           "findings": [{"class": "V2", "lines": [3]}]},
            "contract_2": {"status": "timeout", "duration_ms": 900},
        }))
        script = tmp_path / "tool.py"
        script.write_text(
            "import json, sys\n"
            "n = len(open(sys.argv[1]).read())\n"
            "print(json.dumps({'findings': [{'check': 'reentrancy', 'line': n}]}))\n"
        )
        registry = Registry((
            make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture))),
            make_tool("Json", AdapterConfig(kind="json", command=f"{PY} {script} {{input}}",
                                            rule_map={"reentrancy": "V1"})),
            make_tool("Stub", AdapterConfig(kind="stub", findings=(("V1", (1,)),))),
        ))
        corpus = [make_case(i) for i in range(4)]
        outputs = []
        for jobs in (1, 2, 8):
            out = tmp_path / f"j{jobs}.jsonl"
            records = execute_campaign(registry, corpus, parallelism=jobs)
            assert write_records([
                ScanRecord(r.tool, r.contract, r.status,
                           0 if r.tool == "Json" else r.duration_ms,  # wall clock
                           r.findings, r.raw_ref)
                for r in records
            ], out) == 12
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        statuses = {(r.tool, r.contract): r.status for r in read_records(out)}
        assert statuses[("Echo", "contract_2")] == "timeout"
        assert {statuses[("Json", f"contract_{i}")] for i in range(4)} == {"ok"}

    def test_each_replay_fixture_resolved_and_loaded_once(self, registry,
                                                          labelled_corpus,
                                                          monkeypatch):
        calls = []
        resolve, load = runner.resolve_replay_fixture, ReplayFixture.load.__func__

        def counting_resolve(*args):
            calls.append("resolve")
            return resolve(*args)

        def counting_load(cls, path):
            calls.append("load")
            return load(cls, path)

        monkeypatch.setattr(runner, "resolve_replay_fixture", counting_resolve)
        monkeypatch.setattr(ReplayFixture, "load", classmethod(counting_load))
        records = execute_campaign(registry, labelled_corpus, parallelism=4,
                                   replay_dir=REPLAY_DIR)
        assert len(records) == len(registry) * len(labelled_corpus)
        assert calls.count("resolve") == calls.count("load") == len(registry)

    def test_no_pool_without_spawned_tools(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(runner, "ThreadPoolExecutor", no_pool)
        records = execute_campaign(self._stub_registry(),
                                   [make_case(i) for i in range(3)], parallelism=8)
        assert len(records) == 6


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

    @pytest.mark.parametrize("bad, detail", [
        (b'{"tool": "T", "contract": "c2", "sta', "Unterminated string"),
        (b'{"tool": "T", "contract": "c2"}', "missing field 'status'"),
        (b'{"tool": "T", "contract": "c2", "status": "odd", "duration_ms": 1}',
         "unknown status 'odd'"),
        (b'["not", "a", "record"]', "list indices must be integers"),
        (b'{"tool": "T\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad, detail):
        path = tmp_path / "records.jsonl"
        write_records([ScanRecord("T", "c1", "ok", 10)], path)
        path.write_bytes(path.read_bytes() + b"\n" + bad)  # a blank line 2
        with pytest.raises(ScbenchError) as info:
            read_records(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert detail in str(info.value)

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
