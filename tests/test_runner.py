import errno
import gc
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbench import runner
from scbench.adapters import AdapterConfig, ReplayFixture, parse_json_output
from scbench.corpus import ContractCase
from scbench.errors import MissingRecord, ScbenchError
from scbench.records import (STATUSES, RecordSet, ScanRecord, _from_doc, gc_paused,
                             load_record_set, read_records, write_records)
from scbench.runner import execute_campaign
from scbench.taxonomy import Registry, ToolDescriptor, VersionId

from .conftest import REPLAY_DIR

PY = sys.executable


def scan_one(tool, case, **options):
    """One scan task, run as a campaign of one."""
    return execute_campaign([tool], [case], **options)[0]


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


@pytest.fixture(params=["pidfd", "fallback"])
def wait_path(request, monkeypatch):
    """Run the test on each way a spawned task can wait for its tool; the
    fallback is forced by making ``os.pidfd_open`` fail, as it does on a
    kernel without pidfds. Checks that the chosen path is the one taken."""
    if request.param == "fallback":
        def no_pidfd(pid):
            raise OSError(errno.ENOSYS, "pidfd_open unavailable")
        monkeypatch.setattr(os, "pidfd_open", no_pidfd, raising=False)
    elif not hasattr(os, "pidfd_open"):
        pytest.skip("os.pidfd_open is Linux-only")
    calls = []
    communicate = subprocess.Popen.communicate

    def spy(self, *args, **kwargs):
        calls.append(kwargs.get("timeout"))
        return communicate(self, *args, **kwargs)

    monkeypatch.setattr(subprocess.Popen, "communicate", spy)
    yield request.param
    assert bool(calls) == (request.param == "fallback"), calls


@pytest.fixture
def private_tempdir(tmp_path, monkeypatch):
    """A directory of the test's own in place of the system's temporary one."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def make_tool(name: str, adapter: AdapterConfig,
              capabilities=("V1", "V2")) -> ToolDescriptor:
    return ToolDescriptor(
        name=name,
        methods=frozenset({"SA"}),
        capabilities=frozenset(capabilities),
        max_solidity=VersionId(8),
        adapter=adapter,
    )


def assert_gone(pid: int) -> None:
    deadline = time.monotonic() + 1.0
    while alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not alive(pid), f"process {pid} outlived the timeout"


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
        rec = scan_one(tool, make_case())
        assert rec.status == "ok"
        assert rec.duration_ms == 42
        assert rec.findings == {"V1": frozenset({17})}

    def test_unlisted_contract_is_harness_error(self, tmp_path):
        fixture = tmp_path / "Echo.json"
        fixture.write_text("{}")
        tool = make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture)))
        rec = scan_one(tool, make_case())
        assert rec.status == "harness_error" and rec.findings == {}

    def test_misses_counted_per_tool(self, tmp_path):
        fixture = tmp_path / "Echo.json"
        fixture.write_text(json.dumps({"contract_1": {"status": "ok"}}))
        tools = [make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture))),
                 make_tool("Stub", AdapterConfig(kind="stub")),
                 make_tool("Ghost", AdapterConfig(kind="replay"))]  # no fixture
        problems = {}
        records = execute_campaign(tools, [make_case(i) for i in range(3)],
                                   problems=problems)
        assert problems == {
            "Echo": ["replay fixture for Echo does not cover 2 of 3 contract(s) "
                     "(first: contract_0)"],
            "Ghost": ["replay fixture for Ghost does not cover 3 of 3 contract(s) "
                      "(first: contract_0)"],
        }
        assert sorted((r.tool, r.contract, r.status) for r in records
                      if r.tool == "Echo") == [
            ("Echo", "contract_0", "harness_error"),
            ("Echo", "contract_1", "ok"),
            ("Echo", "contract_2", "harness_error"),
        ]

    def test_missing_fixture_is_harness_error(self):
        tool = make_tool("Ghost", AdapterConfig(kind="replay"))
        rec = scan_one(tool, make_case())
        assert rec.status == "harness_error"

    def test_non_ok_fixture_status_drops_findings(self, tmp_path):
        fixture = tmp_path / "Echo.json"
        fixture.write_text(json.dumps({
            "contract_0": {"status": "timeout", "duration_ms": 1000,
                           "findings": [{"class": "V1", "lines": [5]}]}
        }))
        tool = make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture)))
        rec = scan_one(tool, make_case())
        assert rec.status == "timeout" and rec.findings == {}

    @pytest.mark.parametrize("entry, detail", [
        ({"status": "finished"}, "unknown status 'finished'"),
        ({"duration_ms": "soon"}, "invalid literal for int() with base 10: 'soon'"),
        ({"duration_ms": -1}, "negative duration"),
        ({"findings": [{"class": "V1", "lines": ["7"]}]}, "line '7' of V1 is not an integer"),
        ({"findings": [{"class": "V1", "lines": "7"}]}, "line '7' of V1 is not an integer"),
        ({"status": "timeout", "findings": [{"class": "V1", "lines": [True]}]},
         "line True of V1 is not an integer"),
        ({"findings": [{"lines": [7]}]}, "missing field 'class'"),
        ([1, 2], "'list' object has no attribute 'get'"),
        (None, "'NoneType' object has no attribute 'get'"),
    ])
    def test_malformed_entry_fails_only_its_own_task(self, tmp_path, entry, detail):
        fixture = tmp_path / "Echo.json"
        fixture.write_text(json.dumps({
            "contract_0": {"status": "ok", "duration_ms": 5},
            "contract_1": entry,
            "contract_2": {"status": "ok", "duration_ms": 6,
                           "findings": [{"class": "V1", "lines": [3]}]},
        }))
        tool = make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture)))
        problems = {}
        records = execute_campaign([tool], [make_case(i) for i in range(3)],
                                   problems=problems)
        assert [(r.contract, r.status, r.duration_ms, r.findings) for r in records] == [
            ("contract_0", "ok", 5, {}),
            ("contract_1", "harness_error", 0, {}),
            ("contract_2", "ok", 6, {"V1": frozenset({3})}),
        ]
        assert problems == {
            "Echo": [f"replay fixture {fixture}: entry contract_1: {detail}"]}


class TestStubAdapter:
    def test_configured_findings_returned(self):
        tool = make_tool("Stub", AdapterConfig(
            kind="stub", findings=(("V1", (17,)),)
        ))
        rec = scan_one(tool, make_case())
        assert rec.status == "ok"
        assert rec.findings == {"V1": frozenset({17})}

    def test_out_of_capability_findings_dropped_and_counted(self, caplog):
        tool = make_tool("Stub", AdapterConfig(
            kind="stub", findings=(("V1", (17,)), ("V3", (4,)), ("V5", (9,)))
        ), capabilities=("V1",))
        with caplog.at_level("WARNING", logger="scbench.runner"):
            records = execute_campaign(Registry((tool,)),
                                       [make_case(i) for i in range(3)])
            assert [r.findings for r in records] == [{"V1": frozenset({17})}] * 3
            assert [r.getMessage() for r in caplog.records] == [
                "adapter bug: dropped 6 finding(s) of Stub outside its capability set"]
            caplog.clear()
            assert scan_one(tool, make_case()).findings == {"V1": frozenset({17})}
            assert len(caplog.records) == 1 and "dropped 2" in caplog.records[0].getMessage()


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
        rec = scan_one(tool, make_case(), raw_dir=tmp_path / "raw")
        assert rec.status == "ok"
        assert rec.findings == {"V1": frozenset({17})}
        assert rec.raw_ref and "JsonTool" in rec.raw_ref

    @pytest.mark.parametrize("line, lines", [
        (None, set()), (0, {0}), (17, {17}), ([], set()), ([3, 1, 3], {1, 3}),
    ])
    def test_json_adapter_line_values(self, line, lines):
        out = json.dumps({"findings": [{"check": "r", "line": line}]})
        assert parse_json_output(out, {"r": "V1"}) == {"V1": frozenset(lines)}

    @pytest.mark.parametrize("line", ["12", [True, 3], True, 1.0, ["1"], {"n": 1}])
    def test_json_adapter_rejects_other_line_values(self, line):
        out = json.dumps({"findings": [{"check": "r", "line": line}]})
        with pytest.raises(ValueError, match="is not an integer or a list of them"):
            parse_json_output(out, {"r": "V1"})

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
        rec = scan_one(tool, make_case())
        assert rec.findings == {"V1": frozenset({17})}

    def test_timeout_status(self, tmp_path, wait_path):
        tool = make_tool("Sleeper", AdapterConfig(
            kind="json",
            command=f"{PY} -c \"import time; time.sleep(5)\"",
            timeout=0.3,
        ))
        rec = scan_one(tool, make_case())
        assert rec.status == "timeout"
        assert rec.findings == {}
        assert rec.duration_ms <= 300

    def test_timeout_kills_the_whole_process_group(self, tmp_path, wait_path):
        pid_file = tmp_path / "grandchild.pid"
        # one background grandchild: it writes its own pid, then sleeps
        tool = make_tool("Forker", AdapterConfig(
            kind="json",
            command=f"sh -c 'sh -c \"echo \\$\\$ > {pid_file}; exec sleep 30\" & wait'",
            timeout=1.0,
        ))
        rec = scan_one(tool, make_case())
        assert rec.status == "timeout"
        assert_gone(int(pid_file.read_text()))

    def test_closed_pipes_do_not_end_the_task(self, wait_path):
        tool = make_tool("Closer", AdapterConfig(
            kind="json", command="sh -c 'exec >&- 2>&-; sleep 5'", timeout=0.5,
        ))
        start = time.monotonic()
        rec = scan_one(tool, make_case())
        assert rec.status == "timeout" and rec.duration_ms == 500
        assert time.monotonic() - start < 3

    def test_background_child_holding_stdout_is_a_timeout(self, tmp_path, wait_path):
        pid_file = tmp_path / "background.pid"
        script = tmp_path / "tool.sh"
        script.write_text(f"sleep 5 &\necho $! > {pid_file}\necho '{{\"findings\": []}}'\n")
        tool = make_tool("Leaver", AdapterConfig(
            kind="json", command=f"sh {script}", timeout=0.5,
        ))
        rec = scan_one(tool, make_case())
        assert rec.status == "timeout"
        assert_gone(int(pid_file.read_text()))

    def test_process_outside_the_group_does_not_outlast_the_cap(self, tmp_path, wait_path):
        # setsid leaves the group, so the kill misses it while it holds stdout
        pid_file = tmp_path / "escaped.pid"
        script = tmp_path / "tool.sh"
        script.write_text(f"setsid sh -c 'echo $$ > {pid_file}; exec sleep 5' &\n"
                          f"while [ ! -s {pid_file} ]; do :; done\n")
        tool = make_tool("Escaper", AdapterConfig(
            kind="json", command=f"sh {script}", timeout=0.5,
        ))
        start = time.monotonic()
        try:
            rec = scan_one(tool, make_case())
            assert rec.status == "timeout"
            assert time.monotonic() - start < 3
        finally:
            os.kill(int(pid_file.read_text()), 9)

    @pytest.mark.parametrize("code, status, findings", [
        ("sys.stdout.buffer.write(b'{\"findings\": []}\\xff')", "tool_error", {}),
        ("print(json.dumps({'findings': [{'check': 'r', 'line': 4}]})); "
         "sys.stdout.flush(); sys.stderr.buffer.write(b'warn \\xff')",
         "ok", {"V1": frozenset({4})}),
    ], ids=["stdout", "stderr"])
    def test_undecodable_byte(self, tmp_path, monkeypatch, wait_path,
                              code, status, findings):
        # stdout is parsed, so a byte it cannot decode makes it unparseable;
        # stderr only feeds the raw file, where the byte is replaced
        kills = []
        monkeypatch.setattr(runner, "_kill_group", kills.append)
        tool = make_tool("Bytes", AdapterConfig(
            kind="json", command=f"{PY} -c \"import json, sys; {code}\"",
            rule_map={"r": "V1"},
        ))
        rec = scan_one(tool, make_case(), raw_dir=tmp_path / "raw")
        assert (rec.status, rec.findings) == (status, findings)
        assert "\ufffd" in (tmp_path / "raw" / "Bytes" / "contract_0.out").read_text("utf-8")
        assert kills == []

    def test_nonzero_exit_is_tool_error_with_raw_preserved(self, tmp_path):
        script = tmp_path / "tool.py"
        script.write_text("import sys\nprint('partial output')\nsys.exit(1)\n")
        tool = make_tool("Crasher", AdapterConfig(
            kind="json", command=f"{PY} {script}",
        ))
        rec = scan_one(tool, make_case(), raw_dir=tmp_path / "raw")
        assert rec.status == "tool_error"
        assert rec.raw_ref is not None
        with open(rec.raw_ref) as fh:
            assert "partial output" in fh.read()

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
        rec = scan_one(tool, make_case())
        assert rec.status == "ok"
        assert rec.findings == {"V1": frozenset({17})}

    def test_missing_binary_fails_before_any_task(self):
        tool = make_tool("Ghost", AdapterConfig(
            kind="json", command="definitely-not-a-binary-xyz {input}",
        ))
        stub = make_tool("Stub", AdapterConfig(kind="stub"))
        seen = []
        with pytest.raises(ScbenchError, match="^tool Ghost: program "
                                               "'definitely-not-a-binary-xyz' not found$"):
            execute_campaign([stub, tool], [make_case()], on_record=seen.append)
        assert seen == []  # not even the inline tool ran

    def test_program_resolved_once_per_tool_and_argv_kept(self, tmp_path, monkeypatch):
        script = tmp_path / "tool.sh"
        script.write_text("#!/bin/sh\necho '{\"findings\": []}'\n")
        script.chmod(0o755)
        monkeypatch.chdir(tmp_path)
        which, looked_up, spawned = shutil.which, [], []

        def counting_which(name, *args, **kwargs):
            looked_up.append(name)
            return which(name, *args, **kwargs)

        class SpyPopen(subprocess.Popen):
            def __init__(self, args, **kwargs):
                spawned.append((list(args), kwargs.get("executable")))
                super().__init__(args, **kwargs)

        monkeypatch.setattr(shutil, "which", counting_which)
        monkeypatch.setattr(subprocess, "Popen", SpyPopen)
        tools = [make_tool("Sh", AdapterConfig(kind="text", command="sh -c : x {solc} {input}")),
                 make_tool("Local", AdapterConfig(kind="json", command="./tool.sh {input}"))]
        records = execute_campaign(tools, [make_case(i) for i in range(3)])
        assert [r.status for r in records] == ["ok"] * 6
        assert looked_up == ["sh", "./tool.sh"]
        sh = os.path.abspath(which("sh"))
        assert [(args[:-1], exe) for args, exe in spawned] == (
            [(["sh", "-c", ":", "x", "0.8.x"], sh)] * 3
            + [(["./tool.sh"], str(tmp_path / "tool.sh"))] * 3)
        assert all(args[-1].endswith("/contract.sol") for args, _ in spawned)

    def test_unparseable_json_is_tool_error(self, tmp_path):
        tool = make_tool("Garbled", AdapterConfig(
            kind="json", command=f"{PY} -c \"print('not json')\"",
        ))
        rec = scan_one(tool, make_case())
        assert rec.status == "tool_error"

    def test_json_that_is_not_an_object_is_tool_error(self, caplog):
        tool = make_tool("Listing", AdapterConfig(
            kind="json", command=f"{PY} -c \"print('[1, 2]')\"",
        ))
        rec = scan_one(tool, make_case())
        assert rec.status == "tool_error"
        assert [r.getMessage() for r in caplog.records] == [
            "unparseable output from Listing: top level is a list, not an object"]

    @pytest.mark.parametrize("out", [
        "null", '{"findings": 3}', '{"findings": "ab"}', '{"findings": [1]}',
        '{"findings": [{"check": "r"}, null]}',
    ])
    def test_json_adapter_rejects_other_shapes(self, out):
        with pytest.raises(ValueError, match="not an object|not a list of objects"):
            parse_json_output(out, {"r": "V1"})

    def test_json_adapter_drops_a_check_that_is_not_a_string(self):
        out = json.dumps({"findings": [{"check": ["r"]}, {"check": "r", "line": 2}]})
        assert parse_json_output(out, {"r": "V1"}) == {"V1": frozenset({2})}

    def test_template_split_once_per_tool(self, monkeypatch):
        config = AdapterConfig(kind="text", command="sh -c 'echo \"$0 {input}\"' x")
        assert config.argv == ("sh", "-c", 'echo "$0 {input}"', "x")
        monkeypatch.setattr("shlex.split", None)  # a task splits nothing
        assert scan_one(make_tool("Echo", config), make_case()).status == "ok"

    @pytest.mark.parametrize("command", ["sh -c 'unterminated {input}", "echo \\"])
    def test_template_that_cannot_be_split_is_rejected(self, command):
        with pytest.raises(ScbenchError, match="cannot be split"):
            AdapterConfig(kind="json", command=command)


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
    def test_failing_sink_stops_queued_spawns(self, tmp_path, jobs, private_tempdir):
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
        assert list(private_tempdir.iterdir()) == []

    def test_abort_kills_running_tools(self, tmp_path, private_tempdir):
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
            # until the slow tool runs: the file exists before its pid is in it
            while not (pid_file.exists() and pid_file.read_text()) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("sink is full")

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="sink is full"):
            execute_campaign([tool], cases, parallelism=2, on_record=sink)
        assert time.monotonic() - start < 10
        assert not alive(int(pid_file.read_text()))
        assert list(private_tempdir.iterdir()) == []

    def test_spawn_pool_under_fast_thread_switching(self):
        # each tool reports the line number its input names: the task saw
        # its own contract, so no two tasks in flight shared a directory
        tools = [make_tool(name, AdapterConfig(
            kind="text", command="cat {input}", timeout=10.0,
            rule_map={"line": "V1"}, line_pattern=r"^line (\d+)$"))
            for name in ("T1", "T2")]
        corpus = [ContractCase(id=f"contract_{i}", source=f"line {i}\n") for i in range(48)]
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
        assert sorted((r.tool, r.contract, r.status, r.findings) for r in result) == sorted(
            (t.name, f"contract_{i}", "ok", {"V1": frozenset({i})})
            for t in tools for i in range(48))

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
        outputs, raw_files = [], []
        for jobs in (1, 2, 8):
            out, raw = tmp_path / f"j{jobs}.jsonl", tmp_path / f"raw{jobs}"
            records = execute_campaign(registry, corpus, parallelism=jobs, raw_dir=raw)
            assert write_records([
                ScanRecord(r.tool, r.contract, r.status,
                           0 if r.tool == "Json" else r.duration_ms,  # wall clock
                           r.findings, r.raw_ref and os.path.relpath(r.raw_ref, raw))
                for r in records
            ], out) == 12
            outputs.append(out.read_bytes())
            raw_files.append({path.relative_to(raw): path.read_bytes()
                              for path in raw.rglob("*") if path.is_file()})
        assert outputs[0] == outputs[1] == outputs[2]
        assert raw_files[0] == raw_files[1] == raw_files[2]
        assert sorted(map(str, raw_files[0])) == [f"Json/contract_{i}.out" for i in range(4)]
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


class TestTaskDirectory:
    # lists its input's directory, prints its input, then names that
    # directory on stderr; a contract that says so leaves a file behind or
    # hangs past the cap
    LISTER = ("sh -c 'dir=${1%/*}; ls -A \"$dir\"; cat \"$1\"; echo \"$dir\" >&2; "
              "case $(cat \"$1\") in *leave*) touch \"$dir/left\" ;; "
              "*hang*) exec sleep 5 ;; esac' lister {input}")

    @pytest.mark.parametrize("jobs", [1, 8])
    def test_each_task_sees_only_its_own_contract(self, tmp_path, private_tempdir, jobs):
        tags = {3: "leave", 4: "plain", 9: "hang", 10: "plain", 15: "leave"}
        corpus = [ContractCase(id=f"contract_{i}",
                               source=f"// contract_{i} {tags.get(i, 'plain')}\n")
                  for i in range(24)]
        tool = make_tool("Lister", AdapterConfig(kind="text", command=self.LISTER,
                                                 timeout=1.0))
        raw = tmp_path / "raw"
        records = execute_campaign([tool], corpus, parallelism=jobs, raw_dir=raw)
        assert {r.contract: r.status for r in records} == {
            case.id: "timeout" if case.id == "contract_9" else "ok" for case in corpus}
        used = set()
        for case in corpus:
            if case.id == "contract_9":
                continue
            listing, source, task_dir = (
                (raw / "Lister" / f"{case.id}.out").read_text().split("\n", 2))
            assert (listing, source + "\n") == ("contract.sol", case.source)
            used.add(task_dir)
        # a directory is kept for the next task unless its tool left a file
        # in it or timed out, as three do; no more exist than tasks run at once
        assert len(used) <= jobs + 3
        assert list(private_tempdir.iterdir()) == []


class TestNeverStarted:
    def test_command_tool_whose_every_task_is_a_harness_error(self, tmp_path):
        # the program resolves, but its interpreter does not exist
        program = tmp_path / "broken"
        program.write_text("#!/no-such-interpreter\n")
        program.chmod(0o755)
        absent = make_tool("Absent", AdapterConfig(
            kind="json", command=f"{program} {{input}}"))
        failing = make_tool("Failing", AdapterConfig(
            kind="json", command=f"{PY} -c 'raise SystemExit(3)'"))
        problems = {}
        records = execute_campaign([absent, failing], [make_case(0), make_case(1)],
                                   problems=problems)
        assert problems == {"Absent": ["tool Absent: all 2 task(s) ended in "
                                       "harness_error (first: contract_0)"]}
        assert sorted((r.tool, r.status) for r in records) == [
            ("Absent", "harness_error")] * 2 + [("Failing", "tool_error")] * 2

    def test_one_task_that_ran_clears_the_tool(self, tmp_path):
        # the program exists only while the first task runs
        program = tmp_path / "once"
        program.write_text(f"#!/bin/sh\nrm -f {program}\necho '{{}}'\n")
        program.chmod(0o755)
        tool = make_tool("Once", AdapterConfig(kind="json", command=f"{program} {{input}}"))
        problems = {}
        records = execute_campaign([tool], [make_case(0), make_case(1)], problems=problems)
        assert [r.status for r in records] == ["ok", "harness_error"]
        assert problems == {}


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

    def test_duplicate_names_file_and_line_of_second_copy(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([ScanRecord("T", "c1", "ok", 10), ScanRecord("T", "c2", "ok", 10)], path)
        copy = path.read_bytes().splitlines(keepends=True)[0]
        path.write_bytes(path.read_bytes() + b"\n" + copy)  # a blank line 3
        assert len(read_records(path)) == 3
        with pytest.raises(ScbenchError) as info:
            load_record_set(path)
        assert str(info.value) == f"{path}:4: duplicate record for (T, c1)"

    def test_findings_require_ok_status(self):
        with pytest.raises(ScbenchError):
            ScanRecord("T", "c", "timeout", 1, {"V1": frozenset()})

    def test_unknown_status_rejected(self):
        with pytest.raises(ScbenchError):
            ScanRecord("T", "c", "weird", 1)

    def test_lookups_by_pair_and_by_tool(self):
        rs = RecordSet([ScanRecord("T", "c1", "ok", 5)])
        assert rs.for_tool("T") == [rs.get("T", "c1")]
        assert rs.for_tool("U") == []
        with pytest.raises(MissingRecord):
            rs.get("T", "c2")


# one line of the records file, keys sorted as the writer sorts them
def record_line(contract: str) -> str:
    return ('{"contract": "%s", "duration_ms": 10, "findings": [], "raw_ref": null, '
            '"status": "ok", "tool": "T"}' % contract)


def drawn_text():
    """Text with quotes, backslashes, control, non-ASCII and astral
    characters; lone surrogates aside, which JSON cannot carry through."""
    special = st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u00e9\u2028\ufeff\U0001f600')
    return st.text(st.characters(blacklist_categories=("Cs",)) | special, max_size=12)


@st.composite
def scan_records(draw):
    status = draw(st.sampled_from(STATUSES))
    findings = draw(st.dictionaries(
        drawn_text(), st.frozensets(st.integers(), max_size=4), max_size=3)
        if status == "ok" else st.just({}))
    return ScanRecord(draw(drawn_text()), draw(drawn_text()), status,
                      draw(st.integers(min_value=0)), findings,
                      draw(st.none() | drawn_text()))


class TestRecordCodec:
    @given(scan_records())
    @settings(max_examples=300, deadline=None)
    def test_to_json_is_the_sorted_key_document(self, rec):
        doc = {
            "tool": rec.tool, "contract": rec.contract, "status": rec.status,
            "duration_ms": rec.duration_ms,
            "findings": [{"class": cid, "lines": sorted(lines)}
                         for cid, lines in sorted(rec.findings.items())],
            "raw_ref": rec.raw_ref,
        }
        assert rec.to_json() == json.dumps(doc, sort_keys=True)
        assert _from_doc(json.loads(rec.to_json())) == rec

    @given(st.lists(scan_records(), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_file_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("codec") / "records.jsonl"
        write_records(records, path)
        assert read_records(path) == sorted(records, key=lambda r: (r.tool, r.contract))

    @pytest.mark.parametrize("text, contracts", [
        (" \t" + record_line("c1") + " \t\n" + record_line("c2"), ["c1", "c2"]),
        ("\n\n" + record_line("c1") + "\n \t\n\n" + record_line("c2") + "\n\n",
         ["c1", "c2"]),
        (record_line("c1") + "\r\n" + record_line("c2") + "\r\n", ["c1", "c2"]),
        (record_line("c1") + "\r\n\r\n \r\n", ["c1"]),
        ("\x0c\n" + record_line("c1") + "\n\u3000\n", ["c1"]),  # str.strip() blanks
        (record_line("\u00e9\U0001f600") + "\n", ["\u00e9\U0001f600"]),  # raw UTF-8
        ("", []),
    ], ids=["surrounding-space", "blank-lines", "crlf", "crlf-blank-lines",
            "non-json-space-blanks", "raw-utf8", "empty"])
    def test_accepted_layouts(self, tmp_path, text, contracts):
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert [r.contract for r in read_records(path)] == contracts

    @pytest.mark.parametrize("text, lineno, detail", [
        (record_line("c1") + " " + record_line("c2") + "\n", 1, "Extra data"),
        (record_line("c1") + record_line("c2") + "\n", 1, "Extra data"),
        (record_line("c1") + "\n" + record_line("c2").replace(", ", ",\n", 1) + "\n",
         2, "Expecting property name"),
        (record_line("c1").replace(": ", ":\n", 1) + "\n", 1, "Expecting value"),
        (record_line("c1") + "\n\x0c" + record_line("c2") + "\n", 2, "Expecting value"),
        (record_line("c1") + "\n" + record_line("c2") + " x\n", 2, "Extra data"),
        (record_line("c1").replace("[]", '[{"class": "V1", "lines": ["1"]}]') + "\n", 1,
         "line '1' of V1 is not an integer"),
        (record_line("c1").replace("[]", '[{"class": "V1", "lines": [true]}]') + "\n", 1,
         "line True of V1 is not an integer"),
        (record_line("c1").replace("10", "Infinity") + "\n", 1,
         "cannot convert float infinity to integer"),
    ], ids=["two-on-a-line-spaced", "two-on-a-line", "split-after-comma", "split-after-colon",
            "non-json-space-before", "trailing-garbage", "string-line", "bool-line",
            "infinite-duration"])
    def test_rejected_layouts_name_the_first_bad_line(self, tmp_path, text, lineno, detail):
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ScbenchError) as info:
            read_records(path)
        assert str(info.value).startswith(f"{path}:{lineno}: ")
        assert detail in str(info.value)

    def test_unreadable_file_is_an_error(self, tmp_path):
        with pytest.raises(ScbenchError, match="cannot read records .*: No such file"):
            read_records(tmp_path / "absent.jsonl")


class TestScanRecord:
    @pytest.mark.parametrize("args, detail", [
        (("T", "c", "ok", 1, {"V1": frozenset({"1"})}), "line '1' of V1 is not an integer"),
        (("T", "c", "ok", 1, {"V1": frozenset({True})}), "line True of V1 is not an integer"),
        (("T", "c", "ok", 1, {1: frozenset()}), "class id 1 is not a string"),
        (("T", "c", "ok", 1.5), "duration_ms 1.5 is not an integer"),
        (("T", "c", "ok", -1), "negative duration"),
        (("T", 7, "ok", 1), "must be strings"),
        (("T", "c", "ok", 1, {}, 3), "must be strings"),
    ])
    def test_fields_checked(self, args, detail):
        with pytest.raises(ScbenchError, match=detail):
            ScanRecord(*args)

    def test_immutable_and_equal_only_to_records(self):
        rec = ScanRecord("T", "c", "ok", 1, {"V1": frozenset({2})})
        assert rec == ScanRecord(tool="T", contract="c", status="ok", duration_ms=1,
                                 findings={"V1": frozenset({2})})
        assert rec != ScanRecord("T", "c", "ok", 2, {"V1": frozenset({2})})
        assert rec != tuple(rec) and tuple(rec) != rec
        assert ScanRecord("T", "c", "timeout", 1).findings == {}
        with pytest.raises(AttributeError):
            rec.status = "timeout"
        with pytest.raises(TypeError):
            hash(rec)

    def test_replace_checks_the_new_record(self):
        rec = ScanRecord("T", "c", "ok", 1, {"V1": frozenset({2})})
        assert rec._replace(findings={}) == ScanRecord("T", "c", "ok", 1)
        with pytest.raises(ScbenchError, match="findings must be empty"):
            rec._replace(status="timeout")


def test_gc_paused_restores_the_collector():
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with gc_paused():
            assert not gc.isenabled()
            raise RuntimeError
    assert gc.isenabled()
    gc.disable()
    try:
        with gc_paused():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("module", ["scbench.corpus", "scbench.runner"])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
