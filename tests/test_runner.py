import errno
import gc
import importlib
import io
import json
import os
import re
import resource
import selectors
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbench import records as records_mod
from scbench import runner
from scbench.adapters import AdapterConfig, ReplayFixture, parse_json_output
from scbench.corpus import ContractCase
from scbench.errors import DuplicateRecord, ScbenchError
from scbench.records import (STATUSES, RecordSet, ScanRecord, _fields, gc_paused,
                             load_outcomes, read_records, write_records)
from scbench.runner import execute_campaign
from scbench.taxonomy import Registry, ToolDescriptor, VersionId

from .conftest import LABELLED_DIR, REPLAY_DIR, replay_tool
from .test_taxonomy import JSON_VALUES

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
    kernel without pidfds. Checks that the chosen path is the one taken:
    a pidfd opened for each tool, or none."""
    opened = []  # a pidfd per spawn, or None where pidfd_open failed
    if request.param == "fallback":
        def pidfd_open(pid):
            opened.append(None)
            raise OSError(errno.ENOSYS, "pidfd_open unavailable")
    elif not hasattr(os, "pidfd_open"):
        pytest.skip("os.pidfd_open is Linux-only")
    else:
        def pidfd_open(pid, real=os.pidfd_open):
            opened.append(real(pid))
            return opened[-1]
    monkeypatch.setattr(os, "pidfd_open", pidfd_open, raising=False)
    yield request.param
    assert opened and all((fd is None) == (request.param == "fallback")
                          for fd in opened), opened


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
                 replay_tool(tmp_path, "Full", {f"contract_{i}": {} for i in range(3)})]
        problems = {}
        records = execute_campaign(tools, [make_case(i) for i in range(3)],
                                   problems=problems)
        assert problems == {
            "Echo": ["replay fixture for Echo does not cover 2 of 3 contract(s) "
                     "(first: contract_0)"],
        }
        assert sorted((r.tool, r.contract, r.status) for r in records
                      if r.tool == "Echo") == [
            ("Echo", "contract_0", "harness_error"),
            ("Echo", "contract_1", "ok"),
            ("Echo", "contract_2", "harness_error"),
        ]
        assert [(r.status, r.duration_ms) for r in records if r.tool == "Full"] == [
            ("ok", 0)] * 3

    def test_missing_fixture_fails_the_campaign(self, tmp_path):
        ghost, seen = make_tool("Ghost", AdapterConfig(kind="replay")), []
        with pytest.raises(ScbenchError, match="^replay adapter for Ghost has no fixture "
                                               "and no --replay dir was given$"):
            execute_campaign([ghost], [make_case()], on_record=seen.append)
        missing = tmp_path / "Ghost.json"
        with pytest.raises(ScbenchError, match=f"^cannot read replay fixture "
                                               f"{re.escape(str(missing))}: No such file "
                                               f"or directory$"):
            execute_campaign([ghost], [make_case()], replay_dir=tmp_path,
                             on_record=seen.append)
        assert seen == []

    @pytest.mark.parametrize("content, detail", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b"[]", "top level is a list, not an object"),
        (b"null", "top level is a NoneType, not an object"),
        (b'"x"', "top level is a str, not an object"),
        (b'[["contract_0", {}]]', "top level is a list, not an object"),
    ], ids=["not-utf8", "not-json", "list", "null", "string", "pairs"])
    def test_fixture_that_is_not_an_object_fails_the_campaign(self, tmp_path, content,
                                                              detail):
        fixture = tmp_path / "Echo.json"
        fixture.write_bytes(content)
        tool = make_tool("Echo", AdapterConfig(kind="replay", fixture=str(fixture)))
        with pytest.raises(ScbenchError) as exc:
            execute_campaign([tool], [make_case()])
        assert str(exc.value) == f"cannot read replay fixture {fixture}: {detail}"

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
        ({"duration_ms": "soon"}, "duration_ms 'soon' is not an integer"),
        ({"duration_ms": -1}, "negative duration"),
        ({"findings": [{"class": "V1", "lines": ["7"]}]}, "line '7' of V1 is not an integer"),
        ({"findings": [{"class": "V1", "lines": "7"}]}, "line '7' of V1 is not an integer"),
        ({"status": "timeout", "findings": [{"class": "V1", "lines": [True]}]},
         "line True of V1 is not an integer"),
        ({"findings": [{"lines": [7]}]}, "missing field 'class'"),
        ([1, 2], "'list' object has no attribute 'get'"),
        (None, "'NoneType' object has no attribute 'get'"),
        ({"duration_ms": 1.5}, "duration_ms 1.5 is not an integer"),
        ({"duration_ms": "12"}, "duration_ms '12' is not an integer"),
        ({"status": "timeout", "duration_ms": True}, "duration_ms True is not an integer"),
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

    # an entry of the fixture's shape, or any JSON value
    _FINDINGS = st.lists(st.dictionaries(
        st.sampled_from(["class", "lines"]),
        st.sampled_from(["V1", "V11"]) | st.lists(st.integers(), max_size=2) | JSON_VALUES,
        max_size=2) | JSON_VALUES, max_size=2)
    ENTRIES = st.dictionaries(
        st.sampled_from(["status", "duration_ms", "findings"]),
        st.sampled_from(STATUSES) | st.integers(min_value=-1) | _FINDINGS | JSON_VALUES,
        max_size=3) | JSON_VALUES

    @settings(max_examples=300, deadline=None)
    @given(entries=st.dictionaries(st.sampled_from(["c0", "c1"]), ENTRIES))
    def test_any_entry_is_a_record_none_or_a_scbench_error(self, entries):
        # so the replay loop needs no catch-all: only ScbenchError is caught
        fixture = ReplayFixture(entries)
        for contract in ("c0", "c1"):
            try:
                record = fixture.record("T", contract)
            except ScbenchError:
                continue
            if contract in entries:
                assert type(record) is ScanRecord and record.contract == contract
            else:
                assert record is None

    def test_each_record_has_its_own_findings(self, tmp_path):
        entry = {"findings": [{"class": "V1", "lines": [3]}]}
        tool = replay_tool(tmp_path, "Echo", {"contract_0": entry, "contract_1": entry})
        first, second = execute_campaign([tool], [make_case(0), make_case(1)])
        assert first.findings == second.findings == {"V1": frozenset({3})}
        assert first.findings is not second.findings

    def test_out_of_capability_findings_dropped_and_counted(self, tmp_path, caplog):
        entry = {"findings": [{"class": cid, "lines": [line]}
                              for cid, line in (("V1", 17), ("V3", 4), ("V5", 9))]}
        tool = replay_tool(tmp_path, "Stub", {f"contract_{i}": entry for i in range(3)},
                           capabilities=("V1",))
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

    def test_missing_binary_fails_before_any_task(self, tmp_path):
        tool = make_tool("Ghost", AdapterConfig(
            kind="json", command="definitely-not-a-binary-xyz {input}",
        ))
        inline = make_tool("Echo", AdapterConfig())
        found = make_tool("Sh", AdapterConfig(kind="json", command="sh {input}"))
        seen = []
        with pytest.raises(ScbenchError, match="^tool Ghost: program "
                                               "'definitely-not-a-binary-xyz' not found$"):
            execute_campaign([inline, found, tool], [make_case()], on_record=seen.append,
                             raw_dir=tmp_path / "raw")
        assert seen == []  # not even the inline tool ran
        assert not (tmp_path / "raw").exists()  # nor a raw output directory made

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
        per_tool = {}  # the dispatch interleaves the tools
        for args, exe in spawned:
            per_tool.setdefault(args[0], []).append((args[:-1], exe))
        assert per_tool == {"sh": [(["sh", "-c", ":", "x", "0.8.x"], sh)] * 3,
                            "./tool.sh": [(["./tool.sh"], str(tmp_path / "tool.sh"))] * 3}
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
        config = AdapterConfig(kind="text", command="sh -c 'echo \"$0 {input}\"' x",
                               rule_map={"contract.sol": "V1"})
        tools = [make_tool("Echo", config), make_tool("Again", config)]
        split, calls = shlex.split, []

        def counting_split(*args, **kwargs):
            calls.append(args[0])
            return split(*args, **kwargs)

        monkeypatch.setattr(shlex, "split", counting_split)
        records = execute_campaign(tools, [make_case(i) for i in range(3)], parallelism=2)
        assert [(r.status, r.findings) for r in records] == [("ok", {"V1": frozenset()})] * 6
        assert calls == [config.command] * 2  # once per tool, none per task

    @pytest.mark.parametrize("command", ["sh -c 'unterminated {input}", "echo \\"])
    def test_template_that_cannot_be_split_is_rejected(self, command):
        with pytest.raises(ScbenchError, match="cannot be split"):
            AdapterConfig(kind="json", command=command)


class TestCampaign:
    @staticmethod
    def _registry(directory):
        """Replay tools A, which flags V1 at line 1 of contracts 0..2, and B,
        which flags nothing in them."""
        flagged = {"findings": [{"class": "V1", "lines": [1]}]}
        return Registry((
            replay_tool(directory, "A", {f"contract_{i}": flagged for i in range(3)}),
            replay_tool(directory, "B", {f"contract_{i}": {} for i in range(3)}),
        ))

    def test_every_pair_enumerated(self, tmp_path):
        corpus = [make_case(i) for i in range(3)]
        records = execute_campaign(self._registry(tmp_path), corpus)
        assert len(records) == 6
        pairs = {(r.tool, r.contract) for r in records}
        assert len(pairs) == 6

    def test_zero_cases_zero_records(self, tmp_path):
        assert execute_campaign(self._registry(tmp_path), []) == []

    def test_parallelism_invariant_content(self, tmp_path):
        corpus = [make_case(i) for i in range(3)]
        seq = tmp_path / "seq.jsonl"
        par = tmp_path / "par.jsonl"
        write_records(execute_campaign(self._registry(tmp_path), corpus, 1), seq)
        write_records(execute_campaign(self._registry(tmp_path), corpus, 4), par)
        assert seq.read_bytes() == par.read_bytes()

    def test_parallelism_must_be_positive(self, tmp_path):
        with pytest.raises(ScbenchError):
            execute_campaign(self._registry(tmp_path), [], parallelism=0)

    def test_sink_receives_every_record(self, tmp_path):
        seen = []
        execute_campaign(self._registry(tmp_path), [make_case(0)],
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
        assert len(started.read_text().splitlines()) <= jobs
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

    def test_abort_kills_a_tool_spawned_while_the_sink_fails(self, tmp_path,
                                                             private_tempdir, monkeypatch):
        # contract_1's spawn takes 0.3 s, and contract_0 ends and fails the
        # sink meanwhile: the abort must kill the tool that spawn starts
        pid_file = tmp_path / "slow.pid"
        tool = make_tool("Slow", AdapterConfig(
            kind="json", timeout=60.0,
            command=f"sh -c 'grep -q contract_1 {{input}} || exit 0; "
                    f"echo $$ > {pid_file}; exec sleep 30'",
        ))
        cases = [ContractCase(id=f"contract_{i}", source=f"// contract_{i}\n")
                 for i in range(2)]
        init = subprocess.Popen.__init__

        def slow_spawn(self, args, *rest, **kwargs):
            # the input path sits inside the -c script, not at an argument's end
            for path in re.findall(r"\S*/contract\.sol", " ".join(args)):
                with open(path) as fh:
                    if "contract_1" in fh.read():
                        time.sleep(0.3)
            init(self, args, *rest, **kwargs)

        def sink(record):
            raise RuntimeError("sink is full")

        monkeypatch.setattr(subprocess.Popen, "__init__", slow_spawn)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="sink is full"):
            execute_campaign([tool], cases, parallelism=2, on_record=sink)
        assert time.monotonic() - start < 10
        if pid_file.exists() and pid_file.read_text():
            assert not alive(int(pid_file.read_text()))
        assert list(private_tempdir.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_at_most_jobs_tools_run_at_once(self, tmp_path, monkeypatch, jobs):
        log = tmp_path / "log"
        tool = make_tool("Sleeper", AdapterConfig(
            kind="json", timeout=10.0,
            command=f"sh -c 'echo start >> {log}; sleep 0.5; echo end >> {log}; echo {{}}'",
        ))
        made = []

        class CountedSelector(selectors.DefaultSelector):
            def __init__(self):
                made.append(self)
                super().__init__()

        monkeypatch.setattr(selectors, "DefaultSelector", CountedSelector)
        records = execute_campaign([tool], [make_case(i) for i in range(2 * jobs)],
                                   parallelism=jobs)
        assert [r.status for r in records] == ["ok"] * 2 * jobs
        assert len(made) == 1  # one selector for the whole campaign
        running = most = 0
        for event in log.read_text().split():
            running += 1 if event == "start" else -1
            most = max(most, running)
        assert most == jobs

    def test_jobs_beyond_the_open_file_limit_are_refused(self, tmp_path):
        soft, hard = 40, resource.getrlimit(resource.RLIMIT_NOFILE)[1]
        if hard != resource.RLIM_INFINITY and hard < soft:
            pytest.skip(f"hard open-file limit {hard} is below {soft}")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"tools": [{
            "name": "Echo", "capabilities": ["V1"], "max_solidity": "0.8",
            "adapter": {"kind": "json", "command": "sh -c 'echo {}' echo {input}"}}]}))
        corpus = tmp_path / "flat"
        corpus.mkdir()
        for i in range(3):
            (corpus / f"c{i}.sol").write_text("contract C {}\n")
        # lowers only its own soft limit, then runs the command
        code = ("import resource, sys\n"
                "limit = resource.RLIMIT_NOFILE\n"
                f"resource.setrlimit(limit, ({soft}, resource.getrlimit(limit)[1]))\n"
                "from scbench.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        results = {}
        for jobs in ("16", "4"):
            out = tmp_path / f"j{jobs}.jsonl"
            proc = subprocess.run([PY, "-c", code, "run", "--corpus", str(corpus),
                                   "--registry", str(registry), "--jobs", jobs,
                                   "--out", str(out)],
                                  env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                                  text=True, timeout=60)
            results[jobs] = proc.returncode, proc.stderr, out
        rc, err, out = results["16"]
        assert rc == 1
        assert re.fullmatch(r"error: --jobs 16 needs 52 file descriptors beside the \d+ "
                            r"open, over the soft open-file limit of 40 \(ulimit -n\)\n", err)
        assert not out.exists()
        rc, err, out = results["4"]  # four tools fit
        assert (rc, err) == (0, "")
        assert [r.status for r in read_records(out)] == ["ok"] * 3

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
            replay_tool(tmp_path, "Flags", {f"contract_{i}": {
                "findings": [{"class": "V1", "lines": [1]}]} for i in range(4)}),
            make_tool("Json", AdapterConfig(kind="json", command=f"{PY} {script} {{input}}",
                                            rule_map={"reentrancy": "V1"})),
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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_replay_run_loads_no_spawn_module(self, tmp_path, jobs):
        """``scbench run`` of a replay campaign, in a fresh interpreter,
        loads none of the modules that only command tools need."""
        code = (
            "import json, sys\n"
            "from scbench.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        out = tmp_path / "records.jsonl"
        proc = subprocess.run([PY, "-c", code, "run", "--corpus", str(LABELLED_DIR),
                               "--replay", str(REPLAY_DIR), "--jobs", jobs,
                               "--out", str(out)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        rc, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 13 * 389
        assert "scbench.runner" in loaded
        spawn_only = {"subprocess", "selectors", "signal", "concurrent.futures"}
        assert spawn_only.isdisjoint(loaded)


class TestDispatch:
    def test_pick_unknown_tools_first_then_longest_mean(self):
        queues = {name: deque(range(3)) for name in "ABCD"}
        statuses, seconds = {name: Counter() for name in queues}, Counter()

        def pick():
            return runner._pick(queues, statuses, seconds)

        def end(name, status, secs):
            statuses[name][status] += 1
            seconds[name] += secs

        assert pick() == "A"  # every tool unknown: registry order
        queues["A"].popleft()
        assert pick() == "B"  # an unknown tool with fewer started first
        queues["B"].popleft()
        end("A", "ok", 1.0)
        end("B", "timeout", 3.0)
        assert pick() == "C"  # an unknown tool before any known one
        queues["C"].popleft()
        assert pick() == "D"
        queues["D"].popleft()
        end("C", "tool_error", 2.0)
        end("D", "harness_error", 0.0)
        assert pick() == "B"  # means: B 3.0, C 2.0, A 1.0, D 0.0
        end("B", "ok", 1.0)
        assert pick() == "B"  # a tie at 2.0 goes in registry order
        queues["B"].clear()
        assert pick() == "C"  # only tools with a pending task
        for queue in queues.values():
            queue.clear()
        assert pick() is None

    def test_slowest_tool_dispatched_first(self, monkeypatch):
        spawned = []

        class SpyPopen(subprocess.Popen):
            def __init__(self, args, **kwargs):
                spawned.append(args[2])  # the tool's script
                super().__init__(args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", SpyPopen)
        fast = make_tool("Fast", AdapterConfig(kind="json", command="sh -c 'echo {}'",
                                               timeout=10.0))
        slow = make_tool("Slow", AdapterConfig(kind="json", command="sh -c 'sleep 0.05; echo {}'",
                                               timeout=10.0))
        records = execute_campaign([fast, slow], [make_case(i) for i in range(4)],
                                   parallelism=2)
        assert sorted(r.status for r in records) == ["ok"] * 8
        order = ["Slow" if "sleep" in script else "Fast" for script in spawned]
        # each tool's first task probes it, then the slow one keeps the slots
        assert order == ["Fast", "Slow", "Slow", "Slow", "Slow", "Fast", "Fast", "Fast"]

    def test_mixed_campaign_identical_across_jobs(self, tmp_path, caplog):
        broken = tmp_path / "broken"  # resolves, but its interpreter does not exist
        broken.write_text("#!/no-such-interpreter\n")
        broken.chmod(0o755)
        tools = [
            make_tool("Ok", AdapterConfig(kind="json", command="sh -c 'echo {}'")),
            make_tool("Fails", AdapterConfig(kind="json", command="sh -c 'exit 3'")),
            make_tool("Hangs", AdapterConfig(kind="json", command="sleep 5", timeout=0.3)),
            make_tool("Broken", AdapterConfig(kind="json", command=f"{broken} {{input}}")),
        ]
        corpus = [make_case(i) for i in range(3)]
        outputs, raw_files, all_problems = [], [], []
        for jobs in (1, 2, 8):
            out, raw, problems = tmp_path / f"j{jobs}.jsonl", tmp_path / f"raw{jobs}", {}
            caplog.clear()
            with caplog.at_level("INFO", logger="scbench.runner"):
                records = execute_campaign(tools, corpus, parallelism=jobs, raw_dir=raw,
                                           problems=problems)
            write_records([r._replace(duration_ms=0, raw_ref=r.raw_ref and os.path.relpath(
                r.raw_ref, raw)) for r in records], out)
            outputs.append(out.read_bytes())
            raw_files.append({path.relative_to(raw): path.read_bytes()
                              for path in raw.rglob("*") if path.is_file()})
            all_problems.append(problems)
            summary = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
            assert [line.partition(", mean")[0] for line in summary] == [
                "Ok: 3 task(s), 3 ok", "Fails: 3 task(s), 3 tool_error",
                "Hangs: 3 task(s), 3 timeout", "Broken: 3 task(s), 3 harness_error"]
            # a timeout counts at its cap, a task that did not start at 0
            assert summary[2].endswith("mean 300.0 ms") and summary[3].endswith("mean 0.0 ms")
        assert outputs[0] == outputs[1] == outputs[2]
        assert raw_files[0] == raw_files[1] == raw_files[2]
        assert sorted(map(str, raw_files[0])) == [
            f"{tool}/contract_{i}.out" for tool in ("Fails", "Ok") for i in range(3)]
        assert all_problems[0] == all_problems[1] == all_problems[2] == {
            name: [f"tool {name}: none of 3 task(s) ended ok (3 {status}; first: contract_0)"]
            for name, status in (("Fails", "tool_error"), ("Hangs", "timeout"),
                                 ("Broken", "harness_error"))}
        assert {(r.tool, r.status) for r in read_records(out)} == {
            ("Ok", "ok"), ("Fails", "tool_error"), ("Hangs", "timeout"),
            ("Broken", "harness_error")}


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
class TestHygiene:
    """However a campaign ends, it leaves no descriptor open and no tool
    running."""

    TOOL = ("import sys, time\n"
            "source = open(sys.argv[1]).read()\n"
            "if 'fail' in source: sys.exit(3)\n"
            "if 'hang' in source: time.sleep(5)\n"
            "if 'big' in source: sys.stderr.write('e' * 2**20); sys.stdout.write(' ' * 2**20)\n"
            "print('{\"findings\": []}')\n")

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_no_descriptor_or_tool_outlives_a_campaign(self, tmp_path, private_tempdir,
                                                       monkeypatch, wait_path, jobs):
        script = tmp_path / "tool.py"
        script.write_text(self.TOOL)
        broken = tmp_path / "broken"  # its interpreter does not exist
        broken.write_text("#!/no-such-interpreter\n")
        broken.chmod(0o755)
        tool = make_tool("Tool", AdapterConfig(kind="json", timeout=0.5,
                                               command=f"{PY} {script} {{input}}"))
        absent = make_tool("Absent", AdapterConfig(kind="json", command=f"{broken} {{input}}"))
        pids = []
        init = subprocess.Popen.__init__

        def spawn(self, *args, **kwargs):
            init(self, *args, **kwargs)
            pids.append(self.pid)

        def failing(record):
            raise RuntimeError("sink is full")

        def corpus(*tags):
            return [ContractCase(f"contract_{i}", f"// {tag}\n") for i, tag in enumerate(tags)]

        monkeypatch.setattr(subprocess.Popen, "__init__", spawn)
        campaigns = [
            ([tool], corpus("ok", "fail", "hang", "big"), None,
             ["ok", "tool_error", "timeout", "ok"]),
            ([absent], corpus("ok"), None, ["harness_error"]),
            ([tool], corpus("ok", "hang", "hang", "hang"), failing, None),
        ]
        for tools, cases, sink, statuses in campaigns:
            open_before = len(os.listdir("/proc/self/fd"))
            try:
                records = execute_campaign(tools, cases, parallelism=jobs, on_record=sink)
            except RuntimeError:
                assert sink is failing
            else:
                assert sorted(r.status for r in records) == sorted(statuses)
            assert len(os.listdir("/proc/self/fd")) == open_before
            assert [pid for pid in pids if alive(pid)] == []
            assert list(private_tempdir.iterdir()) == []
        assert len(pids) >= 5


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
        assert problems == {
            "Absent": ["tool Absent: none of 2 task(s) ended ok "
                       "(2 harness_error; first: contract_0)"],
            "Failing": ["tool Failing: none of 2 task(s) ended ok "
                        "(2 tool_error; first: contract_0)"]}
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


MALFORMED_LINES = [
    (b'{"tool": "T", "contract": "c2", "sta', "Unterminated string"),
    (b'{"tool": "T", "contract": "c2"}', "missing field 'status'"),
    (b'{"tool": "T", "contract": "c2", "status": "odd", "duration_ms": 1}',
     "unknown status 'odd'"),
    (b'["not", "a", "record"]', "list indices must be integers"),
    (b'{"tool": "T\xff"}', "'utf-8' codec can't decode byte 0xff"),
    # the writer lists each class once; a second entry would replace the first
    (b'{"tool": "T", "contract": "c2", "status": "ok", "duration_ms": 1, "findings": '
     b'[{"class": "V1", "lines": [3]}, {"class": "V2"}, {"class": "V1", "lines": [5]}]}',
     "findings list class 'V1' twice"),
]


def after_a_blank_line(bad: bytes) -> bytes:
    """A records file of one good record, a blank line 2 and ``bad``."""
    return ScanRecord("T", "c1", "ok", 10).to_json().encode() + b"\n\n" + bad


def corpus_of(*ids):
    """A corpus of empty contracts with these ids."""
    return [ContractCase(cid, "") for cid in ids]


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

    @pytest.mark.parametrize("bad, detail", MALFORMED_LINES)
    def test_malformed_line_names_file_and_line(self, tmp_path, bad, detail):
        path = tmp_path / "records.jsonl"
        path.write_bytes(after_a_blank_line(bad))
        with pytest.raises(ScbenchError) as info:
            read_records(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert detail in str(info.value)

    def test_duplicate_names_file_and_line_of_second_copy(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([ScanRecord("T", "c1", "ok", 10), ScanRecord("T", "c2", "ok", 10)], path)
        first, second = path.read_bytes().splitlines()
        for end, blank in [(b"\n", b""), (b"\r\n", b" "), (b"\r", b"\t")]:
            path.write_bytes(end.join([first, second, blank, first, b""]))  # blank line 3
            assert len(read_records(path)) == 3
            with pytest.raises(DuplicateRecord) as info:
                load_outcomes(path, corpus_of("c1", "c2"))
            assert str(info.value) == f"{path}:4: duplicate record for (T, c1)"

    def test_duplicate_is_found_in_one_read(self, tmp_path, monkeypatch):
        path = tmp_path / "records.jsonl"
        write_records([ScanRecord("T", "c1", "ok", 10)] * 2, path)
        opened = []

        def counted(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(records_mod, "open", counted, raising=False)
        with pytest.raises(ScbenchError, match="duplicate record"):
            load_outcomes(path, corpus_of("c1"))
        assert opened == [path]

    @pytest.mark.parametrize("second", [None, b"{"], ids=["duplicate", "malformed"])
    def test_failed_load_restores_the_collector_and_closes_the_file(self, tmp_path, second):
        path = tmp_path / "records.jsonl"
        write_records([ScanRecord("T", "c1", "ok", 10)], path)
        first = path.read_bytes()
        path.write_bytes(first + (second or first))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ScbenchError) as info:
                load_outcomes(path, corpus_of("c1"))
            assert str(info.value).startswith(f"{path}:2: ")
            del info  # its traceback holds the frames of the load
            gc.collect()
        assert gc.isenabled()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_findings_require_ok_status(self):
        with pytest.raises(ScbenchError):
            ScanRecord("T", "c", "timeout", 1, {"V1": frozenset()})

    def test_unknown_status_rejected(self):
        with pytest.raises(ScbenchError):
            ScanRecord("T", "c", "weird", 1)

    def test_lookups_by_pair_and_by_tool(self):
        rec = ScanRecord("T", "c1", "ok", 5)
        rs = RecordSet([rec])
        assert rs.of_tool("T") == {"c1": rec}
        assert rs.of_tool("U") == {}


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


REJECTED_LAYOUTS = [
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
     "duration_ms inf is not an integer"),
    *((record_line("c1").replace("10", value) + "\n", 1,
       f"duration_ms {shown} is not an integer")
      for value, shown in (("1.5", "1.5"), ("true", "True"), ('"12"', "'12'"))),
]
REJECTED_IDS = ["two-on-a-line-spaced", "two-on-a-line", "split-after-comma",
                "split-after-colon", "non-json-space-before", "trailing-garbage",
                "string-line", "bool-line", "infinite-duration", "float-duration",
                "bool-duration", "string-duration"]


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
        assert ScanRecord(*_fields(json.loads(rec.to_json()))) == rec

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

    @pytest.mark.parametrize("text, lineno, detail", REJECTED_LAYOUTS, ids=REJECTED_IDS)
    def test_rejected_layouts_name_the_first_bad_line(self, tmp_path, text, lineno, detail):
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ScbenchError) as info:
            read_records(path)
        assert str(info.value).startswith(f"{path}:{lineno}: ")
        assert detail in str(info.value)

    @pytest.mark.parametrize("data", [after_a_blank_line(bad) for bad, _ in MALFORMED_LINES]
                             + [text.encode() for text, _, _ in REJECTED_LAYOUTS],
                             ids=[f"malformed-{i}" for i in range(len(MALFORMED_LINES))]
                             + REJECTED_IDS)
    def test_fold_refuses_a_line_as_read_records_does(self, tmp_path, data):
        path = tmp_path / "records.jsonl"
        path.write_bytes(data)
        messages = []
        for read in (read_records, lambda p: load_outcomes(p, corpus_of("c1", "c2"))):
            with pytest.raises(ScbenchError) as info:
                read(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{path}:")

    def test_unreadable_file_is_an_error(self, tmp_path):
        with pytest.raises(ScbenchError, match="cannot read records .*: No such file"):
            read_records(tmp_path / "absent.jsonl")
        with pytest.raises(ScbenchError, match="cannot read records .*: No such file"):
            load_outcomes(tmp_path / "absent.jsonl", corpus_of("c1"))


def read_error(path) -> str:
    with pytest.raises(ScbenchError) as info:
        read_records(path)
    return str(info.value)


class TestReaderLines:
    """The reader numbers lines as ``bytes.splitlines`` of the whole file
    does, however the file is read."""

    BAD = b'{"tool": "T", "contract": "bad", "sta'

    @pytest.mark.parametrize("ends", [
        ["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"], ["\r", "\r", "\n"],
    ], ids=["lf", "crlf", "cr", "mixed", "cr-cr-lf"])
    def test_every_line_end_counts_once(self, tmp_path, ends):
        lines = [record_line(f"c{i}") for i in range(7)] + [" ", "\t"]
        data = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        path = tmp_path / "records.jsonl"
        path.write_bytes(data.encode() + self.BAD)
        lineno = len(path.read_bytes().splitlines())
        assert lineno == len(lines) + 1
        assert read_error(path).startswith(f"{path}:{lineno}: Unterminated string")
        path.write_bytes(data.encode())
        assert [r.contract for r in read_records(path)] == [f"c{i}" for i in range(7)]

    def test_crlf_across_read_buffer_boundaries(self, tmp_path):
        # a blank line of spaces puts the "\r" of a "\r\n" on the last byte of
        # each multiple of 4 KiB up to 256 KiB, so that for any read buffer
        # of such a size some "\r\n" straddles its end; lone "\r"s and
        # "\n"s sit between
        data = bytearray()
        for boundary in range(4096, 256 * 1024 + 1, 4096):
            data += b" " * (boundary - 1 - len(data)) + b"\r\n"
            data += record_line(f"c{boundary}").encode() + b"\r \n"
        path = tmp_path / "records.jsonl"
        path.write_bytes(bytes(data))
        assert path.stat().st_size > 256 * 1024 > io.DEFAULT_BUFFER_SIZE
        assert len(read_records(path)) == 64
        path.write_bytes(bytes(data) + self.BAD)
        lineno = len(path.read_bytes().splitlines())
        assert read_error(path).startswith(f"{path}:{lineno}: ")

    def test_bad_utf8_is_named_at_its_line(self, tmp_path):
        data = record_line("c1") + "\r\r\n" + record_line("c2") + "\r"
        path = tmp_path / "records.jsonl"
        path.write_bytes(data.encode() + b'{"tool": "T\xff"}\n' + record_line("c3").encode())
        assert read_error(path) == (f"{path}:4: 'utf-8' codec can't decode byte 0xff in "
                                    f"position 11: invalid start byte")

    @pytest.mark.parametrize("cut", [2, 3, 20, 60])
    def test_truncated_last_line_is_named(self, tmp_path, cut):
        path = tmp_path / "records.jsonl"
        write_records([ScanRecord("T", f"c{i}", "ok", 10) for i in range(3)], path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - cut])
        assert read_error(path).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("field, value", [
        ("tool", 7), ("tool", ["T"]), ("tool", {"T": 1}), ("tool", None),
        ("contract", ["c9"]), ("raw_ref", ["r"]),
    ])
    def test_non_string_id_keeps_its_message(self, tmp_path, field, value):
        doc = json.loads(record_line("c9"))
        doc[field] = value
        path = tmp_path / "records.jsonl"
        path.write_text(record_line("c1") + "\n" + json.dumps(doc) + "\n")
        assert read_error(path) == f"{path}:2: tool, contract and raw_ref must be strings"

    @pytest.mark.parametrize("lines, detail", [
        ("[true]", "line True of V1 is not an integer"),
        ("[1.0]", "line 1.0 of V1 is not an integer"),
        ("[[1]]", "unhashable type: 'list'"),
    ])
    def test_bad_line_set_equal_to_an_earlier_one_is_rejected(self, tmp_path, lines,
                                                              detail):
        found = '[{"class": "V1", "lines": %s}]'
        path = tmp_path / "records.jsonl"
        path.write_text(record_line("c1").replace("[]", found % "[1]") + "\n"
                        + record_line("c2").replace("[]", found % lines) + "\n")
        assert read_error(path) == f"{path}:2: {detail}"

    def test_file_larger_than_the_read_buffer_round_trips(self, tmp_path):
        records = [ScanRecord(f"T{i % 3}", f"c{i}", "ok", i, {"V1": frozenset({i, 1})})
                   for i in range(4000)]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert path.stat().st_size > 64 * io.DEFAULT_BUFFER_SIZE
        assert read_records(path) == sorted(records, key=lambda r: (r.tool, r.contract))


class TestRecordMemory:
    """A replay fixture holds each repeated line set once, and the records
    layer holds neither the whole file nor the whole output at any time."""

    @staticmethod
    def campaign(tools=4, contracts=5000):
        # every id, status and line set built afresh, as a campaign builds them
        return [ScanRecord("".join(["T", str(t)]), f"class/c{c}", "".join(["o", "k"]),
                           c % 500, {"V1": frozenset({c % 7 + 300})} if c % 2 else {})
                for t in range(tools) for c in range(contracts)]

    def test_records_from_one_file_share_equal_values(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(self.campaign(tools=3, contracts=40), path)
        records = read_records(path)
        assert len({id(rec.findings) for rec in records}) == len(records)

    def test_replay_fixture_shares_equal_line_sets(self):
        fixture = ReplayFixture({f"c{i}": {"findings": [
            {"class": "V1", "lines": [300, 301]}, {"class": "V2", "lines": [301, 300]},
        ]} for i in range(3)})
        records = [fixture.record("T", f"c{i}") for i in range(3)]
        sets = [lines for rec in records for lines in rec.findings.values()]
        assert sets[0] == frozenset({300, 301})
        assert all(lines is sets[0] for lines in sets)
        assert records[0].findings is not records[1].findings

    def test_write_records_holds_one_chunk_of_the_output(self, tmp_path):
        records = self.campaign()
        path = tmp_path / "records.jsonl"
        tracemalloc.start()
        try:
            write_records(records, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # joining the whole output holds it about three times over
        assert peak < path.stat().st_size / 2

    def test_read_records_holds_the_records_not_the_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(self.campaign(), path)
        tracemalloc.start()
        try:
            records = read_records(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 20000
        # a list of the file's lines, beside the records, exceeds the file
        assert peak - held < path.stat().st_size / 2

    @given(st.binary(max_size=40).map(lambda b: b.translate(bytes(
               b"\r\n a"[i % 4] for i in range(256)))),
           st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_lines_are_those_of_splitlines(self, data, batch, buffer):
        fh = io.BufferedReader(io.BytesIO(data), buffer_size=buffer)
        saved, records_mod._BATCH = records_mod._BATCH, batch
        try:
            assert list(records_mod._lines(fh)) == data.splitlines(keepends=True)
        finally:
            records_mod._BATCH = saved


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


def test_names_the_benchmark_reads():
    # perfbench reads these without a fallback: its traced pass patches
    # RecordSet.__init__ on runner, its set-up probe imports BACKEND, and
    # it loads the curation corpus and times the two lexer entry points
    from scbench import corpus

    assert runner.RecordSet.__init__ is RecordSet.__init__
    assert isinstance(corpus.BACKEND, str)
    assert len(corpus.load_labelled(LABELLED_DIR)) == 389
    for lex in (corpus.normalize_source, corpus.strip_comments):
        assert isinstance(lex('s = "//x"; /* unterminated', strict=False), str)
