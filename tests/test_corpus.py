import hashlib
import json
import os
import re
import tempfile
import textwrap
import time
import warnings
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbench import corpus as corpus_mod
from scbench.corpus import (ContractCase, dedup, lexer, load_directory, load_flat,
                            load_labelled, load_sidecar, normalize_source,
                            pragma_filter, scan_case, scan_problems, stats)
from scbench.errors import AnnotationMismatch, ScbenchError, UnknownMarker

from .conftest import LABELLED_DIR, LISTING_FIXTURE, deny_listing
from .oracles import case_fields_oracle


def make_case(idx: int, source: str) -> ContractCase:
    return scan_case(f"case_{idx:03d}", source)


class TestParseAnnotations:
    # the annotation rules, through the scan of one contract
    def test_listing_fixture_round_trip(self):
        source = LISTING_FIXTURE.read_text("utf-8")
        assert scan_case("c", source).expected == {"V1": frozenset({17})}

    def test_no_markers_means_safe(self):
        assert scan_case("c", "pragma solidity ^0.5.0;\ncontract C {}\n").expected == {}

    def test_two_inline_markers_without_header(self):
        # markers on lines 9 and 19 annotate the statements on 10 and 20
        lines = ["contract C {"] + ["    uint a;"] * 7
        lines.append("    // <yes> <report> REENTRANCY")
        lines.append("    m.call.value(1)();")
        lines += ["    uint b;"] * 8
        lines.append("    // <yes> <report> REENTRANCY")
        lines.append("    n.call.value(2)();")
        lines.append("}")
        src = "\n".join(lines) + "\n"
        assert scan_case("c", src).expected == {"V1": frozenset({10, 20})}

    def test_marker_skips_comment_and_blank_lines(self):
        src = textwrap.dedent(
            """\
            contract C {
                // <yes> <report> TX_ORIGIN
                /* another comment */

                require(tx.origin == owner);
            }
            """
        )
        assert scan_case("c", src).expected == {"V8": frozenset({5})}

    def test_a_large_file_of_many_markers_is_scanned_in_linear_time(self):
        # 60,000 markers over 4.7 MB, each target below a block comment and
        # a blank line. A scan that counts or copies the text from its start
        # or to its end once per marker took 3 s to minutes on a 2-core VM;
        # this one takes under half a second
        src = "pragma solidity ^0.5.0;\n" + "".join(
            f"// <yes> <report> REENTRANCY\n/* c */\n\nx.call.value({i})(); // pad pad\n"
            for i in range(60_000))
        started = time.perf_counter()
        labels = scan_case("c", src).expected
        assert time.perf_counter() - started < 2.0
        assert labels == {"V1": frozenset(range(5, 4 * 60_000 + 2, 4))}

    def test_header_inline_disagreement_warns_but_returns_union(self):
        src = textwrap.dedent(
            """\
            // @vulnerable_at_lines: 4, 9
            contract C {
                // <yes> <report> SUICIDAL
                selfdestruct(msg.sender);
            }
            """
        )
        with pytest.warns(AnnotationMismatch):
            result = scan_case("c", src).expected
        assert result == {"V9": frozenset({4, 9})}

    def test_header_without_markers_warns(self):
        src = "// @vulnerable_at_lines: 3\ncontract C {\n    f();\n}\n"
        with pytest.warns(AnnotationMismatch):
            assert scan_case("c", src).expected == {}

    def test_multi_class_stray_header_line_warns(self):
        src = textwrap.dedent(
            """\
            // @vulnerable_at_lines: 4, 6, 11
            contract C {
                // <yes> <report> REENTRANCY
                a.call.value(1)();
                // <yes> <report> TIMESTAMP
                require(now > 1);
            }
            """
        )
        with pytest.warns(AnnotationMismatch):
            result = scan_case("c", src).expected
        assert result == {"V1": frozenset({4}), "V6": frozenset({6})}

    def test_unknown_marker_raises(self):
        with pytest.raises(UnknownMarker):
            scan_case("c", "// <yes> <report> FRONTRUN\nf();\n")

    @pytest.mark.parametrize("brk", ["\n", "\x1c", "\x85", "\u2028", " \x1c\t"])
    def test_header_number_before_any_line_break(self, brk):
        src = f"// <yes> <report> REENTRANCY\nf();\n// @vulnerable_at_lines: 2{brk}g();\n"
        assert scan_case("c", src).expected == {"V1": frozenset({2})}

    @pytest.mark.parametrize("tail", [
        "// @vulnerable_at_lines: 2\n5;\n", "/* @vulnerable_at_lines: 2\n   3 */\n",
        "// @vulnerable_at_lines: 2,\n3;\n", "// @vulnerable_at_lines:\n2;\n",
        "// @vulnerable_at_lines\n: 3\n",
    ], ids=["entry", "block-comment", "after-comma", "before-entries", "before-colon"])
    def test_header_stays_on_its_own_line(self, tail):
        src = "// <yes> <report> REENTRANCY\nf();\n" + tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scan_case("c", src).expected == {"V1": frozenset({2})}

    def test_header_entry_that_is_not_a_line_number_names_its_line(self):
        # "\x1c" starts no line: the header sits on LF line 2
        src = "pragma solidity ^0.5.0;\x1c\n/* x */ // @vulnerable_at_lines: 2,3 5\nf();\n"
        with pytest.raises(ScbenchError, match=(
                "^c: line 2: @vulnerable_at_lines entry '3 5' is not a line number$")):
            scan_case("c", src)

    def test_break_in_a_comment_above_a_marker_keeps_its_label(self):
        src = "pragma solidity ^0.5.0;\n// a\x1cb\n// <yes> <report> REENTRANCY\nf();\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scan_case("c", src).expected == {"V1": frozenset({4})}

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\r", "\x85", "\u2028", "\u2029"])
    def test_line_comment_ends_at_any_solidity_line_break(self, brk):
        # the text after the break is code on the marker's own LF line, so
        # the label falls on the next line that holds code
        src = f"// <yes> <report> REENTRANCY{brk}f();\n\ng();\n"
        assert scan_case("c", src).expected == {"V1": frozenset({3})}
        assert scan_case("c", src).loc == 2

    def test_only_the_first_marker_on_a_line_counts(self):
        src = "// <yes> <report> REENTRANCY <yes> <report> NO_SUCH_CLASS\nf();\n"
        assert scan_case("c", src).expected == {"V1": frozenset({2})}

    def test_marker_stays_within_its_line(self):
        with pytest.warns(AnnotationMismatch, match="on line 1 has no following"):
            assert scan_case("c", "f(); // <yes> <report> REENTRANCY\n").expected == {}
        assert scan_case("c", "// <yes>\n// <report> REENTRANCY\nf();\n").expected == {}

    def test_trailing_marker_at_eof_warns(self):
        with pytest.warns(AnnotationMismatch):
            assert scan_case("c", "f();\n// <yes> <report> REENTRANCY\n").expected == {}


class TestDedup:
    def test_comment_only_difference_collapses(self):
        a = make_case(1, "pragma solidity ^0.5.0;\ncontract C { uint a; }\n")
        b = make_case(2, "pragma solidity ^0.5.0;\n// extra note\ncontract C { uint a; }\n")
        kept, removed = dedup([a, b])
        assert [c.id for c in kept] == ["case_001"]
        assert removed == 1

    def test_empty_corpus(self):
        assert dedup([]) == ([], 0)

    def test_three_distinct_two_duplicates(self):
        distinct = [
            make_case(i, f"pragma solidity ^0.5.0;\ncontract C{i} {{}}\n")
            for i in range(3)
        ]
        dup1 = make_case(3, "pragma solidity ^0.5.0;\ncontract C0 {}\n")
        dup2 = make_case(4, "pragma solidity   ^0.5.0;\ncontract C1 {}\n")
        kept, removed = dedup(distinct + [dup1, dup2])
        assert [c.id for c in kept] == ["case_000", "case_001", "case_002"]
        assert removed == 2

    def test_idempotent(self):
        cases = [
            make_case(0, "contract A {}"),
            make_case(1, "contract A {}  // same"),
            make_case(2, "contract B {}"),
        ]
        once, _ = dedup(cases)
        twice, removed = dedup(once)
        assert twice == once and removed == 0


class TestPragmaFilter:
    def test_keeps_real_pragma(self):
        case = make_case(0, "pragma solidity ^0.5.0;\ncontract C {}\n")
        assert pragma_filter([case]) == [case]

    def test_drops_pragma_inside_comment(self):
        case = make_case(0, "/* pragma solidity ^0.5.0; */\ncontract C {}\n")
        assert pragma_filter([case]) == []

    def test_empty_corpus(self):
        assert pragma_filter([]) == []


@st.composite
def small_corpus(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    cases = []
    for i in range(n):
        body = draw(st.sampled_from([
            "contract A { uint a; }",
            "contract B { uint b; }",
            "contract C { function f() public {} }",
        ]))
        pragma = draw(st.sampled_from(
            ["pragma solidity ^0.5.0;\n", "// pragma solidity ^0.5.0;\n", ""]
        ))
        comment = draw(st.sampled_from(["", "// note\n", "/* block */\n"]))
        cases.append(scan_case(f"c{i}", pragma + comment + body))
    return cases


@settings(max_examples=60, deadline=None)
@given(small_corpus())
def test_dedup_and_pragma_filter_commute(cases):
    via_dedup_first = pragma_filter(dedup(cases)[0])
    via_filter_first = dedup(pragma_filter(cases))[0]
    assert [c.id for c in via_dedup_first] == [c.id for c in via_filter_first]


@settings(max_examples=60, deadline=None)
@given(small_corpus())
def test_dedup_never_increases_class_counts(cases):
    before = stats(cases)
    after = stats(dedup(cases)[0])
    for s_before, s_after in zip(before.per_class, after.per_class):
        assert s_after.count <= s_before.count


class TestLoaders:
    def test_labelled_layout(self, labelled_corpus):
        assert len(labelled_corpus) == 389
        ids = {c.id for c in labelled_corpus}
        assert "reentrancy/reentrancy_insecure" in ids
        assert all("/" in c.id for c in labelled_corpus)

    def test_metadata_sidecar_attached(self, labelled_corpus):
        metadata = load_sidecar(LABELLED_DIR)
        assert len(metadata) == len(labelled_corpus)
        for case in labelled_corpus:
            created_at, tx_value = metadata[case.id]
            assert created_at is not None and tx_value is not None, case.id

    def test_flat_loader(self, tmp_path):
        (tmp_path / "one.sol").write_text(
            "pragma solidity ^0.5.0;\ncontract One {}\n"
        )
        flat = load_flat(tmp_path)
        assert [c.id for c in flat] == ["one"]
        assert flat[0].safe

    def test_flat_directory_reads_its_own_metadata_sidecar(self, tmp_path):
        (tmp_path / "one.sol").write_text("pragma solidity ^0.5.0;\ncontract One {}\n")
        assert load_sidecar(tmp_path) == {}
        (tmp_path / "metadata.csv").write_text(
            "id,created_at,tx_value_wei\none,2020-02-01T00:00:00+00:00,7\n")
        assert load_sidecar(tmp_path) == {
            "one": (datetime(2020, 2, 1, tzinfo=timezone.utc), 7)}
        other = tmp_path / "other.csv"
        other.write_text("id,created_at,tx_value_wei\none,2021-03-04T00:00:00+00:00,\n")
        assert load_sidecar(tmp_path, other) == {
            "one": (datetime(2021, 3, 4, tzinfo=timezone.utc), None)}

    def test_shipped_corpus_is_clean(self):
        assert scan_problems(LABELLED_DIR) == []

    def test_scan_problems_flags_bad_corpus(self, tmp_path):
        bad_dir = tmp_path / "reentrancy"
        bad_dir.mkdir()
        (bad_dir / "no_pragma.sol").write_text(
            "// <yes> <report> REENTRANCY\nx.call.value(1)();\n"
        )
        (bad_dir / "beyond_eof.sol").write_text(
            "pragma solidity ^0.5.0;\n// @vulnerable_at_lines: 99\n"
            "// <yes> <report> REENTRANCY\nx.call.value(1)();\n"
        )
        (bad_dir / "wrong_dir.sol").write_text(
            "pragma solidity ^0.5.0;\n// <yes> <report> SUICIDAL\n"
            "selfdestruct(msg.sender);\n"
        )
        problems = scan_problems(tmp_path)
        text = "\n".join(problems)
        assert "no_pragma.sol: no pragma" in text
        assert "beyond the" in text
        assert "directory says V1" in text

    def test_scan_problems_reports_unterminated_literal_and_comment(self, tmp_path):
        bad_dir = tmp_path / "reentrancy"
        bad_dir.mkdir()
        head = "pragma solidity ^0.5.0;\n// <yes> <report> REENTRANCY\nx.call.value(1)();\n"
        (bad_dir / "string.sol").write_text(head + 'string s = "oops; }\n')
        (bad_dir / "comment.sol").write_text(head + "/* never closed\n}\n")
        (bad_dir / "fine.sol").write_text(head + 'string s = "/* ok */";\n')
        problems = scan_problems(tmp_path)
        quote = len(head) + len("string s = ")
        assert (f"reentrancy/string.sol: line 4: unterminated string literal "
                f"at offset {quote}") in problems
        assert (f"reentrancy/comment.sol: line 4: unterminated block comment "
                f"at offset {len(head)}") in problems
        assert not [p for p in problems if "fine.sol" in p]

    def test_a_warning_raised_during_the_walk_is_no_problem(self, monkeypatch):
        # the walk's own mismatches are data: any warning it meets goes on
        # to the caller, and validation lists none of them
        read = corpus_mod._read_source

        def warning_read(path, origin):
            warnings.warn(DeprecationWarning(f"read {origin}"))
            return read(path, origin)

        monkeypatch.setattr(corpus_mod, "_read_source", warning_read)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert scan_problems(LABELLED_DIR) == []
        assert all(w.category is DeprecationWarning for w in caught)
        assert len(caught) == len({str(w.message) for w in caught}) == 389

    def test_scan_problems_keeps_each_contracts_warnings_apart(self, tmp_path):
        # a.sol warns and then raises, so only its error is a problem
        (tmp_path / "reentrancy").mkdir()
        (tmp_path / "reentrancy" / "a.sol").write_text(
            "pragma solidity ^0.5.0;\n// <yes> <report> REENTRANCY\n"
            "// @vulnerable_at_lines: 3 5\n")
        (tmp_path / "reentrancy" / "b.sol").write_text(
            "pragma solidity ^0.5.0;\n// <yes> <report> REENTRANCY\nf();\n"
            "// <yes> <report> REENTRANCY\n")
        assert scan_problems(tmp_path) == [
            "reentrancy/a.sol: line 3: @vulnerable_at_lines entry '3 5' is not a line number",
            "reentrancy/b.sol: marker 'REENTRANCY' on line 4 has no following statement",
        ]

    @pytest.mark.parametrize("layout", ["labelled", "flat"])
    def test_unknown_marker_names_its_file_and_line(self, tmp_path, layout):
        source = "pragma solidity ^0.5.0;\n// <yes> <report> FRONTRUN\nf();\n"
        if layout == "labelled":
            (tmp_path / "reentrancy").mkdir()
            (tmp_path / "reentrancy" / "a.sol").write_text(source)
            load, where = (lambda: load_labelled(tmp_path)), "reentrancy/a.sol"
        else:
            (tmp_path / "a.sol").write_text(source)
            load, where = (lambda: load_flat(tmp_path)), "a.sol"
        with pytest.raises(UnknownMarker) as info:
            load()
        assert str(info.value) == (f"{where}: line 2: "
                                   "marker 'FRONTRUN' matches no class alias")


PRAGMA = "pragma solidity ^0.5.0;\n"


def reference_labelled(root):
    """``(id, source)`` of a labelled corpus, read the way the loader once did."""
    return [(p.relative_to(root).as_posix().removesuffix(".sol"), p.read_text("utf-8"))
            for p in sorted(root.glob("*/*.sol"), key=lambda p: p.parts)]


def reference_flat(directory):
    """``(id, source)`` of a flat corpus, read the way the loader once did."""
    return [(p.stem, p.read_text("utf-8"))
            for p in sorted(directory.glob("*.sol"), key=lambda p: p.parts)]


class TestReading:
    def test_labelled_walk_and_read_match_glob_and_read_text(self, tmp_path):
        root = tmp_path / "corpus"
        files = {
            "reentrancy/b.sol": PRAGMA + "contract B {}\n",
            "reentrancy/a.sol": PRAGMA + "contract A {}\n",
            "reentrancy/notes.txt": "not a contract\n",
            "reentrancy/.sol": PRAGMA + "contract Dot {}\n",
            "safe/crlf.sol": PRAGMA.replace("\n", "\r\n") + "contract C {\r\n}\r\n",
            "safe/cr.sol": PRAGMA.replace("\n", "\r") + "contract R {\r}\r\r\n",
            ".hidden/h.sol": PRAGMA + "contract H {}\n",
            "a/top.sol": PRAGMA + "contract T {}\n",
            "a/b/c.sol": PRAGMA + "contract Nested {}\n",
            "Upper/u.sol": PRAGMA + "contract U {}\n",
            "loose.sol": PRAGMA + "contract Loose {}\n",
        }
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(text.encode("utf-8"))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "l.sol").write_text(PRAGMA + "contract L {}\n")
        (root / "linked").symlink_to(elsewhere, target_is_directory=True)

        expected = reference_labelled(root)
        assert [(c.id, c.source) for c in load_labelled(root)] == expected
        ids = [cid for cid, _ in expected]
        assert {".hidden/h", "linked/l", "a/top", "reentrancy/"} <= set(ids)
        assert "a/b/c" not in ids and "loose" not in ids
        assert dict(expected)["safe/cr"] == PRAGMA + "contract R {\n}\n\n"
        assert "\r" not in "".join(source for _, source in expected)

    def test_flat_walk_and_read_match_glob_and_read_text(self, tmp_path):
        files = {"b.sol": PRAGMA, "a.x.sol": PRAGMA, ".sol": PRAGMA, "..sol": PRAGMA,
                 ".hidden.sol": PRAGMA, "crlf.sol": PRAGMA.replace("\n", "\r\n"),
                 "cr.sol": PRAGMA.replace("\n", "\r"), "notes.txt": "text\n"}
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "deep.sol").write_text(PRAGMA)

        expected = reference_flat(tmp_path)
        assert [(c.id, c.source) for c in load_flat(tmp_path)] == expected
        assert [cid for cid, _ in expected] == [".", ".hidden", ".sol", "a.x", "b", "cr",
                                                "crlf"]

    @pytest.mark.parametrize("layout", ["labelled", "flat"])
    def test_undecodable_contract_names_its_file_and_line(self, tmp_path, layout):
        bad = PRAGMA.encode() + b"// caf\xff\ncontract C {}\n"
        if layout == "labelled":
            (tmp_path / "reentrancy").mkdir()
            (tmp_path / "reentrancy" / "a.sol").write_bytes(bad)
            load, where = (lambda: load_labelled(tmp_path)), "reentrancy/a.sol"
        else:
            (tmp_path / "a.sol").write_bytes(bad)
            load, where = (lambda: load_flat(tmp_path)), "a.sol"
        with pytest.raises(ScbenchError) as info:
            load()
        assert str(info.value) == (f"{where}: line 2: not UTF-8: "
                                   "invalid start byte (byte 0xff)")

    def test_decode_error_line_counts_every_newline_kind(self, tmp_path):
        (tmp_path / "a.sol").write_bytes(b"one\r\ntwo\rthree\nfour \xc3")
        with pytest.raises(ScbenchError, match="^a.sol: line 4: not UTF-8: "
                                               "unexpected end of data"):
            load_flat(tmp_path)

    @pytest.mark.parametrize("kind", ["directory", "dangling-link"])
    def test_unreadable_contract_is_an_error(self, tmp_path, kind):
        (tmp_path / "reentrancy").mkdir()
        target = tmp_path / "reentrancy" / "a.sol"
        if kind == "directory":
            target.mkdir()
            reason = "Is a directory"
        else:
            target.symlink_to(tmp_path / "missing.sol")
            reason = "No such file or directory"
        with pytest.raises(ScbenchError, match=f"^reentrancy/a.sol: {reason}$"):
            load_labelled(tmp_path)

    def test_class_directory_that_cannot_be_listed_is_an_error(self, tmp_path,
                                                               monkeypatch):
        for name in ("reentrancy", "safe"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "a.sol").write_text(PRAGMA)
        locked = deny_listing(monkeypatch, tmp_path / "safe")
        for sweep in (load_labelled, load_directory, scan_problems):
            with pytest.raises(ScbenchError, match=f"^cannot list {re.escape(locked)}: "
                                                   "Permission denied$"):
                sweep(tmp_path)

    def test_flat_corpus_beside_a_directory_that_cannot_be_listed_loads(
            self, tmp_path, monkeypatch):
        for name in ("b.sol", "a.sol"):
            (tmp_path / name).write_text(PRAGMA)
        (tmp_path / "lost+found").mkdir()
        locked = deny_listing(monkeypatch, tmp_path / "lost+found")
        loaded = [(c.id, c.source) for c in load_directory(tmp_path)]
        assert loaded == [(c.id, c.source) for c in load_flat(tmp_path)]
        assert loaded == [("a", PRAGMA), ("b", PRAGMA)]
        with pytest.raises(ScbenchError, match=f"^cannot list {re.escape(locked)}: "):
            load_labelled(tmp_path)

    def test_directory_layout_is_labelled_when_a_class_directory_holds_a_contract(
            self, tmp_path):
        assert ([c.id for c in load_directory(LABELLED_DIR)]
                == [c.id for c in load_labelled(LABELLED_DIR)])
        (tmp_path / "loose.sol").write_text(PRAGMA)
        (tmp_path / "empty").mkdir()
        assert [c.id for c in load_directory(tmp_path)] == ["loose"]
        (tmp_path / "safe").mkdir()
        (tmp_path / "safe" / "s.sol").write_text(PRAGMA)
        assert [c.id for c in load_directory(tmp_path)] == ["safe/s"]
        with pytest.raises(ScbenchError, match="is not a directory$"):
            load_directory(tmp_path / "loose.sol")

    def test_validate_lists_an_unreadable_contract_and_checks_the_rest(self, tmp_path):
        (tmp_path / "reentrancy").mkdir()
        (tmp_path / "reentrancy" / "a.sol").write_bytes(b"// \xff\n")
        (tmp_path / "reentrancy" / "b.sol").write_text("contract B {}\n")
        assert scan_problems(tmp_path) == [
            "reentrancy/a.sol: line 1: not UTF-8: invalid start byte (byte 0xff)",
            "reentrancy/b.sol: directory says V1 but labels are empty",
            "reentrancy/b.sol: no pragma solidity directive",
        ]


class TestStats:
    def test_shipped_statistics(self, labelled_corpus):
        st_ = stats(labelled_corpus)
        assert st_.total_cases == 389
        assert st_.safe_count == 17
        counts = {s.class_id: s.count for s in st_.per_class}
        assert counts == {
            "V1": 81, "V2": 65, "V3": 52, "V4": 12, "V5": 60,
            "V6": 60, "V7": 10, "V8": 10, "V9": 11, "V10": 11,
        }

    def test_totals_are_row_sums(self, labelled_corpus):
        st_ = stats(labelled_corpus)
        assert st_.total_cases == sum(s.count for s in st_.per_class) + st_.safe_count
        assert st_.total_loc == sum(s.loc for s in st_.per_class) + st_.safe_loc

    def test_listing_fixture_loc_hand_count(self):
        # pragma, contract, mapping, function, uint, call, require,
        # assignment, two closing braces: ten code lines
        assert scan_case("c", LISTING_FIXTURE.read_text("utf-8")).loc == 10

    def test_every_expected_class_is_taxonomy_member(self, labelled_corpus):
        valid = {f"V{i}" for i in range(1, 11)}
        for case in labelled_corpus:
            assert set(case.expected) <= valid

    def test_safe_iff_no_expected(self, labelled_corpus):
        for case in labelled_corpus:
            assert case.safe == (not case.expected)


def _checksum(source: str) -> str:
    return hashlib.md5(normalize_source(source, strict=False).encode("utf-8")).hexdigest()


class TestOneScanPerContract:
    @pytest.fixture
    def scans(self, monkeypatch, tmp_path_factory):
        """Every source the lexer kernel is called on, in call order; the
        loads meet an empty scan cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        calls = []
        kernel = lexer._scan

        def counting(src):
            calls.append(src)
            return kernel(src)

        monkeypatch.setattr(lexer, "_scan", counting)
        return calls

    def test_curation_scans_each_contract_once(self, scans):
        cases = load_labelled(LABELLED_DIR)
        stats(cases)
        dedup(pragma_filter(cases))
        assert len(scans) == len(cases) == 389

    def test_warm_curation_scans_no_contract(self, scans):
        load_labelled(LABELLED_DIR)
        scans.clear()
        cases = load_labelled(LABELLED_DIR)
        stats(cases)
        dedup(pragma_filter(cases))
        assert len(scans) == 0 and len(cases) == 389

    def test_scan_problems_scans_each_file_once(self, scans):
        scan_problems(LABELLED_DIR)
        assert len(scans) == 389

    def test_scan_problems_scans_a_contract_whose_labels_raise_once(self, scans, tmp_path):
        (tmp_path / "reentrancy").mkdir()
        raises = PRAGMA + "// <yes> <report> FRONTRUN\nf();\nstring s = \"open\n"
        (tmp_path / "reentrancy" / "a.sol").write_text(raises)
        (tmp_path / "reentrancy" / "b.sol").write_text(
            PRAGMA + "// <yes> <report> REENTRANCY\nf();\n")
        problems = scan_problems(tmp_path)
        quote = raises.index('"')
        assert problems == [
            f"reentrancy/a.sol: line 4: unterminated string literal at offset {quote}",
            "reentrancy/a.sol: line 2: marker 'FRONTRUN' matches no class alias"]
        assert len(scans) == 2
        assert scan_problems(tmp_path) == problems
        assert scans[2:] == [raises]  # only the contract that is never cached

    def test_warm_scan_problems_scans_no_file(self, scans):
        problems = scan_problems(LABELLED_DIR)
        scans.clear()
        assert scan_problems(LABELLED_DIR) == problems
        assert len(scans) == 0

    def test_flat_load_scans_each_file_once(self, scans, tmp_path):
        sources = sorted((LABELLED_DIR / "reentrancy").glob("*.sol"))
        for path in sources:
            (tmp_path / path.name).write_bytes(path.read_bytes())
        cases = load_flat(tmp_path)
        assert len(scans) == len(cases) == len(sources) > 1

    def test_warm_flat_load_scans_no_file(self, scans, tmp_path):
        sources = sorted((LABELLED_DIR / "reentrancy").glob("*.sol"))
        for path in sources:
            (tmp_path / path.name).write_bytes(path.read_bytes())
        load_flat(tmp_path)
        scans.clear()
        cases = load_flat(tmp_path)
        assert len(scans) == 0 and len(cases) == len(sources) > 1

    def test_hand_built_case_derives_fields_from_one_scan(self, scans):
        source = "pragma solidity ^0.5.0;\n// note\ncontract C {  }\n"
        case = scan_case("c", source)
        assert len(scans) == 1
        assert (case.loc, case.pragma) == (2, True)
        assert case.checksum == _checksum(source)

    def test_loaded_fields_match_public_functions(self, labelled_corpus):
        for case in labelled_corpus:
            fresh = scan_case(case.id, case.source)
            assert case.loc == fresh.loc, case.id
            assert case.pragma == fresh.pragma, case.id
            assert case.checksum == _checksum(case.source), case.id

    def test_shipped_corpus_outputs_are_pinned(self):
        """Every label, LoC count, pragma flag and checksum of the shipped
        corpus, and its validation report, as the char-by-char lexer they
        were first computed with gave them."""
        rows = [[c.id, c.loc, c.pragma, c.checksum,
                 sorted([cid, sorted(lines)] for cid, lines in c.expected.items())]
                for c in load_labelled(LABELLED_DIR)]
        blob = json.dumps([rows, scan_problems(LABELLED_DIR)], separators=(",", ":"))
        assert len(rows) == 389
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
            "8633ba4b427499565f3953be71ba4d61bd2a9d0d80639e8f4a4789dee1e98c29")

    def test_derived_fields_do_not_affect_equality(self):
        case = make_case(0, "contract A {}")
        assert case == ContractCase(case.id, case.source, case.expected, loc=0,
                                    pragma=False, checksum="")

    @pytest.mark.parametrize("scan", [False, True])
    def test_a_load_scans_only_when_asked(self, scans, scan):
        cases = load_directory(LABELLED_DIR, scan=scan)
        assert len(scans) == (389 if scan else 0) and len(cases) == 389
        for name in ("expected", "loc", "pragma", "checksum"):
            assert all((getattr(c, name) is None) != scan for c in cases)

    @pytest.mark.parametrize("scan", [False, True])
    def test_a_warm_load_scans_nothing(self, scans, scan):
        load_directory(LABELLED_DIR, scan=scan)
        scans.clear()
        cases = load_directory(LABELLED_DIR, scan=scan)
        assert len(scans) == 0 and len(cases) == 389
        for name in ("expected", "loc", "pragma", "checksum"):
            assert all((getattr(c, name) is None) != scan for c in cases)

    def test_fields_left_underived_are_refused(self):
        cases = load_directory(LABELLED_DIR, scan=False)
        with pytest.raises(ScbenchError, match="^case arithmetic/.*: checksum was not derived"):
            dedup(cases)
        with pytest.raises(ScbenchError, match="pragma was not derived"):
            pragma_filter(cases)
        # ``expected`` is read first; a hand-built case has labels but no LoC
        with pytest.raises(ScbenchError, match="expected was not derived"):
            stats(cases)
        with pytest.raises(ScbenchError, match="loc was not derived"):
            stats([ContractCase("c", "contract C {}")])


_ORACLE_LINES = st.sampled_from([
    "pragma solidity ^0.5.0;", "contract C {", "}", "    f();", "", "   ", "\t",
    "// <yes> <report> REENTRANCY", "    // <yes> <report> ARITHMETIC",
    "x(); // <yes>  <report>\tUNCHECKED_LL_CALLS <yes> <report> DAO",
    "/* <yes> <report> TOD */", "/* open", "close */ g();", "// note",
    's = "// <yes> <report> DOS";', "// @vulnerable_at_lines: 3,5", "<yes><report>OVERFLOW",
    "// <yes>", "<report> REENTRANCY", "// <yes> <report> NO_SUCH_CLASS",
    # "{}" takes a line break inside a line: in and after a comment or a
    # string literal, and in code
    "// a{}f();", "// <yes> <report> REENTRANCY{}f();", "/* a{}b */ c();",
    's = "a{}b";', 't = "open', 'shut";', "x = 1;{}y = 2;",
])
# every break of ``str.splitlines``; the corpus starts a line only at LF
_ORACLE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                  "\x1e", "\x85", "\u2028", "\u2029"])


@st.composite
def annotated_sources(draw):
    """Sources mixing markers, comments, strings and headers over every
    kind of line break, between lines and inside them, with or without a
    break after the last line."""
    lines = [line.replace("{}", draw(_ORACLE_BREAKS))
             for line in draw(st.lists(_ORACLE_LINES, max_size=12))]
    breaks = draw(st.lists(_ORACLE_BREAKS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text[:-len(breaks[-1])] if breaks and draw(st.booleans()) else text


def scanned_fields(source: str):
    """What ``scan_case`` derives from ``source``, and the messages of the
    ``AnnotationMismatch`` warnings it gives, in the oracle's shape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        case = scan_case("c", source)
    assert all(w.category is AnnotationMismatch for w in caught)
    return (case.expected, case.loc, case.pragma, case.checksum,
            [str(w.message) for w in caught])


@settings(max_examples=100, deadline=None)
@given(st.lists(annotated_sources(), min_size=1, max_size=4))
def test_validate_checks_a_flat_corpus_as_a_labelled_one(sources):
    """The same sources written as a labelled corpus (under
    ``reentrancy/``) and as a flat one: validation lists the same problems
    of each, but for the labelled layout's directory checks and path
    prefix."""
    with tempfile.TemporaryDirectory() as tmp:
        labelled, flat = os.path.join(tmp, "labelled"), os.path.join(tmp, "flat")
        for directory in (os.path.join(labelled, "reentrancy"), flat):
            os.makedirs(directory)
            for i, source in enumerate(sources):
                with open(os.path.join(directory, f"c{i}.sol"), "wb") as fh:
                    fh.write(source.encode("utf-8"))
        want = scan_problems(labelled)
        assert all(p.startswith("reentrancy/c") for p in want)
        assert scan_problems(flat) == [
            p.removeprefix("reentrancy/") for p in want
            if not re.match(r"reentrancy/c[0-9]+\.sol: directory says ", p)]


@settings(max_examples=300, deadline=None)
@given(annotated_sources())
def test_scan_matches_the_line_model_oracle(source):
    try:
        want = case_fields_oracle(source)
    except UnknownMarker as exc:
        with pytest.raises(UnknownMarker, match=f"^c: {re.escape(str(exc))}$"):
            scanned_fields(source)
    else:
        assert scanned_fields(source) == want
