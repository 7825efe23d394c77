import hashlib
import json
import textwrap
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbench.corpus import (ContractCase, dedup, lexer, load_csv_corpus,
                            load_flat, load_labelled, normalize_source,
                            parse_annotations, pragma_filter, scan_problems,
                            stats)
from scbench.errors import AnnotationMismatch, UnknownMarker

from .conftest import LABELLED_DIR, LISTING_FIXTURE


def make_case(idx: int, source: str) -> ContractCase:
    return ContractCase(id=f"case_{idx:03d}", source=source,
                        expected=parse_annotations(source))


class TestParseAnnotations:
    def test_listing_fixture_round_trip(self):
        source = LISTING_FIXTURE.read_text("utf-8")
        assert parse_annotations(source) == {"V1": frozenset({17})}

    def test_no_markers_means_safe(self):
        assert parse_annotations("pragma solidity ^0.5.0;\ncontract C {}\n") == {}

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
        assert parse_annotations(src) == {"V1": frozenset({10, 20})}

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
        assert parse_annotations(src) == {"V8": frozenset({5})}

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
            result = parse_annotations(src)
        assert result == {"V9": frozenset({4, 9})}

    def test_header_without_markers_warns(self):
        src = "// @vulnerable_at_lines: 3\ncontract C {\n    f();\n}\n"
        with pytest.warns(AnnotationMismatch):
            assert parse_annotations(src) == {}

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
            result = parse_annotations(src)
        assert result == {"V1": frozenset({4}), "V6": frozenset({6})}

    def test_unknown_marker_raises(self):
        with pytest.raises(UnknownMarker):
            parse_annotations("// <yes> <report> FRONTRUN\nf();\n")

    def test_trailing_marker_at_eof_warns(self):
        with pytest.warns(AnnotationMismatch):
            assert parse_annotations("f();\n// <yes> <report> REENTRANCY\n") == {}


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
        cases.append(ContractCase(id=f"c{i}", source=pragma + comment + body))
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
        assert all(c.created_at is not None for c in labelled_corpus)
        assert all(c.tx_value is not None for c in labelled_corpus)

    def test_flat_and_csv_loaders(self, tmp_path):
        (tmp_path / "one.sol").write_text(
            "pragma solidity ^0.5.0;\ncontract One {}\n"
        )
        flat = load_flat(tmp_path)
        assert [c.id for c in flat] == ["one"]

        csv_path = tmp_path / "dump.csv"
        csv_path.write_text(
            'address,source\n0xabc,"pragma solidity ^0.5.0;\ncontract X {}"\n'
        )
        from_csv = load_csv_corpus(csv_path)
        assert [c.id for c in from_csv] == ["0xabc"]
        assert from_csv[0].safe

    def test_flat_directory_reads_its_own_metadata_sidecar(self, tmp_path):
        (tmp_path / "one.sol").write_text("pragma solidity ^0.5.0;\ncontract One {}\n")
        (tmp_path / "metadata.csv").write_text(
            "id,created_at,tx_value_wei\none,2020-02-01T00:00:00+00:00,7\n")
        (case,) = load_flat(tmp_path)
        assert case.created_at == datetime(2020, 2, 1, tzinfo=timezone.utc)
        assert case.tx_value == 7
        other = tmp_path / "other.csv"
        other.write_text("id,created_at,tx_value_wei\none,2021-03-04T00:00:00+00:00,\n")
        (case,) = load_flat(tmp_path, metadata=other)
        assert case.created_at == datetime(2021, 3, 4, tzinfo=timezone.utc)
        assert case.tx_value is None

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

    @pytest.mark.parametrize("layout", ["labelled", "flat", "csv"])
    def test_unknown_marker_names_its_file_and_line(self, tmp_path, layout):
        source = "pragma solidity ^0.5.0;\n// <yes> <report> FRONTRUN\nf();\n"
        if layout == "labelled":
            (tmp_path / "reentrancy").mkdir()
            (tmp_path / "reentrancy" / "a.sol").write_text(source)
            load, where = (lambda: load_labelled(tmp_path)), "reentrancy/a.sol"
        elif layout == "flat":
            (tmp_path / "a.sol").write_text(source)
            load, where = (lambda: load_flat(tmp_path)), "a.sol"
        else:
            dump = tmp_path / "dump.csv"
            dump.write_text('address,source\n0xabc,"' + source + '"\n')
            load, where = (lambda: load_csv_corpus(dump)), f"{dump} row 0xabc"
        with pytest.raises(UnknownMarker) as info:
            load()
        assert str(info.value) == (f"{where}: line 2: "
                                   "marker 'FRONTRUN' matches no class alias")


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
        assert ContractCase("c", LISTING_FIXTURE.read_text("utf-8")).loc == 10

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
    def scans(self, monkeypatch):
        """Every source the lexer kernel is called on, in call order."""
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

    def test_scan_problems_scans_each_file_once(self, scans):
        scan_problems(LABELLED_DIR)
        assert len(scans) == 389

    def test_hand_built_case_derives_fields_from_one_scan(self, scans):
        source = "pragma solidity ^0.5.0;\n// note\ncontract C {  }\n"
        case = ContractCase(id="c", source=source)
        assert len(scans) == 1
        assert (case.loc, case.pragma) == (2, True)
        assert case.checksum == _checksum(source)

    def test_loaded_fields_match_public_functions(self, labelled_corpus):
        for case in labelled_corpus:
            fresh = ContractCase(case.id, case.source)
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
