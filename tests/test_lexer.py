"""Lexer behaviour, checked against the independent token-stream oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbench.corpus import (BACKEND, count_loc, has_pragma, lexer,
                            normalize_source, strip_comments)
from scbench.errors import UnterminatedBlockComment, UnterminatedString

from .oracles import lexer_error_oracle, lexer_oracle, normalize_oracle


class TestNormalize:
    def test_strips_line_comment_and_whitespace(self):
        assert normalize_source("a = 1; // note\n") == "a=1;"

    def test_preserves_delimiters_inside_strings(self):
        assert normalize_source('s = "//x";') == 's="//x";'
        assert normalize_source("t = '/* keep */';") == "t='/*keep*/';"

    def test_escaped_quote_does_not_close_string(self):
        assert normalize_source(r's = "a\"//b";') == r's="a\"//b";'

    def test_block_comment_removed(self):
        assert normalize_source("a /* b\n c */ d") == "ad"

    def test_no_whitespace_survives(self):
        out = normalize_source('contract C {\n\tstring s = "a b\\tc";\n}')
        assert not any(c.isspace() for c in out)

    def test_unterminated_block_comment_raises_with_position(self):
        with pytest.raises(UnterminatedBlockComment) as err:
            normalize_source("abc /* never closed")
        assert err.value.position == 4

    def test_unterminated_string_raises_with_position(self):
        with pytest.raises(UnterminatedString) as err:
            normalize_source('x = "oops')
        assert err.value.position == 4

    def test_lenient_mode_recovers(self):
        assert normalize_source("abc /* tail", strict=False) == "abc"
        assert normalize_source('x = "oops', strict=False) == 'x="oops'


class TestStripComments:
    def test_keeps_line_structure(self):
        src = "a = 1; /* c1\nc2 */ b = 2;\n"
        assert strip_comments(src) == "a = 1; \n b = 2;\n"

    def test_line_comment_keeps_newline(self):
        assert strip_comments("a; // gone\nb;") == "a; \nb;"

    def test_comment_only_file(self):
        assert strip_comments("// x\n/* y */\n").strip() == ""


class TestLoc:
    def test_comment_only_file_counts_zero(self):
        assert count_loc("// a\n\n/* b\n b2 */\n") == 0

    def test_annotation_markers_do_not_count(self):
        src = "pragma solidity ^0.5.0;\n// <yes> <report> REENTRANCY\ncall();\n"
        assert count_loc(src) == 2

    def test_brace_only_lines_count(self):
        assert count_loc("contract C {\n}\n") == 2


class TestPragma:
    def test_plain_pragma(self):
        assert has_pragma("pragma solidity ^0.5.0;\ncontract C {}")

    def test_pragma_only_in_comment_does_not_count(self):
        assert not has_pragma("/* pragma solidity ^0.5.0; */\ncontract C {}")
        assert not has_pragma("// pragma solidity ^0.5.0;\ncontract C {}")

    def test_extra_whitespace_allowed(self):
        assert has_pragma("pragma\t solidity 0.8.0;")


def _random_source(rng: random.Random) -> str:
    """Generate sources that aim the nasty corners: comment delimiters in
    strings, quotes in comments, adjacent slashes and stars."""
    atoms = [
        "contract C {", "}", "uint a = 1;", "a = a + 1;",
        '"// not a comment"', "'/* not */'", '"quote \\" inside"',
        "// line comment */ with stars\n", "/* block // inner\n more */",
        " ", "\n", "\t", "b /= 2;", "c = a / b;", "d = a * b;",
        '"multi word  string"', "/**/", "//\n", "x католическая;",
    ]
    return "".join(rng.choice(atoms) for _ in range(rng.randint(1, 40)))


class TestOracleAgreement:
    def test_fifty_generated_sources_match_oracle(self):
        rng = random.Random(1337)
        for i in range(50):
            src = _random_source(rng)
            assert normalize_source(src, strict=False) == normalize_oracle(src), src
            assert strip_comments(src, strict=False) == lexer_oracle(src, False), src

    def test_handwritten_corner_cases(self):
        cases = [
            'a = "//";',
            "b = '/*';\n c = 1; /* '*/' */",
            "x//",
            "y/*",
            'z"',
            "/ /",
            "a /  // b\nc",
            '"\\\\" // escaped backslash then comment',
        ]
        for src in cases:
            assert normalize_source(src, strict=False) == normalize_oracle(src), src


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet='ab"\'/*\\\n\t ;{}=', max_size=120))
def test_idempotent_and_whitespace_free(src):
    once = normalize_source(src, strict=False)
    assert normalize_source(once, strict=False) == once
    assert not any(c.isspace() for c in once)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet='ab"\'/*\\\n\t ;{}=', max_size=120))
def test_fuzz_matches_oracle(src):
    assert normalize_source(src, strict=False) == normalize_oracle(src)


_ERROR_KINDS = {"string": UnterminatedString, "block comment": UnterminatedBlockComment}


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='ab"\'/*\\\n\t ;{}=', max_size=120))
def test_fuzz_strip_and_error_match_oracle(src):
    assert strip_comments(src, strict=False) == lexer_oracle(src, False)
    _, error = lexer._strip(src)
    expected = lexer_error_oracle(src)
    if expected is None:
        assert error is None
    else:
        kind, offset = expected
        assert type(error) is _ERROR_KINDS[kind]
        assert error.position == offset


def test_backend_is_the_pure_python_kernel():
    assert BACKEND == "python"
