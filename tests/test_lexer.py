"""Unit tests for the NetCL lexer and preprocessor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.errors import CompileError
from repro.lang.lexer import Lexer, TokenKind, preprocess
from repro.lang.parser import parse_source


def toks(src, **kw):
    return [t for t in Lexer(src, **kw).tokens if t.kind != TokenKind.EOF]


class TestTokens:
    def test_identifiers_and_keywords(self):
        ts = toks("int foo _net_ _kernel bar2")
        assert [t.kind for t in ts] == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
        ]

    def test_decimal_hex_binary_numbers(self):
        ts = toks("42 0x2A 0b101010 7u 9UL")
        assert [t.value for t in ts] == [42, 42, 42, 7, 9]

    def test_char_literals(self):
        ts = toks(r"'+' 'a' '\n' '\0'")
        assert [t.value for t in ts] == [ord("+"), ord("a"), 10, 0]

    def test_true_false_become_numbers(self):
        ts = toks("true false")
        assert [t.value for t in ts] == [1, 0]

    def test_maximal_munch_operators(self):
        ts = toks("a<<=b >>= :: && || ++ <=")
        texts = [t.text for t in ts if t.kind == TokenKind.PUNCT]
        assert texts == ["<<=", ">>=", "::", "&&", "||", "++", "<="]

    def test_line_and_column_tracking(self):
        ts = toks("a\n  b")
        assert (ts[0].line, ts[0].col) == (1, 1)
        assert (ts[1].line, ts[1].col) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(CompileError):
            toks("int a = $;")


class TestComments:
    def test_line_comment(self):
        assert [t.text for t in toks("a // comment\n b")] == ["a", "b"]

    def test_block_comment_preserves_lines(self):
        ts = toks("a /* x\n y */ b")
        assert ts[1].line == 2

    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            toks('"abc')


class TestPreprocessor:
    def test_object_macro(self):
        ts = toks("#define N 42\nint a[N];")
        assert any(t.value == 42 for t in ts)

    def test_macro_expands_recursively(self):
        ts = toks("#define A B\n#define B 7\nA")
        assert ts[0].value == 7

    def test_recursive_macro_rejected(self):
        with pytest.raises(CompileError):
            toks("#define A A\nA")

    def test_function_like_macro_rejected(self):
        with pytest.raises(CompileError):
            preprocess("#define F(x) x")

    def test_extra_defines_override_ifndef(self):
        src = "#ifndef N\n#define N 2\n#endif\nN"
        assert toks(src)[0].value == 2
        assert toks(src, extra_defines={"N": 9})[0].value == 9

    def test_ifdef_else(self):
        src = "#ifdef X\n1\n#else\n2\n#endif"
        assert toks(src)[0].value == 2
        assert toks(src, extra_defines={"X": 1})[0].value == 1

    def test_unterminated_conditional(self):
        with pytest.raises(CompileError):
            preprocess("#ifndef A\nint x;")

    def test_undef(self):
        src = "#define N 1\n#undef N\n#ifdef N\n1\n#else\n2\n#endif"
        assert toks(src)[0].value == 2

    def test_macro_body_with_expression(self):
        ts = toks("#define M 1 << 4\nM")
        assert [t.text for t in ts] == ["1", "<<", "4"]

    def test_macro_used_twice_gets_each_use_site(self):
        ts = toks("#define M (1 + 2)\nM\n  M")
        assert [(t.text, t.line, t.col) for t in ts] == [
            ("(", 2, 1), ("1", 2, 1), ("+", 2, 1), ("2", 2, 1), (")", 2, 1),
            ("(", 3, 3), ("1", 3, 3), ("+", 3, 3), ("2", 3, 3), (")", 3, 3),
        ]


class TestMalformedSource:
    """Malformed source raises CompileError at its line:col, never
    another exception and never silent acceptance."""

    @pytest.mark.parametrize(
        "src,line,col,message",
        [
            ("int x = '", 1, 9, "unterminated character literal"),
            ("int x = '\\", 1, 9, "unterminated character literal"),
            ("int x = '\\q';", 1, 9, "unsupported escape"),
            ("int x = 'ab';", 1, 9, "unterminated character literal"),
            ("int x = 0x;", 1, 9, "malformed number"),
            ("\n  int y = 0b;", 2, 11, "malformed number"),
            ("int x = 0Xu;", 1, 9, "malformed number"),
            ("int x;\n  /* never closed\nint y;", 2, 3, "unterminated /* comment"),
            ("a /* one */ b /* two", 1, 15, "unterminated /* comment"),
            ('int s = "abc', 1, 9, "unterminated string literal"),
            ("int x = 1\u00b2;", 1, 10, "unexpected character"),
        ],
    )
    def test_error_carries_location(self, src, line, col, message):
        with pytest.raises(CompileError) as err:
            Lexer(src)
        assert (err.value.first.line, err.value.first.col) == (line, col)
        assert message in err.value.first.message

    def test_closed_block_comment_keeps_later_columns(self):
        ts = toks("a /* x */ b")
        assert [(t.text, t.col) for t in ts] == [("a", 1), ("b", 4)]

    def test_deep_nesting_is_a_compile_error(self):
        with pytest.raises(CompileError, match="nests too deeply"):
            parse_source("int x = " + "(" * 500 + "1" + ")" * 500 + ";")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parse_source_raises_only_compile_error(src):
    try:
        parse_source(src)
    except CompileError:
        pass


NETCL_PIECES = [
    "int", "unsigned", "_kernel(1)", "_net_", "void", "k", "x", "(", ")", "{", "}",
    "[", "]", ";", ",", "=", "+", "<<", "?", ":", "'", "'a'", "'\\", '"', "0x", "0b",
    "1", "/*", "*/", "//", "\n", "#define M 1\n", "M", "ncl::", "if", "for", "&", " ",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(NETCL_PIECES), max_size=60))
def test_parse_source_on_netcl_fragments_raises_only_compile_error(pieces):
    try:
        parse_source("".join(pieces))
    except CompileError:
        pass
