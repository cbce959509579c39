"""Lexer for the NetCL C/C++ subset, with a tiny object-macro preprocessor.

The preprocessor supports ``//`` and ``/* */`` comments and object-like
``#define NAME value`` macros (the only preprocessor feature the paper's
applications use — e.g. ``CMS_HASHES``, ``NUM_SLOTS``, ``THRESH``).
Function-like macros are intentionally unsupported: NetCL's whole pitch is
that loop unrolling and code generation replace P4's preprocessor abuse
(§II, [53] [54]).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterator, Optional

from repro.lang.errors import CompileError


class TokenKind(Enum):
    IDENT = auto()
    NUMBER = auto()
    CHARLIT = auto()
    STRING = auto()
    PUNCT = auto()
    KEYWORD = auto()
    EOF = auto()


KEYWORDS = {
    "if",
    "else",
    "for",
    "while",
    "do",
    "return",
    "break",
    "continue",
    "goto",
    "struct",
    "void",
    "bool",
    "char",
    "short",
    "int",
    "long",
    "unsigned",
    "signed",
    "auto",
    "const",
    "static",
    "true",
    "false",
    "sizeof",
    "switch",
    "case",
    "default",
    # NetCL specifiers (Table I)
    "_kernel",
    "_net_",
    "_managed_",
    "_lookup_",
    "_at",
    "_spec",
    "_tail_",
}

# Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = [
    "<<=",
    ">>=",
    "...",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "::",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "=",
    "?",
    ":",
    ".",
]


@dataclass
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int
    value: Optional[int] = None  # numeric value for NUMBER / CHARLIT

    def is_punct(self, text: str) -> bool:
        return self.kind == TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r} @{self.line}:{self.col})"


#: ``//`` to end of line, a closed ``/* */``, or (last) an unclosed ``/*``.
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/|/\*", re.S)


def _strip_comments(src: str) -> str:
    """Drop comments, keeping the newlines inside block comments."""

    def blank(m: re.Match) -> str:
        text = m.group()
        if text == "/*":
            pos = m.start()
            line, col = src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)
            raise CompileError("unterminated /* comment", line, col)
        return "\n" * text.count("\n")

    return _COMMENT_RE.sub(blank, src)


def preprocess(src: str, extra_defines: Optional[dict[str, int]] = None) -> tuple[str, dict[str, str]]:
    """Strip comments and collect ``#define`` macros.

    Returns the source with directive lines blanked, plus the macro table.
    ``extra_defines`` lets callers (e.g. benchmark parameter sweeps) inject
    compile-time constants, like ``-D`` on a C compiler command line.
    """
    src = _strip_comments(src)
    macros: dict[str, str] = {}
    if extra_defines:
        macros.update({k: str(v) for k, v in extra_defines.items()})
    lines = src.split("\n")
    out_lines: list[str] = []
    # Conditional-inclusion stack: each entry is True when the enclosing
    # #if(n)def branch is active.
    cond_stack: list[bool] = []

    def active() -> bool:
        return all(cond_stack)

    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split(None, 2)
            if not parts:
                out_lines.append("")
                continue
            directive = parts[0]
            if directive == "ifdef":
                cond_stack.append(len(parts) > 1 and parts[1] in macros)
            elif directive == "ifndef":
                cond_stack.append(not (len(parts) > 1 and parts[1] in macros))
            elif directive == "else":
                if not cond_stack:
                    raise CompileError("#else without #if", lineno)
                cond_stack[-1] = not cond_stack[-1]
            elif directive == "endif":
                if not cond_stack:
                    raise CompileError("#endif without #if", lineno)
                cond_stack.pop()
            elif not active():
                pass  # directive inside an inactive branch
            elif directive == "define":
                if len(parts) < 2:
                    raise CompileError("malformed #define", lineno)
                name = parts[1]
                if "(" in name:
                    raise CompileError(
                        "function-like macros are not supported in NetCL", lineno
                    )
                macros[name] = parts[2].strip() if len(parts) > 2 else "1"
            elif directive == "undef":
                if len(parts) > 1:
                    macros.pop(parts[1], None)
            elif directive in ("include", "pragma", "if"):
                pass  # tolerated and ignored: NetCL headers are implicit
            else:
                raise CompileError(f"unsupported directive #{directive}", lineno)
            out_lines.append("")
        elif not active():
            out_lines.append("")
        else:
            out_lines.append(line)
    if cond_stack:
        raise CompileError("unterminated #if/#ifdef/#ifndef block", len(lines))
    return "\n".join(out_lines), macros


_ESCAPES = {"n": 10, "t": 9, "0": 0, "r": 13, "\\": 92, "'": 39}

#: One named group per token class, tried in order at each position; BAD
#: matches any single character no other group accepts.
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("WS", r"\s+"),
            ("IDENT", r"[^\W\d]\w*"),
            ("NUMBER", r"0[xX][0-9a-fA-F]*[uUlL]*|0[bB][01]*[uUlL]*|\d+[uUlL]*"),
            ("CHARLIT", r"'(?:\\[nt0r\\']|[^\\])'"),
            ("STRING", r'"(?:[^"\\]|\\.)*"'),
            ("PUNCT", "|".join(re.escape(p) for p in PUNCTUATORS)),
            ("BAD", "."),
        )
    ),
    re.S,
)


def _number_value(text: str, line: int, col: int) -> int:
    digits = text.rstrip("uUlL")  # integer suffixes (u, l, ul, ull ...)
    prefix = digits[:2].lower()
    base = 16 if prefix == "0x" else 2 if prefix == "0b" else 10
    try:
        return int(digits, base)
    except ValueError:  # a prefix without digits, or past int's digit limit
        raise CompileError(f"malformed number {text!r}", line, col) from None


def _bad_token(src: str, pos: int) -> str:
    """The diagnostic for a character no token class accepts at ``pos``."""
    c = src[pos]
    if c == "'":
        esc = src[pos + 2 : pos + 3] if src[pos + 1 : pos + 2] == "\\" else ""
        if esc and esc not in _ESCAPES:
            return f"unsupported escape '\\{esc}'"
        return "unterminated character literal"
    if c == '"':
        return "unterminated string literal"
    return f"unexpected character {c!r}"


class Lexer:
    """Produces the token stream, expanding object-like macros."""

    def __init__(self, source: str, extra_defines: Optional[dict[str, int]] = None) -> None:
        self.source, self.macros = preprocess(source, extra_defines)
        #: macro name -> its body's tokens, lexed on first use
        self._bodies: dict[str, list[Token]] = {}
        self.tokens = self._tokenize(self.source, self.macros)

    def _tokenize(self, src: str, macros: dict[str, str]) -> list[Token]:
        """Lex ``src``, expanding the names in ``macros``; ends with EOF."""
        line_starts = [0]
        line_starts.extend(m.end() for m in re.finditer("\n", src))
        tokens: list[Token] = []
        append = tokens.append
        for m in _TOKEN_RE.finditer(src):
            kind = m.lastgroup
            if kind == "WS":
                continue
            pos = m.start()
            line = bisect_right(line_starts, pos)
            col = pos - line_starts[line - 1] + 1
            text = m.group()
            if kind == "IDENT":
                if text in macros:
                    tokens.extend(self._expand_macro(text, line, col, frozenset()))
                elif text in KEYWORDS:
                    if text == "true":
                        append(Token(TokenKind.NUMBER, "1", line, col, 1))
                    elif text == "false":
                        append(Token(TokenKind.NUMBER, "0", line, col, 0))
                    else:
                        append(Token(TokenKind.KEYWORD, text, line, col))
                elif text[0] == "_" or text[0].isalpha():
                    append(Token(TokenKind.IDENT, text, line, col))
                else:  # a numeral that is neither a letter nor a decimal digit, e.g. "²"
                    raise CompileError(f"unexpected character {text[0]!r}", line, col)
            elif kind == "PUNCT":
                append(Token(TokenKind.PUNCT, text, line, col))
            elif kind == "NUMBER":
                append(Token(TokenKind.NUMBER, text, line, col, _number_value(text, line, col)))
            elif kind == "CHARLIT":
                value = _ESCAPES[text[2]] if text[1] == "\\" else ord(text[1])
                append(Token(TokenKind.CHARLIT, text, line, col, value))
            elif kind == "STRING":
                append(Token(TokenKind.STRING, text, line, col))
            else:
                raise CompileError(_bad_token(src, pos), line, col)
        line = len(line_starts)
        append(Token(TokenKind.EOF, "", line, len(src) - line_starts[-1] + 1))
        return tokens

    def _expand_macro(
        self, name: str, line: int, col: int, active: frozenset[str]
    ) -> Iterator[Token]:
        """Recursively expand an object-like macro body into tokens."""
        if name in active:
            raise CompileError(f"recursive macro {name}", line, col)
        body = self._bodies.get(name)
        if body is None:
            # Raw tokenization; nested expansion happens below, per use.
            body = self._bodies[name] = self._tokenize(self.macros[name], {})[:-1]
        for tok in body:
            if tok.kind == TokenKind.IDENT and tok.text in self.macros:
                yield from self._expand_macro(tok.text, line, col, active | {name})
            else:
                yield Token(tok.kind, tok.text, line, col, tok.value)
