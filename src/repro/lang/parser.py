"""Recursive-descent parser for the NetCL C/C++ subset."""

from __future__ import annotations

from typing import Optional

from repro.lang import ast
from repro.lang.errors import CompileError
from repro.lang.lexer import Lexer, Token, TokenKind

# Fundamental type spellings -> (width, signed).  ``char`` is unsigned on
# the device (bytes in message fields), matching the generated bit<8>.
_TYPE_NAMES: dict[str, tuple[int, bool]] = {
    "bool": (1, False),
    "char": (8, False),
    "short": (16, True),
    "int": (32, True),
    "long": (64, True),
    "uint8_t": (8, False),
    "uint16_t": (16, False),
    "uint32_t": (32, False),
    "uint64_t": (64, False),
    "int8_t": (8, True),
    "int16_t": (16, True),
    "int32_t": (32, True),
    "int64_t": (64, True),
    "u8": (8, False),
    "u16": (16, False),
    "u32": (32, False),
    "u64": (64, False),
    "i8": (8, True),
    "i16": (16, True),
    "i32": (32, True),
    "i64": (64, True),
    "size_t": (32, False),
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    def __init__(self, lexer: Lexer) -> None:
        self.tokens = lexer.tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def accept(self, text: str) -> Optional[Token]:
        tok = self.peek()
        if (tok.kind == TokenKind.PUNCT and tok.text == text) or (
            tok.kind == TokenKind.KEYWORD and tok.text == text
        ):
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            cur = self.peek()
            raise CompileError(
                f"expected {text!r}, found {cur.text!r}", cur.line, cur.col
            )
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != TokenKind.IDENT:
            raise CompileError(f"expected identifier, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_number(self) -> int:
        tok = self.peek()
        if tok.kind not in (TokenKind.NUMBER, TokenKind.CHARLIT):
            raise CompileError(f"expected number, found {tok.text!r}", tok.line, tok.col)
        self.next()
        assert tok.value is not None
        return tok.value

    # -- program -----------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        prog = ast.Program(line=1)
        while self.peek().kind != TokenKind.EOF:
            prog.decls.append(self.parse_top_level())
        return prog

    def parse_top_level(self):
        specs = self.parse_specifiers()
        ty = self.parse_type()
        name_tok = self.expect_ident()
        if self.peek().is_punct("("):
            return self.parse_function(specs, ty, name_tok)
        return self.finish_var_decl(specs, ty, name_tok, top_level=True)

    # -- specifiers -----------------------------------------------------------------
    def parse_specifiers(self) -> ast.Specifiers:
        specs = ast.Specifiers()
        while True:
            tok = self.peek()
            if tok.is_keyword("_kernel"):
                self.next()
                self.expect("(")
                specs.kernel = self.expect_number()
                self.expect(")")
            elif tok.is_keyword("_net_"):
                self.next()
                specs.net = True
            elif tok.is_keyword("_managed_"):
                self.next()
                specs.managed = True
            elif tok.is_keyword("_lookup_"):
                self.next()
                specs.lookup = True
            elif tok.is_keyword("_at"):
                self.next()
                self.expect("(")
                locs = [self.expect_number()]
                while self.accept(","):
                    locs.append(self.expect_number())
                self.expect(")")
                specs.at = tuple(locs)
            elif tok.is_keyword("static"):
                self.next()
                specs.static = True
            elif tok.is_keyword("const"):
                self.next()
                specs.const = True
            else:
                return specs

    # -- types --------------------------------------------------------------------------
    def _is_type_start(self, tok: Token) -> bool:
        if tok.kind == TokenKind.KEYWORD and tok.text in (
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
        ):
            return True
        if tok.kind == TokenKind.IDENT and tok.text in _TYPE_NAMES:
            return True
        if tok.kind == TokenKind.IDENT and tok.text == "ncl":
            nxt, nxt2 = self.peek(1), self.peek(2)
            return nxt.is_punct("::") and nxt2.kind == TokenKind.IDENT and nxt2.text in ("kv", "rv")
        return False

    def parse_type(self) -> ast.SrcType:
        self.accept("const")
        tok = self.peek()
        if tok.is_keyword("void"):
            self.next()
            return ast.VoidSrcType()
        if tok.is_keyword("auto"):
            self.next()
            return ast.AutoType()
        if tok.kind == TokenKind.IDENT and tok.text == "ncl":
            # ncl::kv<K,V> / ncl::rv<R,V>
            self.next()
            self.expect("::")
            kind_tok = self.expect_ident()
            if kind_tok.text not in ("kv", "rv"):
                raise CompileError(
                    f"unknown ncl type ncl::{kind_tok.text}", kind_tok.line, kind_tok.col
                )
            self.expect("<")
            key = self._require_scalar(self.parse_type(), kind_tok)
            self.expect(",")
            value = self._require_scalar(self.parse_type(), kind_tok)
            self.expect(">")
            return ast.LookupPairType(kind_tok.text, key, value)
        # (unsigned|signed)? (char|short|int|long)* | typedef name
        signedness: Optional[bool] = None
        if tok.is_keyword("unsigned"):
            self.next()
            signedness = False
            tok = self.peek()
        elif tok.is_keyword("signed"):
            self.next()
            signedness = True
            tok = self.peek()
        base: Optional[str] = None
        if tok.kind == TokenKind.KEYWORD and tok.text in ("char", "short", "int", "long", "bool"):
            base = tok.text
            self.next()
            if base == "long" and self.peek().is_keyword("long"):
                self.next()
            if base in ("short", "long") and self.peek().is_keyword("int"):
                self.next()
        elif tok.kind == TokenKind.IDENT and tok.text in _TYPE_NAMES:
            base = tok.text
            self.next()
        elif signedness is not None:
            base = "int"  # bare "unsigned"/"signed"
        else:
            raise CompileError(f"expected type, found {tok.text!r}", tok.line, tok.col)
        width, signed = _TYPE_NAMES[base]
        if signedness is not None:
            signed = signedness
        self.accept("const")
        return ast.ScalarType(width, signed, base)

    @staticmethod
    def _require_scalar(ty: ast.SrcType, tok: Token) -> ast.ScalarType:
        if not isinstance(ty, ast.ScalarType):
            raise CompileError("kv/rv type parameters must be fundamental types", tok.line, tok.col)
        return ty

    # -- variable declarations ---------------------------------------------------------------
    def finish_var_decl(
        self, specs: ast.Specifiers, ty: ast.SrcType, name_tok: Token, *, top_level: bool
    ) -> ast.VarDecl:
        dims: list[int] = []
        inferred_outer = False
        while self.accept("["):
            if self.accept("]"):
                if dims:
                    raise CompileError(
                        "only the outermost dimension may be inferred", name_tok.line, name_tok.col
                    )
                dims.append(-1)
                inferred_outer = True
            else:
                dims.append(self._const_expr())
                self.expect("]")
        init: Optional[ast.Expr] = None
        if self.accept("="):
            init = self.parse_initializer()
        self.expect(";")
        if inferred_outer:
            if not isinstance(init, ast.InitList):
                raise CompileError(
                    "array with inferred size requires an initializer list",
                    name_tok.line,
                    name_tok.col,
                )
            dims[0] = len(init.items)
        return ast.VarDecl(
            line=name_tok.line, col=name_tok.col,
            specs=specs,
            type=ty,
            name=name_tok.text,
            dims=tuple(dims),
            init=init,
        )

    def _const_expr(self) -> int:
        """Evaluate a constant expression in a dimension/spec position."""
        expr = self.parse_ternary()
        value = _eval_const(expr)
        if value is None:
            raise CompileError("expected a constant expression", expr.line)
        return value

    def parse_initializer(self) -> ast.Expr:
        if self.peek().is_punct("{"):
            brace = self.next()
            items: list[ast.Expr] = []
            if not self.peek().is_punct("}"):
                items.append(self.parse_initializer())
                while self.accept(","):
                    if self.peek().is_punct("}"):
                        break  # trailing comma
                    items.append(self.parse_initializer())
            self.expect("}")
            return ast.InitList(line=brace.line, col=brace.col, items=items)
        return self.parse_assignment()

    # -- functions -------------------------------------------------------------------------------
    def parse_function(self, specs: ast.Specifiers, ret: ast.SrcType, name_tok: Token) -> ast.FuncDecl:
        self.expect("(")
        params: list[ast.Param] = []
        if not self.peek().is_punct(")"):
            params.append(self.parse_param())
            while self.accept(","):
                params.append(self.parse_param())
        self.expect(")")
        body = self.parse_block()
        return ast.FuncDecl(
            line=name_tok.line, col=name_tok.col,
            specs=specs,
            ret_type=ret,
            name=name_tok.text,
            params=params,
            body=body,
        )

    def parse_param(self) -> ast.Param:
        tail = bool(self.accept("_tail_"))
        ty = self.parse_type()
        spec: Optional[int] = None
        if self.peek().is_keyword("_spec"):
            self.next()
            self.expect("(")
            spec = self._const_expr()
            self.expect(")")
        ptr = bool(self.accept("*"))
        byref = bool(self.accept("&")) if not ptr else False
        name_tok = self.expect_ident()
        dims: list[int] = []
        while self.accept("["):
            dims.append(self._const_expr())
            self.expect("]")
        return ast.Param(
            line=name_tok.line, col=name_tok.col,
            type=ty,
            name=name_tok.text,
            byref=byref,
            ptr=ptr,
            spec=spec,
            dims=tuple(dims),
            tail=tail,
        )

    # -- statements ----------------------------------------------------------------------------------
    def parse_block(self) -> ast.Block:
        brace = self.expect("{")
        block = ast.Block(line=brace.line, col=brace.col)
        while not self.peek().is_punct("}"):
            if self.peek().kind == TokenKind.EOF:
                raise CompileError("unterminated block", brace.line, brace.col)
            block.stmts.append(self.parse_statement())
        self.expect("}")
        return block

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok.is_punct("{"):
            return self.parse_block()
        if tok.is_keyword("if"):
            return self.parse_if()
        if tok.is_keyword("for"):
            return self.parse_for()
        if tok.is_keyword("return"):
            self.next()
            value = None if self.peek().is_punct(";") else self.parse_expression()
            self.expect(";")
            return ast.Return(line=tok.line, col=tok.col, value=value)
        if tok.is_keyword("while") or tok.is_keyword("do"):
            raise CompileError(
                "while/do loops are not supported in device code; use a "
                "fully-unrollable for loop (§V-D)",
                tok.line,
                tok.col,
            )
        if tok.is_keyword("goto"):
            raise CompileError("goto is not supported in device code (§V-D)", tok.line, tok.col)
        if tok.is_keyword("switch"):
            raise CompileError("switch is not supported; use if/else chains", tok.line, tok.col)
        if tok.is_keyword("break") or tok.is_keyword("continue"):
            raise CompileError(
                f"{tok.text} is not supported: loops must be fully unrollable (§V-D)",
                tok.line,
                tok.col,
            )
        if self._is_type_start(tok) or tok.is_keyword("const") or tok.is_keyword("static"):
            return self.parse_local_decl()
        expr = self.parse_expression()
        self.expect(";")
        return ast.ExprStmt(line=tok.line, col=tok.col, expr=expr)

    def parse_local_decl(self) -> ast.Stmt:
        specs = self.parse_specifiers()
        ty = self.parse_type()
        name_tok = self.expect_ident()
        if self.peek().is_punct("("):
            raise CompileError(
                "nested function declarations are not allowed", name_tok.line, name_tok.col
            )
        decl = self.finish_var_decl(specs, ty, name_tok, top_level=False)
        return decl

    def parse_if(self) -> ast.If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        els = None
        if self.accept("else"):
            els = self.parse_statement()
        return ast.If(line=tok.line, col=tok.col, cond=cond, then=then, els=els)

    def parse_for(self) -> ast.For:
        tok = self.expect("for")
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if not self.peek().is_punct(";"):
            if self._is_type_start(self.peek()):
                init = self.parse_local_decl()
            else:
                expr = self.parse_expression()
                self.expect(";")
                init = ast.ExprStmt(line=tok.line, col=tok.col, expr=expr)
        else:
            self.expect(";")
        cond = None if self.peek().is_punct(";") else self.parse_expression()
        self.expect(";")
        step = None if self.peek().is_punct(")") else self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ast.For(line=tok.line, col=tok.col, init=init, cond=cond, step=step, body=body)

    # -- expressions (precedence climbing) ----------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        lhs = self.parse_ternary()
        tok = self.peek()
        if tok.kind == TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self.next()
            rhs = self.parse_assignment()
            return ast.Assign(line=tok.line, col=tok.col, op=tok.text, target=lhs, value=rhs)
        return lhs

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.peek().is_punct("?"):
            tok = self.next()
            then = self.parse_assignment()
            self.expect(":")
            els = self.parse_assignment()
            return ast.Ternary(line=tok.line, col=tok.col, cond=cond, then=then, els=els)
        return cond

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", "<=", ">", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def parse_binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self.parse_unary()
        lhs = self.parse_binary(level + 1)
        ops = self._BINARY_LEVELS[level]
        while True:
            tok = self.peek()
            if tok.kind == TokenKind.PUNCT and tok.text in ops:
                self.next()
                rhs = self.parse_binary(level + 1)
                lhs = ast.Binary(line=tok.line, col=tok.col, op=tok.text, left=lhs, right=rhs)
            else:
                return lhs

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == TokenKind.PUNCT and tok.text in ("!", "~", "-", "+", "&", "*"):
            self.next()
            if tok.text == "*":
                raise CompileError(
                    "pointer dereference is not supported in device code (§V-D)",
                    tok.line,
                    tok.col,
                )
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return ast.Unary(line=tok.line, col=tok.col, op=tok.text, operand=operand)
        if tok.kind == TokenKind.PUNCT and tok.text in ("++", "--"):
            self.next()
            operand = self.parse_unary()
            return ast.Unary(line=tok.line, col=tok.col, op=tok.text, operand=operand, prefix=True)
        # C-style cast: '(' type ')' unary
        if tok.is_punct("(") and self._is_type_start(self.peek(1)):
            self.next()
            ty = self.parse_type()
            self.expect(")")
            operand = self.parse_unary()
            call = ast.Call(line=tok.line, col=tok.col, name="__cast__", args=[operand], is_ncl=False)
            call.template_args = [ty]
            return call
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.is_punct("["):
                self.next()
                index = self.parse_expression()
                self.expect("]")
                expr = ast.Index(line=tok.line, col=tok.col, base=expr, index=index)
            elif tok.kind == TokenKind.PUNCT and tok.text in ("++", "--"):
                self.next()
                expr = ast.Unary(line=tok.line, col=tok.col, op=tok.text, operand=expr, prefix=False)
            elif tok.is_punct("."):
                self.next()
                field_tok = self.expect_ident()
                if not isinstance(expr, ast.Ident):
                    raise CompileError(
                        "member access is only supported on builtins "
                        "(device.id, msg.src, ...)",
                        tok.line,
                        tok.col,
                    )
                expr = ast.Member(line=tok.line, col=tok.col, base=expr.name, field_name=field_tok.text)
            elif tok.is_punct("->"):
                raise CompileError("pointer member access is not supported", tok.line, tok.col)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind in (TokenKind.NUMBER, TokenKind.CHARLIT):
            self.next()
            assert tok.value is not None
            return ast.Num(line=tok.line, col=tok.col, value=tok.value)
        if tok.is_punct("("):
            self.next()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if tok.kind == TokenKind.IDENT:
            self.next()
            name = tok.text
            is_ncl = False
            if name == "ncl" and self.peek().is_punct("::"):
                self.next()
                parts = [self.expect_ident().text]
                while self.peek().is_punct("::"):
                    self.next()
                    parts.append(self.expect_ident().text)
                name = ".".join(parts)
                is_ncl = True
            template_args: list[object] = []
            if is_ncl and self.peek().is_punct("<"):
                self.next()
                template_args.append(self._parse_template_arg())
                while self.accept(","):
                    template_args.append(self._parse_template_arg())
                self.expect(">")
            if self.peek().is_punct("("):
                self.next()
                args: list[ast.Expr] = []
                if not self.peek().is_punct(")"):
                    args.append(self.parse_assignment())
                    while self.accept(","):
                        args.append(self.parse_assignment())
                self.expect(")")
                call = ast.Call(line=tok.line, col=tok.col, name=name, args=args, is_ncl=is_ncl)
                call.template_args = template_args
                return call
            if is_ncl:
                raise CompileError(f"ncl::{name} must be called", tok.line, tok.col)
            return ast.Ident(line=tok.line, col=tok.col, name=name)
        raise CompileError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def _parse_template_arg(self) -> object:
        tok = self.peek()
        if tok.kind == TokenKind.NUMBER:
            self.next()
            return tok.value
        return self.parse_type()


def _eval_const(expr: ast.Expr) -> Optional[int]:
    """Best-effort constant evaluation of a parse-time expression."""
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.operand is not None:
        v = _eval_const(expr.operand)
        if v is None:
            return None
        return {"-": -v, "~": ~v, "!": int(v == 0)}.get(expr.op)
    if isinstance(expr, ast.Binary) and expr.left is not None and expr.right is not None:
        a, b = _eval_const(expr.left), _eval_const(expr.right)
        if a is None or b is None:
            return None
        try:
            return {
                "+": a + b,
                "-": a - b,
                "*": a * b,
                "/": a // b if b else None,
                "%": a % b if b else None,
                "<<": a << b,
                ">>": a >> b,
                "&": a & b,
                "|": a | b,
                "^": a ^ b,
            }.get(expr.op)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def parse_source(source: str, extra_defines: Optional[dict[str, int]] = None) -> ast.Program:
    """Parse NetCL source text into an AST."""
    parser = Parser(Lexer(source, extra_defines))
    try:
        return parser.parse_program()
    except RecursionError:
        tok = parser.peek()
        raise CompileError("source nests too deeply to parse", tok.line, tok.col) from None
