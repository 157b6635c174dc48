"""Recursive-descent parser for the C subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.compiler.cast import (AddrOf, Assign, BinOp, Call, CParseError,
                                 Expr, ExprStmt, For, FuncDef, Ident,
                                 Index, InitList, Num, Param, Program,
                                 Sizeof, VarDecl)
from repro.compiler.clexer import Token, parse_number, tokenize
from repro.compiler.diagnostics import SourceLoc


def _loc(tok: Token) -> SourceLoc:
    return SourceLoc(line=tok.line, col=tok.col)

#: Type keywords the subset understands (with their element sizes; the
#: semantic layer uses these for sizeof and buffer shapes).
TYPE_KEYWORDS = {
    "void": 0,
    "char": 1,
    "int": 4,
    "long": 8,
    "size_t": 8,
    "float": 4,
    "double": 8,
    "complex": 8,            # float complex, numpy complex64
    "fftwf_plan": 8,
    "fftw_iodim": 24,
}

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise CParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.advance()
        if tok.text != text:
            raise CParseError(
                f"line {tok.line}: expected {text!r}, got {tok.text!r}")
        return tok

    # -- functions -----------------------------------------------------------

    def at_funcdef(self) -> bool:
        """Lookahead: type keyword, '*'*, identifier, '(' — a function
        definition rather than a declaration or a call."""
        tok = self.peek()
        if tok is None or tok.kind != "id" or tok.text not in TYPE_KEYWORDS:
            return False
        offset = 1
        while True:
            nxt = self.peek(offset)
            if nxt is None:
                return False
            if nxt.text == "*":
                offset += 1
                continue
            break
        name = self.peek(offset)
        if name is None or name.kind != "id":
            return False
        paren = self.peek(offset + 1)
        return paren is not None and paren.text == "("

    def parse_funcdef(self) -> FuncDef:
        rtype_tok = self.advance()
        if rtype_tok.text != "void":
            raise CParseError(
                f"line {rtype_tok.line}: only void user-defined "
                f"functions are supported (got {rtype_tok.text!r}); "
                "return results through pointer parameters")
        name_tok = self.advance()
        if name_tok.kind != "id":
            raise CParseError(
                f"line {name_tok.line}: expected function name, got "
                f"{name_tok.text!r}")
        self.expect("(")
        params = []
        nxt = self.peek(1)
        if self.at("void") and nxt is not None and nxt.text == ")":
            self.advance()                   # f(void)
        while not self.at(")"):
            params.append(self.parse_param())
            if self.at(","):
                self.advance()
        self.expect(")")
        self.expect("{")
        body = self.parse_stmts(stop="}")
        self.expect("}")
        return FuncDef(name=name_tok.text, params=tuple(params),
                       body=body, loc=_loc(name_tok))

    def parse_param(self) -> Param:
        ctype_tok = self.advance()
        if ctype_tok.kind != "id" or ctype_tok.text not in TYPE_KEYWORDS:
            raise CParseError(
                f"line {ctype_tok.line}: expected parameter type, got "
                f"{ctype_tok.text!r}")
        pointer = False
        while self.at("*"):
            self.advance()
            pointer = True
        name_tok = self.advance()
        if name_tok.kind != "id":
            raise CParseError(
                f"line {name_tok.line}: expected parameter name, got "
                f"{name_tok.text!r}")
        return Param(ctype=ctype_tok.text, name=name_tok.text,
                     pointer=pointer)

    # -- statements ----------------------------------------------------------

    def parse_stmts(self, stop: Optional[str] = None) -> Tuple:
        stmts = []
        while True:
            tok = self.peek()
            if tok is None:
                if stop is not None:
                    raise CParseError(f"missing {stop!r}")
                break
            if stop is not None and tok.text == stop:
                break
            stmts.append(self.parse_stmt())
        return tuple(stmts)

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind == "pragma":
            self.advance()
            loop = self.parse_stmt()
            if not isinstance(loop, For):
                raise CParseError(
                    f"line {tok.line}: omp pragma must precede a for loop")
            return For(var=loop.var, start=loop.start, bound=loop.bound,
                       step=loop.step, body=loop.body, pragma_omp=True,
                       loc=loop.loc or _loc(tok))
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "{":
            self.advance()
            stmts = self.parse_stmts(stop="}")
            self.expect("}")
            if len(stmts) != 1:
                raise CParseError(
                    f"line {tok.line}: bare blocks must hold one "
                    "statement in this subset")
            return stmts[0]
        if tok.kind == "id" and tok.text in TYPE_KEYWORDS:
            return self.parse_decl()
        return self.parse_expr_or_assign()

    def parse_decl(self) -> VarDecl:
        ctype_tok = self.advance()
        ctype = ctype_tok.text
        pointer = False
        while self.at("*"):
            self.advance()
            pointer = True
        name_tok = self.advance()
        if name_tok.kind != "id":
            raise CParseError(
                f"line {name_tok.line}: expected identifier in "
                f"declaration, got {name_tok.text!r}")
        dims = []
        while self.at("["):
            self.advance()
            dims.append(self.parse_expr())
            self.expect("]")
        init = None
        if self.at("="):
            self.advance()
            init = (self.parse_init_list() if self.at("{")
                    else self.parse_expr())
        self.expect(";")
        return VarDecl(ctype=ctype, name=name_tok.text, pointer=pointer,
                       dims=tuple(dims), init=init, loc=_loc(ctype_tok))

    def parse_init_list(self) -> InitList:
        self.expect("{")
        items = []
        while not self.at("}"):
            items.append(self.parse_init_list() if self.at("{")
                         else self.parse_expr())
            if self.at(","):
                self.advance()
        self.expect("}")
        return InitList(items=tuple(items))

    def parse_expr_or_assign(self):
        first = self.peek()
        loc = _loc(first) if first is not None else None
        expr = self.parse_expr()
        if self.at("="):
            self.advance()
            value = self.parse_expr()
            self.expect(";")
            if not isinstance(expr, (Ident, Index)):
                raise CParseError("assignment target must be a variable "
                                  "or array element")
            return Assign(target=expr, value=value, loc=loc)
        self.expect(";")
        return ExprStmt(expr=expr, loc=loc)

    def parse_for(self) -> For:
        for_tok = self.expect("for")
        self.expect("(")
        var_tok = self.advance()
        if var_tok.kind != "id":
            raise CParseError(f"line {var_tok.line}: for-loop init must "
                              "assign the loop variable")
        var = var_tok.text
        self.expect("=")
        start = self.parse_expr()
        self.expect(";")
        cond_var = self.advance()
        if cond_var.text != var:
            raise CParseError(f"line {cond_var.line}: loop condition must "
                              f"test {var!r}")
        cmp_tok = self.advance()
        if cmp_tok.text not in ("<", "<="):
            raise CParseError(f"line {cmp_tok.line}: only < and <= loop "
                              "conditions are supported")
        bound = self.parse_expr()
        if cmp_tok.text == "<=":
            bound = BinOp("+", bound, Num(1))
        self.expect(";")
        step = self._parse_step(var)
        self.expect(")")
        if self.at("{"):
            self.advance()
            body = self.parse_stmts(stop="}")
            self.expect("}")
        else:
            body = (self.parse_stmt(),)
        return For(var=var, start=start, bound=bound, step=step,
                   body=body, loc=_loc(for_tok))

    def _parse_step(self, var: str) -> int:
        tok = self.advance()
        if tok.text == "++":                       # ++v
            name = self.advance()
            if name.text != var:
                raise CParseError("loop step must update the loop variable")
            return 1
        if tok.kind == "id" and tok.text == var:
            nxt = self.advance()
            if nxt.text == "++":                   # v++
                return 1
            if nxt.text == "+=":                   # v += k
                step_tok = self.advance()
                if step_tok.kind != "num":
                    raise CParseError("loop step must be a constant")
                return int(parse_number(step_tok.text))
        raise CParseError(f"line {tok.line}: unsupported loop step")

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_compare()

    def parse_compare(self) -> Expr:
        left = self.parse_additive()
        while (tok := self.peek()) is not None and tok.text in _CMP_OPS:
            op = self.advance().text
            left = BinOp(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.at("*") or self.at("/") or self.at("%"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.at("&"):
            self.advance()
            return AddrOf(self.parse_unary())
        if self.at("-"):
            self.advance()
            operand = self.parse_unary()
            if isinstance(operand, Num):
                return Num(-operand.value)
            return BinOp("-", Num(0), operand)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at("["):
            self.advance()
            idx = self.parse_expr()
            self.expect("]")
            expr = Index(base=expr, idx=idx)
        return expr

    def parse_primary(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(parse_number(tok.text))
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "id":
            if tok.text == "sizeof":
                self.expect("(")
                ctype = self.advance().text
                if ctype not in TYPE_KEYWORDS:
                    raise CParseError(
                        f"line {tok.line}: sizeof of unknown type "
                        f"{ctype!r}")
                self.expect(")")
                return Sizeof(ctype=ctype)
            if self.at("("):
                self.advance()
                args = []
                while not self.at(")"):
                    args.append(self.parse_expr())
                    if self.at(","):
                        self.advance()
                self.expect(")")
                return Call(func=tok.text, args=tuple(args),
                            loc=_loc(tok))
            return Ident(name=tok.text)
        raise CParseError(f"line {tok.line}: unexpected token "
                          f"{tok.text!r}")


def parse_source(source: str) -> Program:
    """Parse C-subset source text into a :class:`Program`.

    Top-level ``void`` function definitions collect into
    ``Program.functions``; every other top-level statement belongs to
    the implicit main body, exactly as before the subset grew
    functions.
    """
    tokens, raw_defines = tokenize(source)
    defines = []
    for name, value in raw_defines:
        try:
            defines.append((name, parse_number(value)))
        except ValueError:
            raise CParseError(f"#define {name} must be numeric in this "
                              "subset")
    parser = _Parser(tokens)
    stmts = []
    functions = []
    seen = set()
    while parser.peek() is not None:
        if parser.at_funcdef():
            func = parser.parse_funcdef()
            if func.name in seen:
                raise CParseError(
                    f"function {func.name!r} is defined twice")
            seen.add(func.name)
            functions.append(func)
        else:
            stmts.append(parser.parse_stmt())
    return Program(defines=tuple(defines), stmts=tuple(stmts),
                   functions=tuple(functions))
