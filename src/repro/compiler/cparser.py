"""Recursive-descent parser for the C subset.

Statements descend one method per form; binary expressions are parsed
by precedence climbing over :data:`_BINARY_PREC`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, cast

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

#: Binding power of each binary operator. Comparisons bind loosest,
#: then ``+``/``-``, then ``*``/``/``/``%``; every level is
#: left-associative.
_BINARY_PREC = {"<": 1, "<=": 1, ">": 1, ">=": 1, "==": 1, "!=": 1,
                "+": 2, "-": 2, "*": 3, "/": 3, "%": 3}

#: Deepest expression the parser accepts. The depth of an expression
#: is the longest path from its root to a leaf, where every enclosing
#: parenthesis, call, brace initialiser, unary operator, subscript and
#: binary operator counts one level, so a chain ``1+1+...+1`` of ``n``
#: terms is ``n - 1`` deep. Past the limit the source is rejected with
#: :class:`CParseError`: every later phase walks expressions
#: recursively. Under Python's default recursion limit (1000) the
#: costliest forms, nested calls and brace initialisers, translate up
#: to 245 levels deep (about four frames a level); 200 leaves the
#: caller about 180 frames. The deepest expression in the example and
#: application sources is 6 levels.
MAX_EXPR_DEPTH = 200

#: Deepest statement nesting the parser accepts: every loop body and
#: bare block around a statement counts one level, so ``n`` nested
#: loops are ``n`` deep (stacked pragmas mark one loop and count none).
#: Past the limit the source is rejected with :class:`CParseError`, as
#: for expressions: the parser and every later phase walk statements
#: recursively, and an expression at MAX_EXPR_DEPTH may sit at the
#: innermost level, so the two limits share one stack. Under Python's
#: default recursion limit a call expression MAX_EXPR_DEPTH deep leaves
#: the caller 182 frames, and each loop around it takes one more (its
#: ``int`` initialiser fails constant evaluation, whose message is the
#: expression's recursive repr, under one ``build_env`` frame per
#: loop). 32 levels leave the caller 150 frames with both limits
#: reached; loop nests with a shallow body translated up to 327 levels
#: before this limit. The deepest nesting in the example and
#: application sources is 4 levels.
MAX_STMT_DEPTH = 32


class _Parser:
    def __init__(self, tokens: List[Token]):
        #: the tokens and their texts, each ending in a ``None``
        #: sentinel so the current token is one list index
        self.tokens: List[Optional[Token]] = [*tokens, None]
        self.texts: List[Optional[str]] = [t.text for t in tokens]
        self.texts.append(None)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
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

    def _nested(self, level: int) -> int:
        """The level of a sub-expression nested in a construct at
        ``level``; raises before the parser recurses past the limit."""
        if level >= MAX_EXPR_DEPTH:
            raise self._too_deep()
        return level + 1

    def _outer(self, depth: int) -> int:
        """The depth of a construct around a sub-expression ``depth``
        deep."""
        if depth >= MAX_EXPR_DEPTH:
            raise self._too_deep()
        return depth + 1

    def _nested_stmt(self, level: int) -> int:
        """The level of a statement nested in a loop body or bare block
        at ``level``; raises before the parser recurses past the
        limit."""
        if level >= MAX_STMT_DEPTH:
            line = cast(Token, self.tokens[self.pos - 1]).line
            raise CParseError(f"line {line}: statements nest deeper than "
                              f"MAX_STMT_DEPTH = {MAX_STMT_DEPTH} levels")
        return level + 1

    def _too_deep(self) -> CParseError:
        line = cast(Token, self.tokens[self.pos - 1]).line
        return CParseError(f"line {line}: expression nests deeper than "
                           f"MAX_EXPR_DEPTH = {MAX_EXPR_DEPTH} levels")

    # -- the translation unit --------------------------------------------------

    def parse_program(self, defines: Tuple) -> Program:
        """The function definitions and statements of one translation
        unit, after its ``defines``."""
        stmts = []
        functions = []
        seen = set()
        while self.tokens[self.pos] is not None:
            if self.at_funcdef():
                func = self.parse_funcdef()
                if func.name in seen:
                    raise CParseError(
                        f"function {func.name!r} is defined twice")
                seen.add(func.name)
                functions.append(func)
            else:
                stmts.append(self.parse_stmt(0))
        return Program(defines=defines, stmts=tuple(stmts),
                       functions=tuple(functions))

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
        body = self.parse_stmts(0, stop="}")
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

    # Each statement method takes ``level``, the number of loop bodies
    # and bare blocks around the statement (see MAX_STMT_DEPTH).

    def parse_stmts(self, level: int, stop: Optional[str] = None) -> Tuple:
        stmts = []
        while True:
            tok = self.tokens[self.pos]
            if tok is None:
                if stop is not None:
                    raise CParseError(f"missing {stop!r}")
                break
            if stop is not None and tok.text == stop:
                break
            stmts.append(self.parse_stmt(level))
        return tuple(stmts)

    def parse_stmt(self, level: int):
        tok = self.tokens[self.pos]
        if tok is None:
            raise CParseError("unexpected end of input")
        if tok.kind == "pragma":
            # stacked pragmas mark the same loop, so they are consumed
            # here rather than by one recursion each
            pragma = tok
            while tok is not None and tok.kind == "pragma":
                pragma = self.advance()
                tok = self.tokens[self.pos]
            loop = self.parse_stmt(level)
            if not isinstance(loop, For):
                raise CParseError(
                    f"line {pragma.line}: omp pragma must precede a for "
                    "loop")
            return For(var=loop.var, start=loop.start, bound=loop.bound,
                       step=loop.step, body=loop.body, pragma_omp=True,
                       loc=loop.loc or _loc(pragma))
        if tok.text == "for":
            return self.parse_for(level)
        if tok.text == "{":
            self.advance()
            stmts = self.parse_stmts(self._nested_stmt(level), stop="}")
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
        return self._init_list(0)[0]

    def _init_list(self, level: int) -> Tuple[InitList, int]:
        """A brace initialiser and its depth; braces nest like
        parentheses."""
        inner = self._nested(level)
        self.expect("{")
        items: List[Expr] = []
        item: Expr
        depth = 0
        while not self.at("}"):
            if self.at("{"):
                item, idepth = self._init_list(inner)
            else:
                item, idepth = self._binary(1, inner)
            items.append(item)
            depth = max(depth, idepth)
            if self.at(","):
                self.advance()
        self.expect("}")
        return InitList(items=tuple(items)), self._outer(depth)

    def parse_expr_or_assign(self):
        first = self.tokens[self.pos]
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

    def parse_for(self, level: int) -> For:
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
        inner = self._nested_stmt(level)
        if self.at("{"):
            self.advance()
            body = self.parse_stmts(inner, stop="}")
            self.expect("}")
        else:
            body = (self.parse_stmt(inner),)
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
                step = parse_number(step_tok.text)
                if not isinstance(step, int):
                    raise CParseError(
                        f"line {step_tok.line}: loop step must be an "
                        f"integer constant, got {step_tok.text!r}")
                return step
        raise CParseError(f"line {tok.line}: unsupported loop step")

    # -- expressions -----------------------------------------------------------
    #
    # Each method returns the expression and its depth (see
    # MAX_EXPR_DEPTH) and takes ``level``, the number of parentheses,
    # calls, braces, unary operators and subscripts around it; a
    # construct that would nest past the limit raises before it
    # recurses, so a deep input never reaches Python's recursion limit.

    def parse_expr(self) -> Expr:
        return self._binary(1, 0)[0]

    def _binary(self, min_prec: int, level: int) -> Tuple[Expr, int]:
        """Precedence climbing over the operators binding at least as
        tightly as ``min_prec``: the right operand of an operator takes
        only tighter operators, so equal ones fold to the left."""
        left, depth = self._unary(level)
        texts = self.texts
        prec = _BINARY_PREC.get(texts[self.pos])   # type: ignore[arg-type]
        while prec is not None and prec >= min_prec:
            op = cast(str, texts[self.pos])
            self.pos += 1
            right, rdepth = self._binary(prec + 1, level)
            depth = self._outer(depth if depth > rdepth else rdepth)
            left = BinOp(op, left, right)
            prec = _BINARY_PREC.get(texts[self.pos])  # type: ignore[arg-type]
        return left, depth

    def _unary(self, level: int) -> Tuple[Expr, int]:
        """A unary operator applied to a unary expression, or a
        primary expression followed by its subscripts."""
        tok = self.advance()
        text = tok.text
        expr: Expr
        depth = 0
        if tok.kind == "id":
            if text == "sizeof":
                self.expect("(")
                ctype = self.advance().text
                if ctype not in TYPE_KEYWORDS:
                    raise CParseError(
                        f"line {tok.line}: sizeof of unknown type "
                        f"{ctype!r}")
                self.expect(")")
                expr = Sizeof(ctype=ctype)
            elif self.texts[self.pos] == "(":
                expr, depth = self._call(tok, level)
            else:
                expr = Ident(name=text)
        elif tok.kind == "num":
            expr = Num(parse_number(text))
        elif text == "(":
            expr, depth = self._binary(1, self._nested(level))
            self.expect(")")
            depth = self._outer(depth)
        elif text == "&" or text == "-":
            operand, depth = self._unary(self._nested(level))
            depth = self._outer(depth)
            if text == "&":
                return AddrOf(operand), depth
            if isinstance(operand, Num):
                return Num(-operand.value), depth
            return BinOp("-", Num(0), operand), depth
        else:
            raise CParseError(f"line {tok.line}: unexpected token "
                              f"{text!r}")
        while self.texts[self.pos] == "[":
            self.pos += 1
            idx, idepth = self._binary(1, self._nested(level))
            self.expect("]")
            expr = Index(base=expr, idx=idx)
            depth = self._outer(depth if depth > idepth else idepth)
        return expr, depth

    def _call(self, name: Token, level: int) -> Tuple[Call, int]:
        """The argument list of a call to ``name``."""
        inner = self._nested(level)
        self.pos += 1                        # the "("
        args = []
        depth = 0
        while self.texts[self.pos] != ")":
            arg, adepth = self._binary(1, inner)
            args.append(arg)
            depth = max(depth, adepth)
            if self.texts[self.pos] == ",":
                self.pos += 1
        self.expect(")")
        return Call(func=name.text, args=tuple(args),
                    loc=_loc(name)), self._outer(depth)


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
    return _Parser(tokens).parse_program(tuple(defines))
