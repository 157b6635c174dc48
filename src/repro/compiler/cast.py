"""AST for the C subset the source-to-source compiler consumes.

The subset covers what the paper's legacy programs (Listing 1 and our
apps) actually use: scalar/pointer/array declarations with optional
brace initialisers, assignments, library calls, ``malloc``/``free``,
canonical ``for`` loops, ``#pragma omp parallel for`` annotations, and
— since the interprocedural growth — top-level ``void`` function
definitions whose bodies reuse the same statement forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.diagnostics import SourceLoc
from repro.compiler.errors import CompilerError


class CParseError(CompilerError):
    """Raised on source the subset grammar cannot express (MEA013)."""


# -- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Union[int, float]


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Call:
    func: str
    args: Tuple["Expr", ...]
    #: source position of the callee token; excluded from equality so
    #: structurally identical calls still compare equal.
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class Index:
    """base[idx] — chains naturally: a[i][j] = Index(Index(a, i), j)."""

    base: "Expr"
    idx: "Expr"


@dataclass(frozen=True)
class AddrOf:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sizeof:
    ctype: str


@dataclass(frozen=True)
class InitList:
    """A brace initialiser: {a, b} or {{...}, {...}}."""

    items: Tuple["Expr", ...]


Expr = Union[Num, Ident, Call, Index, AddrOf, BinOp, Sizeof, InitList]


# -- statements --------------------------------------------------------------

@dataclass(frozen=True)
class VarDecl:
    ctype: str
    name: str
    pointer: bool = False
    dims: Tuple[Expr, ...] = ()      # array dimensions (Exprs)
    init: Optional[Expr] = None
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class Assign:
    target: Expr
    value: Expr
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class ExprStmt:
    expr: Expr
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class For:
    """Canonical loop: for (var = start; var < bound; var += step)."""

    var: str
    start: Expr
    bound: Expr
    step: int
    body: Tuple["Stmt", ...]
    pragma_omp: bool = False
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


def stmt_loc(stmt: "Stmt") -> Optional[SourceLoc]:
    """Source location of any statement node (None if unknown)."""
    return getattr(stmt, "loc", None)


Stmt = Union[VarDecl, Assign, ExprStmt, For]


# -- functions ---------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One formal parameter of a user-defined function.

    Pointer parameters alias a caller buffer; value parameters are
    scalars that must be compile-time resolvable (constants or affine
    in the caller's loop variables) at every call site.
    """

    ctype: str
    name: str
    pointer: bool = False


@dataclass(frozen=True)
class FuncDef:
    """A top-level ``void name(params) { body }`` definition.

    The subset keeps functions ``void`` — they communicate through
    their pointer parameters, exactly how the paper's legacy kernels
    pass buffers to library calls.
    """

    name: str
    params: Tuple[Param, ...]
    body: Tuple[Stmt, ...]
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class Program:
    """A parsed translation unit: defines + functions + main stmts."""

    defines: Tuple[Tuple[str, Union[int, float]], ...] = ()
    stmts: Tuple[Stmt, ...] = ()
    functions: Tuple[FuncDef, ...] = ()

    def function_map(self) -> Dict[str, FuncDef]:
        return {f.name: f for f in self.functions}


def walk_calls(stmts: Sequence[Stmt]) -> List[Call]:
    """All Call expressions in statement order (loops not unrolled)."""
    out: List[Call] = []

    def visit_expr(e: Expr) -> None:
        if isinstance(e, Call):
            out.append(e)
            for a in e.args:
                visit_expr(a)
        elif isinstance(e, Index):
            visit_expr(e.base)
            visit_expr(e.idx)
        elif isinstance(e, AddrOf):
            visit_expr(e.operand)
        elif isinstance(e, BinOp):
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, InitList):
            for item in e.items:
                visit_expr(item)

    def visit_stmt(s: Stmt) -> None:
        if isinstance(s, VarDecl) and s.init is not None:
            visit_expr(s.init)
        elif isinstance(s, Assign):
            visit_expr(s.value)
        elif isinstance(s, ExprStmt):
            visit_expr(s.expr)
        elif isinstance(s, For):
            for inner in s.body:
                visit_stmt(inner)

    for s in stmts:
        visit_stmt(s)
    return out
