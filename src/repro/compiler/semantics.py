"""Compile-time semantics: constants, buffers, plans, address analysis.

Pass 1 of the paper's compiler needs to know, statically, every buffer's
element type and extent (from declarations and ``malloc`` sizes), the
value of every size constant (from ``#define`` and const-int
initialisers), the contents of ``fftw_iodim`` initialisers, and the
affine form of every pointer argument. This module builds that
environment by one sweep over the AST.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.compiler.affine import Affine, AffineError
from repro.compiler.cast import (AddrOf, Assign, BinOp, Call, CParseError,
                                 Expr, ExprStmt, For, Ident, Index,
                                 InitList, Num, Program, Sizeof, Stmt,
                                 VarDecl)
from repro.compiler.cparser import TYPE_KEYWORDS
from repro.compiler.errors import CompilerError

#: Well-known constants legacy sources reference.
BUILTIN_CONSTANTS = {
    "NULL": 0,
    "FFTW_FORWARD": -1,
    "FFTW_BACKWARD": 1,
    "FFTW_WISDOM_ONLY": 0,
    "FFTW_ESTIMATE": 0,
    "CblasRowMajor": 101,
    "CblasColMajor": 102,
    "CblasNoTrans": 111,
    "CblasTrans": 112,
    "CblasConjTrans": 113,
    "CblasUpper": 121,
    "CblasLower": 122,
}


#: A compile-time constant value: integer sizes/strides, or float
#: coefficients like AXPY's ``alpha``.
Number = Union[int, float]


class SemanticError(CompilerError):
    """Raised when the compiler cannot analyse a construct.

    A typed diagnostic (code ``MEA014``) with an optional source
    location; ``str(exc)`` keeps the legacy bare-message shape.
    """

    default_code = "MEA014"


@dataclass
class BufferInfo:
    """One data buffer the program owns."""

    name: str
    elem_type: str
    elem_size: int
    count: int                       # elements
    shape: Optional[Tuple[int, ...]] = None
    heap: bool = False               # malloc'ed (True) vs declared array

    @property
    def total_bytes(self) -> int:
        return self.count * self.elem_size

    def row_strides(self) -> Tuple[int, ...]:
        """Element stride of each dimension (row-major)."""
        if self.shape is None:
            return (1,)
        strides = [1] * len(self.shape)
        for i in range(len(self.shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.shape[i + 1]
        return tuple(strides)


@dataclass
class IoDimSpec:
    n: int
    istride: int
    ostride: int


@dataclass
class PlanSpec:
    """A recorded fftwf_plan_guru_dft call."""

    name: str
    rank: int
    dims: List[IoDimSpec]
    howmany: List[IoDimSpec]
    src: str                          # buffer name
    src_offset: int
    dst: str
    dst_offset: int
    sign: int


@dataclass
class CompileEnv:
    """Everything pass 1 learned about the translation unit."""

    constants: Dict[str, int] = field(default_factory=dict)
    buffers: Dict[str, BufferInfo] = field(default_factory=dict)
    iodims: Dict[str, List[IoDimSpec]] = field(default_factory=dict)
    plans: Dict[str, PlanSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in BUILTIN_CONSTANTS.items():
            self.constants.setdefault(name, value)

    # -- constant evaluation -------------------------------------------------

    def eval_const(self, expr: Expr) -> Union[int, float]:
        """Evaluate a compile-time-constant expression.

        Integer arithmetic stays integral (``/`` floor-divides); a
        float anywhere (``0.5``-style coefficients) makes the result a
        float.
        """
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Ident):
            if expr.name in self.constants:
                return self.constants[expr.name]
            raise SemanticError(f"{expr.name!r} is not a compile-time "
                                "constant")
        if isinstance(expr, Sizeof):
            return TYPE_KEYWORDS[expr.ctype]
        if isinstance(expr, BinOp):
            left = self.eval_const(expr.left)
            right = self.eval_const(expr.right)
            if expr.op in ("/", "%") and right == 0:
                raise SemanticError("division by zero in constant "
                                    "expression")
            ops: Dict[str, Callable[[Number, Number], Number]] = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a // b if isinstance(a, int)
                and isinstance(b, int) else a / b,
                "%": lambda a, b: a % b,
            }
            if expr.op not in ops:
                raise SemanticError(f"operator {expr.op!r} in constant "
                                    "expression")
            return ops[expr.op](left, right)
        raise SemanticError(f"{_describe(expr)} is not constant",
                            loc=getattr(expr, "loc", None))

    # -- affine address analysis ------------------------------------------

    def affine_expr(self, expr: Expr) -> Affine:
        """Affine (in loop variables) value of an index expression."""
        if isinstance(expr, Num):
            return Affine.constant(_affine_int(expr.value))
        if isinstance(expr, Ident):
            if expr.name in self.constants:
                return Affine.constant(
                    _affine_int(self.constants[expr.name]))
            return Affine.var(expr.name)       # a loop variable
        if isinstance(expr, Sizeof):
            return Affine.constant(TYPE_KEYWORDS[expr.ctype])
        if isinstance(expr, BinOp):
            left = self.affine_expr(expr.left)
            right = self.affine_expr(expr.right)
            if expr.op == "+":
                return left.add(right)
            if expr.op == "-":
                return left.sub(right)
            if expr.op == "*":
                return left.mul(right)
            if expr.op in ("/", "%") and right.is_constant \
                    and left.is_constant:
                if not right.const:
                    raise AffineError("division by zero")
                value = (left.const // right.const if expr.op == "/"
                         else left.const % right.const)
                return Affine.constant(value)
            raise AffineError(f"non-affine operator {expr.op!r}")
        raise AffineError(f"non-affine expression {expr!r}")

    def buffer_address(self, expr: Expr) -> Tuple[str, Affine]:
        """Resolve a pointer argument to (buffer name, byte offset).

        Accepts ``buf``, ``&buf[i]...``, and ``buf + k`` forms.
        """
        if isinstance(expr, Ident):
            buf = self._buffer(expr.name)
            return buf.name, Affine.constant(0)
        if isinstance(expr, AddrOf):
            return self._indexed_address(expr.operand)
        if isinstance(expr, BinOp) and expr.op == "+":
            name, base = self.buffer_address(expr.left)
            buf = self._buffer(name)
            delta = self.affine_expr(expr.right).scale(buf.elem_size)
            return name, base.add(delta)
        if isinstance(expr, Index):
            # bare buf[i] used as a pointer (1 level off a 2D+ buffer)
            return self._indexed_address(expr, partial_ok=True)
        raise SemanticError(f"cannot resolve {expr!r} to a buffer "
                            "address")

    def _indexed_address(self, expr: Expr,
                         partial_ok: bool = False) -> Tuple[str, Affine]:
        indices: List[Expr] = []
        node = expr
        while isinstance(node, Index):
            indices.append(node.idx)
            node = node.base
        indices.reverse()
        if not isinstance(node, Ident):
            raise SemanticError("address-of must apply to an array "
                                "element")
        buf = self._buffer(node.name)
        strides = buf.row_strides()
        if buf.shape is not None and len(indices) > len(buf.shape):
            raise SemanticError(f"too many subscripts on {buf.name!r}")
        if buf.shape is None and len(indices) != 1:
            raise SemanticError(f"{buf.name!r} is a flat buffer; use one "
                                "subscript")
        offset = Affine.constant(0)
        for dim, idx in enumerate(indices):
            offset = offset.add(self.affine_expr(idx).scale(strides[dim]))
        return buf.name, offset.scale(buf.elem_size)

    def _buffer(self, name: str) -> BufferInfo:
        try:
            return self.buffers[name]
        except KeyError:
            raise SemanticError(f"unknown buffer {name!r}")


def _describe(expr: Expr) -> str:
    """A bounded summary of an expression for an error message: callers
    often catch the error and drop it, so it must not format the tree.
    A subscript or address names its base identifier (one walk down
    the index chain), e.g. ``expression '&a[...]'``."""
    if isinstance(expr, Call):
        return f"call to {expr.func!r}"
    prefix, base = "", expr
    if isinstance(base, AddrOf):
        prefix, base = "&", base.operand
    subscript = ""
    while isinstance(base, Index):
        subscript, base = "[...]", base.base
    if isinstance(base, Ident) and base is not expr:
        return f"expression '{prefix}{base.name}{subscript}'"
    return f"{type(expr).__name__} expression"


def _affine_int(value: Number) -> int:
    """``int(value)``; inf and NaN have no integer (affine) form."""
    if isinstance(value, float) and not math.isfinite(value):
        raise AffineError(f"non-finite constant {value!r}")
    return int(value)


def _const_int(env: CompileEnv, expr: Expr) -> int:
    """A declaration's integer constant (a dimension or an ``int``
    initialiser); inf and NaN are not integers."""
    value = env.eval_const(expr)
    if isinstance(value, float) and not math.isfinite(value):
        raise SemanticError(f"non-finite constant {value!r}")
    return int(value)


def _decl_iodims(env: CompileEnv, decl: VarDecl) -> None:
    if not isinstance(decl.init, InitList):
        raise SemanticError(f"fftw_iodim {decl.name!r} needs an "
                            "initialiser list", loc=decl.loc)
    entries: List[IoDimSpec] = []
    items: Sequence[Expr] = decl.init.items
    # accept both {{a,b,c},...} and a flat {a,b,c} for one dim
    if items and not isinstance(items[0], InitList):
        items = (InitList(items=tuple(items)),)
    for item in items:
        if not isinstance(item, InitList) or len(item.items) != 3:
            raise SemanticError("fftw_iodim initialiser entries must be "
                                "{n, is, os}", loc=decl.loc)
        n, istride, ostride = (_const_int(env, e) for e in item.items)
        entries.append(IoDimSpec(n=n, istride=istride, ostride=ostride))
    env.iodims[decl.name] = entries


def build_env(program: Program) -> CompileEnv:
    """Pass 1, step 1: sweep declarations/defines into a CompileEnv.

    malloc assignments and plan creations are handled later, in
    statement order, by the recognizer (they may depend on constants
    declared above them); this builds everything declaration-driven.
    """
    env = CompileEnv()
    for name, value in program.defines:
        env.constants[name] = value

    def visit(stmts: Sequence[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, VarDecl):
                _register_decl(env, stmt)
            elif isinstance(stmt, For):
                visit(stmt.body)

    visit(program.stmts)
    return env


def _register_decl(env: CompileEnv, decl: VarDecl) -> None:
    if decl.ctype == "fftw_iodim":
        _decl_iodims(env, decl)
        return
    if decl.ctype == "fftwf_plan":
        return                          # bound at plan-call time
    if decl.dims:
        shape = tuple(_const_int(env, d) for d in decl.dims)
        count = 1
        for d in shape:
            count *= d
        env.buffers[decl.name] = BufferInfo(
            name=decl.name, elem_type=decl.ctype,
            elem_size=TYPE_KEYWORDS[decl.ctype], count=count, shape=shape)
        return
    if decl.pointer:
        # heap buffer: extent learned at its malloc site
        env.buffers[decl.name] = BufferInfo(
            name=decl.name, elem_type=decl.ctype,
            elem_size=TYPE_KEYWORDS[decl.ctype], count=0, heap=True)
        return
    if decl.ctype in ("int", "long", "size_t") and decl.init is not None:
        try:
            env.constants[decl.name] = _const_int(env, decl.init)
        except SemanticError:
            pass                        # runtime int, not a constant
