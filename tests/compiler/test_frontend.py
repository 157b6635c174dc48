"""Lexer, parser, and semantic-layer tests."""

import pytest

from repro.compiler import (CParseError, SemanticError, build_env,
                            parse_source, translate)
from repro.compiler.affine import Affine, AffineError
from repro.compiler.cast import (AddrOf, Assign, Call, ExprStmt, For,
                                 Ident, Index, Num, VarDecl, walk_calls)
from repro.compiler.cparser import MAX_EXPR_DEPTH, MAX_STMT_DEPTH
from repro.compiler.interp import InterpError, OriginalInterpreter
from repro.compiler.recognizer import (MAX_NEST_DEPTH, TOO_DEEP,
                                       RecognizerError)


class TestParser:
    def test_defines(self):
        prog = parse_source("#define N 64\n#define M 0x10\nint x;")
        assert prog.defines == (("N", 64), ("M", 16))

    def test_decl_forms(self):
        prog = parse_source(
            "float *x;\ncomplex cube[4][8];\nint n = 3;\n")
        ptr, arr, scalar = prog.stmts
        assert ptr == VarDecl(ctype="float", name="x", pointer=True)
        assert arr.dims == (Num(4), Num(8))
        assert scalar.init == Num(3)

    def test_malloc_assignment(self):
        prog = parse_source(
            "float *x;\nx = malloc(sizeof(float) * 100);\n")
        assign = prog.stmts[1]
        assert isinstance(assign, Assign)
        assert assign.value.func == "malloc"

    def test_for_canonicalisation(self):
        prog = parse_source(
            "int i;\nfor (i = 0; i < 10; i++) free(i);\n")
        loop = prog.stmts[1]
        assert isinstance(loop, For)
        assert loop.var == "i" and loop.step == 1
        assert loop.bound == Num(10)

    def test_le_bound_becomes_plus_one(self):
        prog = parse_source(
            "int i;\nfor (i = 0; i <= 9; ++i) free(i);\n")
        loop = prog.stmts[1]
        assert loop.bound.op == "+"

    def test_pragma_marks_loop(self):
        prog = parse_source(
            "int i;\n#pragma omp parallel for\n"
            "for (i = 0; i < 4; i++) free(i);\n")
        assert prog.stmts[1].pragma_omp

    def test_nested_index_and_addrof(self):
        prog = parse_source("float a[2][3];\nfree(&a[1][2]);\n")
        call = walk_calls(prog.stmts)[0]
        assert call.func == "free"

    def test_comments_stripped(self):
        prog = parse_source(
            "// comment\nint x; /* multi\nline */ int y;\n")
        assert len(prog.stmts) == 2

    def test_operator_precedence(self):
        prog = parse_source("int n = 2 + 3 * 4;")
        env = build_env(prog)
        assert env.constants["n"] == 14

    @pytest.mark.parametrize("bad", [
        "int x",                                  # missing semicolon
        "for (i = 0; j < 4; i++) free(i);",       # mismatched cond var
        "for (i = 0; i > 4; i++) free(i);",       # unsupported cond
        "for (i = 0; i < 4; i--) free(i);",       # unsupported step
        "#define X\nint x;",                      # malformed define
        "int @;",                                 # bad char
        "1 + 2;",                                 # unassignable expr? ok
    ][:6])
    def test_malformed(self, bad):
        with pytest.raises(CParseError):
            parse_source(bad)


class TestLoopStep:
    @pytest.mark.parametrize("step, value", [
        ("1", 1), ("2", 2), ("0x3", 3), ("4u", 4)])
    def test_integer_steps(self, step, value):
        loop = parse_source(
            f"int i;\nfor (i = 0; i < 8; i += {step}) free(i);").stmts[1]
        assert loop.step == value

    @pytest.mark.parametrize("step", ["1.5", "1e0", "1.9f", ".5", "2."])
    def test_non_integer_step_is_rejected(self, step):
        source = (f"float x[8];\nint i;\nfor (i = 0; i < 4; i += {step})"
                  "\n  cblas_saxpy(1, 1.0, &x[i], 1, &x[i], 1);\n")
        with pytest.raises(CParseError) as info:
            translate(source)
        assert str(info.value) == (f"line 3: loop step must be an integer "
                                   f"constant, got {step!r}")
        assert info.value.code == "MEA013"


class TestExpressionDepth:
    """``MAX_EXPR_DEPTH`` bounds every expression the parser accepts;
    past it the source is a CParseError, never a RecursionError."""

    @staticmethod
    def deep(form, depth):
        """A declaration whose initialiser is ``depth`` deep."""
        return {
            "parens": "(" * depth + "1" + ")" * depth,
            "chain": "+".join(["1"] * (depth + 1)),
            "unary": "- " * depth + "1",
            "nested subscripts": "a[" * depth + "0" + "]" * depth,
            "chained subscripts": "a" + "[0]" * depth,
            "calls": "f(" * depth + "1" + ")" * depth,
            "braces": "{" * depth + "1" + "}" * depth,
            "mixed": "-(" * (depth // 2) + "1" + ")" * (depth // 2),
        }[form]

    FORMS = ("parens", "chain", "unary", "nested subscripts",
             "chained subscripts", "calls", "braces", "mixed")

    def source(self, form, depth):
        return f"float a[4];\nint n = {self.deep(form, depth)};\n"

    @pytest.mark.parametrize("form, depth", [
        ("parens", 3000), ("chain", 4999), ("nested subscripts", 3000),
        ("chained subscripts", 3000), ("unary", 3000), ("calls", 3000),
        ("braces", 3000)])
    @pytest.mark.parametrize("phase", [parse_source, translate])
    def test_deep_input_is_a_parse_error(self, form, depth, phase):
        with pytest.raises(CParseError) as info:
            phase(self.source(form, depth))
        assert info.value.code == "MEA013"
        assert str(info.value) == (
            "line 2: expression nests deeper than MAX_EXPR_DEPTH = "
            f"{MAX_EXPR_DEPTH} levels")

    @pytest.mark.parametrize("form", FORMS)
    def test_the_limit_itself_translates(self, form):
        depth = MAX_EXPR_DEPTH + (form == "mixed")
        translate(self.source(form, depth))

    def test_longest_chain_translates(self):
        terms = MAX_EXPR_DEPTH + 1
        translate(f"int n = {'+'.join(['1'] * terms)};\n")
        with pytest.raises(CParseError, match="MAX_EXPR_DEPTH"):
            translate(f"int n = {'+'.join(['1'] * (terms + 1))};\n")

    @pytest.mark.parametrize("form", ("calls", "braces"))
    def test_the_limit_leaves_the_caller_frames(self, form):
        # the costliest forms at the limit still translate 100 frames
        # further down the stack than a test runs
        def nest(frames):
            return (translate(self.source(form, MAX_EXPR_DEPTH))
                    if frames == 0 else nest(frames - 1))
        nest(100)

    @pytest.mark.parametrize("form", FORMS)
    def test_one_past_the_limit_is_rejected(self, form):
        depth = MAX_EXPR_DEPTH + 1 + 2 * (form == "mixed")
        with pytest.raises(CParseError, match="MAX_EXPR_DEPTH"):
            parse_source(self.source(form, depth))

    def test_depth_is_the_deepest_path(self):
        # many shallow operands side by side are not deep
        args = ", ".join(["(1) * (2)"] * (3 * MAX_EXPR_DEPTH))
        translate(f"int n = f({args});\nint m[2] = {{{args}}};\n")
        # a chain adds its length to its first operand's depth
        half = MAX_EXPR_DEPTH // 2
        head = "(" * half + "1" + ")" * half
        parse_source(f"int n = {head}{'+1' * half};")
        with pytest.raises(CParseError, match="MAX_EXPR_DEPTH"):
            parse_source(f"int n = {head}{'+1' * (half + 1)};")


class TestStatementDepth:
    """``MAX_STMT_DEPTH`` bounds statement nesting; past it the source
    is a CParseError, never a RecursionError."""

    SAXPY = "cblas_saxpy(8, 2.0, x, 1, y, 1);"

    @staticmethod
    def loops(depth, body, pragma=False, braces=True):
        """``depth`` nested loops around ``body``."""
        lines = ["float x[8];", "float y[8];"]
        lines += [f"int i{k};" for k in range(depth)]
        for k in range(depth):
            if pragma:
                lines.append("#pragma omp parallel for")
            lines.append(f"for (i{k} = 0; i{k} < 1; i{k}++)"
                         + (" {" if braces else ""))
        lines.append(body)
        lines += ["}"] * depth if braces else []
        return "\n".join(lines) + "\n"

    @staticmethod
    def blocks(depth):
        return "float x[8];\n" + "{" * depth + "free(x);" + "}" * depth

    @pytest.mark.parametrize("phase", [parse_source, translate])
    def test_deep_blocks_are_a_parse_error(self, phase):
        with pytest.raises(CParseError) as info:
            phase(self.blocks(3000))
        assert info.value.code == "MEA013"
        assert str(info.value) == (
            "line 2: statements nest deeper than MAX_STMT_DEPTH = "
            f"{MAX_STMT_DEPTH} levels")

    @pytest.mark.parametrize("braces", [True, False])
    def test_one_past_the_limit_is_rejected(self, braces):
        translate(self.loops(MAX_STMT_DEPTH, self.SAXPY, braces=braces))
        translate(self.blocks(MAX_STMT_DEPTH))
        with pytest.raises(CParseError, match="MAX_STMT_DEPTH"):
            parse_source(self.loops(MAX_STMT_DEPTH + 1, self.SAXPY,
                                    braces=braces))
        with pytest.raises(CParseError, match="MAX_STMT_DEPTH"):
            parse_source(self.blocks(MAX_STMT_DEPTH + 1))

    def test_stacked_pragmas_mark_one_loop(self):
        source = ("float x[8];\nfloat y[8];\nint i;\n"
                  + "#pragma omp parallel for\n" * 3000
                  + "for (i = 0; i < 8; i++) "
                  "cblas_saxpy(1, 2.0, &x[i], 1, &y[i], 1);\n")
        loop = parse_source(source).stmts[-1]
        assert isinstance(loop, For) and loop.pragma_omp
        assert loop.loc.line == 3004
        assert len(translate(source).items) == 1
        with pytest.raises(CParseError, match="line 4: omp pragma must "
                           "precede a for loop"):
            parse_source("float x[8];\n" + "#pragma omp parallel for\n"
                         * 3 + "free(x);\n")

    @pytest.mark.parametrize("init", [
        "int m = " + "f(" * MAX_EXPR_DEPTH + "1" + ")" * MAX_EXPR_DEPTH,
        "int m[1] = " + "{" * MAX_EXPR_DEPTH + "1" + "}" * MAX_EXPR_DEPTH])
    def test_both_limits_leave_the_caller_frames(self, init):
        # the costliest expressions at MAX_EXPR_DEPTH inside the
        # costliest loops at MAX_STMT_DEPTH still translate 100 frames
        # further down the stack than a test runs
        source = self.loops(MAX_STMT_DEPTH, f"{self.SAXPY}\n{init};",
                            pragma=True)

        def nest(frames):
            return translate(source) if frames == 0 else nest(frames - 1)
        nest(100)


class TestCallDepth:
    """Inlining splices a callee's body in like a block, so loops and
    inlined calls together, across function bodies, are bounded by
    ``MAX_NEST_DEPTH``; past it a call chain is a RecognizerError (and
    an InterpError in the original-program interpreter), never a
    RecursionError."""

    SAXPY = "cblas_saxpy(8, 2.0, x, 1, y, 1);"
    #: the costliest argument: calls nested as deep as the parser
    #: allows inside the library call (MAX_EXPR_DEPTH levels in all)
    DEEP_ARG = ("cblas_saxpy(" + "f(" * (MAX_EXPR_DEPTH - 1) + "8"
                + ")" * (MAX_EXPR_DEPTH - 1) + ", 2.0, x, 1, y, 1);")

    @staticmethod
    def chain(calls, loops=0, body=SAXPY):
        """``main`` calls ``f1``, each ``fk`` calls ``fk+1`` inside
        ``loops`` nested loops, and the last one runs ``body``."""
        lines = ["float x[8];", "float y[8];"]
        for k in range(1, calls + 1):
            lines.append(f"void f{k}(float* x, float* y) {{")
            lines += [f"int i{j};" for j in range(loops)]
            lines += [f"for (i{j} = 0; i{j} < 1; i{j}++) {{"
                      for j in range(loops)]
            lines.append(f"f{k + 1}(x, y);" if k < calls else body)
            lines += ["}"] * loops
            lines.append("}")
        lines.append("f1(&x[0], &y[0]);")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("calls, loops", [
        (400, 0), (30, MAX_STMT_DEPTH), (MAX_NEST_DEPTH + 1, 0),
        (MAX_NEST_DEPTH // 32, 32)])
    def test_deep_chain_is_a_recognizer_error(self, calls, loops):
        with pytest.raises(RecognizerError) as info:
            translate(self.chain(calls, loops))
        assert info.value.code == "MEA013"
        assert info.value.message == TOO_DEEP

    def test_the_limit_itself_translates(self):
        translate(self.chain(MAX_NEST_DEPTH))
        # four call levels of 31 loops each: 128 levels
        translate(self.chain(MAX_NEST_DEPTH // 32, 31))
        with pytest.raises(RecognizerError, match="MAX_NEST_DEPTH"):
            translate(self.chain(MAX_NEST_DEPTH + 1))

    @pytest.mark.parametrize("calls, loops", [
        (MAX_NEST_DEPTH, 0), (MAX_NEST_DEPTH // 32, 31)])
    def test_the_limit_leaves_the_caller_frames(self, calls, loops):
        # the costliest argument at MAX_EXPR_DEPTH in the innermost call
        # at MAX_NEST_DEPTH fails typed, at the argument, 100 frames
        # further down the stack than a test runs
        source = self.chain(calls, loops, self.DEEP_ARG)
        line = source.splitlines().index(self.DEEP_ARG) + 1

        def nest(frames):
            return translate(source) if frames == 0 else nest(frames - 1)
        with pytest.raises(RecognizerError) as info:
            nest(100)
        assert str(info.value) == (f"line {line}, col 13: call to 'f' "
                                   "is not constant")

    @pytest.mark.parametrize("calls", [400, MAX_NEST_DEPTH + 1])
    def test_interpreter_applies_the_same_bound(self, calls):
        program = parse_source(self.chain(calls))
        interp = OriginalInterpreter(program, build_env(program))
        with pytest.raises(InterpError, match="MAX_NEST_DEPTH"):
            interp.execute()
        program = parse_source(self.chain(MAX_NEST_DEPTH))
        OriginalInterpreter(program, build_env(program)).execute()


class TestTruncatedSource:
    @pytest.mark.parametrize("source", [
        "int i;\nfor (i = 0; i < 4; i++)",
        "#pragma omp parallel for\n",
        "int i;\nfor (i = 0; i < 4; i++) {",
        "int x = f(1,",
    ])
    def test_end_of_input_is_a_parse_error(self, source):
        with pytest.raises(CParseError):
            parse_source(source)


class TestSemantics:
    def test_constants_from_defines_and_decls(self):
        env = build_env(parse_source(
            "#define N 8\nint m = N * 2;\nfloat a[m];\n"))
        assert env.constants["m"] == 16
        assert env.buffers["a"].count == 16

    def test_sizeof(self):
        env = build_env(parse_source("int x;"))
        from repro.compiler.cast import Sizeof
        assert env.eval_const(Sizeof("complex")) == 8
        assert env.eval_const(Sizeof("float")) == 4

    def test_array_shape_and_strides(self):
        env = build_env(parse_source("complex c[4][8][2];"))
        info = env.buffers["c"]
        assert info.shape == (4, 8, 2)
        assert info.row_strides() == (16, 2, 1)
        assert info.total_bytes == 4 * 8 * 2 * 8

    def test_affine_address_of_nested_index(self):
        env = build_env(parse_source("float a[4][8];"))
        prog = parse_source("float a[4][8];\nfree(&a[i][j]);\n")
        env = build_env(prog)
        call = walk_calls(prog.stmts)[0]
        buf, affine = env.buffer_address(call.args[0])
        assert buf == "a"
        assert affine.coef("i") == 8 * 4      # row stride in bytes
        assert affine.coef("j") == 4

    def test_unknown_buffer(self):
        env = build_env(parse_source("int x;"))
        with pytest.raises(SemanticError):
            env.buffer_address(Ident("ghost"))

    def test_non_constant_rejected(self):
        env = build_env(parse_source("int x;"))
        with pytest.raises(SemanticError):
            env.eval_const(Ident("runtime_var"))

    def test_non_constant_message_is_bounded(self, monkeypatch):
        # a non-constant ``int`` initialiser is a runtime int: the
        # error eval_const raises is caught and dropped, so building it
        # must not walk (or repr) the expression tree
        def no_repr(self):
            raise AssertionError("repr of an expression")
        monkeypatch.setattr(Call, "__repr__", no_repr)
        depth = MAX_EXPR_DEPTH
        source = ("int m = " + "f(" * depth + "1" + ")" * depth + ";\n"
                  "int k = 3;\n")
        env = build_env(parse_source(source))
        assert "m" not in env.constants and env.constants["k"] == 3
        with pytest.raises(SemanticError) as info:
            env.eval_const(parse_source(source).stmts[0].init)
        assert info.value.message == "call to 'f' is not constant"
        assert str(info.value) == "line 1, col 9: call to 'f' is not constant"

    @pytest.mark.parametrize("expr, message", [
        (Index(Index(Ident("a"), Num(0)), Ident("i")),
         "expression 'a[...]' is not constant"),
        (AddrOf(Ident("a")), "expression '&a' is not constant"),
        (AddrOf(Index(Ident("a"), Num(0))),
         "expression '&a[...]' is not constant"),
        (AddrOf(Call("f", ())), "AddrOf expression is not constant")])
    def test_non_constant_message_names_the_operand(self, expr, message):
        env = build_env(parse_source("float a[4][4];\n"))
        with pytest.raises(SemanticError) as info:
            env.eval_const(expr)
        assert info.value.message == message

    def test_iodim_initialiser(self):
        env = build_env(parse_source(
            "#define N 4\n"
            "fftw_iodim dims[2] = {{N, 1, 1}, {8, N, N}};\n"))
        dims = env.iodims["dims"]
        assert (dims[0].n, dims[0].istride, dims[0].ostride) == (4, 1, 1)
        assert (dims[1].n, dims[1].istride, dims[1].ostride) == (8, 4, 4)

    @pytest.mark.parametrize("source, message", [
        ("#define N 4\nfloat x[N/0];", "division by zero"),
        ("#define N 4\nfloat x[N % 0];", "division by zero"),
        ("float x[1e400];", "non-finite constant inf"),
        ("fftw_iodim d[1] = {{1e400, 1, 1}};", "non-finite constant"),
    ])
    def test_bad_declaration_constants(self, source, message):
        with pytest.raises(SemanticError, match=message):
            build_env(parse_source(source))

    @pytest.mark.parametrize("index, message", [
        ("4/0", "division by zero"), ("4 % 0", "division by zero"),
        ("1e400", "non-finite constant"), ("BIG", "non-finite constant"),
    ])
    def test_bad_index_constants_are_not_affine(self, index, message):
        prog = parse_source(f"#define BIG 1e400\nfloat a[8];\n"
                            f"free(&a[{index}]);\n")
        env = build_env(prog)
        call = walk_calls(prog.stmts)[0]
        with pytest.raises(AffineError, match=message):
            env.buffer_address(call.args[0])


class TestAffine:
    def test_arith(self):
        a = Affine.var("i").scale(4).add(Affine.constant(100))
        assert a.evaluate({"i": 3}) == 112
        assert a.coef("i") == 4
        assert not a.is_constant

    def test_mul_rejects_bilinear(self):
        with pytest.raises(AffineError):
            Affine.var("i").mul(Affine.var("j"))

    def test_sub(self):
        a = Affine.var("i").sub(Affine.var("i"))
        assert a.is_constant

    def test_unbound_variable(self):
        with pytest.raises(AffineError):
            Affine.var("i").evaluate({})
