"""Unit tests for the interval lattice and the CFG value-range pass."""

from repro.compiler.analysis.cfg import build_cfg
from repro.compiler.analysis.ranges import (EMPTY, TOP, Interval,
                                            ValueRanges, affine_interval,
                                            loop_headers)
from repro.compiler.cparser import parse_source
from repro.compiler.recognizer import recognize
from repro.compiler.affine import Affine


# -- the Interval lattice -----------------------------------------------------

def test_interval_predicates():
    assert Interval.bounded(2, 5).is_bounded
    assert Interval.point(3).is_point
    assert EMPTY.is_empty and not EMPTY.is_bounded
    assert not TOP.is_bounded and not TOP.is_empty
    assert Interval(None, 7).contains(-100)
    assert not Interval(0, 7).contains(8)
    assert Interval.bounded(2, 5).width() == 4
    assert TOP.width() is None
    assert EMPTY.width() == 0


def test_interval_arithmetic():
    a, b = Interval.bounded(1, 3), Interval.bounded(-2, 4)
    assert a.add(b) == Interval.bounded(-1, 7)
    assert a.shift(10) == Interval.bounded(11, 13)
    assert a.neg() == Interval.bounded(-3, -1)
    assert a.scale(-2) == Interval.bounded(-6, -2)
    assert a.scale(0) == Interval.point(0)
    assert Interval(None, 5).scale(2) == Interval(None, 10)
    assert Interval(None, 5).neg() == Interval(-5, None)
    assert EMPTY.add(a).is_empty


def test_interval_lattice_ops():
    a, b = Interval.bounded(0, 3), Interval.bounded(2, 8)
    assert a.join(b) == Interval.bounded(0, 8)
    assert a.meet(b) == Interval.bounded(2, 3)
    assert a.meet(Interval.bounded(5, 9)).is_empty
    assert a.join(EMPTY) == a and EMPTY.meet(a).is_empty
    assert TOP.meet(a) == a and a.join(TOP) == TOP


def test_interval_widening():
    old, new = Interval.bounded(0, 4), Interval.bounded(0, 5)
    assert old.widen(new) == Interval(0, None)      # hi escaped
    assert old.widen(Interval.bounded(-1, 4)) == Interval(None, 4)
    assert old.widen(Interval.bounded(0, 4)) == old  # stable


def test_affine_interval():
    aff = Affine(const=3, coefs={"i": 2, "j": -1})
    ranges = {"i": Interval.bounded(0, 4), "j": Interval.bounded(1, 2)}
    assert affine_interval(aff, ranges) == Interval.bounded(1, 10)
    assert affine_interval(aff, {"i": Interval.bounded(0, 4)}) == TOP


# -- the CFG dataflow ---------------------------------------------------------

def _vranges(src):
    program = parse_source(src)
    schedule = recognize(program)
    cfg = build_cfg(program)
    return cfg, ValueRanges(cfg, schedule.env)


LOOP = """
#define N 16
float x[N];
float y[N];
int i;
for (i = 0; i < N; i++) {
  cblas_saxpy(1, 1.0, &x[i], 1, &y[i], 1);
}
cblas_saxpy(N, 1.0, &x[0], 1, &y[0], 1);
"""


def test_loop_var_exact_inside_body():
    cfg, vr = _vranges(LOOP)
    body = [b for b in cfg.blocks
            if b.kind == "block" and "i" in b.loop_vars]
    assert body
    for blk in body:
        assert vr.var_at(blk.bid, "i") == Interval.bounded(0, 15)


def test_loop_var_narrowed_after_exit():
    cfg, vr = _vranges(LOOP)
    after = [b for b in cfg.blocks
             if b.kind == "block" and "i" not in b.loop_vars
             and any(cfg.block(p).kind == "header" for p in b.preds)]
    assert after
    for blk in after:
        assert vr.var_at(blk.bid, "i") == Interval.point(16)


def test_trip_interval_of_constant_loop():
    cfg, vr = _vranges(LOOP)
    headers = loop_headers(cfg)
    assert headers
    bid, loop = headers[0]
    assert loop.var == "i"
    assert vr.trip_interval(bid) == Interval.point(16)


def test_runtime_scalar_stays_top_and_const_is_point():
    _, vr = _vranges("""
#define N 8
float x[N];
float y[N];
int k;
int m = 40;
cblas_saxpy(N, 1.0, &x[0], 1, &y[0], 1);
""")
    assert vr.global_range("k") == TOP
    assert vr.global_range("m") == Interval.point(40)
    assert vr.global_range("N") == Interval.point(8)


def test_widening_terminates_on_unbounded_loop():
    # bound is a runtime scalar: the body range must widen to [0, +inf)
    # instead of iterating forever
    program = parse_source("""
#define N 8
float x[N];
float y[N];
int k;
int i;
for (i = 0; i < k; i++) {
  cblas_saxpy(1, 1.0, &x[0], 1, &y[0], 1);
}
""")
    cfg = build_cfg(program)
    from repro.compiler.semantics import build_env
    vr = ValueRanges(cfg, build_env(program))
    body = [b for b in cfg.blocks
            if b.kind == "block" and "i" in b.loop_vars]
    assert body
    for blk in body:
        r = vr.var_at(blk.bid, "i")
        assert r.lo == 0 and r.hi is None


def test_nested_loops_each_var_boxed():
    cfg, vr = _vranges("""
#define L 4
#define B 3
float a[L][B];
float b[L][B];
for (l = 0; l < L; l++) {
  for (bb = 0; bb < B; bb++) {
    cblas_saxpy(B, 1.0, &a[l][0], 1, &b[l][0], 1);
  }
}
""")
    inner = [blk for blk in cfg.blocks
             if blk.kind == "block" and "bb" in blk.loop_vars]
    assert inner
    for blk in inner:
        assert vr.var_at(blk.bid, "l") == Interval.bounded(0, 3)
        assert vr.var_at(blk.bid, "bb") == Interval.bounded(0, 2)



def test_loop_dependent_expressions_follow_every_state():
    # `i + 1` and the inner bound `k` are nodes the solver evaluates
    # under every state it visits: their intervals must follow the
    # fixpoint, not the first state seen (i == 0)
    program = parse_source("""
#define N 8
float x[N];
float y[N];
int i;
int j;
for (i = 0; i < N; i++) {
  int k = i + 1;
  for (j = 0; j < k; j++) {
    cblas_saxpy(1, 1.0, &x[j], 1, &y[i], 1);
  }
}
""")
    cfg = build_cfg(program)
    from repro.compiler.semantics import build_env
    vr = ValueRanges(cfg, build_env(program))
    inner = [blk for blk in cfg.blocks
             if blk.kind == "block" and "j" in blk.loop_vars]
    assert inner
    for blk in inner:
        assert vr.var_at(blk.bid, "i") == Interval.bounded(0, 7)
        assert vr.var_at(blk.bid, "k") == Interval.bounded(1, 8)
        assert vr.var_at(blk.bid, "j") == Interval.bounded(0, 7)
    (inner_header,) = [bid for bid, loop in loop_headers(cfg)
                       if loop.var == "j"]
    assert vr.trip_interval(inner_header) == Interval.bounded(1, 8)
