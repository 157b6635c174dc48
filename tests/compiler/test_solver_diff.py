"""Differential tests: the range and dataflow solvers against the
references in :mod:`tests.compiler.helpers` that recompute every step
each round.

The value-range solver must give identical ``block_in`` states, the
same ``global_range`` of every variable and the same ``trip_interval``
of every loop header; the dataflow solvers identical in/out facts; and
``Cfg.rpo`` the order of the recursive walk. The inputs are every
example source, the STAP and SAR programs and seeded random counted
loop nests with constant and symbolic bounds (and, for ``rpo``, seeded
random graphs).
"""

import itertools
import random
from pathlib import Path

import pytest

from repro.apps.sar import SarConfig, sar_source
from repro.apps.stap import PRESETS, stap_source
from repro.compiler import build_env, parse_source, translate
from repro.compiler.analysis.cfg import Cfg, build_cfg
from repro.compiler.analysis.dataflow import (LifecycleFacts, Liveness,
                                              solve_backward, solve_forward)
from repro.compiler.analysis.facts import ProgramFacts
from repro.compiler.analysis.ranges import ValueRanges, loop_headers
from repro.compiler.recognizer import recognize
from tests.compiler.helpers import (ReferenceLiveness, ReferenceValueRanges,
                                    reference_rpo, reference_solve_backward,
                                    reference_solve_forward)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SOURCES = {p.relative_to(EXAMPLES).as_posix(): p.read_text()
           for p in sorted(EXAMPLES.rglob("*.c"))}
SOURCES["stap-small"] = stap_source(PRESETS["small"])
SOURCES["stap-medium"] = stap_source(PRESETS["medium"])
SOURCES["sar-64"] = sar_source(SarConfig(64))


def random_nest(seed):
    """A seeded program of counted loop nests: constant, symbolic
    (``#define``, const ``int``, runtime ``int``, enclosing loop
    variable) and affine bounds, steps above one, ``<=`` guards and
    integer declarations inside the bodies."""
    rng = random.Random(seed)
    lines = ["#define N 12", "#define M 5", "int k = 7;", "int n;",
             "float buf[64][64];"]
    names = (f"v{i}" for i in itertools.count())

    def bound(outer):
        choices = ["N", "M", "k", "n", "N - 2", "2 * M", "k + M",
                   str(rng.randint(0, 9))]
        if outer:
            choices += [outer[-1], f"{outer[-1]} + 1",
                        f"N - {outer[-1]}"]
        return rng.choice(choices)

    def nest(depth, outer, indent):
        var = next(names)
        lines.append(f"{indent}int {var};")
        start = rng.choice(["0", "1", "M"] + list(outer[-1:]))
        cmp = rng.choice(["<", "<="])
        step = rng.choice(["{v}++", "++{v}", "{v} += 2", "{v} += 3"])
        lines.append(f"{indent}for ({var} = {start}; {var} {cmp} "
                     f"{bound(outer)}; {step.format(v=var)}) {{")
        inner = outer + [var]
        for _ in range(rng.randint(0, 2)):
            if depth > 1 and rng.random() < 0.6:
                nest(depth - 1, inner, indent + "  ")
            else:
                tmp = next(names)
                lines.append(f"{indent}  int {tmp} = {var} + "
                             f"{rng.randint(0, 3)};")
        lines.append(f"{indent}  cblas_saxpy(4, 1.0, &buf[0][0], 1, "
                     f"&buf[1][0], 1);")
        lines.append(f"{indent}}}")

    for _ in range(rng.randint(1, 3)):
        nest(rng.randint(1, 3), [], "")
    return "\n".join(lines) + "\n"


PROGRAMS = dict(SOURCES)
PROGRAMS.update({f"nest-{seed}": random_nest(seed) for seed in range(40)})


def _facts(name):
    """The analyses of one program. The generated nests step by more
    than one and start anywhere, which only the recognizer rejects, so
    their env is the declaration sweep alone."""
    program = parse_source(PROGRAMS[name])
    env = (recognize(program).env if name in SOURCES
           else build_env(program))
    return ProgramFacts(program, env)


def test_generated_nests_have_exact_and_unbounded_trips():
    trips = [facts.ranges.trip_interval(bid)
             for facts in (_facts(f"nest-{s}") for s in range(40))
             for bid, _ in loop_headers(facts.cfg)]
    assert any(t.is_point for t in trips)
    assert any(t.is_bounded and not t.is_point for t in trips)
    assert any(not t.is_bounded for t in trips)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_value_ranges_match(name):
    facts = _facts(name)
    got = ValueRanges(facts.cfg, facts.env)
    want = ReferenceValueRanges(facts.cfg, facts.env)
    assert list(got.block_in) == list(want.block_in)
    assert got.block_in == want.block_in
    names = sorted({var for state in want.block_in.values()
                    for var in state} | set(facts.env.constants))
    assert [got.global_range(v) for v in names] \
        == [want.global_range(v) for v in names]
    headers = [bid for bid, _ in loop_headers(facts.cfg)]
    assert [got.trip_interval(b) for b in headers] \
        == [want.trip_interval(b) for b in headers]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_dataflow_matches(name):
    facts = _facts(name)
    lifecycle = LifecycleFacts(facts)
    assert (lifecycle.block_in, lifecycle.block_out) \
        == reference_solve_forward(facts.cfg, lifecycle._transfer)
    liveness = Liveness(facts)
    reference = ReferenceLiveness(facts)
    assert (liveness.block_in, liveness.block_out) \
        == (reference.block_in, reference.block_out)
    assert solve_backward(facts.cfg, reference._transfer) \
        == reference_solve_backward(facts.cfg, reference._transfer)
    assert solve_forward(facts.cfg, reference._transfer) \
        == reference_solve_forward(facts.cfg, reference._transfer)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rpo_matches(name):
    program = parse_source(PROGRAMS[name])
    cfgs = [build_cfg(program)]
    cfgs += [build_cfg(func.body) for func in program.functions]
    for cfg in cfgs:
        assert cfg.rpo() == reference_rpo(cfg)


def test_rpo_matches_on_random_graphs():
    rng = random.Random(2015)
    for _ in range(300):
        cfg = Cfg()
        n = rng.randint(1, 40)
        for _ in range(n):
            cfg.new_block()
        for _ in range(rng.randint(0, 3 * n)):
            cfg.add_edge(rng.randrange(n), rng.randrange(n))
        cfg.entry = rng.randrange(n)
        assert cfg.rpo() == reference_rpo(cfg)


def test_rpo_of_a_long_program_does_not_recurse():
    # 1500 sequential loops: a chain of ~3000 blocks, which the
    # recursive walk could not order under the default recursion limit
    loop = "for (i = 0; i < 2; i++) cblas_saxpy(8, 2.0, x, 1, y, 1);\n"
    source = "float x[8];\nfloat y[8];\nint i;\n" + loop * 1500
    with pytest.raises(RecursionError):
        reference_rpo(build_cfg(parse_source(source)))
    assert len(translate(source).items) == 1500
