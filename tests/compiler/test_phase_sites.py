"""The compiler phases run where the bench tracer wraps them.

``bench/trace.py`` attributes host time to the compiler phases by
replacing each phase's entry point in its defining module and in the
call-site modules it lists (:data:`PATCHES`). A phase called through
a name bound anywhere else escapes the wrapper and its time lands in
its caller's span. These tests install the tracer as the benchmark
does and count the spans of one compile: each phase must show up
exactly once, through ``translate`` and through ``analyze_source``
alike.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.compiler import translate
from repro.compiler.analysis import analyze_source

ROOT = Path(__file__).resolve().parents[2]
STAP_SMALL = (ROOT / "examples" / "legacy" / "stap_small.c").read_text()


def _load_tracer_module():
    # bench/trace.py shares its name with a stdlib module: load by path
    spec = importlib.util.spec_from_file_location(
        "bench_trace", ROOT / "bench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_trace = _load_tracer_module()

#: the compile phases; the interpreter runs programs, not compiles
PHASES = tuple(layer for layer, *_ in bench_trace.PATCHES
               if layer.startswith("compiler.")
               and layer != "compiler.interp")


def phase_counts(compile_):
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        compile_()
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    return {layer: counts.get(layer, 0) for layer in PHASES}


def test_the_traced_phases_are_the_pipeline():
    assert PHASES == ("compiler.parse", "compiler.recognize",
                      "compiler.analyze", "compiler.certify",
                      "compiler.rewrite", "compiler.lower")


def test_translate_enters_each_phase_once():
    counts = phase_counts(lambda: translate(STAP_SMALL))
    assert counts == dict.fromkeys(PHASES, 1)


@pytest.mark.parametrize("rewrite", [True, False])
def test_analyze_source_enters_each_front_end_phase_once(rewrite):
    counts = phase_counts(lambda: analyze_source(STAP_SMALL,
                                                 rewrite=rewrite))
    expected = dict.fromkeys(PHASES, 1)
    expected["compiler.lower"] = 0
    expected["compiler.rewrite"] = int(rewrite)
    assert counts == expected
