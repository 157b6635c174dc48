"""One generator per reproduced table and figure.

Every function returns a plain-data report (dict-based, printable via
:func:`render`) containing the measured series and, where the paper
states numbers, the paper's values side by side. ``python -m repro.eval
<target>`` drives these from the command line; the benchmark suite
asserts their shape properties.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.accel.design_space import (efficiency_range, explore_fft,
                                      explore_spmv)
from repro.accel.fft import FftParams
from repro.accel.layer import AcceleratorLayer
from repro.accel.resmp import ResmpParams
from repro.accel.synthesis import LAYER_AREA_BUDGET_MM2, noc_area
from repro.apps.stap import PAPER_PRESETS, stap_gains
from repro.apps.suites import library_speedups, suite_maxima
from repro.core.system import MealibSystem
from repro.core.tdl import ParamStore
from repro.eval import calibration as cal
from repro.eval.runner import (IndividualOpRunner, efficiency_vs_haswell,
                               geometric_mean, speedups_vs_haswell)
from repro.eval.workloads import OP_ORDER, TABLE2
from repro.metrics import ZERO

Report = Dict[str, object]


def fig1() -> Report:
    """Figure 1: library-vs-original speedups per suite."""
    rows = library_speedups()
    maxima = suite_maxima(rows)
    return {
        "id": "fig1",
        "title": "Library speedups over original code",
        "rows": [
            {"suite": r.suite, "benchmark": r.name,
             "single_thread": round(r.speedup_single, 1),
             "multi_thread": round(r.speedup_multi, 1)}
            for r in rows],
        "suite_maxima": {k: round(v, 1) for k, v in maxima.items()},
        "paper_suite_maxima": cal.FIG1_SUITE_MAXIMA,
    }


def table1() -> Report:
    """Table 1: accelerated MKL functions and their accelerators."""
    return {
        "id": "table1",
        "title": "Accelerated memory-bounded operations",
        "rows": [
            {"function": w.mkl_function, "description": desc,
             "accelerator": op}
            for op, w, desc in zip(
                OP_ORDER, (TABLE2[o] for o in OP_ORDER),
                ("vector scaling and add", "dot product",
                 "general matrix vector multiply",
                 "sparse matrix vector multiply", "data resampling",
                 "fast Fourier transform", "matrix transpose"))],
    }


def table2() -> Report:
    """Table 2: data sets of the accelerated functions."""
    return {
        "id": "table2",
        "title": "Data sets",
        "rows": [{"function": TABLE2[op].mkl_function,
                  "dataset": TABLE2[op].dataset,
                  "accelerator": op} for op in OP_ORDER],
    }


def table3() -> Report:
    """Table 3: comparison platforms."""
    return {
        "id": "table3",
        "title": "Hardware platforms",
        "rows": [
            {"platform": "Haswell i7-4770K", "cores": "4 @ 3.5 GHz",
             "bandwidth_gbs": 25.6},
            {"platform": "Xeon Phi 5110P", "cores": "60 @ 1.0 GHz",
             "bandwidth_gbs": 320.0},
            {"platform": "PSAS", "cores": "accelerators",
             "bandwidth_gbs": 25.6},
            {"platform": "MSAS", "cores": "accelerators",
             "bandwidth_gbs": 102.4},
            {"platform": "MEALib", "cores": "accelerators",
             "bandwidth_gbs": 510.0},
        ],
    }


def table4() -> Report:
    """Table 4: library functions used in STAP."""
    return {
        "id": "table4",
        "title": "STAP library functions",
        "rows": [
            {"function": "fftwf_execute()", "purpose": "data copy, FFT",
             "type": "memory-bounded"},
            {"function": "cblas_cherk()",
             "purpose": "rank-k matrix update",
             "type": "compute-bounded"},
            {"function": "cblas_ctrsm()",
             "purpose": "triangular matrix solver",
             "type": "compute-bounded"},
            {"function": "cblas_cdotc_sub()", "purpose": "inner product",
             "type": "memory-bounded"},
            {"function": "cblas_saxpy()", "purpose": "vector scaling",
             "type": "memory-bounded"},
        ],
    }


def figs9_10(scale: float = 1.0,
             runner: Optional[IndividualOpRunner] = None) -> Report:
    """Figures 9 and 10: per-op performance and energy efficiency."""
    r = runner if runner is not None else IndividualOpRunner(scale=scale)
    runs = r.run_all()
    speed = speedups_vs_haswell(runs)
    eff = efficiency_vs_haswell(runs)
    rows = []
    for op in OP_ORDER:
        rows.append({
            "op": op,
            "speedup": {p: round(v, 2) for p, v in speed[op].items()},
            "efficiency": {p: round(v, 2) for p, v in eff[op].items()},
            "paper_mealib_speedup": cal.FIG9_MEALIB_SPEEDUP[op],
            "paper_mealib_efficiency": cal.FIG10_MEALIB_EFFICIENCY[op],
            "mealib_power_w": round(
                runs[op]["MEALib"].result.power, 2),
        })
    means = {
        "speedup": {p: round(geometric_mean(
            speed[op][p] for op in OP_ORDER), 2)
            for p in ("XeonPhi", "PSAS", "MSAS", "MEALib")},
        "efficiency": {p: round(geometric_mean(
            eff[op][p] for op in OP_ORDER), 2)
            for p in ("XeonPhi", "PSAS", "MSAS", "MEALib")},
    }
    return {
        "id": "fig9+fig10",
        "title": "Per-operation speedup and energy efficiency vs "
                 "Haswell MKL",
        "rows": rows,
        "geomeans": means,
        "paper_averages": {"fig9": cal.FIG9_AVERAGES,
                           "fig10": cal.FIG10_AVERAGES},
    }


def table5(scale: float = 1.0) -> Report:
    """Table 5: power and area of the accelerator-layer components."""
    runner = IndividualOpRunner(scale=scale)
    layer = runner.layer
    rows = []
    power_by_accel: Dict[str, float] = {}
    for op in OP_ORDER:
        run = runner.run_op(op)["MEALib"]
        core = layer.accelerator(op)
        area = None if op == "RESHP" else core.area_mm2()
        power_by_accel[op] = run.result.power
        rows.append({
            "component": op,
            "power_w": round(run.result.power, 2),
            "paper_power_w": cal.TABLE5_POWER_W[op],
            "area_mm2": round(area, 2) if area is not None else None,
            "paper_area_mm2": cal.TABLE5_AREA_MM2.get(op),
        })
    rows.append({"component": "NoC (router + link)",
                 "power_w": round(layer.noc.power, 3),
                 "paper_power_w": 0.095,
                 "area_mm2": round(noc_area(), 2),
                 "paper_area_mm2": cal.TABLE5_AREA_MM2["NoC"]})
    rows.append({"component": "TSVs", "power_w": None,
                 "paper_power_w": None, "area_mm2": 1.75,
                 "paper_area_mm2": cal.TABLE5_AREA_MM2["TSVs"]})
    total_area = layer.layer_area_mm2()
    total_power = layer.peak_layer_power(power_by_accel)
    return {
        "id": "table5",
        "title": "Accelerator-layer power and area (32nm)",
        "rows": rows,
        "total_area_mm2": round(total_area, 2),
        "paper_total_area_mm2": cal.TABLE5_TOTAL_AREA,
        "area_budget_fraction": round(
            total_area / LAYER_AREA_BUDGET_MM2, 4),
        "paper_area_budget_fraction": cal.TABLE5_BUDGET_FRACTION,
        "total_power_w": round(total_power, 2),
        "paper_total_power_w": cal.TABLE5_TOTAL_POWER,
    }


def fig11(fast: bool = False) -> Report:
    """Figure 11: FFT and SPMV design-space clouds."""
    fft_points = explore_fft(
        n=1024 if fast else 2048, batch=16 if fast else 32)
    spmv_points = explore_spmv(n=1 << (12 if fast else 14))
    fft_range = efficiency_range(fft_points)
    spmv_range = efficiency_range(spmv_points)
    return {
        "id": "fig11",
        "title": "FFT and SPMV accelerator design space",
        "fft_points": [
            {"freq_ghz": p.freq_hz / 1e9, "tiles": p.tiles,
             "row_bytes": p.row_bytes, "block": p.block_elems,
             "gflops": round(p.gflops, 1),
             "power_w": round(p.power_w, 2)} for p in fft_points],
        "spmv_points": [
            {"freq_ghz": p.freq_hz / 1e9, "tiles": p.tiles,
             "row_bytes": p.row_bytes, "gflops": round(p.gflops, 2),
             "power_w": round(p.power_w, 2)} for p in spmv_points],
        "fft_eff_range_gflops_per_w": [round(v, 2) for v in fft_range],
        "paper_fft_eff_range": list(cal.FIG11_FFT_EFF_RANGE),
        "spmv_eff_range_gflops_per_w": [round(v, 2) for v in spmv_range],
        "paper_spmv_eff_range": list(cal.FIG11_SPMV_EFF_RANGE),
    }


def _chain_configs(side: int):
    n = side
    in_pa = 0x100000
    sites_pa = in_pa + n * n * 8
    mid_pa = sites_pa + n * n * 4
    knots_pa = mid_pa + n * n * 8
    fft_out = knots_pa + n * 4
    resmp = ResmpParams(blocks=n, n_in=n, n_out=n, in_pa=in_pa,
                        sites_pa=sites_pa, out_pa=mid_pa,
                        knots_pa=knots_pa)
    fft = FftParams(n=n, batch=n, src_pa=mid_pa, dst_pa=fft_out)
    return resmp, fft


def fig12(sides=(256, 512, 1024, 2048, 4096, 8192)) -> Report:
    """Figure 12: hardware vs software chaining and looping."""
    system = MealibSystem(stack_bytes=4 << 30, schedule_cache=True)
    rt = system.runtime
    chain_rows = []
    for side in sides:
        resmp, fft = _chain_configs(side)
        ws = side * side * 8
        store = ParamStore()
        store.add("r.para", resmp.pack())
        store.add("f.para", fft.pack())
        hw = rt.acc_plan("PASS { COMP RESMP r.para COMP FFT f.para }",
                         store, in_size=ws, out_size=ws)
        t_hw = rt.acc_execute(hw, functional=False)
        s1, s2 = ParamStore(), ParamStore()
        s1.add("r.para", resmp.pack())
        s2.add("f.para", fft.pack())
        p1 = rt.acc_plan("PASS { COMP RESMP r.para }", s1, in_size=ws,
                         out_size=ws)
        p2 = rt.acc_plan("PASS { COMP FFT f.para }", s2, in_size=ws,
                         out_size=ws)
        t_sw = rt.acc_execute(p1, functional=False).plus(
            rt.acc_execute(p2, functional=False))
        chain_rows.append({"side": side,
                           "gain": round(t_sw.time / t_hw.time, 2)})
        for plan in (hw, p1, p2):
            rt.acc_destroy(plan)
    loop_rows = []
    for side in sides:
        _, fft = _chain_configs(side)
        ws = side * side * 8
        store = ParamStore()
        store.add("f.para", fft.pack())
        hw = rt.acc_plan("LOOP 128 { PASS { COMP FFT f.para } }", store,
                         in_size=ws, out_size=ws)
        t_hw = rt.acc_execute(hw, functional=False)
        store2 = ParamStore()
        store2.add("f.para", fft.pack())
        sw = rt.acc_plan("PASS { COMP FFT f.para }", store2, in_size=ws,
                         out_size=ws)
        t_sw = ZERO
        for _ in range(128):
            t_sw = t_sw.plus(rt.acc_execute(sw, functional=False))
        loop_rows.append({"side": side,
                          "gain": round(t_sw.time / t_hw.time, 2)})
        rt.acc_destroy(hw)
        rt.acc_destroy(sw)
    return {
        "id": "fig12",
        "title": "Configuration efficiency: chaining and looping",
        "chaining": chain_rows,
        "paper_chain_gain_256": cal.FIG12_CHAIN_GAIN_256,
        "looping": loop_rows,
        "paper_loop_gain_256": cal.FIG12_LOOP_GAIN_256,
    }


def figs13_14() -> Report:
    """Figures 13 and 14: STAP gains and breakdown."""
    rows = []
    large_gains = None
    for preset in ("small", "medium", "large"):
        gains = stap_gains(preset)
        rows.append({
            "preset": preset,
            "speedup": round(gains.speedup, 2),
            "paper_speedup": cal.FIG13_SPEEDUP[preset],
            "edp_gain": round(gains.edp_gain, 2),
            "paper_edp_gain": cal.FIG13_EDP_GAIN[preset],
        })
        if preset == "large":
            large_gains = gains
    breakdown = {
        "host_time_share": round(large_gains.host_time_share, 3),
        "paper_host_time_share": cal.FIG14_HOST_TIME_SHARE,
        "host_energy_share": round(large_gains.host_energy_share, 3),
        "paper_host_energy_share": cal.FIG14_HOST_ENERGY_SHARE,
        "invocation_time_share": round(
            large_gains.invocation_time_share, 4),
        "paper_invocation_time_share": cal.FIG14_INVOCATION_TIME_SHARE,
        "invocation_energy_share": round(
            large_gains.invocation_energy_share, 4),
        "paper_invocation_energy_share":
            cal.FIG14_INVOCATION_ENERGY_SHARE,
        "dot_time_share": round(
            large_gains.accel_time_shares.get("DOT", 0.0), 3),
        "paper_dot_time_share": cal.FIG14_DOT_TIME_SHARE,
        "dot_energy_share": round(
            large_gains.accel_energy_shares.get("DOT", 0.0), 3),
        "paper_dot_energy_share": cal.FIG14_DOT_ENERGY_SHARE,
        "descriptors": large_gains.descriptors,
        "paper_descriptors": cal.FIG14_DESCRIPTORS,
        "original_library_calls": large_gains.original_calls,
        "paper_library_calls": cal.FIG14_TOTAL_CALLS,
    }
    return {
        "id": "fig13+fig14",
        "title": "STAP gains and execution breakdown",
        "fig13": rows,
        "fig14": breakdown,
    }


GENERATORS = {
    "fig1": fig1,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig9": figs9_10,
    "fig10": figs9_10,
    "table5": table5,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": figs13_14,
    "fig14": figs13_14,
}


def render(report: Report, indent: int = 0) -> str:
    """Plain-text rendering of a report."""
    lines: List[str] = []

    def emit(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, depth + 1)
        elif isinstance(value, list) and value \
                and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(
                    "  " * (depth + 1)
                    + "  ".join(f"{k}={v}" for k, v in item.items()))
        else:
            lines.append(f"{pad}{key}: {value}")

    for key, value in report.items():
        emit(key, value, indent)
    return "\n".join(lines) + "\n"
