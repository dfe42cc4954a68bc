"""Drivers regenerating each figure of the paper's evaluation (§5).

Each ``figureN`` function simulates exactly the configurations the
corresponding figure plots and returns a :class:`FigureResult` holding
the structured data plus a text rendering. Figures share the suite's
cached traces, so running all of them costs one trace generation plus
the simulations.

Every matrix-producing driver accepts two execution knobs, threaded
straight into :func:`repro.sim.runner.run_matrix`:

* ``n_workers`` — fan the (scheme x benchmark) cells out over worker
  processes; results are bit-identical for every worker count.
* ``result_cache`` — a :class:`repro.trace.cache.ResultCache`; a warm
  cache makes a rerun recompute only changed cells (the matrix's
  ``telemetry`` records hits/misses).

Predictor configurations are expressed as picklable
:func:`repro.sim.parallel.spec` builders (registry names), which is
what makes the cells portable across process boundaries and cacheable.

Scaling note: trace lengths differ from the paper (DESIGN.md
substitution #2), so compare *shapes* — orderings, gaps, crossovers —
not absolute percentages. EXPERIMENTS.md records both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.automata import PAPER_AUTOMATA
from ..core.cost import UNIT_COSTS, CostParams, cost_gag, cost_pag, cost_pap
from ..sim.engine import ContextSwitchConfig
from ..sim.parallel import spec
from ..sim.results import ResultMatrix, RunTelemetry
from ..sim.runner import BenchmarkCase, run_matrix
from ..trace.cache import ResultCache
from ..trace.stats import compute_stats
from ..workloads.suite import SuiteConfig, build_cases
from .charts import accuracy_bars_from_matrix, render_series
from .report import render_accuracy_matrix, render_table

__all__ = [
    "ALL_FIGURES",
    "FigureResult",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
]


@dataclass
class FigureResult:
    """One regenerated figure: data plus its text rendering."""

    figure_id: str
    description: str
    matrix: Optional[ResultMatrix] = None
    extra: Dict[str, object] = field(default_factory=dict)
    rendered: str = ""

    def render(self) -> str:
        return self.rendered


def _cases(cases: Optional[Sequence[BenchmarkCase]], scale: int) -> List[BenchmarkCase]:
    if cases is not None:
        return list(cases)
    return build_cases(SuiteConfig(scale=scale))


# ----------------------------------------------------------------------
# Figure 4 — distribution of dynamic branch instructions
# ----------------------------------------------------------------------

def figure4(cases: Optional[Sequence[BenchmarkCase]] = None, scale: int = 1) -> FigureResult:
    """Branch-class mix per benchmark (paper: ~80 % conditional)."""
    cases = _cases(cases, scale)
    headers = ["benchmark", "cond %", "uncond %", "call %", "return %", "branch/instr %"]
    rows = []
    mixes = {}
    for case in cases:
        stats = compute_stats(case.test_trace)
        mix = stats.class_mix()
        mixes[case.name] = mix
        rows.append(
            [
                case.name,
                mix.conditional,
                mix.unconditional,
                mix.call,
                mix.ret,
                stats.branch_fraction,
            ]
        )
    rendered = render_table(
        headers,
        rows,
        percent_columns=[1, 2, 3, 4, 5],
        title="Figure 4: distribution of dynamic branch instructions",
    )
    return FigureResult(
        figure_id="fig4",
        description="Distribution of dynamic branch instructions by class",
        extra={"mixes": mixes},
        rendered=rendered,
    )


# ----------------------------------------------------------------------
# Figure 5 — pattern history table automata
# ----------------------------------------------------------------------

def figure5(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    history_bits: int = 12,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
) -> FigureResult:
    """PAg(512, 4-way, 12-bit) with automata LT / A1 / A2 / A3 / A4."""
    cases = _cases(cases, scale)
    builders = {
        f"PAg-{history_bits}-{name}": spec(f"pag-{history_bits}-{name.lower()}-512x4")
        for name in PAPER_AUTOMATA
    }
    matrix = run_matrix(
        builders, cases, n_workers=n_workers, result_cache=result_cache,
        backend=backend,
    )
    rendered = render_accuracy_matrix(
        matrix,
        title=f"Figure 5: PAg(BHT(512,4,{history_bits}-sr)) with different automata",
    )
    return FigureResult(
        figure_id="fig5",
        description="Effect of the pattern history table automaton",
        matrix=matrix,
        rendered=rendered,
    )


# ----------------------------------------------------------------------
# Figure 6 — three variations at equal history length
# ----------------------------------------------------------------------

def figure6(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    lengths: Sequence[int] = (2, 4, 6, 8, 10, 12),
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
) -> FigureResult:
    """GAg vs PAg vs PAp, all using the same history register length."""
    cases = _cases(cases, scale)
    builders = {}
    for k in lengths:
        builders[f"GAg-{k}"] = spec(f"gag-{k}")
        builders[f"PAg-{k}"] = spec(f"pag-{k}-512x4")
        builders[f"PAp-{k}"] = spec(f"pap-{k}-512x4")
    matrix = run_matrix(
        builders, cases, n_workers=n_workers, result_cache=result_cache,
        backend=backend,
    )
    summary_rows = []
    for k in lengths:
        summary_rows.append(
            [
                k,
                matrix.gmean(f"GAg-{k}"),
                matrix.gmean(f"PAg-{k}"),
                matrix.gmean(f"PAp-{k}"),
            ]
        )
    series = {
        variant: [matrix.gmean(f"{variant}-{k}") for k in lengths]
        for variant in ("GAg", "PAg", "PAp")
    }
    rendered = (
        render_accuracy_matrix(matrix, title="Figure 6: variations at equal history length")
        + "\n\n"
        + render_table(
            ["history bits", "GAg Tot GMean", "PAg Tot GMean", "PAp Tot GMean"],
            summary_rows,
            percent_columns=[1, 2, 3],
            title="Figure 6 summary",
        )
        + "\n\n"
        + render_series(series, x_labels=list(lengths), title="Tot GMean vs history bits")
    )
    return FigureResult(
        figure_id="fig6",
        description="GAg vs PAg vs PAp at equal history register length",
        matrix=matrix,
        extra={"lengths": list(lengths)},
        rendered=rendered,
    )


# ----------------------------------------------------------------------
# Figure 7 — GAg history length sweep
# ----------------------------------------------------------------------

def figure7(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    lengths: Sequence[int] = (6, 8, 10, 12, 14, 16, 18),
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
) -> FigureResult:
    """GAg accuracy as the history register grows 6 -> 18 bits."""
    cases = _cases(cases, scale)
    builders = {f"GAg-{k}": spec(f"gag-{k}") for k in lengths}
    matrix = run_matrix(
        builders, cases, n_workers=n_workers, result_cache=result_cache,
        backend=backend,
    )
    gain = matrix.gmean(f"GAg-{max(lengths)}") - matrix.gmean(f"GAg-{min(lengths)}")
    series = {
        "Int GMean": [matrix.gmean(f"GAg-{k}", "int") for k in lengths],
        "FP GMean": [matrix.gmean(f"GAg-{k}", "fp") for k in lengths],
        "Tot GMean": [matrix.gmean(f"GAg-{k}") for k in lengths],
    }
    rendered = (
        render_accuracy_matrix(matrix, title="Figure 7: GAg history register length sweep")
        + "\n\n"
        + render_series(series, x_labels=list(lengths), title="Accuracy vs history bits")
        + f"\n\nTot GMean gain {min(lengths)}->{max(lengths)} bits: {gain * 100:.2f} points"
    )
    return FigureResult(
        figure_id="fig7",
        description="Effect of history register length on GAg",
        matrix=matrix,
        extra={"lengths": list(lengths), "gain": gain},
        rendered=rendered,
    )


# ----------------------------------------------------------------------
# Figure 8 — iso-accuracy configurations and their hardware costs
# ----------------------------------------------------------------------

def figure8(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    params: CostParams = UNIT_COSTS,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
) -> FigureResult:
    """GAg(18) / PAg(12) / PAp(6): ~equal accuracy, very unequal cost."""
    cases = _cases(cases, scale)
    builders = {
        "GAg-18": spec("gag-18"),
        "PAg-12": spec("pag-12-512x4"),
        "PAp-6": spec("pap-6-512x4"),
    }
    matrix = run_matrix(
        builders, cases, n_workers=n_workers, result_cache=result_cache,
        backend=backend,
    )
    costs = {
        "GAg-18": cost_gag(18, 2, params),
        "PAg-12": cost_pag(512, 4, 12, 2, params),
        "PAp-6": cost_pap(512, 4, 6, 2, params),
    }
    cost_rows = [
        [name, matrix.gmean(name), costs[name]] for name in builders
    ]
    rendered = (
        render_accuracy_matrix(matrix, title="Figure 8: iso-accuracy configurations")
        + "\n\n"
        + render_table(
            ["scheme", "Tot GMean", "estimated cost (paper eqs. 4-6)"],
            cost_rows,
            percent_columns=[1],
            title="Figure 8 cost comparison",
        )
    )
    return FigureResult(
        figure_id="fig8",
        description="Configurations achieving ~equal accuracy, and their costs",
        matrix=matrix,
        extra={"costs": costs},
        rendered=rendered,
    )


# ----------------------------------------------------------------------
# Figure 9 — effect of context switches
# ----------------------------------------------------------------------

def figure9(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    interval: int = 500_000,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
) -> FigureResult:
    """GAg(18)/PAg(12)/PAp(6) with and without context switches."""
    cases = _cases(cases, scale)
    builders = {
        "GAg-18": spec("gag-18"),
        "PAg-12": spec("pag-12-512x4"),
        "PAp-6": spec("pap-6-512x4"),
    }
    plain = run_matrix(
        builders, cases, n_workers=n_workers, result_cache=result_cache,
        backend=backend,
    )
    switched_builders = {f"{name},c": builder for name, builder in builders.items()}
    switched = run_matrix(
        switched_builders,
        cases,
        context_switches=ContextSwitchConfig(interval=interval),
        n_workers=n_workers,
        result_cache=result_cache,
        backend=backend,
    )
    merged = ResultMatrix(
        benchmarks=plain.benchmarks,
        categories=plain.categories,
        telemetry=RunTelemetry.merge(plain.telemetry, switched.telemetry),
    )
    for scheme, cells in list(plain.cells.items()) + list(switched.cells.items()):
        for result in cells.values():
            merged.add(scheme, result)
    degradation = {
        name: plain.gmean(name) - switched.gmean(f"{name},c") for name in builders
    }
    deg_rows = [[name, plain.gmean(name), switched.gmean(f"{name},c"), degradation[name]] for name in builders]
    rendered = (
        render_accuracy_matrix(merged, title="Figure 9: effect of context switches")
        + "\n\n"
        + render_table(
            ["scheme", "no switches", "with switches", "degradation"],
            deg_rows,
            percent_columns=[1, 2, 3],
            title="Figure 9 summary (paper: average degradation < 1 point)",
        )
    )
    return FigureResult(
        figure_id="fig9",
        description="Context-switch impact on the three iso-accuracy configs",
        matrix=merged,
        extra={"degradation": degradation},
        rendered=rendered,
    )


# ----------------------------------------------------------------------
# Figure 10 — branch history table implementations
# ----------------------------------------------------------------------

def figure10(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    history_bits: int = 12,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
) -> FigureResult:
    """PAg with practical BHTs (256/512 x direct/4-way) vs the IBHT,
    simulated in the presence of context switches, as the paper does."""
    cases = _cases(cases, scale)
    builders = {
        "PAg-IBHT": spec(f"pag-{history_bits}-ideal"),
        "PAg-512x4": spec(f"pag-{history_bits}-512x4"),
        "PAg-512x1": spec(f"pag-{history_bits}-512x1"),
        "PAg-256x4": spec(f"pag-{history_bits}-256x4"),
        "PAg-256x1": spec(f"pag-{history_bits}-256x1"),
    }
    matrix = run_matrix(
        builders,
        cases,
        context_switches=ContextSwitchConfig(),
        n_workers=n_workers,
        result_cache=result_cache,
        backend=backend,
    )
    rendered = render_accuracy_matrix(
        matrix, title="Figure 10: branch history table implementations (with context switches)"
    )
    return FigureResult(
        figure_id="fig10",
        description="BHT size/associativity vs the ideal BHT",
        matrix=matrix,
        rendered=rendered,
    )


# ----------------------------------------------------------------------
# Figure 11 — grand comparison
# ----------------------------------------------------------------------

def figure11(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    n_workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    backend: str = "auto",
) -> FigureResult:
    """PAg(12) against every other scheme family in the study."""
    cases = _cases(cases, scale)
    builders = {
        "PAg(512,4,12,A2)": spec("pag-12-a2-512x4"),
        "PSg(512,4,12)": spec("psg-12-512x4"),
        "GSg(12)": spec("gsg-12"),
        "BTB(512,4,A2)": spec("btb-a2"),
        "Profile": spec("profile"),
        "BTB(512,4,LT)": spec("btb-lt"),
        "BTFN": spec("btfn"),
        "AlwaysTaken": spec("always-taken"),
    }
    matrix = run_matrix(
        builders, cases, n_workers=n_workers, result_cache=result_cache,
        backend=backend,
    )
    rendered = (
        render_accuracy_matrix(
            matrix, title="Figure 11: comparison of branch prediction schemes"
        )
        + "\n\n"
        + accuracy_bars_from_matrix(matrix, title="Tot GMean by scheme")
    )
    return FigureResult(
        figure_id="fig11",
        description="Two-Level Adaptive vs all comparison schemes",
        matrix=matrix,
        rendered=rendered,
    )


ALL_FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
}
