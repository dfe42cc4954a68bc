"""Extension experiments beyond the paper's figures.

These drivers quantify the paper's §3 implementation considerations and
its follow-up taxonomy on the same analog suite, with the same result
plumbing as the figure drivers:

* ``extra-speculative`` — §3.1: stale vs speculative branch history
  under deep resolution latency.
* ``extra-fetch`` — §3.2: front-end cycles per instruction with and
  without target-address caching.
* ``extra-interference`` — first/second-level interference measured
  directly, per benchmark.
* ``extra-taxonomy`` — the full {G,S,P} x {g,s,p}-flavoured ladder at
  one history length: GAg, SAg, SAs, PAg, PAp (+ gshare/gselect/
  tournament), with cost estimates.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.interference import (
    bht_pressure,
    first_level_interference,
    second_level_interference,
)
from ..core.cost import cost_gag, cost_pag, cost_pap
from ..core.perset import cost_sag, cost_sas
from ..core.twolevel import make_gag, make_pag, make_pap
from ..predictors.extensions import tournament_pag_gshare
from ..sim.fetch import BranchTargetCache, FetchEngine, ReturnAddressStack
from ..sim.parallel import spec
from ..sim.pipeline import RecoveryPolicy, simulate_delayed
from ..sim.runner import BenchmarkCase, run_matrix
from .figures import FigureResult, _cases
from .report import render_accuracy_matrix, render_table

__all__ = [
    "ALL_EXTRAS",
    "extra_characterize",
    "extra_fetch",
    "extra_interference",
    "extra_ipc",
    "extra_sensitivity",
    "extra_speculative",
    "extra_taxonomy",
]


def extra_speculative(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    latency: int = 8,
    history_bits: int = 12,
) -> FigureResult:
    """§3.1 quantified: GAg accuracy vs resolution latency and policy."""
    cases = _cases(cases, scale)
    headers = ["benchmark", "immediate", f"stale D={latency}", "spec repair", "spec reinit"]
    rows = []
    summary = {}
    for case in cases:
        trace = case.test_trace
        immediate = simulate_delayed(trace, history_bits, 0).accuracy
        stale = simulate_delayed(trace, history_bits, latency).accuracy
        repair = simulate_delayed(trace, history_bits, latency, RecoveryPolicy.REPAIR).accuracy
        reinit = simulate_delayed(
            trace, history_bits, latency, RecoveryPolicy.REINITIALISE
        ).accuracy
        rows.append([case.name, immediate, stale, repair, reinit])
        summary[case.name] = {"immediate": immediate, "stale": stale, "repair": repair}
    rendered = render_table(
        headers, rows, percent_columns=[1, 2, 3, 4],
        title=f"Extra: speculative history update (GAg-{history_bits}, resolution latency {latency})",
    )
    return FigureResult(
        figure_id="extra-speculative",
        description="Stale vs speculatively-updated branch history (paper §3.1)",
        extra={"rows": summary, "latency": latency},
        rendered=rendered,
    )


def extra_fetch(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    history_bits: int = 12,
) -> FigureResult:
    """§3.2 quantified: fetch CPI with and without target caching."""
    cases = _cases(cases, scale)
    headers = ["benchmark", "CPI no BTAC", "CPI with BTAC", "BTAC hit rate", "dir. accuracy"]
    rows = []
    summary = {}
    for case in cases:
        trace = case.test_trace
        without = FetchEngine(make_pag(history_bits), btac=None).run(trace)
        with_btac = FetchEngine(
            make_pag(history_bits),
            btac=BranchTargetCache(512, 4),
            ras=ReturnAddressStack(32),
        ).run(trace)
        rows.append(
            [
                case.name,
                round(without.cycles_per_instruction, 4),
                round(with_btac.cycles_per_instruction, 4),
                with_btac.btac_hit_rate,
                with_btac.direction_accuracy,
            ]
        )
        summary[case.name] = {
            "cpi_without": without.cycles_per_instruction,
            "cpi_with": with_btac.cycles_per_instruction,
        }
    rendered = render_table(
        headers, rows, percent_columns=[3, 4],
        title="Extra: target address caching (paper §3.2)",
    )
    return FigureResult(
        figure_id="extra-fetch",
        description="Front-end cycles per instruction with/without a BTAC",
        extra={"rows": summary},
        rendered=rendered,
    )


def extra_interference(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    history_bits: int = 6,
    backend: str = "auto",
) -> FigureResult:
    """Interference measured directly, next to the variation accuracies."""
    cases = _cases(cases, scale)
    headers = [
        "benchmark", "1st-level pollution", "2nd-level destructive",
        "BHT 512x4 hit rate", "GAg", "PAg", "PAp", "k-history bound",
    ]
    rows = []
    summary = {}
    from ..analysis.bounds import history_bound
    from ..sim.engine import simulate

    for case in cases:
        trace = case.test_trace
        first = first_level_interference(trace, history_bits)
        second = second_level_interference(trace, history_bits)
        pressure = bht_pressure(trace)
        gag = simulate(make_gag(history_bits), trace, backend=backend).accuracy
        pag = simulate(make_pag(history_bits), trace, backend=backend).accuracy
        pap = simulate(make_pap(history_bits), trace, backend=backend).accuracy
        bound = history_bound(trace, history_bits)
        rows.append(
            [case.name, first.pollution_rate, second.destructive_rate,
             pressure.hit_rate, gag, pag, pap, bound]
        )
        summary[case.name] = {
            "pollution": first.pollution_rate,
            "destructive": second.destructive_rate,
            "bound": bound,
        }
    rendered = render_table(
        headers, rows, percent_columns=[1, 2, 3, 4, 5, 6, 7],
        title=f"Extra: interference analysis (k={history_bits})",
    )
    return FigureResult(
        figure_id="extra-interference",
        description="First/second-level interference vs variation accuracy",
        extra={"rows": summary},
        rendered=rendered,
    )


def extra_taxonomy(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    history_bits: int = 8,
    n_workers: int = 1,
    result_cache=None,
    backend: str = "auto",
) -> FigureResult:
    """The widened taxonomy ladder at one history length, with costs.

    All rungs but the tournament are expressed as picklable registry
    specs (parallelizable, cacheable); the tournament's non-default
    chooser width keeps it a plain callable, which the runner simply
    executes in the parent process.
    """
    cases = _cases(cases, scale)
    k = history_bits
    builders = {
        f"GAg-{k}": spec(f"gag-{k}"),
        f"SAg-{k}x16": spec(f"sag-{k}x16"),
        f"SAs-{k}x16": spec(f"sas-{k}x16"),
        f"PAg-{k}": spec(f"pag-{k}"),
        f"PAp-{k}": spec(f"pap-{k}"),
        f"gshare-{k}": spec(f"gshare-{k}"),
        f"gselect-{k // 2}+{k - k // 2}": spec(f"gselect-{k // 2}+{k - k // 2}"),
        "tournament": lambda t: tournament_pag_gshare(k, k, 10),
    }
    matrix = run_matrix(
        builders, cases, n_workers=n_workers, result_cache=result_cache,
        backend=backend,
    )
    costs = {
        f"GAg-{k}": cost_gag(k),
        f"SAg-{k}x16": cost_sag(k, 16),
        f"SAs-{k}x16": cost_sas(k, 16),
        f"PAg-{k}": cost_pag(512, 4, k),
        f"PAp-{k}": cost_pap(512, 4, k),
    }
    cost_rows = [
        [scheme, matrix.gmean(scheme), costs.get(scheme)]
        for scheme in builders
    ]
    rendered = (
        render_accuracy_matrix(matrix, title=f"Extra: taxonomy ladder at k={k}")
        + "\n\n"
        + render_table(
            ["scheme", "Tot GMean", "cost (eqs. 4-6 style)"],
            cost_rows,
            percent_columns=[1],
            title="Taxonomy cost/accuracy",
        )
    )
    return FigureResult(
        figure_id="extra-taxonomy",
        description="GAg/SAg/SAs/PAg/PAp (+post-paper schemes) at equal history",
        matrix=matrix,
        extra={"costs": costs},
        rendered=rendered,
    )


def extra_sensitivity(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    history_bits: int = 12,
    backend: str = "auto",
) -> FigureResult:
    """Dataset-shift sensitivity of profiled vs adaptive schemes.

    The paper notes static training's accuracy "depends greatly on the
    similarities between the data sets used for training and testing".
    This experiment makes that claim quantitative: for each benchmark
    with both a training set and an alternate input, it trains the
    profiled schemes once (on the Table 2 training set) and tests them
    on (a) the Table 2 testing set and (b) the alternate input, next to
    the adaptive PAg which trains itself wherever it runs.
    """
    del cases  # this experiment generates its own dataset pairs
    from ..core.static_training import PSgPredictor
    from ..predictors.static import ProfileGuided
    from ..sim.engine import simulate
    from ..workloads.suite import all_workloads

    headers = [
        "benchmark", "test input",
        "PAg (adaptive)", "PSg (trained once)", "Profile (trained once)",
    ]
    rows = []
    summary = {}
    for name, workload in all_workloads().items():
        if not workload.has_training or not workload.alternate_datasets:
            continue
        training = workload.generate("training", scale=scale)
        targets = [("testing", workload.generate("testing", scale=scale))]
        targets += [
            (spec.name, workload.generate(spec.name, scale=scale))
            for spec in workload.alternate_datasets
        ]
        for label, trace in targets:
            pag = simulate(make_pag(history_bits), trace, backend=backend).accuracy
            psg = simulate(
                PSgPredictor.trained_on(training, history_bits, 512, 4), trace,
                backend=backend,
            ).accuracy
            profile = simulate(
                ProfileGuided.trained_on(training), trace, backend=backend
            ).accuracy
            rows.append([name, label, pag, psg, profile])
            summary.setdefault(name, {})[label] = {
                "pag": pag, "psg": psg, "profile": profile,
            }
    rendered = render_table(
        headers, rows, percent_columns=[2, 3, 4],
        title="Extra: dataset-shift sensitivity (profiled schemes trained on Table 2 inputs)",
    )
    return FigureResult(
        figure_id="extra-sensitivity",
        description="Profiled schemes under dataset shift vs adaptive PAg",
        extra={"rows": summary},
        rendered=rendered,
    )


def extra_ipc(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    width: int = 8,
    resolve_depth: int = 12,
    backend: str = "auto",
) -> FigureResult:
    """The paper's §1 motivation, quantified: predictor accuracy turned
    into first-order effective IPC on a wide, deep machine.

    Compares the paper's PAg against the best pre-paper dynamic scheme
    (BTB with 2-bit counters) per benchmark, reporting the IPC each
    would deliver and the speedup the two-level predictor buys.
    """
    cases = _cases(cases, scale)
    from ..predictors.btb import btb_a2
    from ..sim.engine import simulate
    from ..sim.ipc import MachineModel, ipc_from_result

    machine = MachineModel(width=width, resolve_depth=resolve_depth)
    headers = [
        "benchmark", "PAg-12 acc", "BTB-A2 acc",
        f"IPC PAg ({width}-wide)", "IPC BTB", "speedup",
    ]
    rows = []
    summary = {}
    for case in cases:
        trace = case.test_trace
        pag_result = simulate(make_pag(12), trace, backend=backend)
        btb_result = simulate(btb_a2(), trace, backend=backend)
        pag_ipc = ipc_from_result(pag_result, machine).effective_ipc
        btb_ipc = ipc_from_result(btb_result, machine).effective_ipc
        rows.append(
            [case.name, pag_result.accuracy, btb_result.accuracy,
             round(pag_ipc, 3), round(btb_ipc, 3), round(pag_ipc / btb_ipc, 3)]
        )
        summary[case.name] = {"pag_ipc": pag_ipc, "btb_ipc": btb_ipc}
    rendered = render_table(
        headers, rows, percent_columns=[1, 2],
        title=f"Extra: first-order IPC impact ({width}-wide, resolve depth {resolve_depth})",
    )
    return FigureResult(
        figure_id="extra-ipc",
        description="Prediction accuracy converted to effective IPC (paper §1)",
        extra={"rows": summary, "machine": machine},
        rendered=rendered,
    )


def extra_characterize(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    scale: int = 1,
    max_k: Optional[int] = None,
    schemes: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Predictability characterization swept across the whole suite.

    Runs :func:`repro.analysis.predictability.characterize` on every
    benchmark and condenses each report to one row: outcome entropy,
    residual entropy under K bits of global/local history, the
    ideal-accuracy bound, the H2P dynamic share, the dominant
    predictability cluster, and the best-attributed paper scheme. The
    full serialised reports travel in ``extra["reports"]`` so callers
    (and the ledger) keep the whole attribution view.
    """
    from ..analysis.predictability import DEFAULT_MAX_K, characterize

    cases = _cases(cases, scale)
    k = max_k if max_k is not None else DEFAULT_MAX_K
    headers = [
        "benchmark", "sites", "H0", f"H|glo{k}", f"H|loc{k}", "ideal",
        "H2P share", "dominant cluster", "best scheme", "best acc",
    ]
    rows = []
    reports = {}
    for case in cases:
        report = characterize(
            case.test_trace,
            max_k=k,
            schemes=schemes,
            training_trace=case.training_trace,
            top=5,
        )
        global_tail = report.global_curve[-1]
        local_tail = report.local_curve[-1]
        ideal = max(global_tail.ideal_accuracy, local_tail.ideal_accuracy)
        dominant = max(report.clusters, key=lambda c: c.dynamic_share)
        best = max(report.schemes, key=lambda s: s["accuracy"])
        rows.append(
            [
                case.name,
                report.static_sites,
                round(report.outcome_entropy_bits, 4),
                round(global_tail.entropy_bits, 4),
                round(local_tail.entropy_bits, 4),
                ideal,
                report.h2p_dynamic_share,
                dominant.name,
                best["scheme"],
                best["accuracy"],
            ]
        )
        reports[case.name] = report.to_dict()
    rendered = render_table(
        headers, rows, percent_columns=[5, 6, 9],
        title=f"Extra: predictability characterization (K={k})",
    )
    return FigureResult(
        figure_id="extra-characterize",
        description="Entropy / H2P / cluster-winner characterization per benchmark",
        extra={"reports": reports, "max_k": k},
        rendered=rendered,
    )


ALL_EXTRAS = {
    "extra-speculative": extra_speculative,
    "extra-fetch": extra_fetch,
    "extra-interference": extra_interference,
    "extra-taxonomy": extra_taxonomy,
    "extra-sensitivity": extra_sensitivity,
    "extra-ipc": extra_ipc,
    "extra-characterize": extra_characterize,
}
