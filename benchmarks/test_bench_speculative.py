"""Ablation bench for §3.1: stale vs speculative branch history.

The paper argues predictions should update the first level
speculatively because waiting for resolution leaves the history stale.
This bench quantifies that on a real benchmark: GAg with resolution
latency 8 loses several points with stale history and recovers almost
everything with speculative update + repair.
"""

from conftest import run_once

from repro.sim.pipeline import RecoveryPolicy, simulate_delayed

LATENCY = 8
HISTORY_BITS = 12


def test_bench_speculative_history(benchmark, suite_cases):
    eqntott = next(c for c in suite_cases if c.name == "eqntott")
    trace = eqntott.test_trace

    def run():
        immediate = simulate_delayed(trace, HISTORY_BITS, 0).accuracy
        stale = simulate_delayed(trace, HISTORY_BITS, LATENCY).accuracy
        speculative = simulate_delayed(
            trace, HISTORY_BITS, LATENCY, RecoveryPolicy.REPAIR
        ).accuracy
        reinit = simulate_delayed(
            trace, HISTORY_BITS, LATENCY, RecoveryPolicy.REINITIALISE
        ).accuracy
        return immediate, stale, speculative, reinit

    immediate, stale, speculative, reinit = run_once(benchmark, run)
    benchmark.extra_info.update(
        immediate=round(immediate, 4),
        stale=round(stale, 4),
        speculative_repair=round(speculative, 4),
        speculative_reinit=round(reinit, 4),
    )
    # Stale history costs real accuracy at depth-8 resolution...
    assert immediate - stale > 0.02
    # ...speculative update recovers most of the loss...
    assert speculative > stale
    assert (immediate - speculative) < 0.5 * (immediate - stale)
    # ...and full repair is at least as good as cheap reinitialisation.
    assert speculative >= reinit - 0.002
